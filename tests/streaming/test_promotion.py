"""Shadow/canary promotion of drift-triggered refits on a live stream.

End-to-end contract (fixed seeds throughout): drift fires, the refit is
staged as a candidate and scored on live observations next to the incumbent,
and it is promoted only when its rolling MAE/coverage beat the incumbent's —
a deliberately degraded candidate is rejected and rolled back off the
server.  Concurrent client traffic sees zero dropped requests and no shadow
leakage at any point.
"""

import threading

import numpy as np
import pytest

from repro.core.inference import PredictionResult
from repro.fleet import FleetRefitPolicy
from repro.serving import InferenceServer
from repro.streaming import (
    CandidateTrial,
    CoverageBreachDetector,
    PersistenceForecaster,
    PromotionPolicy,
    ResolvedStep,
    StreamingForecaster,
)

NODES = 4
HISTORY = 3
HORIZON = 2


class OffsetForecaster:
    """Persistence plus a constant bias — offset 0 matches the incumbent,
    a large offset is a deliberately degraded refit."""

    def __init__(self, offset):
        self.offset = float(offset)
        self.inner = PersistenceForecaster(horizon=HORIZON, sigma=1.0)

    def predict(self, windows):
        result = self.inner.predict(windows)
        return PredictionResult(
            mean=result.mean + self.offset,
            aleatoric_var=result.aleatoric_var,
            epistemic_var=result.epistemic_var,
        )


def _regime_shift_stream(seed=42, quiet=60, loud=240):
    rng = np.random.default_rng(seed)
    calm = 50.0 + rng.normal(size=(quiet, NODES))
    shifted = 120.0 + rng.normal(size=(loud, NODES)) * 3.0
    return np.concatenate([calm, shifted], axis=0)


def _runner(server, candidate, mode, eval_steps=30):
    incumbent = PersistenceForecaster(horizon=HORIZON, sigma=1.0)
    return StreamingForecaster(
        incumbent,
        history=HISTORY,
        horizon=HORIZON,
        server=server,
        refit_fn=lambda recent: candidate,
        cooldown=10_000,
        background_refit=False,
        detectors=[
            CoverageBreachDetector(
                nominal=0.95, tolerance=0.05, window=20, patience=5, warmup=10
            )
        ],
        aci={"mode": "static", "window": 60, "min_scores": 10},
        promotion=PromotionPolicy(mode=mode, eval_steps=eval_steps),
    )


def _drive(runner, server, stream):
    """Run the stream while clients hammer the server; returns client futures."""
    futures = []
    stop = threading.Event()

    def client():
        rng = np.random.default_rng(1)
        while not stop.is_set():
            window = rng.uniform(0.0, 100.0, size=(HISTORY, NODES))
            futures.append(server.submit(window))

    with server:
        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        for row in stream:
            runner.observe(row)
        runner.join_refit()
        stop.set()
        thread.join(timeout=10.0)
        results = [future.result(timeout=30.0) for future in futures]
    return futures, results


class TestShadowPromotionEndToEnd:
    @pytest.mark.parametrize("mode", ["shadow", "canary"])
    def test_good_candidate_is_auto_promoted(self, mode):
        candidate = OffsetForecaster(0.0)
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0, cache_size=64)
        server.deploy("incumbent", PersistenceForecaster(horizon=HORIZON, sigma=1.0))
        runner = _runner(server, candidate, mode)

        futures, results = _drive(runner, server, _regime_shift_stream())

        # Zero dropped requests: every submitted future resolved.
        assert len(results) == len(futures) > 0
        assert all(isinstance(result, PredictionResult) for result in results)
        assert server.stats["requests_served"] == len(futures)

        kinds = [event.kind for event in runner.event_log]
        assert "candidate_staged" in kinds
        assert "candidate_promoted" in kinds
        assert "candidate_rejected" not in kinds
        # The candidate now serves the default route and the runner's loop.
        assert server.pool.default_name == "stream-cand1"
        assert server.model_version == "stream-recal1"
        assert runner.forecaster is candidate
        assert server.stats["promotions"] == 1
        # The trial is over: the caller's router was restored.
        assert type(server.router).__name__ == "Router"

    @pytest.mark.parametrize("mode", ["shadow", "canary"])
    def test_degraded_candidate_is_rejected_and_rolled_back(self, mode):
        candidate = OffsetForecaster(40.0)  # grossly biased refit
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0, cache_size=64)
        server.deploy("incumbent", PersistenceForecaster(horizon=HORIZON, sigma=1.0))
        runner = _runner(server, candidate, mode)
        incumbent = runner.forecaster

        futures, results = _drive(runner, server, _regime_shift_stream())

        # Zero dropped requests, even across staging and rollback.
        assert len(results) == len(futures) > 0
        assert server.stats["requests_served"] == len(futures)

        kinds = [event.kind for event in runner.event_log]
        assert "candidate_staged" in kinds
        assert "candidate_rejected" in kinds
        assert "candidate_promoted" not in kinds
        assert "model_swapped" not in kinds
        # Rolled back: the candidate is gone and the incumbent still serves.
        assert server.pool.default_name == "incumbent"
        assert "stream-cand1" not in server.pool
        assert runner.forecaster is incumbent
        assert server.stats["promotions"] == 0
        # The rejection is auditable: the decision records both MAEs.
        rejection = runner.event_log.of_kind("candidate_rejected")[0]
        assert rejection.value > rejection.threshold  # candidate MAE worse

    def test_shadow_trial_never_leaks_into_responses(self):
        """While the trial runs, external clients only ever see the incumbent."""
        candidate = OffsetForecaster(40.0)
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0, cache_size=0)
        incumbent_model = PersistenceForecaster(horizon=HORIZON, sigma=1.0)
        server.deploy("incumbent", incumbent_model)
        runner = _runner(server, candidate, "shadow", eval_steps=200)
        stream = _regime_shift_stream(quiet=60, loud=120)

        with server:
            for row in stream:
                runner.observe(row)
            assert runner.trial is not None  # trial still in flight
            # The candidate sees mirrored traffic...
            window = np.full((HISTORY, NODES), 55.0)
            result = server.submit(window).result(timeout=30.0)
            # ...but the response is the incumbent's (no +40 bias).
            direct = incumbent_model.predict(window[None])
            np.testing.assert_allclose(result.mean, direct.mean)
        shadow_stats = server.deployment_stats("stream-cand1")
        assert shadow_stats["shadow_windows"] > 0
        assert shadow_stats["requests_served"] == 0

    def test_trial_longer_than_metric_window_still_reaches_a_verdict(self):
        """Regression: scored_steps once read the monitors' ring counts, which
        cap at metric_window — eval_steps > metric_window stalled forever."""
        candidate = OffsetForecaster(0.0)
        runner = _runner(None, candidate, "shadow", eval_steps=60)
        runner.promotion_policy.metric_window = 20  # much shorter than eval
        for row in _regime_shift_stream(quiet=60, loud=240):
            runner.observe(row)
        kinds = [event.kind for event in runner.event_log]
        assert "candidate_promoted" in kinds or "candidate_rejected" in kinds
        assert runner.trial is None

    def test_repeated_promotions_keep_one_displaced_generation(self):
        """The pool retains current + one rollback target, not every past model."""
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0, cache_size=0)
        server.deploy("incumbent", PersistenceForecaster(horizon=HORIZON, sigma=1.0))
        runner = _runner(server, OffsetForecaster(0.0), "shadow")
        runner.cooldown = 30  # allow several drift -> trial cycles
        stream = np.concatenate(
            [_regime_shift_stream(seed=s, quiet=30, loud=150) for s in (1, 2, 3)]
        )
        with server:
            def refit(recent):
                return OffsetForecaster(0.0)

            runner.refit_fn = refit
            for row in stream:
                runner.observe(row)
            runner.join_refit()
        promotions = len(runner.event_log.of_kind("candidate_promoted"))
        assert promotions >= 2
        # Bounded pool: current default + one displaced generation (+ at most
        # one candidate whose trial the stream ended mid-flight) — past
        # incumbents do not accumulate, however many promotions happened.
        assert len(server.pool) <= 3
        assert "incumbent" not in server.pool
        assert server.pool.default_name.startswith("stream-cand")

    def test_canary_serves_its_share_of_runner_forecasts(self):
        candidate = OffsetForecaster(0.0)
        runner = _runner(None, candidate, "canary", eval_steps=10_000)
        runner.promotion_policy.canary_fraction = 0.25
        served = []
        for row in _regime_shift_stream(quiet=60, loud=160):
            served.append(runner.observe(row).served_by)
        assert runner.trial is not None
        assert served.count("candidate") > 0
        # Deficit admission keeps the realized share at the configured 25%.
        start = next(i for i, s in enumerate(served) if s == "candidate")
        window = served[start - 1 :]
        assert abs(window.count("candidate") / len(window) - 0.25) < 0.05


# --------------------------------------------------------------------- #
# The stream-keyed trial itself (shared by single streams and fleets)
# --------------------------------------------------------------------- #
def _trial(streams, policy=None, start=0):
    return CandidateTrial(
        "cand",
        "recal1",
        policy if policy is not None else PromotionPolicy(mode="shadow", eval_steps=5),
        nominal=0.95,
        horizon=HORIZON,
        start_steps={stream: start for stream in streams},
    )


def _forecast(value):
    """A flat ``(horizon, nodes)`` forecast with a +/-1 interval."""
    mean = np.full((HORIZON, NODES), float(value))
    return mean, mean - 1.0, mean + 1.0


def _incumbent_resolution(made_at, target, value):
    """What a stream core resolves at ``made_at + 1`` from one forecast."""
    mean = np.full((1, NODES), float(value))
    return ResolvedStep(
        observed=np.full(NODES, float(target)),
        filled=np.full(NODES, float(target)),
        valid=np.ones(NODES, dtype=bool),
        covered=None,
        abs_error=None,
        target=np.full((1, NODES), float(target)),
        mean=mean,
        lower=mean - 1.0,
        upper=mean + 1.0,
        steps=np.array([made_at]),
    )


def _score_tick(trial, streams, step, target=50.0, candidate=50.0, incumbent=50.0):
    """One tick per stream: resolve ``step`` on both sides, then forecast."""
    observation = np.full(NODES, float(target))
    valid = np.ones(NODES, dtype=bool)
    for stream in streams:
        trial.observe_incumbent(
            stream, _incumbent_resolution(step - 1, target, incumbent)
        )
        trial.resolve(stream, step, observation, valid)
        trial.record(stream, step, *_forecast(candidate))


class TestCandidateTrial:
    def test_forecast_recorded_before_start_is_never_scored(self):
        """A refit staged in the background can record a forecast made before
        the trial's start step; the candidate must not be scored on it."""
        trial = _trial(["a"], start=5)
        trial.record("a", 3, *_forecast(1_000.0))  # pre-start, grossly wrong
        trial.resolve("a", 4, np.full(NODES, 50.0), np.ones(NODES, dtype=bool))
        assert trial.candidate_monitor.steps == 0
        trial.record("a", 5, *_forecast(52.0))
        trial.resolve("a", 6, np.full(NODES, 50.0), np.ones(NODES, dtype=bool))
        assert trial.candidate_monitor.steps == 1
        # Only the post-start forecast (error 2) is in the rolling MAE.
        assert trial.candidate_monitor.snapshot()["mae"] == pytest.approx(2.0)

    def test_incumbent_resolutions_before_start_are_not_scored(self):
        trial = _trial(["a"], start=5)
        trial.observe_incumbent("a", _incumbent_resolution(4, 50.0, 50.0))
        assert trial.incumbent_monitor.steps == 0
        trial.observe_incumbent("a", _incumbent_resolution(5, 50.0, 50.0))
        assert trial.incumbent_monitor.steps == 1

    def test_scored_steps_sum_stream_steps_across_streams(self):
        streams = ["a", "b", "c"]
        trial = _trial(streams, policy=FleetRefitPolicy(eval_steps=1_000))
        _score_tick(trial, streams, step=0)  # nothing pending yet
        assert trial.scored_steps == 0
        for step in range(1, 5):
            _score_tick(trial, streams, step)
            assert trial.scored_steps == 3 * step
        assert trial.streams == streams
        assert repr(trial) == "CandidateTrial('cand', streams=3, scored=12/1000)"

    def test_streams_outside_the_trial_are_ignored(self):
        trial = _trial(["a"])
        trial.record("z", 0, *_forecast(50.0))
        trial.resolve("z", 1, np.full(NODES, 50.0), np.ones(NODES, dtype=bool))
        trial.observe_incumbent("z", _incumbent_resolution(0, 50.0, 50.0))
        assert trial.candidate_monitor.steps == 0
        assert trial.incumbent_monitor.steps == 0
        assert trial.scored_steps == 0
        assert trial.streams == ["a"]

    @pytest.mark.parametrize(
        "policy",
        [
            PromotionPolicy(mode="shadow", eval_steps=30, metric_window=5),
            FleetRefitPolicy(eval_steps=30, metric_window=5),
        ],
    )
    def test_eval_steps_beyond_metric_window_reach_a_verdict(self, policy):
        """The multi-stream counterpart of the single-stream regression: the
        scored count must not be capped by the monitors' ring length."""
        streams = ["a", "b"]
        trial = _trial(streams, policy=policy)
        _score_tick(trial, streams, step=0)
        for step in range(1, 15):
            _score_tick(trial, streams, step, candidate=50.5, incumbent=51.0)
            assert trial.verdict() is None
        _score_tick(trial, streams, 15, candidate=50.5, incumbent=51.0)
        decision = trial.verdict()
        assert decision is not None
        assert decision["scored_steps"] == 30
        assert decision["promote"] is True
        assert decision["candidate_mae"] == pytest.approx(0.5)
        assert decision["incumbent_mae"] == pytest.approx(1.0)
