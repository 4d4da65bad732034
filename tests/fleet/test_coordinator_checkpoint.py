"""Regression: partial quorum evidence must survive a checkpoint round trip.

Found by the ``checkpoint/missing-attr`` analyzer rule: the coordinator's
``_drifted`` map (region -> stream -> drift step) was assigned in
``__init__`` but absent from ``get_state``, so a fleet killed one drift
short of quorum forgot every drift already noted and the coordinated
refit never fired after the restore — the fleet-level analogue of the
PR-6 detector-state bug.
"""

import numpy as np

from repro.fleet.coordinator import FleetRefitPolicy, RefitCoordinator


def _coordinator(**policy_kwargs):
    policy = FleetRefitPolicy(
        quorum=3, window=50, cooldown=10, background=False, mode="immediate",
        **policy_kwargs,
    )
    return RefitCoordinator(refit_fn=lambda region, recents: "model", policy=policy)


class TestDriftedSurvivesRoundTrip:
    def test_partial_quorum_is_in_the_state_dict(self):
        coordinator = _coordinator()
        coordinator.note_drift("north", "s1", step=10)
        coordinator.note_drift("north", "s2", step=12)
        state = coordinator.get_state()
        assert state["drifted"] == {"north": {"s1": 10, "s2": 12}}

    def test_restored_coordinator_remembers_drifted_streams(self):
        coordinator = _coordinator()
        coordinator.note_drift("north", "s1", step=10)
        coordinator.note_drift("north", "s2", step=12)

        restored = _coordinator()
        restored.set_state(coordinator.get_state())
        assert sorted(restored.drifted_streams("north", step=20)) == ["s1", "s2"]

    def test_quorum_completes_after_a_restore(self):
        """The kill lands one drift short of quorum; the third drift after
        the restore must trigger the coordinated refit."""
        coordinator = _coordinator()
        coordinator.note_drift("north", "s1", step=10)
        coordinator.note_drift("north", "s2", step=12)
        assert coordinator.maybe_trigger(14, lambda region: {}) == []

        restored = _coordinator()
        restored.set_state(coordinator.get_state())
        restored.note_drift("north", "s3", step=15)
        assert restored.maybe_trigger(16, lambda region: {}) == ["north"]

    def test_without_drifted_state_the_refit_was_lost(self):
        """Documents the pre-fix failure mode: dropping ``drifted`` from the
        snapshot (an old-format checkpoint) loses the partial quorum, and
        only streams drifting *after* the restore count."""
        coordinator = _coordinator()
        coordinator.note_drift("north", "s1", step=10)
        coordinator.note_drift("north", "s2", step=12)
        old_format = {
            key: value
            for key, value in coordinator.get_state().items()
            if key != "drifted"
        }

        restored = _coordinator()
        restored.set_state(old_format)
        restored.note_drift("north", "s3", step=15)
        assert restored.maybe_trigger(16, lambda region: {}) == []

    def test_counters_and_cooldown_still_round_trip(self):
        coordinator = _coordinator()
        coordinator.note_drift("north", "s1", step=1)
        coordinator.note_drift("north", "s2", step=2)
        coordinator.note_drift("north", "s3", step=3)
        assert coordinator.maybe_trigger(4, lambda region: {}) == ["north"]

        restored = _coordinator()
        restored.set_state(coordinator.get_state())
        # Cooldown carries over: re-noting drifts right away cannot re-trigger.
        for stream in ("s1", "s2", "s3"):
            restored.note_drift("north", stream, step=6)
        assert restored.maybe_trigger(7, lambda region: {}) == []
        state = restored.get_state()
        assert state["triggers"] == 1
        assert state["last_trigger"] == {"north": 4}


class TestOpenTrialIsDroppedOnRestore:
    """An open trial is runtime-only: no fleet checkpoint saves it, so a
    fleet restored mid-trial starts with none, every region keeps routing to
    its incumbent, and the fleet keeps ticking."""

    def test_fleet_saved_mid_trial_restores_without_the_trial(self, tmp_path):
        from repro.core.inference import PredictionResult
        from repro.data import StreamingTrafficFeed
        from repro.data.synthetic import SyntheticTrafficConfig
        from repro.fleet import StreamFleet
        from repro.graph import grid_network
        from repro.serving import InferenceServer
        from repro.streaming import ErrorCusumDetector

        class FixedSigma:
            def __init__(self, sigma):
                self.sigma = float(sigma)

            def predict(self, windows):
                mean = np.repeat(windows[:, -1:, :], 2, axis=1)
                return PredictionResult(
                    mean=mean,
                    aleatoric_var=np.full_like(mean, self.sigma ** 2),
                    epistemic_var=np.zeros_like(mean),
                )

        flat = SyntheticTrafficConfig(peak_amplitude=0.0, weekend_attenuation=1.0)
        network = grid_network(2, 2)
        rows = {
            f"c{i}": list(
                StreamingTrafficFeed.scenario(
                    network, "regime_shift", num_steps=160, seed=i,
                    start=80, noise_scale=3.0, config=flat,
                )
            )
            for i in range(4)
        }
        kwargs = dict(
            aci={"window": 400, "gamma": 0.01},
            detector_factory=lambda: [
                ErrorCusumDetector(slack=1.0, threshold=20.0, warmup=60)
            ],
            refit_fn=lambda region, recents: FixedSigma(60.0),
            refit_policy=FleetRefitPolicy(
                quorum=2, window=40, cooldown=200, eval_steps=10_000,
                background=False,
            ),
        )

        def server():
            model = FixedSigma(20.0)
            return InferenceServer(model.predict, model_version="base", max_batch_size=16)

        with server() as live:
            fleet = StreamFleet(live, 6, 2, **kwargs)
            for name in rows:
                fleet.add_stream(name, region="north")
            tick = 0
            while not fleet.coordinator.trials:
                fleet.tick({name: feed[tick] for name, feed in rows.items()})
                tick += 1
            for _ in range(5):  # let the candidate accumulate pending forecasts
                fleet.tick({name: feed[tick] for name, feed in rows.items()})
                tick += 1
            trial = fleet.coordinator.trials["north"]
            assert trial.scored_steps > 0
            fleet.save(tmp_path / "ckpt")

        with server() as fresh:
            restored = StreamFleet.load(tmp_path / "ckpt", fresh, **kwargs)
            assert restored.coordinator.trials == {}
            assert restored._region_deployment == {}
            window = np.zeros((6, 4))
            for stream in restored.region_streams("north"):
                # No route override: the region's keys fall through to the
                # pool default, the incumbent.
                assert restored.router.route(window, key=stream.key).primary is None
            assert len(fresh.pool) == 1 and fresh.model_version == "base"
            for _ in range(5):
                result = restored.tick({name: feed[tick] for name, feed in rows.items()})
                tick += 1
            assert all(result[name].prediction is not None for name in rows)
            assert restored.coordinator.trials == {}
