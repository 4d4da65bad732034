"""The online forecasting loop: predict → observe → update → (re)calibrate.

:class:`StreamingForecaster` turns a fitted batch forecaster into a live
system — it is a one-stream fleet: the per-stream state machine (pending
ledger, adaptive conformal calibration, rolling monitors, drift detectors)
lives in a :class:`~repro.streaming.shard.StreamCore`, and this runner wires
exactly one core to one model plus the refit/promotion machinery.  The
multi-stream analogue, :class:`~repro.fleet.StreamFleet`, owns many cores
and funnels their per-tick predicts through one shared batched server.

Each call to :meth:`observe` ingests one observation row (NaN entries mark
dropped-out sensors) and

1. **resolves** every pending forecast the new observation completes — the
   prediction made ``h+1`` steps ago forecast this step at horizon index
   ``h`` — feeding the rolling :class:`~repro.streaming.monitor.StreamingMonitor`
   and the per-horizon
   :class:`~repro.streaming.aci.AdaptiveConformalCalibrator`;
2. **detects drift** by routing the step's coverage / error signals through
   the configured detectors;
3. on drift, **recalibrates**: the nonconformity buffers are rebuilt from
   post-drift data and, when a ``refit_fn`` is configured, a replacement
   model is fitted (in a background thread by default);
4. **publishes** the refit according to the configured
   :class:`~repro.streaming.promotion.PromotionPolicy` — immediately (the
   legacy ``swap_model`` path), or after a shadow/canary trial in which the
   candidate is scored on live observations against the incumbent and
   promoted only when its rolling MAE/coverage win; either way zero
   in-flight requests are dropped.  The scoring and verdict live in a
   one-stream :class:`~repro.streaming.promotion.CandidateTrial` — the
   same class the fleet opens per region — while the runner keeps what
   only a single stream needs: the candidate model, the router a deployed
   trial replaced, and the canary admission counter;
5. **forecasts** the next ``horizon`` steps from the updated history window
   and emits width-adapted conformal intervals.

The runner is deliberately model-agnostic: anything with a batch ``predict``
returning a :class:`~repro.core.inference.PredictionResult` works — a
:class:`~repro.api.Forecaster`, a raw UQ method, or the persistence baseline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.inference import PredictionResult
from repro.streaming.aci import AdaptiveConformalCalibrator
from repro.streaming.drift import DriftEvent, EventLog
from repro.streaming.monitor import StreamingMonitor
from repro.streaming.promotion import CandidateTrial, PromotionPolicy
from repro.streaming.shard import StreamCore


@dataclass
class StepResult:
    """Everything one :meth:`StreamingForecaster.observe` call produced."""

    step: int
    observed: np.ndarray                     # the ingested (gap-filled) row
    mask: np.ndarray                         # which sensors were actually observed
    prediction: Optional[PredictionResult]   # calibrated forecast, (1, H, N); None during warm-up
    lower: Optional[np.ndarray]              # conformal bounds of that forecast, (H, N)
    upper: Optional[np.ndarray]
    coverage: float                          # rolling coverage (percent; NaN early on)
    events: List[DriftEvent] = field(default_factory=list)
    served_by: str = "incumbent"             # "incumbent" | "candidate" (canary trials)


class StreamingForecaster:
    """Online wrapper driving a batch forecaster over a live observation feed.

    Parameters
    ----------
    forecaster:
        Object with ``predict(windows) -> PredictionResult``; its training
        config (when present) supplies ``history`` / ``horizon`` defaults.
    history, horizon:
        Window geometry; required only when ``forecaster`` does not carry a
        config exposing them.
    calibrator:
        An :class:`AdaptiveConformalCalibrator`; built from ``aci`` keyword
        defaults when omitted.
    aci:
        Keyword overrides for the default calibrator's :class:`ACIConfig`
        (ignored when ``calibrator`` is given).
    monitor:
        A :class:`StreamingMonitor`; a default rolling-day monitor is built
        when omitted.
    detectors:
        Drift detectors consuming the per-step ``coverage`` / ``abs_error``
        signals; defaults to a coverage-breach plus an error-CUSUM detector.
    server:
        Optional :class:`~repro.serving.InferenceServer` that external
        clients query; drift-triggered refits are published to it through
        ``swap_model`` (queued requests are never dropped).
    refit_fn:
        ``refit_fn(recent) -> model`` producing a replacement predictor from
        the ``(steps, nodes)`` array of recent observations.  Without it,
        recalibration still rebuilds the conformal state online.
    refit_window:
        How many recent observations are retained for ``refit_fn``.
    cooldown:
        Minimum number of steps between recalibration triggers.
    background_refit:
        Run ``refit_fn`` on a daemon thread (default) or synchronously.
    version_prefix:
        Prefix of the versions published to ``server`` on swap.
    promotion:
        How refits are published: ``"immediate"`` (default, the legacy
        instant swap), ``"shadow"`` or ``"canary"`` — or a full
        :class:`~repro.streaming.promotion.PromotionPolicy`.  Non-immediate
        modes stage the refit as a candidate, score it on live observations
        against the incumbent, and promote only when its rolling
        MAE/coverage beat the incumbent's; a losing candidate is rejected
        and, if it was deployed to the server, rolled back.
    """

    def __init__(
        self,
        forecaster: Any,
        history: Optional[int] = None,
        horizon: Optional[int] = None,
        calibrator: Optional[AdaptiveConformalCalibrator] = None,
        aci: Optional[Dict[str, Any]] = None,
        monitor: Optional[StreamingMonitor] = None,
        detectors: Optional[Sequence[Any]] = None,
        server: Optional[Any] = None,
        refit_fn: Optional[Callable[[Optional[np.ndarray]], Any]] = None,
        refit_window: int = 288,
        cooldown: int = 100,
        background_refit: bool = True,
        version_prefix: str = "stream",
        promotion: Union[str, PromotionPolicy] = "immediate",
    ) -> None:
        self.forecaster = forecaster
        history, horizon = self._resolve_geometry(forecaster, history, horizon)
        if calibrator is not None and calibrator.horizon != horizon:
            raise ValueError(
                f"calibrator horizon {calibrator.horizon} does not match "
                f"runner horizon {horizon}"
            )
        self.core = StreamCore(
            history,
            horizon,
            calibrator=calibrator,
            aci=aci,
            monitor=monitor,
            detectors=detectors,
            refit_window=refit_window,
        )
        self.server = server
        self.refit_fn = refit_fn
        self.cooldown = int(cooldown)
        self.background_refit = bool(background_refit)
        self.version_prefix = str(version_prefix)
        self.promotion_policy = (
            promotion
            if isinstance(promotion, PromotionPolicy)
            else PromotionPolicy(mode=str(promotion))
        )

        self._predict: Callable[[np.ndarray], PredictionResult] = forecaster.predict
        self._lock = threading.Lock()
        self._last_trigger: Optional[int] = None
        self._refit_thread: Optional[threading.Thread] = None
        self._refit_count = 0
        self._trial: Optional[CandidateTrial] = None
        # What only a single stream needs of its open trial: the candidate
        # and its predict function, the router its server deployment
        # replaced (None when it was not deployed; a server's router never
        # is), and the canary deficit counter (forecasts emitted / served).
        self._candidate: Any = None
        self._candidate_predict: Optional[Callable[[np.ndarray], PredictionResult]] = None
        self._replaced_router: Any = None
        self._canary_total = 0
        self._canary_served = 0
        self._displaced: Optional[str] = None  # incumbent kept for manual rollback

    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_geometry(
        forecaster: Any, history: Optional[int], horizon: Optional[int]
    ) -> Tuple[int, int]:
        """History/horizon from explicit args, else the forecaster's config."""
        config = getattr(forecaster, "config", None)
        if config is None:
            config = getattr(getattr(forecaster, "method", None), "config", None)
        if history is None:
            history = getattr(config, "history", None)
        if horizon is None:
            horizon = getattr(config, "horizon", None) or getattr(forecaster, "horizon", None)
        if history is None or horizon is None:
            raise ValueError(
                "cannot infer history/horizon from the forecaster; pass history= and horizon="
            )
        if history < 1 or horizon < 1:
            raise ValueError("history and horizon must be >= 1")
        return int(history), int(horizon)

    # Per-stream state lives on the core; these keep the runner's historical
    # surface (tests, examples and downstream code read runner.monitor etc.).
    @property
    def history(self) -> int:
        return self.core.history

    @property
    def horizon(self) -> int:
        return self.core.horizon

    @property
    def calibrator(self) -> AdaptiveConformalCalibrator:
        return self.core.calibrator

    @property
    def monitor(self) -> StreamingMonitor:
        return self.core.monitor

    @monitor.setter
    def monitor(self, monitor: StreamingMonitor) -> None:
        self.core.monitor = monitor

    @property
    def detectors(self) -> List[Any]:
        return self.core.detectors

    @property
    def event_log(self) -> EventLog:
        return self.core.event_log

    @event_log.setter
    def event_log(self, log: EventLog) -> None:
        self.core.event_log = log

    @property
    def refit_window(self) -> int:
        return self.core.refit_window

    @property
    def step(self) -> int:
        """Number of observations ingested so far."""
        return self.core.step

    @property
    def warmed_up(self) -> bool:
        return self.core.warmed_up

    @property
    def trial(self) -> Optional[CandidateTrial]:
        """The live candidate trial while a shadow/canary evaluation runs."""
        with self._lock:
            return self._trial

    # ------------------------------------------------------------------ #
    # The online loop
    # ------------------------------------------------------------------ #
    def observe(
        self, observation: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> StepResult:
        """Ingest one observation row and emit the next calibrated forecast."""
        core = self.core
        obs, valid = core.normalize(observation, mask)
        s = core.step
        events: List[DriftEvent] = []
        with self._lock:
            trial = self._trial
            candidate_predict = self._candidate_predict

        # 1. Resolve pending forecasts this observation completes — the
        #    incumbent's always, and a trialed candidate's alongside.
        resolved = core.resolve(s, obs, valid)
        if trial is not None:
            # Same resolved rows, restricted to post-trial forecasts, so the
            # incumbent-vs-candidate comparison covers identical windows.
            trial.observe_incumbent(self._TRIAL_STREAM, resolved)
            trial.resolve(self._TRIAL_STREAM, s, obs, valid)
            decision = trial.verdict()
            if decision is not None:
                events.extend(self._finish_trial(trial, decision, s))
                trial = None

        # 2. Route the step's signals through the drift detectors.
        events.extend(core.detect(s, resolved.covered, resolved.abs_error))

        # 3. Drift-triggered recalibration (rate-limited by the cooldown,
        #    and never overlapping an in-flight refit or a running trial).
        if events and self._can_trigger(s):
            self._trigger_recalibration(events[0], s)

        # 4. Ingest the observation (carry-forward imputation for gaps).
        filled = core.append(obs, valid)

        # 5. Forecast the next horizon from the updated window.
        prediction = lower = upper = None
        served_by = "incumbent"
        window = core.window()
        if window is not None:
            with self._lock:
                predict = self._predict
            raw = predict(window)
            prediction, lower, upper = core.record(raw)
            # During a trial the candidate forecasts the same window; in
            # canary mode it also serves its share of the emitted forecasts.
            if trial is not None:
                candidate_raw = candidate_predict(window)
                candidate_calibrated, cand_lower_b, cand_upper_b = core.calibrate(
                    candidate_raw
                )
                trial.record(
                    self._TRIAL_STREAM,
                    s,
                    candidate_raw.mean[0],
                    cand_lower_b[0],
                    cand_upper_b[0],
                )
                if self._serve_candidate_now(trial):
                    prediction = candidate_calibrated
                    lower, upper = cand_lower_b[0], cand_upper_b[0]
                    served_by = "candidate"

        core.advance()
        return StepResult(
            step=s,
            observed=filled,
            mask=valid,
            prediction=prediction,
            lower=lower,
            upper=upper,
            coverage=self.monitor.coverage,
            events=events,
            served_by=served_by,
        )

    def run(
        self, feed: Iterable[np.ndarray], max_steps: Optional[int] = None
    ) -> List[StepResult]:
        """Drive :meth:`observe` over a feed; returns the per-step results."""
        results: List[StepResult] = []
        for index, observation in enumerate(feed):
            if max_steps is not None and index >= max_steps:
                break
            results.append(self.observe(observation))
        return results

    # ------------------------------------------------------------------ #
    def _can_trigger(self, s: int) -> bool:
        """Cooldown elapsed, no refit in flight, and no trial still running.

        The in-flight guard matters beyond thread count: were a second refit
        allowed to start, the *older-data* one could finish last and publish
        a stale model over the fresher one — and a second candidate would
        corrupt the running trial's like-for-like comparison.
        """
        if self._refit_thread is not None and self._refit_thread.is_alive():
            return False
        with self._lock:
            if self._trial is not None:
                return False
        return self._last_trigger is None or s - self._last_trigger >= self.cooldown

    def _trigger_recalibration(self, cause: DriftEvent, s: int) -> None:
        """Kick off conformal-state rebuild and (optionally) a model refit."""
        self._last_trigger = s
        self.event_log.append(
            DriftEvent(
                kind="recalibration_started",
                step=s,
                value=cause.value,
                threshold=cause.threshold,
                message=f"triggered by {cause.kind}",
            )
        )
        recent = self.core.recent()

        def work() -> None:
            try:
                staged = False
                if self.refit_fn is not None:
                    model = self.refit_fn(recent)
                    predict = model.predict if hasattr(model, "predict") else model
                    if not callable(predict):
                        raise TypeError("refit_fn must return a predictor or predict function")
                    if self.promotion_policy.mode == "immediate":
                        with self._lock:
                            # Adopt the replacement wholesale so save() persists
                            # the model actually serving, not the pre-drift one.
                            self.forecaster = model
                            self._predict = predict
                            self._refit_count += 1
                            version = f"{self.version_prefix}-recal{self._refit_count}"
                        if self.server is not None:
                            previous = self.server.swap_model(model, version=version)
                            self.event_log.append(
                                DriftEvent(
                                    kind="model_swapped",
                                    step=s,
                                    value=float(self._refit_count),
                                    threshold=0.0,
                                    message=f"{previous} -> {version}",
                                )
                            )
                    else:
                        self._stage_candidate(model, predict, s)
                        staged = True
                # Pre-drift scores only slow adaptation down; refill the
                # nonconformity buffers from post-drift data.
                self.core.reset_scores(keep_alpha=True)
                self.event_log.append(
                    DriftEvent(
                        kind="recalibrated",
                        step=s,
                        value=float(self._refit_count),
                        threshold=0.0,
                        message="conformal state rebuilt"
                        + (
                            ", candidate staged"
                            if staged
                            else (", model refitted" if self.refit_fn is not None else "")
                        ),
                    )
                )
            except Exception as error:  # surfaced via the event log, not the loop
                self.event_log.append(
                    DriftEvent(
                        kind="recalibration_failed",
                        step=s,
                        value=0.0,
                        threshold=0.0,
                        message=f"{type(error).__name__}: {error}",
                    )
                )

        if self.background_refit:
            self._refit_thread = threading.Thread(
                target=work, name="repro-stream-refit", daemon=True
            )
            self._refit_thread.start()
        else:
            work()

    # ------------------------------------------------------------------ #
    # Candidate trials (shadow / canary promotion)
    # ------------------------------------------------------------------ #
    #: The key of the runner's one stream in its :class:`CandidateTrial`.
    _TRIAL_STREAM = "stream"

    def _serve_candidate_now(self, trial: CandidateTrial) -> bool:
        """Deficit-counter admission: the candidate serves its canary share."""
        if trial.policy.mode != "canary":
            return False
        with self._lock:
            self._canary_total += 1
            if self._canary_served < trial.policy.canary_fraction * self._canary_total:
                self._canary_served += 1
                return True
            return False

    def _server_supports_pool(self) -> bool:
        return (
            self.server is not None
            and hasattr(self.server, "deploy")
            and hasattr(self.server, "router")
        )

    def _stage_candidate(self, model: Any, predict: Callable, s: int) -> None:
        """Open a shadow/canary trial instead of adopting the refit outright."""
        policy = self.promotion_policy
        with self._lock:
            self._refit_count += 1
            count = self._refit_count
            name = f"{self.version_prefix}-cand{count}"
            version = f"{self.version_prefix}-recal{count}"
            trial = CandidateTrial(
                name,
                version,
                policy,
                nominal=1.0 - self.calibrator.config.significance,
                horizon=self.horizon,
                # The first step where *both* models are guaranteed to have
                # forecast: scoring earlier steps would judge the pair on
                # different windows.
                start_steps={self._TRIAL_STREAM: self.core.step + 1},
            )
        replaced_router = None
        if self._server_supports_pool():
            # Expose the candidate to external traffic for the trial: shadow
            # mirrors every request, canary serves its weighted share.  The
            # caller's router is restored when the trial ends.
            from repro.serving.router import ShadowRouter, TrafficSplitRouter

            self.server.deploy(name, model, version=version)
            replaced_router = self.server.router
            if policy.mode == "shadow":
                self.server.router = ShadowRouter(shadows=[name], inner=replaced_router)
            else:
                # The non-canary share keeps the caller's routing intact.
                self.server.router = TrafficSplitRouter(
                    {None: 1.0 - policy.canary_fraction, name: policy.canary_fraction},
                    inner=replaced_router,
                )
        with self._lock:
            self._candidate, self._candidate_predict = model, predict
            self._replaced_router = replaced_router
            self._canary_total = self._canary_served = 0
            self._trial = trial
        self.event_log.append(
            DriftEvent(
                kind="candidate_staged",
                step=s,
                value=float(count),
                threshold=0.0,
                message=(
                    f"{policy.mode} trial of {name} ({version}), "
                    f"verdict after {policy.eval_steps} scored steps"
                ),
            )
        )

    def _finish_trial(
        self, trial: CandidateTrial, decision: Dict[str, Any], s: int
    ) -> List[DriftEvent]:
        """Promote or reject the trialed candidate; returns the logged events."""
        events: List[DriftEvent] = []
        promote = bool(decision["promote"])
        with self._lock:
            model, predict = self._candidate, self._candidate_predict
            replaced_router = self._replaced_router
            self._trial = self._candidate = self._candidate_predict = None
            self._replaced_router = None
            if promote:
                # Adopt the winner wholesale so save() persists the model
                # actually serving, not the losing incumbent.
                self.forecaster = model
                self._predict = predict
        if replaced_router is not None:
            # Restore the caller's router before touching the route table so
            # no new request targets a retiring candidate.
            self.server.router = replaced_router
            if promote:
                previous = self.server.promote(trial.name)
                # Keep exactly one displaced generation around for a manual
                # rollback; older ones would otherwise accumulate in the
                # pool forever on a long drifting stream.
                stale, self._displaced = self._displaced, previous
                if stale is not None and stale in self.server.pool:
                    self.server.undeploy(stale)
                events.append(
                    DriftEvent(
                        kind="model_swapped",
                        step=s,
                        value=float(self._refit_count),
                        threshold=0.0,
                        message=f"{previous} -> {trial.name} ({trial.version})",
                    )
                )
            else:
                # Never promoted, so retiring it cannot touch the default
                # route; queued requests routed at it fall back, zero drops.
                self.server.undeploy(trial.name)
        elif self.server is not None and promote:
            previous = self.server.swap_model(model, version=trial.version)
            events.append(
                DriftEvent(
                    kind="model_swapped",
                    step=s,
                    value=float(self._refit_count),
                    threshold=0.0,
                    message=f"{previous} -> {trial.version}",
                )
            )
        if promote:
            # The winner's residual scale differs from the incumbent's;
            # rebuild the nonconformity buffers against it.
            self.core.reset_scores(keep_alpha=True)
        events.append(
            DriftEvent(
                kind="candidate_promoted" if promote else "candidate_rejected",
                step=s,
                value=decision["candidate_mae"],
                threshold=decision["incumbent_mae"],
                message=(
                    f"{trial.name}: MAE {decision['candidate_mae']:.4g} vs "
                    f"incumbent {decision['incumbent_mae']:.4g}, coverage "
                    f"{decision['candidate_coverage']:.1f}% vs "
                    f"{decision['incumbent_coverage']:.1f}% over "
                    f"{decision['scored_steps']} scored steps"
                ),
            )
        )
        for event in events:
            self.event_log.append(event)
        return events

    def join_refit(self, timeout: Optional[float] = 30.0) -> None:
        """Block until any in-flight background refit has finished."""
        thread = self._refit_thread
        if thread is not None:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """One metrics-endpoint-ready dict: rolling metrics, drift, serving.

        The single-stream analogue of
        :meth:`~repro.fleet.StreamFleet.snapshot`: the monitor's rolling
        PICP/MPIW/MAE/RMSE/Winkler bundle, stream progress, refit/trial
        state, the drift-event log as JSON records, and (when a server is
        attached) its serving stats.
        """
        snap: Dict[str, Any] = {
            "step": self.step,
            "warmed_up": self.warmed_up,
            "refit_count": self._refit_count,
            "trial": repr(self.trial) if self.trial is not None else None,
            "metrics": self.monitor.snapshot(),
            "events": self.event_log.to_records(),
        }
        if self.server is not None and hasattr(self.server, "stats"):
            snap["server"] = self.server.stats
        return snap

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    MODEL_SUBDIR = "model"
    ACI_SUBDIR = "aci"
    STREAM_SUBDIR = "stream"

    #: On-disk format revision of the runner-state checkpoint.  Version 2
    #: stores the full :class:`StreamCore` state (detectors, history and
    #: pending ledgers included); version 1 checkpoints (monitor + events
    #: only) are still readable.
    STREAM_FORMAT_VERSION = 2

    def save(self, directory: Union[str, Path]) -> Path:
        """Persist the full stream state (always) and the model (if it can).

        Everything the core tracks online — the ACI calibration buffers, the
        rolling :class:`StreamingMonitor` windows, the drift detectors'
        accumulated evidence, the event log and the history / pending /
        recent ledgers — round-trips bit-identically through the shared
        ``get_state`` / ``set_state`` array protocol, so a restarted serving
        process resumes the stream exactly where it stopped: warm window,
        outstanding forecasts still scoreable, detectors still mid-debounce.
        Forecasters exposing ``save`` (the :class:`~repro.api.Forecaster`
        facade) are stored alongside so :meth:`load` restores the entire
        streaming system.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        from repro.utils.serialization import save_checkpoint

        with self._lock:
            forecaster = self.forecaster
        # The calibrator is additionally stored under aci/ in its own
        # directory format: load() needs it to construct the runner before
        # the core state (which embeds the same buffers) is restored.
        self.calibrator.save(directory / self.ACI_SUBDIR)
        core_state = self.core.get_state()
        stream_meta = {
            "kind": "stream",
            "format_version": self.STREAM_FORMAT_VERSION,
            "step": self.core.step,
            "last_trigger": self._last_trigger,
            "refit_count": self._refit_count,
            "core": core_state["meta"],
            "events": self.event_log.to_records(),
        }
        save_checkpoint(
            directory / self.STREAM_SUBDIR, stream_meta, core_state["arrays"]
        )
        saver = getattr(forecaster, "save", None)
        if callable(saver):
            saver(directory / self.MODEL_SUBDIR)
        return directory

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        forecaster: Optional[Any] = None,
        **kwargs: Any,
    ) -> "StreamingForecaster":
        """Rebuild a streaming forecaster from a :meth:`save` directory.

        ``forecaster`` overrides (or substitutes, for non-checkpointable
        predictors) the stored model checkpoint.  Monitor state and the
        event log are restored when present (checkpoints written before the
        runner-state format simply start with fresh monitors).
        """
        directory = Path(directory)
        calibrator = AdaptiveConformalCalibrator.load(directory / cls.ACI_SUBDIR)
        if forecaster is None:
            model_dir = directory / cls.MODEL_SUBDIR
            if not model_dir.exists():
                raise FileNotFoundError(
                    f"{directory} holds no model checkpoint; pass forecaster= explicitly"
                )
            from repro.api import Forecaster

            forecaster = Forecaster.load(model_dir)
        runner = cls(forecaster, calibrator=calibrator, **kwargs)
        stream_dir = directory / cls.STREAM_SUBDIR
        if stream_dir.exists():
            from repro.utils.serialization import load_checkpoint

            meta, arrays = load_checkpoint(stream_dir)
            version = meta.get("format_version")
            if version not in (1, cls.STREAM_FORMAT_VERSION):
                raise ValueError(
                    f"unsupported stream checkpoint format {version!r} "
                    f"(this build reads versions 1-{cls.STREAM_FORMAT_VERSION})"
                )
            if version >= 2:
                # The core state embeds everything: calibration, monitor,
                # detectors, event log, step and the warm ledgers.
                runner.core.set_state({"meta": meta["core"], "arrays": arrays})
            else:
                monitor_meta = meta["monitor"]
                if runner.monitor.window != int(monitor_meta["window"]):
                    runner.monitor = StreamingMonitor(
                        window=int(monitor_meta["window"]),
                        significance=float(monitor_meta["significance"]),
                    )
                runner.monitor.set_state({"meta": monitor_meta, "arrays": arrays})
                runner.event_log = EventLog.from_records(meta["events"])
                runner.core._step = int(meta["step"])
            runner._last_trigger = (
                int(meta["last_trigger"]) if meta["last_trigger"] is not None else None
            )
            runner._refit_count = int(meta["refit_count"])
        return runner

    def __repr__(self) -> str:
        return (
            f"StreamingForecaster(history={self.history}, horizon={self.horizon}, "
            f"step={self.core.step}, mode={self.calibrator.config.mode!r}, "
            f"events={len(self.event_log)})"
        )
