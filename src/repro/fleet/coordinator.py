"""Coordinated refit and promotion across the streams of a region.

When a regime shift hits a region, every one of its streams detects drift
within a few ticks of each other.  Left to the single-stream machinery each
would launch its own background refit — a *refit storm*: 200 drifting
corridors means 200 training jobs for what is one underlying event.  The
:class:`RefitCoordinator` replaces that with quorum-triggered, budgeted
coordination:

* per-stream drift firings are **pooled per region**; only when ``quorum``
  distinct streams of one region drift within ``window`` steps (and the
  region is out of cooldown, and the fleet-wide ``max_concurrent`` budget
  has room) does ONE background refit launch for the whole region;
* the refitted candidate is **deployed once** on the shared server and
  trialed across *all* of the region's streams through one
  :class:`~repro.streaming.promotion.CandidateTrial` keyed by stream — the
  same trial class a single stream's shadow/canary promotion uses:
  candidate and incumbent are scored on identical live observations in
  twin rolling monitors, and the candidate is promoted (the region's
  routes re-pointed at it atomically) only when its rolling MAE/coverage
  win;
* a losing candidate is undeployed; either way zero in-flight requests are
  dropped (the serving pool's snapshot/fallback semantics).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.streaming.promotion import CandidateTrial

#: Signature of a fleet refit: region name + per-stream recent observations.
FleetRefitFn = Callable[[str, Dict[str, np.ndarray]], Any]


@dataclass
class FleetRefitPolicy:
    """Knobs of fleet-wide refit/promotion coordination.

    Parameters
    ----------
    quorum:
        Distinct drifted streams a region needs within ``window`` steps
        before one coordinated refit launches.
    window:
        Tick window (in steps) the quorum is counted over.
    cooldown:
        Minimum steps between coordinated refits of the same region.
    max_concurrent:
        The refit-storm budget: fleet-wide cap on simultaneously running
        refits plus open trials.
    mode:
        ``"trial"`` (default) stages the candidate and promotes it only
        after it wins its :class:`~repro.streaming.promotion.CandidateTrial`;
        ``"immediate"`` re-points the region at the candidate as soon as
        the refit finishes.
    eval_steps:
        Scored *stream-steps* (one per stream per resolved tick, summed
        over the region) before the trial verdict.
    mae_tolerance / coverage_tolerance / metric_window:
        Verdict thresholds, matching
        :class:`~repro.streaming.promotion.PromotionPolicy` semantics.
    background:
        Run refits on daemon threads (default) or synchronously inside the
        triggering tick.
    """

    quorum: int = 3
    window: int = 50
    cooldown: int = 200
    max_concurrent: int = 1
    mode: str = "trial"
    eval_steps: int = 60
    mae_tolerance: float = 0.0
    coverage_tolerance: float = 0.02
    metric_window: int = 200
    background: bool = True

    def __post_init__(self) -> None:
        if self.quorum < 1 or self.window < 1 or self.eval_steps < 1:
            raise ValueError("quorum, window and eval_steps must be >= 1")
        if self.cooldown < 0 or self.max_concurrent < 1:
            raise ValueError("cooldown must be >= 0 and max_concurrent >= 1")
        if self.mode not in ("trial", "immediate"):
            raise ValueError(f"mode must be 'trial' or 'immediate', got {self.mode!r}")
        if self.coverage_tolerance < 0.0 or self.metric_window < 1:
            raise ValueError("coverage_tolerance must be >= 0 and metric_window >= 1")


class RefitCoordinator:
    """Quorum-triggered, budgeted refit launching plus open-trial registry.

    The coordinator owns the bookkeeping; the fleet runner owns the serving
    side (deploying candidates, opening trials, re-pointing routes) so that
    everything touching the server happens on the tick thread.
    """

    #: Runtime-only state the checkpoint legitimately drops: in-flight refit
    #: threads cannot cross a process boundary, and their undrained results
    #: belong to the killed process.  Open ``trials`` are runtime-only too:
    #: no checkpoint saves them, so a restored fleet starts with none and
    #: every region keeps routing to its incumbent.
    _CHECKPOINT_EXEMPT = ("_inflight", "_finished")

    def __init__(
        self,
        refit_fn: FleetRefitFn,
        policy: Optional[FleetRefitPolicy] = None,
    ) -> None:
        if not callable(refit_fn):
            raise TypeError("refit_fn must be callable: refit_fn(region, recents) -> model")
        self.refit_fn = refit_fn
        self.policy = policy if policy is not None else FleetRefitPolicy()
        self.trials: Dict[str, CandidateTrial] = {}         # region -> open trial
        self._lock = threading.Lock()
        self._drifted: Dict[str, Dict[str, int]] = {}       # region -> stream -> step
        self._last_trigger: Dict[str, int] = {}
        self._inflight: Dict[str, threading.Thread] = {}
        self._finished: List[Tuple[str, Any, Optional[Exception]]] = []
        self._refit_count = 0
        self._triggers = 0

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> int:
        """Refits in flight or awaiting staging, plus open trials.

        This is the budgeted quantity: a refit stays "active" from launch
        until its candidate either finishes a trial or fails — including the
        gap between the background thread finishing and the fleet draining
        :meth:`take_finished`, so a fast refit cannot slip a second region
        past ``max_concurrent`` within one tick.
        """
        with self._lock:
            inflight = sum(1 for t in self._inflight.values() if t.is_alive())
            pending = len(self._finished)
        return inflight + pending + len(self.trials)

    def note_drift(self, region: Optional[str], stream: str, step: int) -> None:
        """Record one stream's drift firing for quorum counting."""
        if region is None:
            return
        with self._lock:
            self._drifted.setdefault(region, {})[stream] = int(step)

    def drifted_streams(self, region: str, step: int) -> List[str]:
        """Streams of ``region`` that drifted within the quorum window."""
        horizon = step - self.policy.window
        with self._lock:
            return [
                stream
                for stream, at in self._drifted.get(region, {}).items()
                if at > horizon
            ]

    # ------------------------------------------------------------------ #
    def maybe_trigger(
        self, step: int, recents: Callable[[str], Dict[str, np.ndarray]]
    ) -> List[str]:
        """Launch coordinated refits for every region at quorum; returns them.

        ``recents`` maps a region to its per-stream recent-observation
        arrays (fetched lazily, only for regions that actually trigger).
        The fleet-wide budget is re-checked per region, so one tick can
        never launch more refits than ``max_concurrent`` allows.
        """
        policy = self.policy
        triggered: List[str] = []
        with self._lock:
            regions = list(self._drifted)
        for region in regions:
            if self.active >= policy.max_concurrent:
                break
            if region in self.trials:
                continue
            with self._lock:
                thread = self._inflight.get(region)
                if thread is not None and thread.is_alive():
                    continue
                last = self._last_trigger.get(region)
            if last is not None and step - last < policy.cooldown:
                continue
            if len(self.drifted_streams(region, step)) < policy.quorum:
                continue
            self._launch(region, step, recents(region))
            triggered.append(region)
        return triggered

    def _launch(self, region: str, step: int, recent: Dict[str, np.ndarray]) -> None:
        with self._lock:
            self._last_trigger[region] = int(step)
            self._drifted[region] = {}
            self._triggers += 1

        def work() -> None:
            try:
                model = self.refit_fn(region, recent)
            except Exception as error:  # surfaced via take_finished
                with self._lock:
                    self._finished.append((region, None, error))
                return
            with self._lock:
                self._finished.append((region, model, None))

        if self.policy.background:
            thread = threading.Thread(
                target=work, name=f"repro-fleet-refit-{region}", daemon=True
            )
            with self._lock:
                self._inflight[region] = thread
            thread.start()
        else:
            work()

    def take_finished(self) -> List[Tuple[str, Any, Optional[Exception]]]:
        """Drain completed refits as ``(region, model, error)`` records."""
        with self._lock:
            finished, self._finished = self._finished, []
            for region, _, _ in finished:
                self._inflight.pop(region, None)
        return finished

    def next_candidate_name(self, region: str, prefix: str) -> Tuple[str, str]:
        """Allocate the candidate's stable deployment name and version."""
        with self._lock:
            self._refit_count += 1
            count = self._refit_count
        return f"{prefix}-{region}-cand{count}", f"{prefix}-{region}-recal{count}"

    def join(self, timeout: Optional[float] = 30.0) -> None:
        """Block until all in-flight background refits have finished."""
        with self._lock:
            threads = list(self._inflight.values())
        for thread in threads:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            inflight = [r for r, t in self._inflight.items() if t.is_alive()]
            return {
                "triggers": self._triggers,
                "refits_completed": self._refit_count,
                "inflight_regions": inflight,
                "open_trials": {region: repr(trial) for region, trial in self.trials.items()},
                "last_trigger": dict(self._last_trigger),
            }

    def get_state(self) -> Dict[str, Any]:
        """JSON-ready counters + quorum evidence (checkpointed with the fleet).

        ``drifted`` carries the partial quorum: without it a fleet restored
        mid-episode forgets which streams already fired, and a region that
        was one drift short of quorum at the kill never refits after the
        restore (the fleet-level analogue of the PR-6 detector-state bug).
        """
        with self._lock:
            return {
                "refit_count": self._refit_count,
                "triggers": self._triggers,
                "last_trigger": {k: int(v) for k, v in self._last_trigger.items()},
                "drifted": {
                    region: {stream: int(step) for stream, step in streams.items()}
                    for region, streams in self._drifted.items()
                },
            }

    def set_state(self, state: Dict[str, Any]) -> "RefitCoordinator":
        with self._lock:
            self._refit_count = int(state.get("refit_count", 0))
            self._triggers = int(state.get("triggers", 0))
            self._last_trigger = {
                str(k): int(v) for k, v in (state.get("last_trigger") or {}).items()
            }
            self._drifted = {
                str(region): {str(s): int(at) for s, at in (streams or {}).items()}
                for region, streams in (state.get("drifted") or {}).items()
            }
        return self

    def __repr__(self) -> str:
        return (
            f"RefitCoordinator(active={self.active}, "
            f"budget={self.policy.max_concurrent}, triggers={self._triggers})"
        )
