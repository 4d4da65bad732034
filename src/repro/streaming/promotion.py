"""Candidate evaluation and promotion policies for the streaming loop.

When drift triggers a refit, blindly publishing the new model is a gamble:
a refit on a short, noisy post-drift window can easily be *worse* than the
incumbent.  :class:`PromotionPolicy` makes the publication step explicit:

``"immediate"``
    The legacy behaviour — the refit replaces the incumbent as soon as it is
    ready (``swap_model`` semantics, zero dropped requests).
``"shadow"``
    The candidate runs silently next to the incumbent: every live window is
    predicted by both, every resolved observation scores both into separate
    rolling monitors, and only the incumbent's forecasts are emitted.  After
    ``eval_steps`` scored steps the candidate is promoted iff its rolling
    MAE/coverage beat the incumbent's; otherwise it is discarded.
``"canary"``
    Like shadow, but the candidate also *serves* a ``canary_fraction`` share
    of the emitted forecasts (and, when the attached server supports
    deployments, a matching share of external traffic) during the trial —
    real exposure, bounded blast radius.

:class:`CandidateTrial` is the live A/B state, keyed by stream: the
candidate's pending forecasts per stream, the two same-window rolling
monitors, and the promote/reject verdict.  It is the one trial class of the
repo — single streams open it over one stream, and
:class:`~repro.fleet.StreamFleet` opens it over every stream of a refitted
region.  What only the single stream needs (the candidate model itself, the
router a deployed trial replaced, the canary admission counter) lives on
:class:`~repro.streaming.StreamingForecaster`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.streaming.monitor import StreamingMonitor
from repro.streaming.shard import ResolvedStep

#: Recognized promotion modes.
PROMOTION_MODES = ("immediate", "shadow", "canary")


@dataclass
class PromotionPolicy:
    """How drift-triggered refits are evaluated before publication.

    Parameters
    ----------
    mode:
        One of :data:`PROMOTION_MODES`.
    eval_steps:
        Scored stream steps (observations that resolved forecasts of both
        models) before the promote/reject verdict.
    canary_fraction:
        Share of emitted forecasts (and routed external traffic) the
        candidate serves during a ``"canary"`` trial.
    mae_tolerance:
        The candidate is promoted only if its rolling MAE is at most
        ``incumbent_mae * (1 + mae_tolerance)``; ``0.0`` requires it to be
        no worse, negative values demand a strict improvement margin.
    coverage_tolerance:
        Allowed extra distance (in coverage fraction) between the
        candidate's rolling coverage and the nominal level, relative to the
        incumbent's distance.
    metric_window:
        Rolling-window length (in scored steps) of the trial monitors.
    """

    mode: str = "immediate"
    eval_steps: int = 50
    canary_fraction: float = 0.25
    mae_tolerance: float = 0.0
    coverage_tolerance: float = 0.02
    metric_window: int = 200

    def __post_init__(self) -> None:
        if self.mode not in PROMOTION_MODES:
            raise ValueError(f"mode must be one of {PROMOTION_MODES}, got {self.mode!r}")
        if self.eval_steps < 1:
            raise ValueError("eval_steps must be >= 1")
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must lie in (0, 1]")
        if self.coverage_tolerance < 0.0:
            raise ValueError("coverage_tolerance must be non-negative")
        if self.metric_window < 1:
            raise ValueError("metric_window must be >= 1")


class CandidateTrial:
    """Live candidate-vs-incumbent evaluation, keyed by stream.

    The one trial behind both promotion paths: a
    :class:`~repro.streaming.StreamingForecaster` opens it over its single
    stream, a :class:`~repro.fleet.StreamFleet` over every stream of the
    refitted region.  Candidate and incumbent are scored over the *same*
    resolved observations: the runner feeds every incumbent resolution into
    :meth:`observe_incumbent` and every new observation into
    :meth:`resolve`, which settles the candidate's own pending forecasts.
    Scoring starts per stream at ``start_steps[stream]``, so neither model
    is judged on forecasts made before the trial began.

    ``policy`` is read only for ``eval_steps``, ``mae_tolerance``,
    ``coverage_tolerance`` and ``metric_window``, which both
    :class:`PromotionPolicy` and
    :class:`~repro.fleet.FleetRefitPolicy` carry.
    """

    def __init__(
        self,
        name: str,
        version: str,
        policy: Any,
        nominal: float,
        horizon: int,
        start_steps: Dict[str, int],
    ) -> None:
        self.name = str(name)
        self.version = str(version)
        self.policy = policy
        self.nominal = float(nominal)
        self.horizon = int(horizon)
        self.start_steps = dict(start_steps)
        significance = 1.0 - self.nominal
        self.candidate_monitor = StreamingMonitor(
            window=policy.metric_window, significance=significance
        )
        self.incumbent_monitor = StreamingMonitor(
            window=policy.metric_window, significance=significance
        )
        self._pending: Dict[str, deque] = {
            stream: deque(maxlen=self.horizon) for stream in self.start_steps
        }
        self._lock = threading.Lock()
        self._candidate_scored = 0
        self._incumbent_scored = 0

    @property
    def streams(self) -> List[str]:
        return list(self.start_steps)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def record(
        self,
        stream: str,
        step: int,
        mean: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> None:
        """Remember one candidate forecast ``(horizon, nodes)`` for a stream."""
        pending = self._pending.get(stream)
        if pending is None:
            return
        with self._lock:
            pending.append(
                {"step": int(step), "mean": mean, "lower": lower, "upper": upper}
            )

    def resolve(
        self, stream: str, step: int, observation: np.ndarray, valid: np.ndarray
    ) -> None:
        """Score the candidate forecasts this stream's observation completes."""
        pending = self._pending.get(stream)
        if pending is None:
            return
        start = self.start_steps[stream]
        masked = np.where(valid, observation, np.nan)
        targets, means, lowers, uppers = [], [], [], []
        with self._lock:
            for entry in pending:
                h = step - entry["step"] - 1
                # Pre-start entries are skipped on both sides so candidate and
                # incumbent are always compared over identical forecast sets.
                if not 0 <= h < self.horizon or entry["step"] < start:
                    continue
                targets.append(masked)
                means.append(entry["mean"][h])
                lowers.append(entry["lower"][h])
                uppers.append(entry["upper"][h])
        if targets:
            scored = self.candidate_monitor.update(
                np.stack(targets), np.stack(means), np.stack(lowers), np.stack(uppers)
            )
            if scored is not None:
                with self._lock:
                    self._candidate_scored += 1

    def observe_incumbent(self, stream: str, resolved: ResolvedStep) -> None:
        """Score the incumbent's resolutions made from post-trial forecasts."""
        start = self.start_steps.get(stream)
        if start is None or resolved.steps is None:
            return
        keep = resolved.steps >= start
        if not keep.any():
            return
        scored = self.incumbent_monitor.update(
            resolved.target[keep],
            resolved.mean[keep],
            resolved.lower[keep],
            resolved.upper[keep],
        )
        if scored is not None:
            with self._lock:
                self._incumbent_scored += 1

    # ------------------------------------------------------------------ #
    # Verdict
    # ------------------------------------------------------------------ #
    @property
    def scored_steps(self) -> int:
        """Scored stream-steps both sides have accumulated, summed over streams.

        Counted on the trial itself, not via the monitors' ring counts —
        those cap at ``metric_window``, which would stall any trial with
        ``eval_steps > metric_window`` forever.
        """
        with self._lock:
            return min(self._candidate_scored, self._incumbent_scored)

    def verdict(self) -> Optional[Dict[str, Any]]:
        """Promote/reject decision, or ``None`` while the trial is still running.

        The candidate must beat the incumbent on rolling MAE (within
        ``mae_tolerance``) *and* sit no further from nominal coverage than
        the incumbent plus ``coverage_tolerance``.
        """
        if self.scored_steps < self.policy.eval_steps:
            return None
        candidate = self.candidate_monitor.snapshot()
        incumbent = self.incumbent_monitor.snapshot()
        cand_mae, inc_mae = candidate["mae"], incumbent["mae"]
        cand_gap = abs(candidate["coverage"] / 100.0 - self.nominal)
        inc_gap = abs(incumbent["coverage"] / 100.0 - self.nominal)
        mae_ok = np.isfinite(cand_mae) and (
            cand_mae <= inc_mae * (1.0 + self.policy.mae_tolerance)
        )
        coverage_ok = cand_gap <= inc_gap + self.policy.coverage_tolerance
        return {
            "promote": bool(mae_ok and coverage_ok),
            "candidate_mae": float(cand_mae),
            "incumbent_mae": float(inc_mae),
            "candidate_coverage": float(candidate["coverage"]),
            "incumbent_coverage": float(incumbent["coverage"]),
            "scored_steps": int(self.scored_steps),
        }

    def __repr__(self) -> str:
        return (
            f"CandidateTrial({self.name!r}, streams={len(self.start_steps)}, "
            f"scored={self.scored_steps}/{self.policy.eval_steps})"
        )
