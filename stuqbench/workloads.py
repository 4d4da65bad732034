"""Workload definitions shared by the load generator and the system under test.

Every workload runs a fixed amount of work that depends only on ``--seconds``
through a constant nominal rate, never on how fast the system runs.  For a
given seed the quality metrics of ``predict_single`` and ``fit_pems03`` and
the per-forward counts repeat exactly.  Those of ``observe_256`` repeat to
about 1e-6 relative: the MC-dropout masks are drawn per batched model call,
and how the micro-batcher splits a tick into calls depends on timing.
The seed drives the inputs only: the traffic each of the 256 streams
observes, and which week of traffic is posted to ``/predict``.  The fit
trains on the fixed PEMS03 stand-in dataset, like the paper's fixed
benchmark datasets, so its quality can be checked against a stored
reference; ``predict_single`` serves the model that fit produces, saved in
``pems03_model/``.  Model weights, the road networks and every system
setting are constants.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

#: Miscoverage of every interval the benchmark scores (95% intervals).
NOMINAL_COVERAGE_PCT = 95.0

# --------------------------------------------------------------------------- #
# observe_256: the 256-stream fleet tick driven through POST /observe.
# --------------------------------------------------------------------------- #
OBSERVE = {
    "streams": 256,
    "grid": (2, 2),
    "history": 12,
    "horizon": 4,
    "mc_samples": 16,
    "hidden_dim": 8,
    "embed_dim": 3,
    # The ACI default: below this many buffered scores per horizon a stream
    # still uses the cold-start Gaussian multiplier.
    "min_scores": 30,
    "ticks_per_second": 2.5,
}

# --------------------------------------------------------------------------- #
# predict_single: single-window POST /predict, PEMS03-shaped.
# --------------------------------------------------------------------------- #
PREDICT = {
    "history": 12,
    "horizon": 12,
    "mc_samples": 16,
    "warmup_requests": 24,
    "requests_per_second": 40.0,
}

# --------------------------------------------------------------------------- #
# fit_pems03: DeepSTUQPipeline.fit at bench scale, then MC test prediction.
# --------------------------------------------------------------------------- #
FIT = {
    "history": 12,
    "horizon": 12,
    "hidden_dim": 12,
    "embed_dim": 4,
    "epochs": 4,
    "awa_epochs": 2,
    "batch_size": 64,
    "learning_rate": 3e-3,
    "weight_decay": 1e-6,
    "lambda_weight": 0.1,
    "encoder_dropout": 0.1,
    "decoder_dropout": 0.2,
    "grad_clip": 5.0,
    "mc_samples": 5,
    "calibration_mc_samples": 10,
    "calibration_max_iter": 500,
    "awa_lr_max": 3e-3,
    "awa_lr_min": 3e-5,
}

#: Fixed scaler range of the observe_256 model: it is untrained, so its MAE
#: and MPIW fingerprint the forward's arithmetic, not model skill; its
#: coverage gap measures the fleet's ACI calibration.
SERVING_SCALER_RANGE = (0.0, 400.0)

#: Checkpoint of the model predict_single serves, in this directory: the
#: fit_pems03 pipeline, trained by ``train_serving_model.py``.
SERVING_MODEL_DIR = "pems03_model"

WORKLOADS = ("observe_256", "predict_single", "fit_pems03")


def observe_ticks(seconds: int) -> int:
    return max(12, int(round(seconds * OBSERVE["ticks_per_second"])))


def predict_requests(seconds: int) -> int:
    return max(40, int(round(seconds * PREDICT["requests_per_second"])))


def observe_warmup_ticks() -> int:
    """Ticks until every stream is past ACI ``min_scores`` on every horizon.

    The first forecast needs ``history`` rows; the forecast for horizon ``h``
    resolves ``h`` ticks later; each resolved row adds one score per observed
    sensor.  Two spare ticks absorb sensor dropouts (NaN readings score
    nothing); the system-side check confirms the count before timing starts.
    """
    nodes = OBSERVE["grid"][0] * OBSERVE["grid"][1]
    rows_needed = math.ceil(OBSERVE["min_scores"] / nodes)
    return OBSERVE["history"] + OBSERVE["horizon"] + rows_needed + 2


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def observe_rows(seed: int, num_steps: int) -> Tuple[List[str], np.ndarray]:
    """Per-stream observation rows: names and a ``(steps, streams, nodes)`` array."""
    from repro.data import StreamingTrafficFeed
    from repro.graph import grid_network

    network = grid_network(*OBSERVE["grid"])
    names = [f"s{index:03d}" for index in range(OBSERVE["streams"])]
    rows = np.stack(
        [
            StreamingTrafficFeed(
                network, num_steps=num_steps, seed=seed * OBSERVE["streams"] + index
            ).values
            for index in range(OBSERVE["streams"])
        ],
        axis=1,
    )
    return names, rows


def pems03_network():
    """The PEMS03 stand-in's size and road network (18 sensors at the tiny size)."""
    from repro.data.pems import DATASET_SPECS, SIZE_PRESETS
    from repro.graph.generators import pems_like_network

    spec = DATASET_SPECS["PEMS03"].scaled(*SIZE_PRESETS["tiny"])
    network = pems_like_network(
        spec.num_nodes, spec.num_edges, seed=spec.seed, name="PEMS03-tiny"
    )
    return spec, network


#: Steps in one week of 5-minute data; the replayed weeks of the long
#: PEMS03 stand-in all start on the same weekday at midnight.
WEEK_STEPS = 7 * 288
REPLAY_WEEKS = 13


def predict_windows(seed: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` unique consecutive (history, horizon) windows and their targets.

    The seed picks which of 13 weeks of a long PEMS03 stand-in series (the
    dataset's own network and seed, the paper's full length) is replayed,
    starting on its first morning; the sensors and their flow levels stay
    the same, so the quality metrics compare like with like.
    """
    from repro.data.synthetic import generate_traffic

    spec, network = pems03_network()
    history, horizon = PREDICT["history"], PREDICT["horizon"]
    series = generate_traffic(network, REPLAY_WEEKS * WEEK_STEPS, seed=spec.seed)
    start = (seed % REPLAY_WEEKS) * WEEK_STEPS + 72  # 06:00
    needed = count + history + horizon - 1
    if start + needed > len(series):
        raise ValueError(f"{count} windows do not fit in one replayed week")
    series = series[start : start + needed]
    inputs = np.stack([series[s : s + history] for s in range(count)])
    targets = np.stack([series[s + history : s + history + horizon] for s in range(count)])
    return inputs, targets


# --------------------------------------------------------------------------- #
# Quality and latency summaries
# --------------------------------------------------------------------------- #
def quality(
    truth: np.ndarray, mean: np.ndarray, lower: np.ndarray, upper: np.ndarray, groups: np.ndarray
) -> Dict[str, float]:
    """MAE, mean |PICP - 95| over groups, and MPIW, over finite truth only.

    ``groups`` labels every entry with its calibration cell (a stream, or a
    horizon step): the coverage gap is the mean absolute distance of each
    cell's coverage from nominal, so it is never zero by cancellation and
    averages many cells into one steady figure.
    """
    valid = np.isfinite(truth)
    truth, mean, lower, upper, groups = (
        array[valid] for array in (truth, mean, lower, upper, groups)
    )
    covered = (truth >= lower) & (truth <= upper)
    cells = np.unique(groups)
    gaps = [abs(100.0 * covered[groups == cell].mean() - NOMINAL_COVERAGE_PCT) for cell in cells]
    return {
        "mae": float(np.mean(np.abs(truth - mean))),
        "coverage_gap_pct": float(np.mean(gaps)),
        "mpiw": float(np.mean(upper - lower)),
        "picp_pct": float(100.0 * covered.mean()),
    }


def tail_index(count: int) -> int:
    """0-based index of the highest order statistic with >= 10 samples beyond it."""
    if count < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {count}")
    return count - 11


def latency_summary(seconds: List[float]) -> Dict[str, float]:
    """p50 and tail (ms) of a latency sample, with the tail's percentile."""
    ordered = sorted(seconds)
    index = tail_index(len(ordered))
    return {
        "p50_ms": 1000.0 * float(np.median(ordered)),
        "tail_ms": 1000.0 * ordered[index],
        "tail_percentile": 100.0 * (index + 1) / len(ordered),
        "samples": len(ordered),
    }
