"""Train the model that ``predict_single`` serves and save it in this directory.

The fit is the ``fit_pems03`` workload's: ``DeepSTUQPipeline.fit`` with the
same configuration on ``load_pems("PEMS03", size="tiny")``.  It is
deterministic, so rerunning this script rewrites the same checkpoint.  The
checkpoint (``pems03_model/``: the pipeline's ``get_state`` — weights,
scaler statistics, calibration temperature) is committed, so a benchmark
run never trains the model it serves.  From the root of a checkout::

    python3 stuqbench/train_serving_model.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import sut  # noqa: E402  (puts src/ on the path)
import workloads as wl  # noqa: E402


def main() -> int:
    from repro.data.datasets import train_val_test_split
    from repro.data.pems import load_pems
    from repro.utils.serialization import save_checkpoint

    train, val, _ = train_val_test_split(load_pems("PEMS03", size="tiny"))
    pipeline = sut._fit_pipeline(train.num_nodes).fit(train, val)
    state = pipeline.get_state()
    save_checkpoint(HERE / wl.SERVING_MODEL_DIR, state["meta"], state["arrays"])
    print(f"saved {HERE / wl.SERVING_MODEL_DIR} (temperature {pipeline.calibrator.temperature:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
