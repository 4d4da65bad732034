"""The system-under-test process of the benchmark.

``run.py`` starts this file as a child process.  For the HTTP workloads it
builds the model, the inference server, the gateway (and, for
``observe_256``, the 256-stream fleet), binds an ephemeral loopback port and
then serves until told to quit.  For ``fit_pems03`` it loads the PEMS03
stand-in, builds the pipeline, and fits when told to go.

Control runs over the process's standard streams, one JSON object a line:
this process writes ``{"ready": ...}`` once set up and answers each command
read from standard input (``status``, ``trace on``, ``trace off``,
``report``; ``go`` for the fit) with one line; ``quit`` ends it.  The load
itself arrives over HTTP, never over this channel.

Run directly only for debugging::

    python3 stuqbench/sut.py --workload predict_single
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402


def _send(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mc_predict_fn(model, mc_samples: int, scaler, temperature: float = 1.0):
    from repro.core.inference import BatchedPredictor

    predictor = BatchedPredictor(model, scaler, temperature=temperature)

    def predict(windows):
        return predictor.monte_carlo(
            scaler.transform(windows), num_samples=mc_samples, rng=np.random.default_rng(3)
        )

    return predict


def _agcrn(num_nodes: int, spec: Dict[str, Any]):
    from repro.models.agcrn import AGCRN

    return AGCRN(
        num_nodes=num_nodes,
        history=spec["history"],
        horizon=spec["horizon"],
        hidden_dim=spec["hidden_dim"],
        embed_dim=spec["embed_dim"],
        encoder_dropout=0.1,
        decoder_dropout=0.2,
        heads=("mean", "log_var"),
        rng=np.random.default_rng(0),
    )


# --------------------------------------------------------------------------- #
# HTTP workloads
# --------------------------------------------------------------------------- #
class Serving:
    def __init__(self, workload: str) -> None:
        from repro.fleet import StreamFleet
        from repro.gateway import Gateway
        from repro.serving import InferenceServer

        self.fleet: Optional[Any] = None
        if workload == "observe_256":
            rows, cols = wl.OBSERVE["grid"]
            from repro.data.scalers import StandardScaler

            self.model = _agcrn(rows * cols, wl.OBSERVE)
            scaler = StandardScaler().fit(np.array(wl.SERVING_SCALER_RANGE))
            self.server = InferenceServer(
                _mc_predict_fn(self.model, wl.OBSERVE["mc_samples"], scaler)
            )
            self.fleet = StreamFleet(
                self.server,
                wl.OBSERVE["history"],
                wl.OBSERVE["horizon"],
                aci={"min_scores": wl.OBSERVE["min_scores"]},
            )
            self.fleet.add_streams([f"s{index:03d}" for index in range(wl.OBSERVE["streams"])])
        else:
            pipeline = _trained_pipeline()
            self.model = pipeline.model
            self.server = InferenceServer(
                _mc_predict_fn(
                    self.model,
                    wl.PREDICT["mc_samples"],
                    pipeline.scaler,
                    pipeline.calibrator.temperature,
                )
            )
        self.gateway = Gateway(self.server, fleet=self.fleet)
        self.tracer: Optional[layers.Tracer] = None
        self.server_traced: Dict[str, float] = {}

    def start(self) -> int:
        self.gateway.start(port=0)
        return int(self.gateway.port)

    def stop(self) -> None:
        self.gateway.stop(timeout=10.0)

    def status(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"peak_rss_mb": _peak_rss_mb()}
        if self.fleet is not None:
            counts = [
                int(stream.core.calibrator.get_state()["arrays"]["aci.count"].min())
                for stream in self.fleet.streams.values()
            ]
            payload["min_aci_scores"] = min(counts)
        return payload

    def _server_counts(self) -> Dict[str, float]:
        stats = self.server.stats
        hits = float(stats.get("cache_hits", 0.0))
        return {
            "hits": hits,
            "lookups": hits + float(stats.get("cache_misses", 0.0)),
            "windows": float(stats["model_windows"]),
            "batches": float(stats["batches_dispatched"]),
        }

    def trace(self, enable: bool) -> Dict[str, Any]:
        """Install the layer shims, or remove them; server counts cover traced spans."""
        if enable:
            self.tracer = self.tracer or layers.Tracer()
            self._counts_on = self._server_counts()
            layers.install_serving_layers(self.tracer)
            layers.install_model_layers(self.tracer, type(self.model))
        else:
            if not self.tracer.wait_idle(timeout=10.0):
                raise RuntimeError("a traced request did not finish within 10 s")
            self.tracer.uninstall()
            for key, value in self._server_counts().items():
                self.server_traced[key] = (
                    self.server_traced.get(key, 0.0) + value - self._counts_on[key]
                )
        return {"trace": enable}

    def report(self) -> Dict[str, Any]:
        payload = self.status()
        if self.tracer is not None:
            payload["ops"] = self.tracer.ops
            payload["installed"] = sorted(self.tracer.installed)
            payload["server"] = self.server_traced
        return payload


def serve(args: argparse.Namespace) -> int:
    system = Serving(args.workload)
    port = system.start()
    _send({"ready": True, "port": port})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if command == "status":
                _send(system.status())
            elif command in ("trace on", "trace off"):
                _send(system.trace(command == "trace on"))
            elif command == "report":
                _send(system.report())
            else:
                _send({"error": f"unknown command {command!r}"})
    finally:
        system.stop()
    return 0


# --------------------------------------------------------------------------- #
# Fit workload
# --------------------------------------------------------------------------- #
def _fit_pipeline(num_nodes: int):
    from repro.core.awa import AWAConfig
    from repro.core.pipeline import DeepSTUQConfig, DeepSTUQPipeline
    from repro.core.trainer import TrainingConfig

    spec = wl.FIT
    training = TrainingConfig(
        history=spec["history"],
        horizon=spec["horizon"],
        hidden_dim=spec["hidden_dim"],
        embed_dim=spec["embed_dim"],
        epochs=spec["epochs"],
        batch_size=spec["batch_size"],
        learning_rate=spec["learning_rate"],
        weight_decay=spec["weight_decay"],
        lambda_weight=spec["lambda_weight"],
        encoder_dropout=spec["encoder_dropout"],
        decoder_dropout=spec["decoder_dropout"],
        grad_clip=spec["grad_clip"],
        mc_samples=spec["mc_samples"],
        seed=0,
    )
    config = DeepSTUQConfig(
        training=training,
        awa=AWAConfig(
            epochs=spec["awa_epochs"], lr_max=spec["awa_lr_max"], lr_min=spec["awa_lr_min"]
        ),
        calibration_max_iter=spec["calibration_max_iter"],
        calibration_mc_samples=spec["calibration_mc_samples"],
    )
    return DeepSTUQPipeline(num_nodes, config)


def _trained_pipeline():
    """The fit_pems03 pipeline restored from its committed checkpoint."""
    from repro.utils.serialization import load_checkpoint

    spec, _ = wl.pems03_network()
    meta, arrays = load_checkpoint(HERE / wl.SERVING_MODEL_DIR)
    return _fit_pipeline(spec.num_nodes).set_state({"meta": meta, "arrays": arrays})


def fit(args: argparse.Namespace) -> int:
    from repro.data.datasets import SlidingWindowDataset, train_val_test_split
    from repro.data.pems import load_pems
    from repro.models.agcrn import AGCRN

    train, val, test = train_val_test_split(load_pems("PEMS03", size="tiny"))
    pipeline = _fit_pipeline(train.num_nodes)
    _send({"ready": True})
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = layers.Tracer() if args.trace else None
    clock = layers.StepClock(tracer, model_class=AGCRN)
    clock.install()
    if tracer is not None:
        layers.install_fit_phases(tracer)
    try:
        start = time.perf_counter()
        pipeline.fit(train, val)
        fit_s = time.perf_counter() - start
        dataset = SlidingWindowDataset(test, history=wl.FIT["history"], horizon=wl.FIT["horizon"])
        inputs = np.stack([dataset[i][0] for i in range(len(dataset))])
        targets = np.stack([dataset[i][1] for i in range(len(dataset))])
        result = pipeline.predict(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()
    lower, upper = result.interval(0.05)
    horizon_cell = np.broadcast_to(np.arange(targets.shape[1])[None, :, None], targets.shape)
    train_windows = len(
        SlidingWindowDataset(train, history=wl.FIT["history"], horizon=wl.FIT["horizon"])
    )
    history = pipeline.stage_history
    outcome = {
        "fit_s": fit_s,
        "step_seconds": clock.seconds,
        "step_traced": clock.traced,
        "trained_windows": train_windows * (wl.FIT["epochs"] + wl.FIT["awa_epochs"]),
        "pretrain_losses": [record["train_loss"] for record in history.get("pretraining", [])],
        "awa_losses": [record["train_loss"] for record in history.get("awa", [])],
        "temperature": float(pipeline.calibrator.temperature),
        "ordered": bool(np.isfinite(lower).all() and np.isfinite(upper).all())
        and bool(np.isfinite(result.mean).all())
        and bool(np.all(lower <= result.mean) and np.all(result.mean <= upper)),
        "quality": wl.quality(targets, result.mean, lower, upper, horizon_cell),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        outcome["ops"] = tracer.ops
        outcome["totals"] = tracer.totals()
        outcome["installed"] = sorted(tracer.installed)
    _send(outcome)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "fit_pems03":
        return fit(args)
    return serve(args)


if __name__ == "__main__":
    sys.exit(main())
