"""The repository benchmark: one command, every metric, checked outputs.

Usage, from the root of a checkout::

    python3 stuqbench/run.py --workload observe_256 --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):

* ``observe_256`` — a 256-stream fleet tick over ``POST /observe``;
* ``predict_single`` — single-window ``POST /predict`` on one connection;
* ``fit_pems03`` — ``DeepSTUQPipeline.fit`` plus MC test prediction.

This process is the load generator.  The system runs in a separate process
(``sut.py``) and, for the HTTP workloads, sees only the generated requests
over one keep-alive loopback connection, closed loop.  Every run does a
fixed amount of work set by ``--seconds`` at a constant nominal rate.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: alternate segments of each set-up's ops (every
second training step of the fit) are traced, and the traced against the
untraced latency gives ``trace.overhead_pct``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import queue
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

#: Fresh system processes set up per run; ``setup_s`` is their median.
SETUPS = 3
#: Bound on any one wait for the system process or one HTTP response.
WAIT_S = 150.0
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())


class Checks:
    """Counts ops attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def op(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


# --------------------------------------------------------------------------- #
# The system process and the HTTP client
# --------------------------------------------------------------------------- #
class System:
    """One system-under-test process, driven over its standard streams."""

    def __init__(self, workload: str, trace: int) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "sut.py"), "--workload", workload, "--trace", str(trace)],
            cwd=str(ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.ready = self.receive()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def receive(self, timeout: float = WAIT_S) -> Dict[str, Any]:
        line = self._lines.get(timeout=timeout)
        if line is None:
            raise RuntimeError(f"system process exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, text: str, timeout: float = WAIT_S) -> Dict[str, Any]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.receive(timeout)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15.0)
        self._reader.join(timeout=15.0)


class Client:
    """One keep-alive loopback connection with Nagle off; closed loop."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=WAIT_S)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, path: str, body: bytes) -> Tuple[int, bytes, float]:
        """Send one request; returns status, raw body and the latency in s."""
        start = time.perf_counter()
        self.conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, raw, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


def _ordered(mean, lower, upper) -> bool:
    import numpy as np

    return bool(
        np.isfinite(mean).all()
        and np.isfinite(lower).all()
        and np.isfinite(upper).all()
        and np.all(lower <= mean)
        and np.all(mean <= upper)
    )


def drive(args: argparse.Namespace, checks: Checks, block: int, warm, op) -> Dict[str, Any]:
    """SETUPS sub-runs: each sets up a fresh system, warms it, measures ``block`` ops.

    ``warm(j, system, client)`` returns ``(ok, why)``; ``op(j, k, client)``
    sends one request and returns ``(ok, why, latency_s, sent, received)``.
    In a traced run every second of eight segments of a block is traced,
    so traced and untraced ops interleave in time.  Spreading the measured
    ops over the set-ups samples the machine at several times.
    """
    segment = max(1, block // 8)
    setups: List[float] = []
    latencies: List[float] = []
    traced: List[bool] = []
    sizes: List[Tuple[int, int]] = []
    reports: List[Dict[str, Any]] = []
    for j in range(SETUPS):
        system = System(args.workload, args.trace)
        try:
            client = Client(int(system.ready["port"]))
            try:
                ok, why = warm(j, system, client)
                setups.append(time.perf_counter() - system.started)
                checks.op(ok, why)
                tracing = False
                for k in range(block):
                    if args.trace and tracing != ((k // segment) % 2 == 1):
                        tracing = not tracing
                        system.command("trace on" if tracing else "trace off")
                    ok, why, latency, sent, received = op(j, k, client)
                    checks.op(ok, why)
                    latencies.append(latency)
                    traced.append(tracing)
                    sizes.append((sent, received))
                if args.trace:
                    if tracing:
                        system.command("trace off")
                    reports.append(system.command("report"))
                else:
                    reports.append(system.command("status"))
            finally:
                client.close()
        finally:
            system.close()
    return {
        "setups": setups,
        "latencies": latencies,
        "traced": traced,
        "sizes": sizes,
        "reports": reports,
    }


def end_to_end(driven: Dict[str, Any], work_units: float, quality: Dict[str, float]) -> Dict[str, Any]:
    latencies = driven["latencies"]
    return {
        "setup_s": statistics.median(driven["setups"]),
        "work_per_s": work_units / sum(latencies),
        **wl.latency_summary(latencies),
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in driven["reports"]),
        **quality,
    }


# --------------------------------------------------------------------------- #
# observe_256
# --------------------------------------------------------------------------- #
def run_observe(args: argparse.Namespace, checks: Checks) -> Dict[str, Any]:
    import numpy as np

    spec = wl.OBSERVE
    horizon, nodes = spec["horizon"], spec["grid"][0] * spec["grid"][1]
    block = wl.observe_ticks(args.seconds) // SETUPS
    warm_ticks = wl.observe_warmup_ticks()
    # Sub-run j posts rows j*block onwards: warm-up, then its measured block.
    steps = (SETUPS - 1) * block + warm_ticks + block + horizon
    names, rows = wl.observe_rows(args.seed, steps)
    bodies = [
        json.dumps(
            {
                "observations": {name: rows[t, i].tolist() for i, name in enumerate(names)},
                "return_forecasts": True,
            }
        ).encode()
        for t in range(steps - horizon)
    ]
    forecasts = np.zeros((3, SETUPS, block, len(names), horizon, nodes))

    def warm(j: int, system: System, client: Client) -> Tuple[bool, str]:
        for t in range(j * block, j * block + warm_ticks):
            status, raw, _ = client.post("/observe", bodies[t])
            if status != 200:
                return False, f"warm-up tick {t} answered {status}"
        streams = json.loads(raw)["streams"]
        ready = len(streams) == len(names) and all(
            entry["forecast_ready"] for entry in streams.values()
        )
        if not ready or system.command("status")["min_aci_scores"] < spec["min_scores"]:
            return False, "streams not forecast_ready and past ACI min_scores after warm-up"
        return True, ""

    def op(j: int, k: int, client: Client):
        t = j * block + warm_ticks + k
        status, raw, latency = client.post("/observe", bodies[t])
        why = f"tick {t}: status {status} or malformed forecasts"
        if status != 200:
            return False, why, latency, len(bodies[t]), len(raw)
        streams = json.loads(raw)["streams"]
        if len(streams) != len(names):
            return False, why, latency, len(bodies[t]), len(raw)
        for i, name in enumerate(names):
            entry = streams.get(name)
            if entry is None or not entry["forecast_ready"]:
                return False, why, latency, len(bodies[t]), len(raw)
            triple = [np.asarray(entry[key], dtype=float) for key in ("mean", "lower", "upper")]
            if any(array.shape != (horizon, nodes) for array in triple) or not _ordered(*triple):
                return False, why, latency, len(bodies[t]), len(raw)
            forecasts[:, j, k, i] = triple
        return True, "", latency, len(bodies[t]), len(raw)

    driven = drive(args, checks, block, warm, op)
    if args.trace:
        return check_shims(args.workload, per_layer(args.workload, driven), checks)
    # The forecast posted with row t covers rows t+1 .. t+horizon.
    truth = np.stack(
        [
            np.stack(
                [
                    rows[t + 1 : t + 1 + horizon].transpose(1, 0, 2)
                    for t in range(j * block + warm_ticks, j * block + warm_ticks + block)
                ]
            )
            for j in range(SETUPS)
        ]
    )
    groups = np.broadcast_to(np.arange(len(names))[None, None, :, None, None], truth.shape)
    quality = wl.quality(truth, forecasts[0], forecasts[1], forecasts[2], groups)
    return end_to_end(driven, len(names) * SETUPS * block, quality)


# --------------------------------------------------------------------------- #
# predict_single
# --------------------------------------------------------------------------- #
def run_predict(args: argparse.Namespace, checks: Checks) -> Dict[str, Any]:
    import numpy as np

    spec = wl.PREDICT
    block = wl.predict_requests(args.seconds) // SETUPS
    warmups = spec["warmup_requests"]
    # Sub-run j uses its own warm-up and measured windows: all are unique.
    per_run = warmups + block
    inputs, targets = wl.predict_windows(args.seed, SETUPS * per_run)
    bodies = [json.dumps({"window": window.tolist()}).encode() for window in inputs]
    shape = (spec["horizon"], inputs.shape[2])
    forecasts = np.zeros((3, SETUPS, block) + shape)

    def warm(j: int, system: System, client: Client) -> Tuple[bool, str]:
        for index in range(j * per_run, j * per_run + warmups):
            status, _, _ = client.post("/predict", bodies[index])
            if status != 200:
                return False, f"warm-up request {index} answered {status}"
        return True, ""

    def op(j: int, k: int, client: Client):
        index = j * per_run + warmups + k
        status, raw, latency = client.post("/predict", bodies[index])
        ok = status == 200
        if ok:
            payload = json.loads(raw)
            triple = [np.asarray(payload[key], dtype=float) for key in ("mean", "lower", "upper")]
            ok = all(array.shape == shape for array in triple) and _ordered(*triple)
            if ok:
                forecasts[:, j, k] = triple
        why = "" if ok else f"request {index}: status {status} or malformed forecast"
        return ok, why, latency, len(bodies[index]), len(raw)

    driven = drive(args, checks, block, warm, op)
    if args.trace:
        return check_shims(args.workload, per_layer(args.workload, driven), checks)
    truth = np.stack([targets[j * per_run + warmups : (j + 1) * per_run] for j in range(SETUPS)])
    groups = np.broadcast_to(np.arange(shape[0])[None, None, :, None], truth.shape)
    quality = wl.quality(truth, forecasts[0], forecasts[1], forecasts[2], groups)
    return end_to_end(driven, SETUPS * block, quality)


# --------------------------------------------------------------------------- #
# fit_pems03
# --------------------------------------------------------------------------- #
def run_fit(args: argparse.Namespace, checks: Checks) -> Dict[str, Any]:
    import math

    setups: List[float] = []
    system = None
    for index in range(SETUPS):
        system = System(args.workload, args.trace)
        setups.append(time.perf_counter() - system.started)
        if index < SETUPS - 1:
            system.close()
    try:
        outcome = system.command("go", timeout=WAIT_S)
    finally:
        system.close()

    reference = json.loads((HERE / "reference.json").read_text())["fit_pems03"]
    quality = outcome["quality"]
    losses = outcome["pretrain_losses"] + outcome["awa_losses"]
    fit_checks = [
        (outcome["ordered"], "non-finite or unordered test intervals"),
        (bool(losses) and all(math.isfinite(loss) for loss in losses), "non-finite fit loss"),
        (
            len(outcome["pretrain_losses"]) >= 2
            and outcome["pretrain_losses"][-1] < outcome["pretrain_losses"][0],
            "pretraining loss did not fall",
        ),
        (outcome["temperature"] > 0.0, "calibration temperature is not positive"),
        (
            abs(quality["mae"] - reference["mae"]) <= reference["mae_tolerance"],
            f"fit MAE {quality['mae']:.4f} is not within {reference['mae_tolerance']} "
            f"of the reference {reference['mae']}",
        ),
        (
            abs(quality["picp_pct"] - reference["picp_pct"]) <= reference["picp_tolerance_pct"],
            f"fit PICP {quality['picp_pct']:.3f}% is not within "
            f"{reference['picp_tolerance_pct']} points of the reference {reference['picp_pct']}%",
        ),
    ]
    failures = [why for ok, why in fit_checks if not ok]
    checks.op(not failures, "; ".join(failures))
    if not args.trace:
        return {
            "setup_s": statistics.median(setups),
            "work_per_s": outcome["trained_windows"] / outcome["fit_s"],
            **wl.latency_summary(outcome["step_seconds"]),
            "peak_rss_mb": outcome["peak_rss_mb"],
            **quality,
        }
    return check_shims(args.workload, per_layer_fit(outcome), checks)


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _per_forward(totals: Dict[str, float], key: str) -> float:
    forwards = totals.get("models.forward.calls", 0.0)
    return totals.get(key, 0.0) / forwards if forwards else 0.0


def _forward_counts(totals: Dict[str, float]) -> Dict[str, float]:
    return {
        "nn.dropout_mask_calls": _per_forward(totals, "nn.dropout_mask"),
        "tensor.matmul_calls": _per_forward(totals, "tensor.matmul.calls"),
        "tensor.cat_calls": _per_forward(totals, "tensor.cat"),
        "tensor.matmul_mflop": _per_forward(totals, "tensor.matmul"),
    }


def expected_shims(workload: str) -> set:
    """Tracer keys that a traced run of ``workload`` must install: the
    sources of every per-layer metric the layer map says it moves."""
    return {
        entry["source"]
        for entry in LAYER_MAP["metrics"].values()
        if workload in entry["moves"] and entry["source"] not in ("client", "server")
    }


def check_shims(workload: str, metrics: Dict[str, Any], checks: Checks) -> Dict[str, Any]:
    """One more op, failed when a measurement point of the workload was not traced."""
    missing = sorted(expected_shims(workload) - set(metrics["_installed"]))
    checks.op(not missing, f"traced run installed no shim for {missing}")
    return metrics


def _min_share(residuals: List[List[float]], spans: List[float]) -> float:
    """Smallest residual of any op as a percentage of its span.

    Spans nest, so what a span leaves after its inner spans is never
    negative unless a layer is counted twice or outside its parent.
    """
    return min(100.0 * value / span for part in residuals for value, span in zip(part, spans))


def _zero_layers() -> Dict[str, float]:
    return {metric["name"]: 0.0 for metric in SPEC["per_layer"]}


def per_layer(workload: str, driven: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer split of the traced ops of an HTTP workload."""
    reports = driven["reports"]
    ops = [op for report in reports for op in report["ops"]]
    pairs = list(zip(driven["latencies"], driven["traced"], driven["sizes"]))
    traced_latency = [latency for latency, on, _ in pairs if on]
    plain_latency = [latency for latency, on, _ in pairs if not on]
    traced_sizes = [size for _, on, size in pairs if on]
    if len(ops) != len(traced_latency):
        raise RuntimeError(
            f"{len(ops)} traced ops on the system side for {len(traced_latency)} traced requests"
        )
    server: Dict[str, float] = {}
    for report in reports:
        for key, value in report["server"].items():
            server[key] = server.get(key, 0.0) + value

    def column(key: str) -> List[float]:
        return [op.get(key, 0.0) for op in ops]

    ms = 1000.0
    request, blocked = column("gateway.request"), column("serving.blocked")
    tick, resolve, record = column("fleet.tick"), column("streaming.resolve"), column("streaming.record")
    inner = tick if workload == "observe_256" else blocked
    # Self times: what each span leaves after the spans nested in it.
    gateway_self = [r - i for r, i in zip(request, inner)]
    fleet_self = [t - r - c - b for t, r, c, b in zip(tick, resolve, record, blocked)]
    totals: Dict[str, float] = {}
    for op in ops:
        for key, value in op.items():
            totals[key] = totals.get(key, 0.0) + value
    metrics = _zero_layers()
    metrics.update(
        {
            "gateway.self_ms": ms * _median(gateway_self),
            "gateway.request_kb": statistics.fmean(size[0] for size in traced_sizes) / 1024.0,
            "gateway.response_kb": statistics.fmean(size[1] for size in traced_sizes) / 1024.0,
            "serving.blocked_ms": ms * _median(blocked),
            "serving.batch_windows": server["windows"] / server["batches"],
            "serving.model_calls": server["batches"] / len(ops),
            "serving.cache_hit_ratio": (
                server["hits"] / server["lookups"] if server["lookups"] else 0.0
            ),
            "models.forward_ms": ms * _median(column("models.forward")),
            "models.forward_share": totals.get("models.forward", 0.0) / sum(traced_latency),
            **_forward_counts(totals),
            "trace.overhead_pct": 100.0 * (_median(traced_latency) / _median(plain_latency) - 1.0),
        }
    )
    metrics["_installed"] = sorted({key for report in reports for key in report["installed"]})
    metrics["_ops"] = len(ops)
    residuals = [gateway_self, fleet_self] if workload == "observe_256" else [gateway_self]
    metrics["_min_residual_pct"] = _min_share(residuals, request)
    if workload == "observe_256":
        # gateway.self, fleet.self, resolve, record and the serving wait
        # partition the server-side request span by construction; the share
        # of the client's latency that span leaves out (wire, header parse)
        # is what the self-test bounds.
        metrics["_self_time_gap_pct"] = 100.0 * (1.0 - sum(request) / sum(traced_latency))
        metrics.update(
            {
                "fleet.tick_ms": ms * _median(tick),
                "fleet.self_ms": ms * _median(fleet_self),
                "streaming.resolve_ms": ms * _median(resolve),
                "streaming.record_ms": ms * _median(record),
                "streaming.norm_ppf_calls": totals.get("streaming.norm_ppf", 0.0) / len(ops),
            }
        )
    return metrics


def per_layer_fit(outcome: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer split of the traced (every second) training steps."""
    ops, totals = outcome["ops"], outcome["totals"]
    steps = outcome["step_seconds"]
    traced = [seconds for seconds, on in zip(steps, outcome["step_traced"]) if on]
    plain = [seconds for seconds, on in zip(steps, outcome["step_traced"]) if not on]
    if len(ops) != len(traced):
        raise RuntimeError(f"{len(ops)} traced ops for {len(traced)} traced training steps")
    step_totals: Dict[str, float] = {}
    for op in ops:
        for key, value in op.items():
            step_totals[key] = step_totals.get(key, 0.0) + value
    ms = 1000.0
    metrics = _zero_layers()
    metrics.update(
        {
            "models.forward_ms": ms * _median([op.get("models.forward", 0.0) for op in ops]),
            "models.forward_share": step_totals.get("models.forward", 0.0) / sum(traced),
            **_forward_counts(step_totals),
            "core.pretrain_s": totals.get("core.pretrain", 0.0),
            "core.awa_s": totals.get("core.awa", 0.0),
            "core.calibrate_s": totals.get("core.calibrate", 0.0),
            "tensor.backward_ms": ms * _median([op.get("tensor.backward", 0.0) for op in ops]),
            "optim.step_ms": ms * _median([op.get("optim.step", 0.0) for op in ops]),
            "trace.overhead_pct": 100.0 * (_median(traced) / _median(plain) - 1.0),
        }
    )
    metrics["_installed"] = sorted(outcome["installed"])
    metrics["_ops"] = len(ops)
    inner = ("models.forward", "tensor.backward", "optim.step")
    metrics["_min_residual_pct"] = _min_share(
        [[step - sum(op.get(key, 0.0) for key in inner) for step, op in zip(traced, ops)]], traced
    )
    return metrics


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
RUNNERS = {"observe_256": run_observe, "predict_single": run_predict, "fit_pems03": run_fit}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def measure(args: argparse.Namespace) -> Tuple[Dict[str, Any], Checks]:
    """Run one workload; returns everything measured and the op checks."""
    checks = Checks()
    return RUNNERS[args.workload](args, checks), checks


def result_line(args: argparse.Namespace, measured: Dict[str, Any], checks: Checks) -> Dict[str, Any]:
    """The final JSON object: this run's section of BENCHMARK.json, with units."""
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        metric["name"]: {"value": float(measured[metric["name"]]), "unit": metric["unit"]}
        for metric in SPEC[section]
    }
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("stuqbench: run from the root of a repository checkout with src/repro", file=sys.stderr)
        return 2
    measured, checks = measure(args)
    result = result_line(args, measured, checks)
    for name, entry in result["metrics"].items():
        print(f"{args.workload:>15} {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        # The tail is printed, not gated: see README.md ("Metrics").
        print(
            f"{args.workload:>15} {'tail_ms':<28} {measured['tail_ms']:>14.6g} ms "
            f"(p{measured['tail_percentile']:.2f} of {measured['samples']} samples)"
        )
        print(f"{args.workload:>15} {'picp_pct':<28} {measured['picp_pct']:>14.6g} %")
    for reason in checks.reasons:
        print(f"{args.workload:>15} FAILED: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
