"""Self-test of the benchmark: every workload, tiny, traced and untraced.

From the root of a checkout::

    python3 stuqbench/selftest.py

It checks that

* every run is correct and reports exactly the metric names and units of
  its ``BENCHMARK.json`` section, each a finite number;
* ``layer_map.json`` covers exactly the per-layer metrics and names only
  existing workloads and end-to-end metrics;
* every per-layer metric is exercised by some workload: non-zero, or, for a
  metric the layer map expects to read 0 in steady state, its measurement
  point was installed on a workload that ran ops;
* on ``observe_256`` the layer self times sum to the load generator's
  latency within ``trace.overhead_pct``, or within 1% when the measured
  overhead is smaller than that;
* on every workload no op's self time (a span less the spans nested in
  it: gateway, fleet, training step) is negative beyond that same
  tolerance, so no layer is counted twice or outside its parent;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files
  the command exits non-zero without printing a result.

Runs take one set-up each instead of three, and the HTTP workloads run
their minimum op counts; the fit runs at its fixed size.  About a minute
and a half on a 2-CPU machine.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY_SECONDS = {"observe_256": 1, "predict_single": 1, "fit_pems03": 1}


def check_layer_map(spec: Dict, layer_map: Dict, problems: List[str]) -> None:
    names = {metric["name"] for metric in spec["per_layer"]}
    mapped = set(layer_map["metrics"])
    if names != mapped:
        problems.append(f"layer map covers {sorted(mapped ^ names)} differently from BENCHMARK.json")
    workloads = {entry["name"] for entry in spec["workloads"]}
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    for name, entry in layer_map["metrics"].items():
        for workload, moved in entry["moves"].items():
            if workload not in workloads or not set(moved) <= end_to_end:
                problems.append(f"layer map entry {name} names unknown {workload} / {moved}")


def check_result(spec: Dict, args, measured: Dict, checks, problems: List[str]) -> None:
    label = f"{args.workload} trace={args.trace}"
    if checks.failed:
        problems.append(f"{label}: {checks.failed} failed ops: {checks.reasons}")
    result = json.loads(json.dumps(run.result_line(args, measured, checks)))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    section = spec["per_layer" if args.trace else "end_to_end"]
    expected = [(metric["name"], metric["unit"]) for metric in section]
    got = [(name, entry["unit"]) for name, entry in result["metrics"].items()]
    if got != expected:
        problems.append(f"{label}: metric names/units {got} differ from {expected}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], float) or not math.isfinite(entry["value"]):
            problems.append(f"{label}: {name} = {entry['value']!r} is not a finite number")


def check_bare_directory(problems: List[str]) -> None:
    bare = ROOT / ".stuqbench_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "0",
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=180,
        )
        if done.returncode == 0 or done.stdout.strip():
            problems.append(
                f"bare directory: exit {done.returncode}, stdout {done.stdout.strip()[:200]!r}"
            )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    problems: List[str] = []
    check_layer_map(spec, layer_map, problems)
    run.SETUPS = 1
    traced_runs: Dict[str, Dict] = {}
    for entry in spec["workloads"]:
        workload = entry["name"]
        for trace in (0, 1):
            args = run.parse_args(
                ["--workload", workload, "--seed", "0",
                 "--seconds", str(TINY_SECONDS[workload]), "--trace", str(trace)]
            )
            measured, checks = run.measure(args)
            check_result(spec, args, measured, checks, problems)
            if trace:
                traced_runs[workload] = measured
            print(f"selftest: {workload} trace={trace} done", flush=True)

    for metric in spec["per_layer"]:
        name = metric["name"]
        source = layer_map["metrics"][name]
        exercised = any(measured[name] != 0.0 for measured in traced_runs.values())
        if not exercised and source.get("zero_in_steady_state"):
            exercised = any(
                measured["_ops"] > 0
                and (source["source"] in ("client", "server")
                     or source["source"] in measured["_installed"])
                for measured in traced_runs.values()
            )
        if not exercised:
            problems.append(f"per-layer metric {name} is exercised by no workload")

    observe = traced_runs["observe_256"]
    gap, overhead = observe["_self_time_gap_pct"], observe["trace.overhead_pct"]
    print(f"selftest: observe_256 self times leave {gap:.3f}% of latency; overhead {overhead:.3f}%")
    # The request span also holds the handler's bookkeeping after the
    # response is written, so the gap can come out slightly negative.
    if abs(gap) > max(abs(overhead), 1.0):
        problems.append(
            f"observe_256 layer self times leave {gap:.3f}% of the latency, "
            f"outside the tracing overhead {overhead:.3f}%"
        )
    for workload, measured in traced_runs.items():
        lowest, tolerance = measured["_min_residual_pct"], max(abs(measured["trace.overhead_pct"]), 1.0)
        print(f"selftest: {workload} smallest self time {lowest:.3f}% of its span")
        if lowest < -tolerance:
            problems.append(
                f"{workload}: a self time is {lowest:.3f}% of its span, below -{tolerance:.3f}%"
            )
    check_bare_directory(problems)

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
