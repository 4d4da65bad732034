"""Steadiness report: run every workload over several seeds, in two sets.

For each workload and end-to-end metric it reports the median and quartiles
of each set (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` of each set against the metric's bound, and how far
the second set's median moved from the first's.  It also records the
machine (CPU count, Python, NumPy).  From the root of a checkout::

    python3 stuqbench/steadiness.py --runs 10 --sets 2 --out stuqbench/steadiness.json

Each set uses seeds ``0 .. runs-1``; a run is the benchmark command with
``--trace 0`` and ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: Dict[str, Any], workload: str, seed: int) -> Dict[str, Any]:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: List[float], bound: float) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "spread_over_bound": spread / bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    import numpy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [entry["name"] for entry in spec["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    report: Dict[str, Any] = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "runs_per_set": args.runs,
        "workloads": {},
    }
    for workload in workloads:
        sets: List[Dict[str, List[float]]] = []
        for set_index in range(args.sets):
            values: Dict[str, List[float]] = {name: [] for name in bounds}
            for seed in range(args.runs):
                result = run_once(spec, workload, seed)
                if not result["correct"]:
                    raise RuntimeError(f"{workload} seed {seed} was not correct: {result}")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} set {set_index} seed {seed} done", file=sys.stderr, flush=True)
            sets.append(values)
        metrics: Dict[str, Any] = {}
        for name, bound in bounds.items():
            summaries = [
                {**summarize(values[name], bound), "values": values[name]} for values in sets
            ]
            entry: Dict[str, Any] = {"bound": bound, "sets": summaries}
            if len(summaries) > 1:
                first, second = summaries[0]["median"], summaries[-1]["median"]
                shift = (second - first) / first if first else 0.0
                worse = shift if better[name] == "lower" else -shift
                entry["median_worsening"] = worse
                entry["median_worsening_over_bound"] = worse / bound
            metrics[name] = entry
            line = "  ".join(
                f"set{index}: med {s['median']:.6g} spread {s['spread']:.4f} ({s['spread_over_bound']:.2f} of bound)"
                for index, s in enumerate(summaries)
            )
            print(f"{workload:>15} {name:<18} {line}", flush=True)
        report["workloads"][workload] = metrics
    text = json.dumps(report, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
