"""Steadiness report: run each workload N times, one seed per run, and
print for every metric its median, quartiles, (Q3 - Q1) / median and
(max - min) / median.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 --workloads atpg_grid electrical

Runs are sequential (one benchmark process at a time).  The raw values
are written to ``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-800:]}")
    for line in proc.stderr.splitlines():
        if line.startswith(("FAILED", "MISMATCH")):
            print(f"{workload} seed {seed}: {line}", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) if median else 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in benchmark["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    raw: dict[str, dict[str, list[float]]] = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT "
                      f"({result['failed']}/{result['attempted']} failed)")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}"
                for n, m in result["metrics"].items()
                if n in bounds or args.trace
            ), flush=True)
        raw[workload] = values
        print(f"\n{workload} ({args.runs} runs)")
        print(f"  {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        for name, series in values.items():
            if len(series) < 2 or (not args.trace and name not in bounds):
                continue
            s = summarize(series)
            print(f"  {name:<16} {s['median']:>10.4g} {s['q1']:>10.4g} "
                  f"{s['q3']:>10.4g} {s['iqr_share']:>8.3f} "
                  f"{s['range_share']:>9.3f} {bounds.get(name, ''):>6}")
        print(flush=True)
    out = ROOT / ".perfbench_out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
