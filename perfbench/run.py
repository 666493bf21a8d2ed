"""Benchmark runner: one workload, one seed, one measured run.

Run from the repository root::

    python3 perfbench/run.py --workload atpg_grid --seed 1 --seconds 20 --trace 0

The run sets the workload up from the seed, spawns
:data:`SETUP_SAMPLES` fresh processes that each set it up again (their
median, process start to workload ready, is ``setup_s``), then repeats
rounds of the workload until ``--seconds`` have passed (at least
:data:`MIN_ROUNDS` rounds).  Every unit of every round is checked
against ``reference.json``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

With ``--trace 1`` rounds alternate untraced and traced; the traced
ones record spans (see ``spans.py`` / ``layers.py``), the span list is
written to ``.perfbench_out/`` at exit, and ``trace.overhead`` is the
traced round time over the untraced one.  Traced outputs must equal
untraced ones or the run is not correct.

``--setup-only`` is the child mode used for ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3
MIN_ROUNDS = 2


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run on
    anything else (a stray installed copy must not be measured)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def setup_samples(args, work_dir: Path) -> list[tuple[float, float]]:
    """``(raw, index)`` per fresh interpreter: wall time from spawn to
    its READY line, and the host-speed index the child sampled."""
    samples = []
    for k in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PERFBENCH_WORK": str(work_dir / f"setup{k}")},
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, _, index = line.partition(" ")
        if word != "READY" or proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {err.strip()[-400:]}")
        samples.append((elapsed, float(index)))
    return samples


def median_round(times: list[float]) -> float:
    return statistics.median(times) if times else 0.0


def setup_child(args) -> int:
    """``--setup-only``: set the workload up, print ``READY <index>``.
    The host-speed sampler starts before the first ``repro`` import."""
    work_dir = Path(os.environ.get("PERFBENCH_WORK") or
                    WORK_ROOT / f"setup-{os.getpid()}")
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        with hostspeed.Sampler() as sampler:
            bootstrap()
            import workloads as wl
            from repro.campaign import get_registry

            get_registry()
            wl.WORKLOADS[args.workload][0](args.seed, work_dir)
        print(f"READY {sampler.index()!r}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_child(args)
    bootstrap()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, run_round = wl.WORKLOADS[args.workload]

    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, wl, setup, run_round, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def measure(args, wl, setup, run_round, work_dir: Path) -> int:
    start = time.perf_counter()
    from repro.campaign import get_registry

    get_registry()
    registry_load_s = time.perf_counter() - start
    state = setup(args.seed, work_dir)
    setups = setup_samples(args, work_dir)
    setup_raw = statistics.median(raw for raw, _index in setups)
    setup_s = statistics.median(
        hostspeed.scale(raw, index) for raw, index in setups
    )

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()

    # Round times scaled to the reference host speed (see hostspeed.py).
    plain_times: list[float] = []
    traced_times: list[float] = []
    plain_raw: list[float] = []
    indices: list[float] = []
    plain_units: list = []
    traced_units: list = []
    all_units: list = []
    mismatches: list[str] = []
    memo = {"instance_hits": 0, "hits": 0, "misses": 0, "evictions": 0}
    models: dict[str, int] = {}
    first_outputs: dict[str, object] = {}
    measure_start = time.perf_counter()
    index = 0
    round_times: list[float] = []
    # A new round starts only if it is expected to end by the deadline
    # plus half a round, so every run lasts about ``--seconds``.
    while index < MIN_ROUNDS or (
        time.perf_counter() - measure_start
        + 0.5 * statistics.median(round_times) < args.seconds
    ):
        traced = tracer is not None and index % 2 == 1
        round_dir = work_dir / f"round{index}"
        round_dir.mkdir()
        if traced:
            layers.install(tracer, wl)
            root = tracer.begin("bench.round", f"round{index}")
        t0 = time.perf_counter()
        try:
            with hostspeed.Sampler() as sampler:
                units = run_round(state, round_dir)
        finally:
            raw = time.perf_counter() - t0
            if traced:
                tracer.end(root)
                tracer.uninstall()
        if traced:
            from repro.device.cache import model_cache_stats
            from repro.logic.compiled import compile_memo_stats

            for key, value in compile_memo_stats().items():
                memo[key] += value
            for key, value in model_cache_stats().items():
                models[key] = models.get(key, 0) + value
        indices.append(sampler.index())
        elapsed = hostspeed.scale(raw, indices[-1])
        (traced_times if traced else plain_times).append(elapsed)
        if not traced:
            plain_raw.append(raw)
        round_times.append(raw)
        (traced_units if traced else plain_units).extend(units)
        all_units.extend(units)
        for unit in units:
            # Same unit in a traced and an untraced round: same output.
            if unit.output is None:
                continue
            key = json.dumps(unit.output, sort_keys=True, default=str)
            if first_outputs.setdefault(unit.id, key) != key:
                mismatches.append(unit.id)
        shutil.rmtree(round_dir, ignore_errors=True)
        index += 1

    failed = [u for u in all_units if not u.ok]
    for unit in failed[:20]:
        print(f"FAILED {unit.id}: {unit.error}", file=sys.stderr)
    for unit_id in sorted(set(mismatches))[:20]:
        print(f"MISMATCH {unit_id}: output differs between rounds",
              file=sys.stderr)
    attempted = len(all_units)
    correct = not failed and not mismatches and attempted > 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        measured = sum(plain_times)
        coverages = [c for u in plain_units for c in u.coverages]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (median_round(plain_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": ((attempted - len(failed)) / max(1, attempted),
                         "ratio"),
            "coverage_mean": (statistics.fmean(coverages)
                              if coverages else 0.0, "ratio"),
            "units_per_s": (len(plain_units) / measured if measured else 0.0,
                            "1/s"),
        }
        print(f"raw (unscaled): wall_s={median_round(plain_raw):.4f} "
              f"setup_s={setup_raw:.4f} units_per_s="
              f"{len(plain_units) / sum(plain_raw):.4f}; host-speed index "
              f"median {statistics.median(indices) * 1e3:.4f} ms "
              f"(reference {hostspeed.REFERENCE_KERNEL_S * 1e3:.4f} ms)")
    else:
        metrics = layers.per_layer_metrics(
            tracer,
            rounds=len(traced_times),
            units=traced_units,
            memo=memo,
            models=models,
            registry_load_s=registry_load_s,
            host={
                "raw.wall_s": median_round(plain_raw),
                "raw.setup_s": setup_raw,
                "host.speed_index_ms": statistics.median(indices) * 1e3,
            },
            overhead=(median_round(traced_times) / median_round(plain_times)
                      if plain_times and traced_times else 0.0),
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        print(f"{'layer':<10} {'self s/round':>12}")
        for layer in layers.LAYERS:
            print(f"{layer:<10} {metrics[f'self_s.{layer}'][0]:>12.4f}")
        print(f"trace overhead: x{metrics['trace.overhead'][0]:.3f} "
              f"(traced {median_round(traced_times):.3f} s vs untraced "
              f"{median_round(plain_times):.3f} s per round, at the "
              f"reference host speed; self times are raw)")

    print(f"{args.workload} seed={args.seed}: {index} rounds, "
          f"{attempted} units, {len(failed)} failed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
