"""Campaign store (sqlite): write/scan/verify throughput.

Runs the store's full claim-and-commit write path on one synthetic
campaign (register the task table, claim each task, append its result
record), then times a cold ``latest()`` scan and a full ``verify()``
integrity audit (per-row CRC-32 recomputation), asserting

* the store round-trips the records bit-identically after
  ``strip_volatile``, and
* it verifies clean (no corrupt, quarantined or stale rows),

then writes a machine-readable perf record to ``BENCH_store.json`` at
the repository root.  There is no speed bar: the numbers are the
measured price of atomic claiming and per-row checksums, a transaction
per append, to set against cells that cost milliseconds to seconds.

Dual-mode: run under pytest (``pytest benchmarks/bench_store_backends.py``)
or standalone::

    PYTHONPATH=src python benchmarks/bench_store_backends.py [--smoke]

``--smoke`` shrinks the synthetic campaign so the bench finishes in
about a second on a shared runner.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis import save_report
from repro.analysis.report import ascii_table
from repro.campaign.backends import SqliteBackend
from repro.campaign.store import strip_volatile

N_RECORDS = 2000
N_RECORDS_SMOKE = 300
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def synth_records(n):
    """A deterministic synthetic campaign: n tasks, one record each."""
    records = []
    for i in range(n):
        task_id = f"bench{i:05d}/fault_sim/auto"
        records.append({
            "schema": 2,
            "task_id": task_id,
            "circuit": task_id.split("/")[0],
            "fault_class": "fault_sim",
            "engine_used": "auto",
            "status": "ok",
            "attempt": 1,
            "runtime_s": 0.0,
            "metrics": {
                "n_faults": 100 + i,
                "coverage": (i % 97) / 97.0,
                "note": "synthetic store-throughput row, μ-fault free",
            },
        })
    return records


def bench_store(records, tmp_dir):
    """Time write / scan / verify on one fresh store; return a record."""
    path = Path(tmp_dir) / "bench.sqlite"
    task_ids = [r["task_id"] for r in records]

    t0 = time.perf_counter()
    with SqliteBackend(path).open() as store:
        store.register(task_ids)
        for record in records:
            store.claim(record["task_id"])
            store.append(dict(record))
        store.release()
    write_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with SqliteBackend(path).open() as store:
        latest = store.latest()
    scan_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with SqliteBackend(path).open() as store:
        report = store.verify()
    verify_s = time.perf_counter() - t0

    assert report["ok"], "dirty verify on a healthy store"
    assert strip_volatile(latest.values()) == strip_volatile(records), (
        "store round-trip diverges from the written records"
    )
    store_bytes = sum(
        f.stat().st_size for f in (path, *path.parent.glob(path.name + "-*"))
    )
    return {
        "backend": "sqlite",
        "n_records": len(records),
        "write_s": write_s,
        "writes_per_s": len(records) / write_s,
        "scan_s": scan_s,
        "verify_s": verify_s,
        "store_bytes": store_bytes,
    }


def run_backends(n=N_RECORDS):
    """Bench the store on one synthetic campaign (a one-entry list, the
    ``records`` layout of ``BENCH_store.json``)."""
    with tempfile.TemporaryDirectory() as tmp_dir:
        return [bench_store(synth_records(n), tmp_dir)]


def format_report(results):
    rows = [
        (
            r["backend"], r["n_records"],
            f"{r['writes_per_s']:.0f}",
            f"{r['write_s'] * 1e3:.1f}",
            f"{r['scan_s'] * 1e3:.1f}",
            f"{r['verify_s'] * 1e3:.1f}",
            f"{r['store_bytes'] / 1024:.0f}",
        )
        for r in results
    ]
    return "\n".join([
        "Campaign store (sqlite): claim-and-commit write path, cold scan,"
        " integrity audit",
        ascii_table(
            ("backend", "records", "writes/s", "write ms", "scan ms",
             "verify ms", "KiB"),
            rows,
        ),
        "",
        "One synthetic campaign: register + claim + append per task",
        "(the runner's hot path), latest() on a freshly opened store,",
        "and the verify() audit (per-row CRC-32 recomputation).  The",
        "store round-trips strip_volatile-identical records and",
        "verifies clean.",
    ])


def write_record(results, path=RECORD_PATH):
    record = {
        "benchmark": "store_backends",
        "schema_version": 1,
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "python": sys.version.split()[0],
        "workload": "register + claim + append per task, cold latest() "
                    "scan, full verify() audit",
        "records": results,
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def test_store_backends(once):
    results = run_backends()
    report = format_report(results)
    print("\n" + report)
    save_report("store_backends", report)
    write_record(results)
    once(lambda: run_backends(n=N_RECORDS_SMOKE))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"shrink the campaign to {N_RECORDS_SMOKE} records",
    )
    parser.add_argument(
        "--out", type=Path, default=RECORD_PATH,
        help="perf-record path (default: repo-root BENCH_store.json)",
    )
    args = parser.parse_args(argv)
    results = run_backends(N_RECORDS_SMOKE if args.smoke else N_RECORDS)
    print(format_report(results))
    path = write_record(results, args.out)
    print(f"\nperf record -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
