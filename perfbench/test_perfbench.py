"""The benchmark's own tests.

Run from the repository root (they are not part of the tier-1 suite)::

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

import check  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name


def test_per_layer_table_matches_benchmark_json():
    tracer = Tracer()
    memo = {"instance_hits": 0, "hits": 0, "misses": 0, "evictions": 0}
    models = {"device_hits": 0, "device_misses": 0,
              "table_hits": 0, "table_misses": 0}
    host = {"raw.wall_s": 1.0, "raw.setup_s": 1.0, "host.speed_index_ms": 0.25}
    metrics = layers.per_layer_metrics(
        tracer, 1, [], memo, models, 0.0, host, 1.0
    )
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name, (_value, unit) in metrics.items():
        assert units[name] == unit, name


def test_same_seed_same_circuits_and_job_sequence(tmp_path):
    reference = wl.load_reference()
    from repro.logic.bench_format import write_bench

    def atpg_inputs(seed):
        picks = wl.stratified_pick(
            wl.random.Random(seed), reference["atpg_pool_cost"],
            wl.ATPG_STRATA,
        )
        return [write_bench(wl.atpg_pool_network(s)) for s in picks]

    assert atpg_inputs(7) == atpg_inputs(7)
    assert atpg_inputs(7) != atpg_inputs(8)
    assert wl.job_sequences(7, reference) == wl.job_sequences(7, reference)
    assert wl.job_sequences(7, reference) != wl.job_sequences(8, reference)
    a = wl.setup_electrical(3, tmp_path)
    b = wl.setup_electrical(3, tmp_path)
    assert a.units == b.units


def test_job_sequence_never_shares_a_circuit_between_clients():
    reference = wl.load_reference()
    for seed in range(5):
        first, second = wl.job_sequences(seed, reference)
        assert not {c for j in first for c in j} & {c for j in second for c in j}
        for sequence in (first, second):
            assert len(sequence) == wl.SERVICE_FRESH_JOBS + wl.SERVICE_RESUBMITS
            assert len({tuple(job) for job in sequence}) == wl.SERVICE_FRESH_JOBS


def _cell(task_id="c17/stuck_at/compiled"):
    reference = wl.load_reference()["cells"][task_id]
    return {"task_id": task_id, "status": "ok",
            "metrics": dict(reference)}, reference


def test_checker_passes_reference_cell_and_flags_tampered_ones():
    record, reference = _cell()
    assert check.check_cell(record, reference) is None
    lowered = json.loads(json.dumps(record))
    lowered["metrics"]["coverage"] = reference["coverage"] - 0.01
    assert "below reference" in check.check_cell(lowered, reference)
    recounted = json.loads(json.dumps(record))
    recounted["metrics"]["n_faults"] += 1
    assert "!= reference" in check.check_cell(recounted, reference)
    errored = dict(record, status="error", error="boom")
    assert "status" in check.check_cell(errored, reference)


def test_checker_flags_done_job_with_a_missing_row():
    cells = wl.load_reference()["cells"]
    ids = ["svc101/stuck_at/compiled", "svc101/fault_sim/compiled"]
    records = [{"task_id": t, "status": "ok", "metrics": dict(cells[t])}
               for t in ids]
    status = {"id": "j1", "state": "done"}
    assert check.check_job(status, records, ids, cells, set()) is None
    missing = check.check_job(status, records[:1], ids, cells, set())
    assert "missing" in missing
    dup = check.check_job(status, records + records[:1], ids, cells, set())
    assert "duplicated" in dup
    in_store = check.check_job(status, records, ids, cells, {ids[0]})
    assert "duplicated" in in_store
    running = check.check_job({"id": "j1", "state": "running"}, records,
                              ids, cells, set())
    assert "state" in running


def test_checker_flags_changed_electrical_output():
    reference = wl.load_reference()["electrical"]["table3"]
    assert check.check_electrical("table3", reference, reference) is None
    tampered = json.loads(json.dumps(reference))
    tampered[0][3] = not tampered[0][3]
    assert check.check_electrical("table3", tampered, reference)


def _small_grid_state():
    from repro.campaign import expand_grid

    grid = expand_grid(["c17", "rca4"], ["stuck_at", "stuck_open"])
    return wl.GridState(grid=grid, reference=wl.load_reference()["cells"])


def _outputs(units):
    return [(u.id, u.error, u.output) for u in units]


def test_traced_and_untraced_rounds_give_identical_outputs(tmp_path):
    state = _small_grid_state()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    plain = wl.run_grid_round(state, tmp_path / "a")
    tracer = Tracer()
    layers.install(tracer, wl)
    try:
        traced = wl.run_grid_round(state, tmp_path / "b")
    finally:
        tracer.uninstall()
    assert all(u.ok for u in plain)
    assert _outputs(plain) == _outputs(traced)
    assert tracer.total("campaign.cell")[0] == len(state.grid)
    assert tracer.total("atpg.podem")[0] >= 2
    self_times = tracer.self_times()
    assert self_times["campaign"] > 0 and self_times["atpg"] > 0


def test_uninstall_restores_every_probe():
    import repro.campaign.tasks as tasks
    from repro.service.api import ServiceClient

    before = (tasks.run_stuck_at_atpg, ServiceClient.submit)
    tracer = Tracer()
    layers.install(tracer, wl)
    assert tasks.run_stuck_at_atpg is not before[0]
    tracer.uninstall()
    assert (tasks.run_stuck_at_atpg, ServiceClient.submit) == before


@pytest.mark.parametrize("name", ["fig4", "table3"])
def test_electrical_units_match_reference(name):
    reference = wl.load_reference()["electrical"][name]
    assert check.check_electrical(
        name, wl.electrical_output(name), reference
    ) is None
