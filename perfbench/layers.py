"""Layer probes for the traced run and the per-layer metric table.

:func:`install` wraps the public entry points of each ``repro`` layer
(by the names their callers look up) with spans and counters;
:func:`per_layer_metrics` turns one traced run into the per-layer
metrics of ``BENCHMARK.json``.  Which end-to-end metric each per-layer
metric should move, on which workload, is tabled in ``NOTES.md``.
"""

from __future__ import annotations

import importlib
import statistics

from spans import Tracer

#: Modules whose functions are wrapped; imported before installation so
#: every module that holds a reference is already loaded.
PROBED_MODULES = (
    "repro.analysis.experiments",
    "repro.analysis.sweeps",
    "repro.atpg.compaction",
    "repro.atpg.fault_sim",
    "repro.atpg.iddq",
    "repro.atpg.podem",
    "repro.atpg.podem_compiled",
    "repro.atpg.polarity_atpg",
    "repro.atpg.sof_atpg",
    "repro.campaign.backends.sqlite",
    "repro.campaign.runner",
    "repro.campaign.tasks",
    "repro.core.detection",
    "repro.faults.logic",
    "repro.gates.characterize",
    "repro.logic.compiled",
    "repro.logic.multiword",
    "repro.logic.sequential",
    "repro.service.api",
    "repro.service.jobs",
    "repro.spice.batched",
    "repro.spice.dc",
    "repro.spice.transient",
    "repro.tcad.profiles",
)

#: Layers reported by self time (a span's layer is its name's prefix).
LAYERS = ("bench", "campaign", "service", "faults", "logic", "atpg",
          "analysis", "spice", "tcad")


def install(tracer: Tracer, workloads_module) -> None:
    for name in PROBED_MODULES:
        importlib.import_module(name)
    from repro.campaign.backends.sqlite import SqliteBackend
    from repro.faults.logic import StuckAtUniverse
    from repro.faults.universe import FaultUniverse
    from repro.service.api import ServiceClient
    from repro.service.jobs import JobManager

    count = tracer.count

    # campaign
    tracer.wrap_function(
        "repro.campaign.runner", "run_task_with_retries", "campaign.cell",
        unit_of=lambda a, k: a[0].task_id,
    )
    tracer.wrap_function(
        "repro.campaign.runner", "run_campaign", "campaign.run",
        after=lambda a, k, r, s: (
            count("campaign.cells", len(a[0])),
            count("campaign.resumed", r.n_skipped),
        ),
    )
    tracer.wrap_attr(SqliteBackend, "append", "campaign.store_append")
    tracer.wrap_attr(SqliteBackend, "claim", "campaign.store_claim")

    # faults
    def collapsed(args, kwargs, result, _s):
        parent = tracer.current()
        if parent is None or parent[1] != "faults.collapse":
            count(f"faults.n_collapsed.{args[0].name}", len(result))

    for cls in (FaultUniverse, StuckAtUniverse):
        tracer.wrap_attr(cls, "collapse", "faults.collapse", after=collapsed)

    # logic
    tracer.wrap_function("repro.logic.compiled", "compile_network",
                         "logic.compile")
    tracer.wrap_function("repro.logic.sequential", "unroll_network",
                         "logic.unroll")

    # atpg
    def podem_done(args, kwargs, result, _s):
        count("atpg.backtracks", result.total_backtracks)
        count("atpg.aborted_faults", len(result.aborted))
        count("atpg.podem_tests", len(result.tests))

    tracer.wrap_function("repro.atpg.podem", "run_stuck_at_atpg",
                         "atpg.podem", after=podem_done)
    tracer.wrap_function(
        "repro.atpg.podem", "generate_test", None,
        after=lambda a, k, r, s: count("atpg.podem_calls"),
    )

    def evals(args, kwargs, result, _s):
        count("atpg.fault_vector_evals", len(args[1]) * len(args[2]))

    for fn in ("parallel_stuck_at_simulation", "parallel_polarity_simulation",
               "polarity_detection_words"):
        tracer.wrap_function("repro.atpg.fault_sim", fn, "atpg.fault_sim",
                             after=evals)
    tracer.wrap_function("repro.atpg.polarity_atpg", "run_polarity_atpg",
                         "atpg.polarity_atpg")
    tracer.wrap_function("repro.atpg.iddq", "select_iddq_vectors",
                         "atpg.iddq_select")
    tracer.wrap_function(
        "repro.atpg.fault_sim", "detects_polarity", None,
        after=lambda a, k, r, s: count("atpg.detects_polarity_calls"),
    )
    tracer.wrap_function("repro.atpg.sof_atpg", "run_sof_atpg",
                         "atpg.sof_atpg")

    def compacted(args, kwargs, result, _s):
        count("atpg.compaction_in", len(args[1]))
        count("atpg.compaction_out", len(result.vectors))

    tracer.wrap_function("repro.atpg.compaction", "compact_tests",
                         "atpg.compaction", after=compacted)

    # service (client side of the HTTP API, and job execution)
    for method in ("submit", "status", "results", "metrics"):
        tracer.wrap_attr(ServiceClient, method, f"service.{method}")
    # The one private hook: the job id is known only inside _run_job,
    # and it tags every span of the job's campaign.
    tracer.wrap_attr(JobManager, "_run_job", "service.job",
                     unit_of=lambda a, k: f"job:{a[1].id}")

    # spice
    def dc_sweep(args, kwargs, result, _s):
        count("spice.dc_points", len(args[1]))
        count("spice.dc_nonconverged", int((~result.converged).sum()))

    tracer.wrap_function("repro.spice.batched", "solve_dc_sweep",
                         "spice.dc_sweep", after=dc_sweep)
    tracer.wrap_function("repro.spice.dc", "solve_dc", "spice.solve_dc")
    tracer.wrap_function(
        "repro.spice.transient", "run_transient", "spice.transient",
        after=lambda a, k, r, s: count("spice.transient_runs"),
    )
    tracer.wrap_function(
        "repro.spice.batched", "run_transient_sweep", "spice.transient",
        after=lambda a, k, r, s: count("spice.transient_runs", len(a[1])),
    )

    # tcad, and the benchmark's own electrical units
    tracer.wrap_function("repro.tcad.profiles", "figure4_summary",
                         "tcad.solve")
    tracer.wrap_attr(workloads_module, "electrical_output", "analysis.unit",
                     unit_of=lambda a, k: a[0])


def _p50_ms(tracer: Tracer, name: str) -> float:
    values = tracer.durations(name)
    return statistics.median(values) * 1e3 if values else 0.0


def per_layer_metrics(
    tracer: Tracer,
    rounds: int,
    units: list,
    memo: dict,
    models: dict,
    registry_load_s: float,
    host: dict[str, float],
    overhead: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; sums and counts are per traced round.  Unit
    latencies and span times are raw (not scaled to host speed);
    ``host`` carries the run's raw ``wall_s`` / ``setup_s`` and its
    median host-speed index."""
    per = 1.0 / max(1, rounds)
    c = tracer.counts

    def seconds(name: str) -> float:
        return tracer.total(name)[1] * per

    def calls(name: str) -> float:
        return tracer.total(name)[0] * per

    podem_calls = c["atpg.podem_calls"]
    fault_sim_s = tracer.total("atpg.fault_sim")[1]
    memo_total = memo["instance_hits"] + memo["hits"] + memo["misses"]
    model_total = sum(models.values())
    jobs = [u for u in units if u.id.startswith("job:")]
    status_calls = tracer.total("service.status")[0]
    latencies = sorted(u.latency_s for u in units)
    self_times = tracer.self_times()

    out = {
        "campaign.cell_s": (seconds("campaign.cell"), "s"),
        "campaign.store_appends": (calls("campaign.store_append"), "count"),
        "campaign.store_append_ms_p50": (
            _p50_ms(tracer, "campaign.store_append"), "ms"),
        "campaign.store_claims": (calls("campaign.store_claim"), "count"),
        "campaign.store_claim_ms_p50": (
            _p50_ms(tracer, "campaign.store_claim"), "ms"),
        "campaign.registry_load_s": (registry_load_s, "s"),
        "faults.collapse_s": (seconds("faults.collapse"), "s"),
        "faults.n_collapsed": (sum(
            v for k, v in c.items() if k.startswith("faults.n_collapsed.")
        ) * per, "count"),
        "logic.compile_s": (seconds("logic.compile"), "s"),
        "logic.compile_memo_hit_ratio": (
            (memo["instance_hits"] + memo["hits"]) / memo_total
            if memo_total else 0.0, "ratio"),
        "logic.unroll_s": (seconds("logic.unroll"), "s"),
        "atpg.fault_sim_s": (fault_sim_s * per, "s"),
        "atpg.fault_vector_evals": (
            c["atpg.fault_vector_evals"] * per, "count"),
        "atpg.fault_vector_evals_per_s": (
            c["atpg.fault_vector_evals"] / fault_sim_s
            if fault_sim_s else 0.0, "1/s"),
        "atpg.podem_s": (seconds("atpg.podem"), "s"),
        "atpg.podem_calls": (podem_calls * per, "count"),
        "atpg.backtracks": (c["atpg.backtracks"] * per, "count"),
        "atpg.aborted_faults": (c["atpg.aborted_faults"] * per, "count"),
        "atpg.tests_per_podem_call": (
            c["atpg.podem_tests"] / podem_calls if podem_calls else 0.0,
            "ratio"),
        "atpg.polarity_atpg_s": (seconds("atpg.polarity_atpg"), "s"),
        "atpg.iddq_select_s": (seconds("atpg.iddq_select"), "s"),
        "atpg.detects_polarity_calls": (
            c["atpg.detects_polarity_calls"] * per, "count"),
        "atpg.sof_atpg_s": (seconds("atpg.sof_atpg"), "s"),
        "atpg.compaction_s": (seconds("atpg.compaction"), "s"),
        "atpg.compaction_ratio": (
            c["atpg.compaction_out"] / c["atpg.compaction_in"]
            if c["atpg.compaction_in"] else 0.0, "ratio"),
        "service.submit_ms_p50": (_p50_ms(tracer, "service.submit"), "ms"),
        "service.status_ms_p50": (_p50_ms(tracer, "service.status"), "ms"),
        "service.results_ms_p50": (_p50_ms(tracer, "service.results"), "ms"),
        "service.metrics_ms_p50": (_p50_ms(tracer, "service.metrics"), "ms"),
        "service.queue_wait_s_p50": (statistics.median(
            [u.extra["queue_wait_s"] for u in jobs]) if jobs else 0.0, "s"),
        "service.run_s_p50": (statistics.median(
            [u.extra["run_s"] for u in jobs]) if jobs else 0.0, "s"),
        "service.polls_per_job": (
            status_calls / len(jobs) if jobs else 0.0, "ratio"),
        "service.resumed_share": (
            c["campaign.resumed"] / c["campaign.cells"]
            if jobs and c["campaign.cells"] else 0.0, "ratio"),
        "spice.dc_sweep_s": (seconds("spice.dc_sweep"), "s"),
        "spice.dc_points": (c["spice.dc_points"] * per, "count"),
        "spice.dc_nonconverged": (c["spice.dc_nonconverged"] * per, "count"),
        "spice.solve_dc_s": (seconds("spice.solve_dc"), "s"),
        "spice.solve_dc_calls": (calls("spice.solve_dc"), "count"),
        "spice.transient_s": (seconds("spice.transient"), "s"),
        "spice.transient_runs": (c["spice.transient_runs"] * per, "count"),
        "device.model_cache_hit_ratio": (
            (models["device_hits"] + models["table_hits"]) / model_total
            if model_total else 0.0, "ratio"),
        "tcad.solve_s": (seconds("tcad.solve"), "s"),
        "unit_p50_s": (
            statistics.median(latencies) if latencies else 0.0, "s"),
        "unit_p90_s": (
            statistics.quantiles(latencies, n=10)[-1]
            if len(latencies) >= 2 else 0.0, "s"),
        "trace.overhead": (overhead, "ratio"),
        "trace.spans": (len(tracer.spans) * per, "count"),
    }
    out["raw.wall_s"] = (host["raw.wall_s"], "s")
    out["raw.setup_s"] = (host["raw.setup_s"], "s")
    out["host.speed_index_ms"] = (host["host.speed_index_ms"], "ms")
    for layer in LAYERS:
        out[f"self_s.{layer}"] = (self_times.get(layer, 0.0) * per, "s")
    return out
