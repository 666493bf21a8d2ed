"""The four benchmark workloads.

Each workload has a ``setup(seed, work_dir)`` that builds every input
from the seed, and a ``run_round(state, round_dir)`` that runs one
fixed amount of work and returns its :class:`Unit` outcomes — grid
cells, service jobs, or electrical sweeps — already checked against
``reference.json`` by :mod:`check`.  ``run.py`` repeats rounds for the
measured time and reports medians.

Why each workload exists is in ``NOTES.md``; the comments here say only
what the code cannot.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any

import check
import hostspeed

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Seeded random circuits for ``atpg_grid``: the pool is fixed (its
#: reference outputs are in reference.json) and a run's seed draws one
#: circuit from each cost stratum, so every seed gives PODEM fresh
#: circuits while the total work stays the same.
ATPG_POOL_SEEDS = tuple(range(1, 49))
ATPG_POOL_GATES = 40
ATPG_STRATA = 8
ATPG_RANDOM_CLASSES = ("stuck_at", "polarity")

#: Small circuits for ``service_jobs`` cells (cheap, so the service and
#: store layers dominate), drawn per stratum like the ATPG pool.
SERVICE_POOL_SEEDS = tuple(range(101, 133))
SERVICE_POOL_GATES = 24
SERVICE_POOL_INPUTS = 6
SERVICE_STRATA = 16
SERVICE_CLASSES = ("stuck_at", "fault_sim")
SERVICE_CLIENTS = 2
#: Per client: fresh jobs (one new circuit each) and re-submissions of
#: a grid the same client already finished (served by resume).
SERVICE_FRESH_JOBS = 8
SERVICE_RESUBMITS = 4
SERVICE_METRICS_EVERY = 3
#: Status poll interval.  Finer than ``ServiceClient.wait``'s 50 ms, so
#: the time a finished job waits to be noticed stays a small share of a
#: job and the status reads are a real load on the store.
SERVICE_POLL_S = 0.01
SERVICE_JOB_WORKERS = 2

#: Fig. 5 resolution of the paper's figure (``experiment_fig5`` default).
FIG5_POINTS = 8


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@dataclasses.dataclass
class Unit:
    """One verified unit of work (cell, job or sweep)."""

    id: str
    latency_s: float
    error: str | None
    coverages: list[float]
    #: Canonical output, compared between traced and untraced rounds.
    output: Any
    #: Service jobs only: ``queue_wait_s`` and ``run_s`` from status.
    extra: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


def atpg_pool_name(gen_seed: int) -> str:
    return f"rnd{gen_seed}"


def service_pool_name(gen_seed: int) -> str:
    return f"svc{gen_seed}"


def atpg_pool_network(gen_seed: int):
    from repro.circuits.random_circuits import random_network

    return random_network(
        gen_seed, n_gates=ATPG_POOL_GATES, name=atpg_pool_name(gen_seed)
    )


def service_pool_network(gen_seed: int):
    from repro.circuits.random_circuits import random_network

    return random_network(
        gen_seed,
        n_gates=SERVICE_POOL_GATES,
        n_inputs=SERVICE_POOL_INPUTS,
        name=service_pool_name(gen_seed),
    )


def stratified_pick(
    rng: random.Random, costs: dict[str, float], strata: int
) -> list[int]:
    """One pool seed per cost stratum (pool sorted by reference cost)."""
    ordered = sorted(costs, key=lambda k: (costs[k], int(k)))
    size = len(ordered) // strata
    return [
        int(ordered[k * size + int(rng.random() * size)])
        for k in range(strata)
    ]


def register(networks) -> list[str]:
    """Register networks in the default registry by bench text, the
    way an external netlist enters a campaign."""
    from repro.campaign.registry import get_registry
    from repro.logic.bench_format import write_bench

    registry = get_registry()
    networks = list(networks)
    for network in networks:
        registry.register_bench_text(
            network.name, write_bench(network), replace=True
        )
    return [network.name for network in networks]


def reset_caches() -> None:
    """Each round pays what one user run pays: cold compile and device
    memos (campaign workers and ``repro`` CLI runs start cold too)."""
    from repro.device.cache import clear_model_caches
    from repro.logic.compiled import clear_compile_memo

    clear_compile_memo()
    clear_model_caches()
    gc.collect()


def _cell_units(records, reference: dict) -> list[Unit]:
    from repro.campaign.store import strip_volatile

    units = []
    for record in records:
        error = check.check_cell(record, reference.get(record["task_id"]))
        units.append(
            Unit(
                id=record["task_id"],
                latency_s=float(record.get("runtime_s", 0.0)),
                error=error,
                coverages=check.coverages(record),
                output=strip_volatile([record]),
            )
        )
    return units


# ---------------------------------------------------------------------------
# atpg_grid and corpus_faultsim: campaign grids
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GridState:
    grid: list
    reference: dict


def setup_atpg_grid(seed: int, work_dir: Path) -> GridState:
    from repro.campaign import DEFAULT_FAULT_CLASSES, expand_grid
    from repro.campaign.tables import SECTION5_SUITE

    reference = load_reference()
    picks = stratified_pick(
        random.Random(seed), reference["atpg_pool_cost"], ATPG_STRATA
    )
    names = register(atpg_pool_network(s) for s in picks)
    grid = expand_grid(list(SECTION5_SUITE), DEFAULT_FAULT_CLASSES)
    grid += expand_grid(names, ATPG_RANDOM_CLASSES)
    return GridState(grid=grid, reference=reference["cells"])


def setup_corpus_faultsim(seed: int, work_dir: Path) -> GridState:
    from repro.campaign import expand_grid, get_registry

    names = get_registry().names(tags=["corpus"])
    names = rng_sample(random.Random(seed), names, len(names))
    grid = expand_grid(names, ["fault_sim"], engine="auto")
    return GridState(grid=grid, reference=load_reference()["cells"])


def run_grid_round(state: GridState, round_dir: Path) -> list[Unit]:
    from repro.campaign import run_campaign

    reset_caches()
    result = run_campaign(
        state.grid,
        store=round_dir / "store.sqlite",
        backend="sqlite",
        workers=1,
    )
    units = _cell_units(result.records, state.reference)
    seen = {unit.id for unit in units}
    for spec in state.grid:
        if spec.task_id not in seen:
            units.append(Unit(spec.task_id, 0.0, "no record", [], None))
    return units


# ---------------------------------------------------------------------------
# service_jobs: JobManager + HTTP server + two closed-loop clients
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ServiceState:
    #: Per client: the ordered job payloads (each a list of circuits).
    sequences: list[list[list[str]]]
    reference: dict


def job_sequences(seed: int, reference: dict) -> list[list[list[str]]]:
    """The seeded job sequence of every client.  Clients never share a
    circuit, and a re-submission repeats a grid its own client already
    saw finish, so no two jobs in flight compete for one cell."""
    rng = random.Random(seed)
    picks = stratified_pick(
        rng, reference["service_pool_cost"], SERVICE_STRATA
    )
    picks = rng_sample(rng, picks, len(picks))
    sequences = []
    for client in range(SERVICE_CLIENTS):
        fresh = [
            [service_pool_name(s)]
            for s in picks[client::SERVICE_CLIENTS][:SERVICE_FRESH_JOBS]
        ]
        total = SERVICE_FRESH_JOBS + SERVICE_RESUBMITS
        resubmit_at = set(rng_sample(rng, range(1, total), SERVICE_RESUBMITS))
        sequence: list[list[str]] = []
        done: list[list[str]] = []
        for position in range(total):
            if position in resubmit_at:  # position 0 never is
                sequence.append(done[int(rng.random() * len(done))])
            else:
                job = fresh.pop(0)
                sequence.append(job)
                done.append(job)
        sequences.append(sequence)
    return sequences


def rng_sample(rng: random.Random, population, k: int) -> list:
    """Version-stable sample that also shuffles when ``k`` is the whole
    population (only ``Random.random`` has a documented stable stream,
    as in ``repro.circuits.random_circuits``)."""
    pool = list(population)
    out = []
    for _ in range(k):
        out.append(pool.pop(int(rng.random() * len(pool))))
    return out


def setup_service_jobs(seed: int, work_dir: Path) -> ServiceState:
    reference = load_reference()
    sequences = job_sequences(seed, reference)
    circuits = sorted({c for seq in sequences for job in seq for c in job})
    register(
        service_pool_network(int(name[len("svc"):])) for name in circuits
    )
    state = ServiceState(sequences=sequences, reference=reference["cells"])
    # Server start is part of set-up: bring one up and check it answers.
    with _service(work_dir / "warmup") as client:
        client.healthz()
    return state


class _service:
    """A JobManager behind an HTTP server on an ephemeral port."""

    def __init__(self, state_dir: Path) -> None:
        self.state_dir = state_dir

    def __enter__(self):
        from repro.campaign.backends import SqliteBackend
        from repro.service.api import ServiceClient, create_server
        from repro.service.jobs import JobManager

        with hostspeed.threads_without_timer():
            self.manager = JobManager(
                self.state_dir, job_workers=SERVICE_JOB_WORKERS
            )
            # The store exists before the first job, as on a service that
            # has run a job before.  When two jobs open a store that does
            # not exist yet, ``SqliteBackend.open`` can fail one of them
            # on "PRAGMA journal_mode=WAL" with "database is locked"
            # (an open defect, see NOTES.md).
            SqliteBackend(self.manager.store_path).open().close()
            self.manager.start()
            self.server = create_server(self.manager)
            self.thread = threading.Thread(
                target=self.server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            self.thread.start()
        host, port = self.server.server_address[:2]
        return ServiceClient(f"http://{host}:{port}")

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.thread.join(10.0)
        self.server.server_close()
        self.manager.stop(drain=True, timeout=30.0)


def _run_client(client, sequence, fault_classes, out: list, errors: list):
    from repro.service.jobs import TERMINAL_STATES

    try:
        for index, circuits in enumerate(sequence):
            payload = {"circuits": circuits,
                       "fault_classes": list(fault_classes)}
            submitted = time.time()
            job_id = client.submit(payload)["id"]
            deadline = time.monotonic() + 120.0
            status = client.status(job_id)
            while status["state"] not in TERMINAL_STATES:
                if time.monotonic() > deadline:
                    raise TimeoutError(f"job {job_id} still {status['state']}")
                time.sleep(SERVICE_POLL_S)
                status = client.status(job_id)
            results = client.results(job_id)
            out.append((job_id, circuits, submitted, status, results))
            hostspeed.sample_here()
            if (index + 1) % SERVICE_METRICS_EVERY == 0:
                client.metrics()
    except Exception as exc:  # noqa: BLE001 — reported as failed units
        errors.append(f"{type(exc).__name__}: {exc}")


def duplicated_tasks(store_path: Path) -> set[str]:
    """Task ids with more than one ``ok`` row in the shared store."""
    if not store_path.exists():
        return set()
    conn = sqlite3.connect(f"file:{store_path}?mode=ro", uri=True)
    try:
        rows = conn.execute(
            "SELECT task_id FROM results WHERE status='ok' "
            "GROUP BY task_id HAVING COUNT(*) > 1"
        ).fetchall()
    finally:
        conn.close()
    return {task_id for (task_id,) in rows}


def run_service_round(state: ServiceState, round_dir: Path) -> list[Unit]:
    from repro.campaign.store import strip_volatile
    from repro.service.jobs import JobSpec

    reset_caches()
    outcomes: list[list] = [[] for _ in state.sequences]
    errors: list[str] = []
    with _service(round_dir) as base_client:
        from repro.service.api import ServiceClient

        threads = [
            threading.Thread(
                target=_run_client,
                args=(ServiceClient(base_client.base_url), seq,
                      SERVICE_CLASSES, outcomes[k], errors),
            )
            for k, seq in enumerate(state.sequences)
        ]
        with hostspeed.threads_without_timer():
            for thread in threads:
                thread.start()
        for thread in threads:
            thread.join(150.0)
    duplicates = duplicated_tasks(round_dir / "store.sqlite")
    units = []
    for client_outcomes in outcomes:
        for job_id, circuits, submitted, status, results in client_outcomes:
            task_ids = [
                t.task_id
                for t in JobSpec.from_payload(
                    {"circuits": circuits,
                     "fault_classes": list(SERVICE_CLASSES)}
                ).expand()
            ]
            error = check.check_job(
                status, results["records"], task_ids, state.reference,
                duplicates,
            )
            finished = status.get("finished_at") or submitted
            records = results["records"]
            units.append(
                Unit(
                    id=f"job:{'+'.join(circuits)}",
                    latency_s=finished - submitted,
                    error=error,
                    coverages=[c for r in records for c in check.coverages(r)],
                    output=(status.get("state"), strip_volatile(records)),
                    extra={
                        "queue_wait_s": (status.get("started_at") or finished)
                        - status["submitted_at"],
                        "run_s": finished
                        - (status.get("started_at") or finished),
                    },
                )
            )
    expected = sum(len(seq) for seq in state.sequences)
    for k in range(expected - len(units)):
        units.append(
            Unit(f"job:missing{k}", 0.0,
                 "; ".join(errors) or "job never finished", [], None)
        )
    return units


# ---------------------------------------------------------------------------
# electrical: Fig. 4, Table III, Section V-C and seeded Fig. 5 panels
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ElectricalState:
    #: Ordered unit names: "fig4", "table3", "sec5c", "fig5:<panel>".
    units: list[str]
    reference: dict


def fig5_panel_key(panel) -> str:
    return "/".join(panel)


def setup_electrical(seed: int, work_dir: Path) -> ElectricalState:
    from repro.analysis.experiments import FIG5_PANELS

    rng = random.Random(seed)
    # One panel per cell type: every Fig. 5 cell is swept each round
    # and the per-round work stays the same across seeds.
    panels = []
    for cell in ("INV", "NAND2", "XOR2"):
        options = [p for p in FIG5_PANELS if p[0] == cell]
        panels.append(options[int(rng.random() * len(options))])
    units = ["fig4", "table3", "sec5c"] + [
        "fig5:" + fig5_panel_key(p) for p in panels
    ]
    units = rng_sample(rng, units, len(units))
    return ElectricalState(units=units, reference=load_reference()["electrical"])


def electrical_output(name: str):
    """Run one electrical unit; returns its comparable output."""
    from repro.analysis import experiments

    if name == "fig4":
        summary, _report = experiments.experiment_fig4()
        return check.fig4_output(summary)
    if name == "table3":
        rows, _report = experiments.experiment_table3()
        return check.table3_output(rows)
    if name == "sec5c":
        observations, _report = experiments.experiment_sec5c()
        return check.sec5c_output(observations)
    return fig5_panel_output(tuple(name.split(":", 1)[1].split("/")))


def fig5_panel_output(panel):
    """One Fig. 5 panel, swept exactly as ``experiment_fig5`` sweeps it."""
    from repro.analysis.sweeps import (
        pull_down_vcut_axis,
        pull_up_vcut_axis,
        vcut_sweep,
    )
    from repro.gates.library import ALL_CELLS

    cell_name, transistor, terminal = panel
    cell = ALL_CELLS[cell_name]
    axis = (
        pull_up_vcut_axis(points=FIG5_POINTS)
        if cell.transistor(transistor).role == "pull_up"
        else pull_down_vcut_axis(points=FIG5_POINTS)
    )
    return check.fig5_output(vcut_sweep(cell, transistor, terminal, axis))


def run_electrical_round(state: ElectricalState, round_dir: Path) -> list[Unit]:
    reset_caches()
    units = []
    for name in state.units:
        start = time.perf_counter()
        output = electrical_output(name)
        elapsed = time.perf_counter() - start
        units.append(
            Unit(
                id=name,
                latency_s=elapsed,
                error=check.check_electrical(
                    name, output, state.reference.get(name)
                ),
                coverages=check.electrical_coverages(name, output),
                output=output,
            )
        )
    return units


WORKLOADS = {
    "atpg_grid": (setup_atpg_grid, run_grid_round),
    "corpus_faultsim": (setup_corpus_faultsim, run_grid_round),
    "service_jobs": (setup_service_jobs, run_service_round),
    "electrical": (setup_electrical, run_electrical_round),
}
