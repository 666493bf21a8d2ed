"""Regenerate ``reference.json``: the outputs every benchmark run is
checked against, plus the cost of each seeded pool circuit (used to
stratify the per-seed draw).

Run from the repository root::

    python3 perfbench/make_reference.py

Only regenerate on purpose: the file pins the outputs of the code the
benchmark was defined on, so a change that alters an output shows as a
failed unit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)

run.bootstrap()

import workloads as wl  # noqa: E402

#: Record fields the checks compare.
KEPT = ("n_aborted",)


def kept_metrics(record: dict) -> dict:
    metrics = record["metrics"]
    return {
        key: value
        for key, value in sorted(metrics.items())
        if key in KEPT
        or "coverage" in key
        or (key.startswith("n_") and key.endswith("faults"))
    }


def run_cells(grid, repeats: int = 1) -> tuple[dict, dict]:
    """Reference metrics per task id and min runtime per task id."""
    from repro.campaign import run_campaign

    cells: dict[str, dict] = {}
    cost: dict[str, float] = {}
    for _ in range(repeats):
        wl.reset_caches()
        for record in run_campaign(grid).records:
            assert record["status"] == "ok", record
            cells[record["task_id"]] = kept_metrics(record)
            cost[record["task_id"]] = min(
                cost.get(record["task_id"], float("inf")),
                record["runtime_s"],
            )
    return cells, cost


def pool_cost(cost: dict, name_of, seeds) -> dict[str, float]:
    return {
        str(seed): round(sum(
            value for task_id, value in cost.items()
            if task_id.split("/")[0] == name_of(seed)
        ), 4)
        for seed in seeds
    }


def main() -> None:
    from repro.analysis.experiments import FIG5_PANELS
    from repro.campaign import DEFAULT_FAULT_CLASSES, expand_grid, get_registry
    from repro.campaign.tables import SECTION5_SUITE

    cells, _ = run_cells(
        expand_grid(list(SECTION5_SUITE), DEFAULT_FAULT_CLASSES)
    )
    corpus, _ = run_cells(
        expand_grid(get_registry().names(tags=["corpus"]), ["fault_sim"],
                    engine="auto")
    )
    cells.update(corpus)

    atpg_names = wl.register(
        wl.atpg_pool_network(s) for s in wl.ATPG_POOL_SEEDS
    )
    atpg, atpg_cost = run_cells(
        expand_grid(atpg_names, wl.ATPG_RANDOM_CLASSES), repeats=2
    )
    cells.update(atpg)

    service_names = wl.register(
        wl.service_pool_network(s) for s in wl.SERVICE_POOL_SEEDS
    )
    service, service_cost = run_cells(
        expand_grid(service_names, wl.SERVICE_CLASSES), repeats=2
    )
    cells.update(service)

    electrical = {
        name: wl.electrical_output(name)
        for name in ["fig4", "table3", "sec5c"] + [
            "fig5:" + wl.fig5_panel_key(p) for p in FIG5_PANELS
        ]
    }

    reference = {
        "cells": dict(sorted(cells.items())),
        "atpg_pool_cost": pool_cost(
            atpg_cost, wl.atpg_pool_name, wl.ATPG_POOL_SEEDS
        ),
        "service_pool_cost": pool_cost(
            service_cost, wl.service_pool_name, wl.SERVICE_POOL_SEEDS
        ),
        "electrical": electrical,
    }
    wl.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {wl.REFERENCE_PATH} ({len(cells)} cells, "
          f"{len(electrical)} electrical units)")


if __name__ == "__main__":
    main()
