"""Output checks behind ``ok_share``.

Every unit of work is compared against ``reference.json``, written by
``make_reference.py`` from the code the benchmark was defined on:

* a campaign cell fails if its status is not ``ok``, a fault count
  differs, a coverage falls below the reference or it aborts more
  faults than the reference did;
* a service job fails unless it is ``done``, its results hold exactly
  one matching record per grid cell, and the shared store holds no
  duplicated row for any of its cells — a ``done`` job with a record
  missing is a failure, whatever its state says;
* an electrical unit fails if a classification or detection flag
  differs, or a value moves by more than :data:`REL_TOL`.

Each check returns ``None`` for a good unit or a one-line reason.
"""

from __future__ import annotations

import math

#: Relative tolerance on analog values (SPICE / TCAD solver outputs).
REL_TOL = 1e-3
ABS_TOL = 1e-12


def coverages(record: dict) -> list[float]:
    """Every non-null coverage field of a cell record."""
    metrics = record.get("metrics") or {}
    return [
        float(value)
        for key, value in sorted(metrics.items())
        if "coverage" in key and value is not None
    ]


def check_cell(record: dict, reference: dict | None) -> str | None:
    task_id = record.get("task_id", "?")
    if record.get("status") != "ok":
        return f"{task_id}: status {record.get('status')!r} " \
               f"({record.get('error', '')})"
    if reference is None:
        return f"{task_id}: no reference outputs"
    metrics = record.get("metrics") or {}
    for key, want in reference.items():
        have = metrics.get(key)
        if key.startswith("n_") and key.endswith("faults"):
            if have != want:
                return f"{task_id}: {key} {have} != reference {want}"
        elif "coverage" in key:
            if (want is None) != (have is None):
                return f"{task_id}: {key} {have} vs reference {want}"
            if want is not None and have < want - ABS_TOL:
                return f"{task_id}: {key} {have} below reference {want}"
        elif key == "n_aborted" and (have is None or have > want):
            return f"{task_id}: {key} {have} above reference {want}"
    return None


def check_job(
    status: dict,
    records: list[dict],
    task_ids: list[str],
    reference: dict,
    duplicated: set[str],
) -> str | None:
    job = status.get("id", "?")
    if status.get("state") != "done":
        error = f" ({status['error']})" if status.get("error") else ""
        return f"job {job}: state {status.get('state')!r}{error}"
    by_task: dict[str, list[dict]] = {}
    for record in records:
        by_task.setdefault(record.get("task_id"), []).append(record)
    missing = [t for t in task_ids if t not in by_task]
    if missing:
        return f"job {job}: done with {len(missing)} record(s) missing " \
               f"({missing[0]})"
    extra = sorted(set(by_task) - set(task_ids))
    if extra:
        return f"job {job}: foreign record {extra[0]}"
    for task_id in task_ids:
        if len(by_task[task_id]) != 1 or task_id in duplicated:
            return f"job {job}: duplicated rows for {task_id}"
        error = check_cell(by_task[task_id][0], reference.get(task_id))
        if error:
            return f"job {job}: {error}"
    return None


# ---------------------------------------------------------------------------
# electrical outputs: plain JSON values, so references round-trip
# ---------------------------------------------------------------------------

def _num(value: float):
    value = float(value)
    return "inf" if math.isinf(value) else value


def fig4_output(summary) -> dict:
    return {name: _num(case.density_cm3) for name, case in summary.items()}


def table3_output(rows) -> list:
    return [
        [r.fault_type, r.transistor, list(r.vector), r.leakage_detect,
         r.output_detect, _num(r.iddq_ratio), _num(r.v_out)]
        for r in rows
    ]


def sec5c_output(observations) -> list:
    return [
        [o.transistor, o.functional, o.procedure_detects_break,
         o.procedure_false_alarm, _num(o.delay_change),
         _num(o.leakage_change)]
        for o in observations
    ]


def fig5_output(sweep) -> dict:
    return {
        "classification": sweep.classification().describe(),
        "functional": [p.functional for p in sweep.points],
        "delay": [_num(p.delay) for p in sweep.points],
        "leakage": [_num(p.leakage) for p in sweep.points],
    }


def electrical_coverages(name: str, output) -> list[float]:
    """Detection outcomes of a unit: a Table III fault detected by IDDQ
    or the output, a Sec. V-C break caught by the procedure, a Fig. 5
    floating gate testable by some fault model.  Fig. 4 has none."""
    if name == "table3":
        return [float(row[3] or row[4]) for row in output]
    if name == "sec5c":
        return [float(row[2]) for row in output]
    if name.startswith("fig5:"):
        return [float(not output["classification"].endswith("none"))]
    return []


def _close(have, want) -> bool:
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return have == want
    if isinstance(want, (int, float)):
        if isinstance(have, bool) or not isinstance(have, (int, float)):
            return False
        return math.isclose(have, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(want, list):
        return (
            isinstance(have, list)
            and len(have) == len(want)
            and all(_close(h, w) for h, w in zip(have, want))
        )
    if isinstance(want, dict):
        return (
            isinstance(have, dict)
            and set(have) == set(want)
            and all(_close(have[k], want[k]) for k in want)
        )
    return have == want


def check_electrical(name: str, output, reference) -> str | None:
    if reference is None:
        return f"{name}: no reference outputs"
    if not _close(output, reference):
        return f"{name}: output differs from reference"
    return None
