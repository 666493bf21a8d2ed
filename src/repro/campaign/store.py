"""Campaign record schema, record comparison and the legacy JSONL reader.

Every campaign store holds one record per finished task (reruns add a
newer record; the latest one per ``task_id`` wins).  Record schema
(``schema: 2``) — see ``docs/CAMPAIGNS.md`` for the field-by-field
reference::

    {
      "schema": 2,
      "task_id": "rca4/polarity/compiled",
      "circuit": "rca4", "fault_class": "polarity", "engine": "compiled",
      "engine_used": "compiled",       # engine that produced metrics
      "attempt": 1,                    # attempt that produced the record
      "status": "ok",                  # or "error"/"timeout"/"poisoned"
      "runtime_s": 0.31,
      "circuit_stats": {"gates": 8, "inputs": 9, "outputs": 5, ...},
      "metrics": {...},                # fault-class specific, see tasks.py
      "error": "...",                  # only on status != "ok"
      "transient": false,              # error classification (errors only)
      "failures": [...]                # retry/fallback provenance trail
    }

Schema-1 records (pre-supervisor) load and resume unchanged — the
resume key (``task_id`` + ``status``) is common to both.

``runtime_s``, ``attempt`` and ``failures`` are the nondeterministic
fields (they depend on wall-clock and on which injected/real faults a
run happened to survive); the storage provenance stamps ``backend``
and ``store_schema`` likewise differ between stores that hold the
same results.  :func:`strip_volatile` removes them all so stores from
different runs and worker counts compare equal.

Stores live in sqlite (:class:`repro.campaign.backends.SqliteBackend`).
:func:`read_jsonl` reads the one-record-per-line JSONL files that older
checkouts wrote and that ``repro campaign export`` prints, so
``repro campaign migrate-store`` can convert them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

SCHEMA_VERSION = 2

#: Fields that legitimately differ between runs that computed the same
#: results: wall-clock, the retry/fault-injection history, and the
#: storage provenance stamps.
VOLATILE_FIELDS: tuple[str, ...] = (
    "runtime_s", "attempt", "failures", "backend", "store_schema",
)


def read_jsonl(path: str | Path) -> list[dict]:
    """All parseable records of a JSONL file, in file order.

    A torn trailing line (a writer killed mid-record) is skipped —
    including one truncated *inside* a multi-byte UTF-8 sequence, which
    is why decoding happens per line, on bytes.  A corrupt line in the
    *middle* of the file, or a newline-terminated one at its end,
    raises :class:`ValueError` naming the line, because that means the
    file was edited, not killed.
    """
    path = Path(path)
    records: list[dict] = []
    data = path.read_bytes()
    terminated = data.endswith(b"\n")
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()  # the terminator itself, not an empty record
    for k, raw in enumerate(lines):
        if not raw.strip():
            continue
        try:
            records.append(json.loads(raw.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            if k == len(lines) - 1 and not terminated:
                break
            raise ValueError(f"{path}: corrupt record on line {k + 1}") from None
    return records


def strip_volatile(records: Iterable[dict]) -> list[dict]:
    """Drop nondeterministic fields (:data:`VOLATILE_FIELDS` —
    ``runtime_s``, the retry provenance ``attempt``/``failures``, and
    the storage provenance ``backend``/``store_schema``) so stores
    from different runs compare equal; sorted by task id for set-like
    comparison regardless of completion order."""
    stripped = []
    for record in records:
        record = dict(record)
        for field in VOLATILE_FIELDS:
            record.pop(field, None)
        stripped.append(record)
    return sorted(stripped, key=lambda r: r["task_id"])


def stores_equal(a: Sequence[dict], b: Sequence[dict]) -> bool:
    """Record-set equality up to volatile fields and completion order."""
    return strip_volatile(a) == strip_volatile(b)
