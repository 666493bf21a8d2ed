"""JSONL fixtures for the migration-reader tests.

Campaign stores are sqlite; JSONL survives only as the format of older
checkouts' stores and of ``repro campaign export`` output, which
``repro campaign migrate-store`` reads back through
:func:`repro.campaign.store.read_jsonl`.  These helpers write such
files and damage them the way a killed writer would.
"""

import json
from pathlib import Path


def write_jsonl(path, records):
    """One sorted-key JSON record per line, as the old store wrote them."""
    path = Path(path)
    path.write_text(
        "".join(
            json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
            for record in records
        ),
        encoding="utf-8",
    )
    return path


def tear_tail(path, fraction=0.5, *, inside_utf8=False):
    """Truncate the final record mid-line — the byte-exact signature of
    a writer killed during a write.

    ``inside_utf8=True`` places the cut one byte after the last
    multi-byte UTF-8 lead byte of the line, i.e. *inside* a multi-byte
    sequence — a perfectly possible kill point that additionally makes
    the torn tail undecodable, not just unparseable.  Raises
    :class:`ValueError` if the final record contains no multi-byte
    character to tear through.
    """
    path = Path(path)
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    if not lines:
        raise ValueError(f"{path}: empty store, nothing to tear")
    last = lines[-1]
    if inside_utf8:
        # UTF-8 lead bytes of multi-byte sequences are 0xC2..0xF4;
        # cutting right after one strands its continuation bytes.
        lead = max(
            (k for k, byte in enumerate(last) if byte >= 0xC2), default=None
        )
        if lead is None:
            raise ValueError(
                f"{path}: final record is pure ASCII, no multi-byte "
                "UTF-8 sequence to tear inside"
            )
        cut = lead + 1
    else:
        cut = max(1, min(len(last) - 2, int(len(last) * fraction)))
    path.write_bytes(data[: len(data) - len(last)] + last[:cut])
    return path
