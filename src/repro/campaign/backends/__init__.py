"""The campaign result store: WAL-mode sqlite with atomic task claims.

:class:`SqliteBackend` is the one store every campaign entry point
(CLI, job service, direct :func:`repro.campaign.runner.run_campaign`
calls) writes to; callers build it with
``SqliteBackend(path, fsync=...).open()``.
:func:`migrate_jsonl_to_sqlite` converts the JSONL files older
checkouts wrote (and ``repro campaign export`` prints) into a fresh
store.
"""

from repro.campaign.backends.sqlite import SqliteBackend, migrate_jsonl_to_sqlite

__all__ = ["SqliteBackend", "migrate_jsonl_to_sqlite"]
