"""Span tracer for the benchmark's traced run.

The tracer treats every layer of ``src/repro`` as a black box: it
replaces a public function (or method) by a wrapper *under every name
its callers look it up by* — the defining module and each module that
imported the function object — and records one span per call.  Nothing
inside ``src/`` is edited; :meth:`Tracer.uninstall` restores the
originals.

A span is ``(id, name, start, end, parent, unit, thread)``.  ``unit``
is the cell or job the call belongs to: a wrapper with a ``unit_of``
hook opens a unit for its duration and nested spans inherit it through
a thread-local stack.  Spans stay in memory; :meth:`Tracer.dump` writes
them out when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> list | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, unit: str | None = None) -> list:
        parent = self.current()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if unit is None and parent is not None:
            unit = parent[4]
        span = [span_id, name, time.perf_counter(), None, unit,
                parent[0] if parent is not None else None, parent]
        self._stack().append(span)
        return span

    def end(self, span: list) -> float:
        span[3] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        record = (span[0], span[1], span[2], span[3], span[5], span[4],
                  threading.get_ident())
        with self._lock:
            self.spans.append(record)
        return span[3] - span[2]

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    # -- installation ------------------------------------------------------

    def wrap_function(
        self,
        module_name: str,
        attr: str,
        span: str | None,
        after: Callable[[tuple, dict, Any, float], None] | None = None,
        unit_of: Callable[[tuple, dict], str | None] | None = None,
    ) -> None:
        """Wrap ``module_name.attr`` in every loaded ``repro`` module
        that holds the same function object.  ``span=None`` counts the
        call without recording a span (hot inner calls)."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrapper(original, span, after, unit_of)
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            if getattr(module, attr, None) is original:
                self._patch(module, attr, wrapper)

    def wrap_attr(
        self,
        owner: Any,
        attr: str,
        span: str,
        after: Callable[[tuple, dict, Any, float], None] | None = None,
        unit_of: Callable[[tuple, dict], str | None] | None = None,
    ) -> None:
        """Wrap one attribute of a class or module in place."""
        original = getattr(owner, attr)
        self._patch(owner, attr, self._wrapper(original, span, after, unit_of))

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, original, span_name, after, unit_of):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span_name is None:
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, 0.0)
                return result
            unit = unit_of(args, kwargs) if unit_of is not None else None
            span = tracer.begin(span_name, unit)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = tracer.end(span)
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer (the span name's first dotted part): a
        span's duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, _unit, _thread in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _parent, _unit, _thread in self.spans:
            layer = name.split(".", 1)[0]
            layers[layer] += max(0.0, end - start - child_time[span_id])
        return dict(layers)

    def total(self, name: str) -> tuple[int, float]:
        """Number of spans called ``name`` and their summed duration."""
        n = 0
        seconds = 0.0
        for _id, span_name, start, end, *_rest in self.spans:
            if span_name == name:
                n += 1
                seconds += end - start
        return n, seconds

    def durations(self, name: str) -> list[float]:
        return [end - start for _id, span_name, start, end, *_r
                in self.spans if span_name == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min((s[2] for s in self.spans), default=0.0)
        payload = {
            "fields": ["id", "name", "start_s", "end_s", "parent",
                       "unit", "thread"],
            "spans": [
                [i, name, round(start - base, 7), round(end - base, 7),
                 parent, unit, thread]
                for i, name, start, end, parent, unit, thread in self.spans
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
