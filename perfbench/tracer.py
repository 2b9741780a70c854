"""In-memory spans around the benchmark's calls into relpres.

A span is ``[id, parent, job, name, start, end]``.  ``call`` opens a span
named ``<module>.<function>`` under the current job span; with tracing off
it is a plain call.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def job(self, job_id: int, kind: str):
        if not self.enabled:
            yield
            return
        self._job = job_id
        try:
            with self._span(f"job.{kind}"):
                yield
        finally:
            self._job = None

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, parent, self._job, name, perf_counter(), None]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            span[5] = perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time of its children."""
        child = [0.0] * len(self.spans)
        for sid, parent, _job, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, _parent, _job, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, fields=["id", "parent", "job", "name", "start", "end"],
                           spans=self.spans), fh)
            fh.write("\n")
