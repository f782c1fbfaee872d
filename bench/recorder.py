"""Spans and operation accounting for one benchmark worker.

The benchmark's own code opens a span around every call it makes into a
depspan layer. A span has a name "<layer>.<what>", a start and an end
(time.monotonic, shared by every process on the machine), the span that was
open when it started, the run id, and counts measured at the same boundary.
Spans named "bench.*" group the benchmark's own steps.

Every span outside the "bench" layer is one attempted operation. An
operation fails when its call raises, exits non-zero, or fails an output
check; each operation is counted as failed at most once.

Durations are always measured, because the end-to-end metrics come from
them. Spans are only kept while `recording` is set; they stay in memory until
the worker writes them out at the end.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid: int, name: str, parent, attrs: dict):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self, run_id: str) -> dict:
        return {"run": run_id, "id": self.id, "parent": self.parent,
                "name": self.name, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.recording = False
        self.spans: list[Span] = []
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.run_failures = 0
        self.problems: list[str] = []
        self._stack: list[Span] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(self._next_id, name, parent, attrs)
        self._next_id += 1
        is_op = sp.layer != "bench"
        if is_op:
            self.attempted += 1
        self._stack.append(sp)
        sp.start = time.monotonic()
        try:
            yield sp
        except Exception as exc:
            if is_op:
                self.fail(sp, f"{name} raised {type(exc).__name__}: {exc}")
            raise
        finally:
            sp.end = time.monotonic()
            self._stack.pop()
            if self.recording:
                self.spans.append(sp)

    def fail(self, sp: Span, message: str) -> None:
        """Count the operation behind `sp` as failed, with a reason."""
        if sp.layer != "bench":
            self.failed_ops.add(sp.id)
        self.problems.append(message)

    def expect(self, sp: Span, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(sp, message)
        return ok

    def fail_run(self, message: str) -> None:
        """A failure that no single operation owns (the worker raised, or no
        reference was recorded): counted as one more attempted and failed
        operation."""
        self.attempted += 1
        self.run_failures += 1
        self.problems.append(message)

    @property
    def failed(self) -> int:
        return len(self.failed_ops) + self.run_failures


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per layer, the time its spans cover minus the time their child spans
    cover. Spans of one worker never overlap except by nesting."""
    child_time = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.seconds
    out = defaultdict(float)
    for sp in spans:
        out[sp.layer] += sp.seconds - child_time[sp.id]
    return dict(out)


def median_of(spans: list[Span], name: str, attr: str | None = None,
              **where) -> float | None:
    """Median duration (or attribute) over the spans called `name` whose
    attributes match `where`; None when there are none."""
    values = [sp.seconds if attr is None else sp.attrs[attr]
              for sp in spans
              if sp.name == name
              and all(sp.attrs.get(k) == v for k, v in where.items())]
    return statistics.median(values) if values else None
