"""In-memory spans for the traced benchmark run, and the `-X importtime` parser.

A span is one call into a layer, recorded from the benchmark's own code:
its name (``"<layer>.<what>"``), start and end on ``time.perf_counter``,
the span that caused it, and the operation it belongs to. On Linux
``perf_counter`` is CLOCK_MONOTONIC, shared by every process on the host,
so spans reported by a cold child process nest inside the parent's span for
that operation. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans; ``enabled=False`` makes every call a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = 0

    @contextmanager
    def op(self, name: str):
        """One operation of the workload: a root span with a fresh id."""
        if not self.enabled:
            yield
            return
        self._op += 1
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, self._op, parent, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, self._op, parent, name, start, end)

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a child process) under the current one."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((len(self.spans), self._op, parent, name, start, end))

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its direct children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        result = []
        for span_id, _, _, _, start, end in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start, child_end = max(child_start, cursor), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result.append(end - start - covered)
        return result

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer (the span name up to its first dot): spans, total and self seconds."""
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"spans": 0, "total_s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            row = table[span[3].split(".", 1)[0]]
            row["spans"] += 1
            row["total_s"] += span[5] - span[4]
            row["self_s"] += self_s
        return dict(table)


def parse_importtime(stderr: str) -> list[tuple[str, int, float, str | None]]:
    """Rows of ``-X importtime`` output as (module, depth, cumulative seconds, parent).

    The output is post-order: a module's line follows those of the modules
    it imported, which are indented one level (two spaces) deeper.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append([name.strip(), depth, int(cumulative) / 1e6, None])
    pending: dict[int, list[list]] = defaultdict(list)
    for row in rows:
        for child in pending.pop(row[1] + 1, []):
            child[3] = row[0]
        pending[row[1]].append(row)
    return [tuple(row) for row in rows]


def import_breakdown(package_run: str, bare_run: str, package: str) -> dict[str, float]:
    """Seconds spent importing ``package``, its oracle module, and numpy+scipy.

    ``total`` is the top-level cumulative time of ``package_run`` net of
    ``bare_run`` (the interpreter's own start-up imports).
    """
    rows = parse_importtime(package_run)
    bare = sum(cumulative for _, depth, cumulative, _ in parse_importtime(bare_run) if depth == 0)
    total = sum(cumulative for _, depth, cumulative, _ in rows if depth == 0) - bare
    oracle = sum(cumulative for name, _, cumulative, _ in rows if name == f"{package}.oracle")

    def numeric_stack(name: str | None) -> bool:
        return name is not None and name.split(".", 1)[0] in ("numpy", "scipy")

    heavy = sum(
        cumulative
        for name, _, cumulative, parent in rows
        if numeric_stack(name) and not numeric_stack(parent)
    )
    return {"total": total, "oracle": oracle, "numpy_scipy": heavy}
