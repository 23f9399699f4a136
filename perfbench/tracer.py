"""In-memory span recorder for the benchmark's traced pass.

Spans are recorded around calls into the program's public functions and
written out once, when the run ends, to
``perfbench/.work/spans-<workload>-<seed>.json``.  A disabled recorder
hands out one shared null context, so the untraced pass runs the same
code at the cost of an attribute lookup per call.
"""

from __future__ import annotations

import contextlib
import random
import threading
from time import perf_counter

from benchstats import Span

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # Load-generator threads record intervals through add().
        self._lock = threading.Lock()

    def span(self, name: str, job: str | None = None):
        """Context manager timing one call; a no-op when disabled."""
        if not self.enabled:
            return _NULL
        return self._timed(name, job)

    @contextlib.contextmanager
    def _timed(self, name: str, job: str | None):
        parent = self._stack[-1] if self._stack else None
        # Reserve the id now so children recorded inside point at it.
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, perf_counter(), 0.0, parent, job))
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            opened = self.spans[span_id]
            self.spans[span_id] = Span(span_id, name, opened.start, perf_counter(), parent, job)

    def add(self, name: str, start: float, end: float, parent: int | None, job: str | None = None) -> int | None:
        """Record an interval timed by the caller or elsewhere (e.g. a server's job stamps).

        Thread-safe; returns the span id, or None when disabled.
        """
        if not self.enabled:
            return None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(Span(span_id, name, start, end, parent, job))
        return span_id


class Paired:
    """Runs each re-execution twice, untraced and traced, and sums both walls.

    The layer figures come from the traced runs; the untraced runs of the
    same calls give the tracing overhead.  The first call of each *kind*
    runs once more beforehand, untimed, so one-time costs (lazy imports,
    first directory writes) land in neither wall.  The second run of a
    pair has the warmer caches, so each two consecutive calls take the
    two orders once each, which one first drawn from a fixed-seed stream:
    a strict alternation would line up with the grid's own period (every
    other machine variant) and charge that advantage to one side.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer or Tracer(True)
        self.walls = [0.0, 0.0]  # untraced, traced
        self._draw = random.Random(0)
        self._orders: list[tuple[bool, bool]] = []
        self._warmed: set[str] = set()

    def run(self, call, kind: str):
        """``call(tracer)`` untraced and traced; returns ``(untraced result, traced result)``."""
        if kind not in self._warmed:
            self._warmed.add(kind)
            call(_OFF)
        if not self._orders:
            self._orders = [(False, True), (True, False)]
            self._draw.shuffle(self._orders)
        order = self._orders.pop()
        out = {}
        for traced in order:
            start = perf_counter()
            out[traced] = call(self.tracer if traced else _OFF)
            self.walls[traced] += perf_counter() - start
        return out[False], out[True]

    def overhead_pct(self) -> float:
        """Traced minus untraced wall, as a share of the untraced wall."""
        return 100.0 * (self.walls[1] - self.walls[0]) / self.walls[0]


_OFF = Tracer(False)
