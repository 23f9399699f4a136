"""Pure arithmetic of the benchmark: percentiles, latencies, failures, spans.

Nothing here touches the program under test or the clock, so every rule
the benchmark reports by is covered by ``perfbench/tests``.
"""

from __future__ import annotations

import math
import statistics
import threading
from dataclasses import dataclass, field

#: A percentile above the median is reported only when at least this many
#: samples lie beyond it; below that it is not estimable from the run.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of samples at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile fraction {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples rank above the ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def reportable(values, q: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """The ``q`` percentile, or None when fewer than *min_beyond* samples lie beyond it.

    The median is always reportable from one sample on; higher percentiles
    need the tail the rule asks for.
    """
    if not values:
        return None
    if q <= 0.5 or samples_beyond(len(values), q) >= min_beyond:
        return percentile(values, q)
    return None


def median(values) -> float:
    return statistics.median(values)


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def sum_of_medians(groups) -> float:
    """Sum over *groups* of each group's median.

    A pass over several items (the corpus's traces) is figured as the sum
    of per-item medians across repetitions, so one slow call moves one
    item's median instead of a whole pass.
    """
    return sum(statistics.median(group) for group in groups)


def rescaled(samples, probes, reference: float, window: float, elasticity: float = 1.0) -> list[float]:
    """Each ``[raw seconds, start, end, ...]`` sample in reference seconds.

    *probes* are ``[time, seconds]`` timings of a reference loop whose
    nominal time is *reference*.  The host's speed around a sample is
    the median of the probes taken from *window* seconds before its start
    to *window* seconds after its end.  A sample is multiplied by
    ``(reference / that median) ** elasticity``: with an elasticity of 1,
    a sample measured while the loop took twice its nominal time counts
    half its raw seconds.  The factor depends on the probes alone, so a
    sample that takes 10% longer always counts 10% more.
    """
    out = []
    for raw, start, end, *_ in samples:
        near = [seconds for at, seconds in probes if start - window <= at <= end + window]
        if not near or min(near) <= 0:
            raise ValueError(f"no usable reference probe within {window} s of a sample")
        out.append(raw * (reference / statistics.median(near)) ** elasticity)
    return out


# ----------------------------------------------------------------------
# Open-loop load
# ----------------------------------------------------------------------
def open_loop_latency(due: float, completed: float) -> float:
    """Latency of an open-loop request, counted from when it was due.

    Timing from the due time, not the actual send, charges a request for
    the wait a stalled generator or server imposed before it could go out.
    """
    return completed - due


def lateness(due: float, sent: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent - due)


def classify_warm(jobs, first_finish: dict) -> list[bool]:
    """For each ``(due, fingerprint)``, was that fingerprint already finished when due?

    *first_finish* maps a fingerprint to the earliest completion time of
    any job carrying it.  A job due before that moment is cold (it had to
    wait for a simulation, its own or a coalesced one); at or after it the
    job is warm and can be answered from the store.
    """
    out = []
    for due, fingerprint in jobs:
        finished = first_finish.get(fingerprint)
        out.append(finished is not None and finished <= due)
    return out


# ----------------------------------------------------------------------
# Failures
# ----------------------------------------------------------------------
@dataclass
class Outcomes:
    """Attempted/failed tally: every refusal or timeout is a failure.

    Load-generator threads share one tally, so updates take a lock.
    """

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


def failure_reason(status: int | None, error: BaseException | None = None) -> str | None:
    """Why a request failed, or None for a success.

    *status* is the final HTTP status (None when the transport gave out
    first).  A 429 refusal counts as failed even though a retrying client
    would have tried again: the request missed every latency limit.
    """
    if error is not None:
        if isinstance(error, TimeoutError) or "timed out" in str(error):
            return "timeout"
        if status == 429 or "HTTP 429" in str(error):
            return "refused_429"
        if status is not None:
            return f"http_{status}"
        return "transport"
    if status is None:
        return "transport"
    if status == 429:
        return "refused_429"
    if status >= 400:
        return f"http_{status}"
    return None


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """One timed call: name, monotonic start/end (seconds), parent id, job id."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    job: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans) -> dict[str, list[float]]:
    """Self time of every span, grouped by span name."""
    own = self_times(spans)
    out: dict[str, list[float]] = {}
    for span in spans:
        out.setdefault(span.name, []).append(own[span.id])
    return out


def subtree_ids(spans, root: int) -> set[int]:
    """Ids of *root* and every span below it."""
    children: dict[int, list[int]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span.id)
    out, stack = set(), [root]
    while stack:
        current = stack.pop()
        out.add(current)
        stack.extend(children.get(current, ()))
    return out


def layer_gap(spans, root: int) -> float:
    """Relative gap between a root span's wall and the summed self times of its layers.

    The layers are every span below *root*.  When they cover the root's
    wall without overlapping, the gap is the share of the wall no layer
    explains; overlapping layers (double counting) widen it too.
    """
    by_id = {span.id: span for span in spans}
    ids = subtree_ids(spans, root) - {root}
    own = self_times([by_id[i] for i in ids])
    wall = by_id[root].duration
    return abs(sum(own.values()) - wall) / wall if wall > 0 else 0.0
