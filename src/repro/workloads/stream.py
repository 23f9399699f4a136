"""Shared op streams: generate a workload once, replay it for many machines.

A figure sweep runs several machine variants over the *same* synthetic
streams, and a trace sweep runs many configs over one decoded tracefile.
Two pieces make that cheap:

* :class:`Stream` — the generated prefix of one op stream.  It holds the
  ops as a growing list and, on demand, the encoded 12-column int64
  chunks (:data:`CHUNK` ops each while it grows) that the native cycle
  loop ingests.  A run that fetches past the prefix extends it in place,
  so runs of different lengths share one stream.  The native backend reads every
  feed through a stream (:func:`stream_of`); the python backend iterates
  it like any feed.
* :class:`FeedMemo` — a one-entry, per-process memo of the most recently
  used feed, keyed by its identity: ``("synthetic", benchmark, seed)``
  or ``("trace", content_hash)``.  It drops the entry it holds *before*
  loading a new one, so a process never holds more than one decoded feed
  (one stream's worth of memory).  Callers group their jobs by feed key
  (:func:`feed_key`), which makes one entry enough for any submission
  order.

:data:`FEED_MEMO` is the process-wide instance; a forked child starts
with it empty.
"""

from __future__ import annotations

import os
import threading
from array import array
from itertools import islice
from typing import Callable, Iterable, Iterator

from repro.errors import SimulationError
from repro.workloads.feed import ReplayFeed
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import DynOp

#: Ops per generation step and per encoded chunk (the native ingest unit).
CHUNK = 2048


def _default_pc_address(pc: int) -> int:
    return pc * 4


def encode_ops(ops: list[DynOp], base: int, pc_address) -> tuple:
    """Pack *ops* (tags ``base``, ``base + 1``, ...) into the 12 int64
    columns the native loop ingests.

    The native loop indexes every per-instruction array by the dense
    instruction tag, which must equal the op's position in the stream —
    hence the density check.
    """
    for i, op in enumerate(ops):
        if op.seq != base + i:
            raise SimulationError(
                "native backend needs dense program-order seq numbers "
                f"(got {op.seq}, expected {base + i})"
            )
    pcs = [op.pc for op in ops]
    deps = [op.sched_deps for op in ops]
    return (
        array("q", [op.op_class.idx for op in ops]),
        array("q", pcs),
        array("q", [1 if op.is_control else 0 for op in ops]),
        array("q", [1 if op.is_load else 0 for op in ops]),
        array("q", [1 if op.is_store else 0 for op in ops]),
        array("q", [1 if op.is_eliminated_nop else 0 for op in ops]),
        array("q", [-1 if op.dest is None else op.dest for op in ops]),
        array("q", [len(d) for d in deps]),
        array("q", [d[0] if d else -1 for d in deps]),
        array("q", [d[1] if len(d) > 1 else -1 for d in deps]),
        array("q", [0 if op.mem_addr is None else op.mem_addr for op in ops]),
        array("q", [pc_address(pc) for pc in pcs]),
    )


class Stream:
    """The generated prefix of one op stream, extended on demand.

    *source* is any iterable of :class:`DynOp` in program order; its
    ``name`` and ``pc_address`` (when it has one) carry over, so a stream
    stands in for its source as a feed.  *ops*, when given, is an already
    materialized, complete stream (a replay feed's list, shared, not
    copied).  Generation and encoding run under a lock, so threads may
    share a stream.
    """

    def __init__(self, source: Iterable[DynOp] | None = None, *, ops: list[DynOp] | None = None,
                 name: str | None = None, pc_address=None):
        self.name = name or getattr(source, "name", "workload")
        self.pc_address = (
            pc_address or getattr(source, "pc_address", None) or _default_pc_address
        )
        self.ops: list[DynOp] = ops if ops is not None else []
        self._source: Iterator[DynOp] | None = None if ops is not None else iter(source)
        self._chunks: list[tuple] = []
        self._encoded = 0  # ops covered by _chunks
        #: set when generation raised: the source's position is lost
        self.broken = False
        self._lock = threading.RLock()

    def _extend(self, count: int) -> None:
        """Generate until the prefix holds *count* ops or the source ends."""
        with self._lock:
            while len(self.ops) < count and self._source is not None:
                if self.broken:
                    raise SimulationError("stream generation failed earlier")
                try:
                    step = list(islice(self._source, CHUNK))
                except BaseException:
                    self.broken = True
                    raise
                self.ops.extend(step)
                if len(step) < CHUNK:
                    self._source = None

    def chunk(self, index: int) -> tuple | None:
        """The *index*-th encoded chunk of the stream (:func:`encode_ops`),
        or None past its end.

        A chunk covers the next :data:`CHUNK` ops while the source is
        still generating; once the stream is complete (a replay feed's
        list, or a source that ran dry) the rest is one chunk, so the
        native loop sizes its arrays once instead of growing them step
        by step.
        """
        chunks = self._chunks
        if index < len(chunks):
            return chunks[index]
        with self._lock:
            while len(chunks) <= index:
                start = self._encoded
                self._extend(start + CHUNK)
                stop = len(self.ops) if self._source is None else start + CHUNK
                ops = self.ops[start:stop]
                if not ops:
                    return None
                chunks.append(encode_ops(ops, start, self.pc_address))
                self._encoded = stop
            return chunks[index]

    def __iter__(self) -> Iterator[DynOp]:
        ops = self.ops
        position = 0
        while True:
            if position >= len(ops):
                self._extend(position + 1)
                if position >= len(ops):
                    return
            end = len(ops)
            yield from ops[position:end]
            position = end


def stream_of(feed) -> Stream:
    """The stream the native backend reads *feed* through.

    A :class:`Stream` is used as is; a :class:`~repro.workloads.feed.
    ReplayFeed` shares one stream cached on the feed, so repeated runs on
    it encode once; any other feed gets a private stream.
    """
    if isinstance(feed, Stream):
        return feed
    if isinstance(feed, ReplayFeed):
        if feed._stream is None:
            feed._stream = Stream(
                ops=feed.ops, name=feed.name, pc_address=getattr(feed, "pc_address", None)
            )
        return feed._stream
    return Stream(feed)


class FeedMemo:
    """A one-entry memo of the most recently used feed, keyed by identity.

    Counts hits and loads per key kind (the key's first element).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._key: tuple | None = None
        self._value = None
        self.counts: dict[str, int] = {}

    def get(self, key: tuple, load: Callable[[], object]):
        """The feed for *key*, calling *load()* on a miss.

        The held entry is dropped before *load* runs, so at most one feed
        is referenced from here at any time; a broken stream counts as a
        miss.
        """
        kind = key[0]
        with self._lock:
            if self._key == key and not getattr(self._value, "broken", False):
                self._count(f"{kind}_hits")
                return self._value
            self._key = self._value = None
            value = load()
            self._count(f"{kind}_loads")
            self._key, self._value = key, value
            return value

    def _count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def held(self) -> int:
        """How many feeds the memo references (0 or 1)."""
        return 0 if self._value is None else 1

    def clear(self) -> None:
        """Forget the held feed (counts are kept)."""
        with self._lock:
            self._key = self._value = None

    def _after_fork(self) -> None:
        # The parent's lock may have been held by another thread at fork.
        self._lock = threading.Lock()
        self._key = self._value = None


#: The process-wide feed memo (synthetic streams and decoded traces).
FEED_MEMO = FeedMemo()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=FEED_MEMO._after_fork)


def feed_key(benchmark: str, seed: int) -> tuple:
    """The memo key of a synthetic benchmark stream."""
    return ("synthetic", benchmark, seed)


def synthetic_stream(benchmark: str, seed: int) -> Stream:
    """The shared stream of one synthetic benchmark clone, via the memo."""
    return FEED_MEMO.get(
        feed_key(benchmark, seed),
        lambda: Stream(SyntheticWorkload(get_profile(benchmark), seed=seed)),
    )
