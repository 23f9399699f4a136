"""The shipped trace corpus: named, reproducible real-workload traces.

Every entry is a kernel run captured to a tracefile under
``workloads/traces/`` (override with ``REPRO_TRACE_DIR``).  Capture is
byte-deterministic — the emulator is deterministic and the tracefile
format carries no timestamps — so ``scripts/make_corpus.py`` regenerates
the committed files bit-for-bit and CI verifies the corpus matches its
source.

Committed entries are sized around 60–110k dynamic instructions each:
long enough that sampled simulation is meaningfully cheaper than a full
run, small enough that the compressed files stay a few tens of KB.  The
``vector_sum_1m`` entry (≥1M instructions) is *not* committed; the CI
trace-smoke job captures it from source to prove the sampling accuracy
bound at scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.trace.capture import capture_kernel
from repro.trace.feed import TraceFeed, trace_info
from repro.trace.format import TraceFormatError, read_header
from repro.workloads.stream import FEED_MEMO


@dataclass(frozen=True)
class CorpusEntry:
    """One named corpus workload: a kernel and its capture parameters."""

    name: str
    kernel: str
    kwargs: dict = field(default_factory=dict)
    committed: bool = True
    note: str = ""


#: The corpus, in listing order.
CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "vector_sum_80k", "vector_sum", {"n": 16_000},
        note="streaming loads, regular loop",
    ),
    CorpusEntry(
        "dotproduct_96k", "dotproduct", {"n": 12_000},
        note="two-source multiply-accumulate",
    ),
    CorpusEntry(
        "sieve_105k", "sieve", {"n": 5_000},
        note="nested loops, strided stores",
    ),
    CorpusEntry(
        "strsearch_76k", "strsearch", {"n": 4_000},
        note="data-dependent inner-loop exits",
    ),
    CorpusEntry(
        "hash_probe_71k", "hash_probe", {"n": 6_000},
        note="randomized table probes",
    ),
    CorpusEntry(
        "bubble_sort_104k", "bubble_sort", {"n": 160},
        note="quadratic compare/swap phases",
    ),
    CorpusEntry(
        "vector_sum_1m", "vector_sum", {"n": 200_000},
        committed=False,
        note="1M-instruction scale proof (captured by CI, not committed)",
    ),
)

CORPUS_BY_NAME: dict[str, CorpusEntry] = {entry.name: entry for entry in CORPUS}


def _repo_root() -> Path:
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").is_file():
            return parent
    return Path.cwd()


def corpus_dir() -> Path:
    """Where corpus tracefiles live (``REPRO_TRACE_DIR`` overrides)."""
    env = os.environ.get("REPRO_TRACE_DIR", "")
    if env:
        return Path(env)
    return _repo_root() / "workloads" / "traces"


def corpus_path(entry: CorpusEntry | str) -> Path:
    name = entry.name if isinstance(entry, CorpusEntry) else entry
    return corpus_dir() / f"{name}.hpt"


def capture_corpus_entry(entry: CorpusEntry, path: Path | None = None) -> dict:
    """(Re)capture one corpus entry; returns the tracefile header."""
    return capture_kernel(
        entry.kernel,
        path if path is not None else corpus_path(entry),
        name=entry.name,
        **entry.kwargs,
    )


def resolve_trace(ref: str) -> Path:
    """Resolve a trace reference — corpus name or filesystem path.

    Corpus names win over paths (they contain no separators or dots, so
    collisions cannot happen in practice).  A known corpus name whose file
    has not been captured yet gets a hint instead of a bare ENOENT.
    """
    entry = CORPUS_BY_NAME.get(ref)
    if entry is not None:
        path = corpus_path(entry)
        if not path.is_file():
            raise TraceFormatError(
                f"corpus trace {ref!r} is not captured at {path}; run "
                f"`repro trace capture {entry.kernel} --corpus {ref}` or "
                "scripts/make_corpus.py"
            )
        return path
    path = Path(ref)
    if not path.is_file():
        known = ", ".join(sorted(CORPUS_BY_NAME))
        raise TraceFormatError(
            f"{ref!r} is neither a corpus trace name nor a tracefile path "
            f"(corpus: {known})"
        )
    return path


def load_corpus_feed(ref: str, *, limit: int | None = None) -> TraceFeed:
    """TraceFeed for a corpus name or tracefile path."""
    return TraceFeed(resolve_trace(ref), limit=limit)


def shared_corpus_feed(ref: str, content_hash: str) -> TraceFeed:
    """The decoded feed of *ref*, checked against *content_hash*.

    Held in the process's one-entry feed memo
    (:data:`repro.workloads.stream.FEED_MEMO`) under
    ``("trace", content_hash)``, so consecutive jobs on one trace decode
    it once and a long-lived process holds at most one decoded feed.
    """

    def load() -> TraceFeed:
        feed = load_corpus_feed(ref)
        if feed.content_hash != content_hash:
            raise TraceFormatError(
                f"trace {ref!r} has content hash {feed.content_hash[:12]}…, "
                f"but the job was submitted for {content_hash[:12]}… "
                "(stale reference?)"
            )
        return feed

    return FEED_MEMO.get(("trace", content_hash), load)


def corpus_listing() -> list[dict]:
    """One row per corpus entry for ``repro workloads`` (header-only I/O)."""
    rows = []
    for entry in CORPUS:
        path = corpus_path(entry)
        row = {
            "name": entry.name,
            "kernel": entry.kernel,
            "kwargs": dict(entry.kwargs),
            "committed": entry.committed,
            "note": entry.note,
            "path": str(path),
        }
        if path.is_file():
            try:
                info = trace_info(path)
            except TraceFormatError as error:
                row["error"] = str(error)
            else:
                row["insts"] = info["insts"]
                row["trace_sha256"] = info["trace_sha256"]
                row["bytes"] = info["bytes"]
        else:
            row["missing"] = True
        rows.append(row)
    return rows


def verify_corpus_entry(entry: CorpusEntry) -> bool:
    """Does the on-disk file exist and parse? (Header-level check.)"""
    path = corpus_path(entry)
    if not path.is_file():
        return False
    try:
        read_header(path)
    except TraceFormatError:
        return False
    return True
