"""Shared streams and the one-entry feed memo (repro.workloads.stream).

Runs fed from the memo must serialize byte-identically to fresh
generator-fed runs: on every machine of the Figs 14-16 grid, on both
backends, when a longer run extends a shorter run's prefix, when two
streams interleave in submission order, and after a job that failed
mid-run.  The native cases skip cleanly without the compiled extension.
"""

import dataclasses
import json
import sys
import threading

import pytest

from repro.analysis.cache import serialize_result
from repro.analysis.parallel import Job, execute_job, run_jobs
from repro.errors import SimulationError
from repro.fastsim import make_processor, native_available
from repro.frontend.branch_unit import BranchUnit
from repro.pipeline.config import EIGHT_WIDE, FOUR_WIDE, RegFileModel, SchedulerModel
from repro.workloads.feed import ReplayFeed
from repro.workloads.profiles import get_profile
from repro.workloads.stream import (
    CHUNK,
    FEED_MEMO,
    FeedMemo,
    Stream,
    encode_ops,
    feed_key,
    stream_of,
    synthetic_stream,
)
from repro.workloads.synthetic import SyntheticWorkload

BACKENDS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(),
            reason="native backend needs the compiled extension (pip install -e .[native])",
        ),
    ),
]

#: The Figs 14-16 grid: four technique variants at 4 and 8 wide.
GRID = [
    base.with_techniques(scheduler=scheduler, regfile=regfile)
    for base in (FOUR_WIDE, EIGHT_WIDE)
    for scheduler in (SchedulerModel.BASE, SchedulerModel.SEQ_WAKEUP)
    for regfile in (RegFileModel.BASE, RegFileModel.SEQUENTIAL)
]


@pytest.fixture(autouse=True)
def empty_memo():
    FEED_MEMO.clear()
    yield
    FEED_MEMO.clear()


def _counts() -> dict:
    return dict(FEED_MEMO.counts)


def _delta(before: dict, name: str) -> int:
    return FEED_MEMO.counts.get(name, 0) - before.get(name, 0)


def _payload(result) -> str:
    return json.dumps(serialize_result(result), sort_keys=True)


def _fresh(job: Job) -> str:
    """The job run from a freshly built generator, bypassing the memo."""
    workload = SyntheticWorkload(get_profile(job.benchmark), seed=job.seed)
    processor = make_processor(
        workload, job.config, backend=job.config.backend, shadow_sizes=job.shadow_sizes
    )
    return _payload(processor.run(max_insts=job.insts, warmup=job.warmup))


def _on(config, backend: str):
    return dataclasses.replace(config, backend=backend)


class TestMemoParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_grid_configs_match_fresh_runs(self, backend):
        before = _counts()
        for config in GRID:
            job = Job("gzip", _on(config, backend), 11, 600, 300)
            assert _payload(execute_job(job)) == _fresh(job), config.name
        assert _delta(before, "synthetic_loads") == 1
        assert _delta(before, "synthetic_hits") == len(GRID) - 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_longer_run_extends_the_prefix(self, backend):
        short = Job("mcf", _on(FOUR_WIDE, backend), 4, 400, 100)
        long = Job("mcf", _on(EIGHT_WIDE, backend), 4, 3 * CHUNK, 2 * CHUNK)
        assert _payload(execute_job(short)) == _fresh(short)
        prefix = len(synthetic_stream("mcf", 4).ops)
        assert _payload(execute_job(long)) == _fresh(long)
        assert len(synthetic_stream("mcf", 4).ops) > prefix
        # ...and a shorter run replays the longer prefix unchanged.
        assert _payload(execute_job(short)) == _fresh(short)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interleaved_streams_in_submission_order(self, backend):
        jobs = [
            Job(benchmark, _on(config, backend), seed, 500, 200)
            for config in GRID[:4]
            for benchmark, seed in (("gzip", 1), ("vortex", 2))
        ]
        before = _counts()
        results = run_jobs(jobs, workers=1)
        assert [_payload(r) for r in results] == [_fresh(job) for job in jobs]
        # Grouped by stream: each is generated once despite the interleave.
        assert _delta(before, "synthetic_loads") == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_job_failing_mid_run_leaves_the_stream_usable(self, backend, monkeypatch):
        resolve = BranchUnit.resolve
        calls = []

        def failing_resolve(self, *args, **kwargs):
            calls.append(1)
            if len(calls) > 50:
                raise RuntimeError("injected mid-run failure")
            return resolve(self, *args, **kwargs)

        monkeypatch.setattr(BranchUnit, "resolve", failing_resolve)
        with pytest.raises(RuntimeError, match="injected"):
            execute_job(Job("gcc", _on(FOUR_WIDE, backend), 9, 3_000, 500))
        monkeypatch.setattr(BranchUnit, "resolve", resolve)
        assert FEED_MEMO.held() == 1
        job = Job("gcc", _on(FOUR_WIDE, backend), 9, 3 * CHUNK, 500)
        before = _counts()
        assert _payload(execute_job(job)) == _fresh(job)
        assert _delta(before, "synthetic_hits") == 1

    def test_inline_run_raises_first_failure_in_submission_order(self):
        jobs = [
            Job("gzip", FOUR_WIDE, 1, 200, 0),
            Job("no-such-benchmark", FOUR_WIDE, 1, 200, 0),
            Job("gzip", FOUR_WIDE, 2, 200, 0),
            Job("also-missing", FOUR_WIDE, 1, 200, 0),
        ]
        with pytest.raises(Exception, match="no-such-benchmark"):
            run_jobs(jobs, workers=1)


class TestStream:
    def test_prefix_and_chunks_match_the_generator(self):
        workload = SyntheticWorkload(get_profile("gzip"), seed=5)
        stream = Stream(SyntheticWorkload(get_profile("gzip"), seed=5))
        reference = ReplayFeed.from_stream(workload, limit=3 * CHUNK)
        for index in range(3):
            ops = reference.ops[index * CHUNK : (index + 1) * CHUNK]
            assert stream.chunk(index) == encode_ops(ops, index * CHUNK, workload.pc_address)
        assert [op.seq for op in stream.ops] == list(range(3 * CHUNK))
        assert stream.name == workload.name

    def test_iteration_extends_on_demand(self):
        stream = Stream(SyntheticWorkload(get_profile("gcc"), seed=2))
        first = [op.seq for _, op in zip(range(10), stream)]
        assert first == list(range(10))
        assert len(stream.ops) == CHUNK
        assert [op.seq for _, op in zip(range(CHUNK + 1), stream)][-1] == CHUNK
        assert len(stream.ops) == 2 * CHUNK

    def test_complete_stream_is_one_chunk(self):
        feed = ReplayFeed.from_stream(SyntheticWorkload(get_profile("mcf"), seed=3), 2 * CHUNK + 7)
        stream = stream_of(feed)
        assert stream_of(feed) is stream  # cached per feed object
        assert len(stream.chunk(0)[0]) == 2 * CHUNK + 7
        assert stream.chunk(1) is None

    def test_short_source_ends_the_stream(self):
        ops = ReplayFeed.from_stream(SyntheticWorkload(get_profile("mcf"), seed=3), 100).ops
        stream = Stream(iter(ops))
        assert list(stream) == ops
        assert len(stream.chunk(0)[1]) == 100
        assert stream.chunk(1) is None

    def test_sparse_seq_numbers_are_rejected_at_encode(self):
        ops = ReplayFeed.from_stream(SyntheticWorkload(get_profile("mcf"), seed=3), 10).ops
        with pytest.raises(SimulationError, match="dense"):
            Stream(iter(ops[1:])).chunk(0)

    def test_generation_error_breaks_the_stream(self):
        def source():
            yield from ReplayFeed.from_stream(SyntheticWorkload(get_profile("mcf"), seed=3), 10).ops
            raise RuntimeError("generator died")

        memo = FeedMemo()
        stream = memo.get(("synthetic", "x", 0), lambda: Stream(source()))
        with pytest.raises(RuntimeError, match="generator died"):
            stream.chunk(0)
        assert stream.broken
        with pytest.raises(SimulationError, match="failed earlier"):
            list(stream)
        # A broken stream is a miss: the memo loads a fresh one.
        again = memo.get(("synthetic", "x", 0), lambda: Stream(iter(())))
        assert again is not stream
        assert memo.counts == {"synthetic_loads": 2}

    def test_threads_share_one_stream(self):
        stream = Stream(SyntheticWorkload(get_profile("gzip"), seed=8))
        seen = []

        def walk():
            seen.append([op.seq for _, op in zip(range(3 * CHUNK), stream)])
            stream.chunk(2)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [list(range(3 * CHUNK))] * 4
        assert [op.seq for op in stream.ops] == list(range(len(stream.ops)))
        assert len(stream._chunks) == 3


class TestFeedMemo:
    def test_holds_one_entry_and_evicts_before_loading(self):
        memo = FeedMemo()
        held_at_load = []

        def load(value):
            def loader():
                held_at_load.append(memo.held())
                return value

            return loader

        assert memo.get(("synthetic", "a", 1), load("A")) == "A"
        assert memo.get(("synthetic", "a", 1), load("other")) == "A"
        assert memo.get(("trace", "h"), load("T")) == "T"
        assert memo.get(("synthetic", "a", 1), load("A2")) == "A2"
        assert held_at_load == [0, 0, 0]
        assert memo.held() == 1
        assert memo.counts == {"synthetic_loads": 2, "synthetic_hits": 1, "trace_loads": 1}

    def test_concurrent_requests_for_one_key_load_once(self):
        memo = FeedMemo()
        got = []

        def request():
            for _ in range(50):
                got.append(memo.get(("synthetic", "a", 1), object))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=request) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(value) for value in got}) == 1
        assert memo.counts == {"synthetic_loads": 1, "synthetic_hits": 199}

    def test_failed_load_leaves_the_memo_empty(self):
        memo = FeedMemo()
        memo.get(("synthetic", "a", 1), lambda: "A")
        with pytest.raises(KeyError):
            memo.get(("synthetic", "b", 1), lambda: {}["missing"])
        assert memo.held() == 0

    def test_fork_hook_empties_the_memo(self):
        memo = FeedMemo()
        memo.get(("synthetic", "a", 1), lambda: "A")
        memo._after_fork()
        assert memo.held() == 0
        assert memo.get(("synthetic", "a", 1), lambda: "B") == "B"

    def test_synthetic_stream_is_keyed_by_benchmark_and_seed(self):
        first = synthetic_stream("gzip", 3)
        assert synthetic_stream("gzip", 3) is first
        assert feed_key("gzip", 3) == ("synthetic", "gzip", 3)
        assert synthetic_stream("gzip", 4) is not first
