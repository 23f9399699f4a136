"""SimPoint-style sampling: profiling, clustering, warming, accuracy."""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.fastsim import apply_backend, available_backends
from repro.pipeline.config import EIGHT_WIDE, FOUR_WIDE
from repro.trace.capture import capture_kernel
from repro.trace.feed import TraceFeed
from repro.trace.run import run_full
from repro.trace.sampling import (
    kmeans,
    pick_representatives,
    profile_intervals,
    project_bbv,
    simulate_sampled,
    warming_ops,
)
from repro.workloads.feed import EmulatorFeed
from repro.workloads.kernels import kernel_program
from repro.workloads.trace import DynOp


def kernel_ops(name, **kwargs):
    return list(EmulatorFeed(kernel_program(name, **kwargs), name=name))


def fastest_config(base=FOUR_WIDE):
    return apply_backend(base, available_backends()[-1])


class TestProfiling:
    def test_counts_partition_the_trace(self):
        ops = kernel_ops("strsearch")
        vectors, counts = profile_intervals(ops, 500)
        assert sum(counts) == len(ops)
        assert len(vectors) == len(counts)
        assert all(sum(bbv.values()) == count for bbv, count in zip(vectors, counts))

    def test_partial_tail_folds_into_the_preceding_interval(self):
        ops = kernel_ops("strsearch")
        interval = 500
        assert len(ops) % interval  # the trace has a partial tail
        vectors, counts = profile_intervals(ops, interval)
        assert len(counts) == len(ops) // interval
        assert counts[:-1] == [interval] * (len(counts) - 1)
        assert counts[-1] == interval + len(ops) % interval
        assert sum(vectors[-1].values()) == counts[-1]

    def test_leaders_are_block_starts(self):
        ops = kernel_ops("fibonacci")
        vectors, _counts = profile_intervals(ops, 10**9)
        (bbv,) = vectors
        leaders = set(bbv)
        assert ops[0].pc in leaders
        # every taken-branch target starts a block
        for op in ops:
            if op.is_control and op.next_pc != op.pc + 1:
                assert op.next_pc in leaders

    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            profile_intervals([], 0)


class TestProjection:
    def test_projection_is_l1_normalized(self):
        bbv = {0: 3, 64: 5, 1024: 2}
        point = project_bbv(bbv, 16)
        assert len(point) == 16
        assert sum(abs(x) for x in point) == pytest.approx(1.0)

    def test_projection_is_deterministic(self):
        bbv = {i * 7: i + 1 for i in range(50)}
        assert project_bbv(bbv, 32) == project_bbv(bbv, 32)


class TestKMeans:
    POINTS = [[0.0, 1.0], [0.1, 0.9], [1.0, 0.0], [0.9, 0.1], [0.95, 0.05]]

    def test_deterministic_for_a_seed(self):
        a = kmeans(self.POINTS, 2, seed=1)
        b = kmeans(self.POINTS, 2, seed=1)
        assert a == b

    def test_separates_obvious_clusters(self):
        _centroids, labels = kmeans(self.POINTS, 2, seed=1)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3] == labels[4]
        assert labels[0] != labels[2]

    def test_k_capped_by_point_count(self):
        centroids, labels = kmeans(self.POINTS, 50, seed=0)
        assert len(centroids) <= len(self.POINTS)
        assert len(labels) == len(self.POINTS)


class TestRepresentatives:
    def test_weights_sum_to_one(self):
        ops = kernel_ops("sieve", n=600)
        vectors, counts = profile_intervals(ops, 500)
        points = [project_bbv(bbv, 16) for bbv in vectors]
        reps = pick_representatives(points, counts, 4, seed=1)
        assert reps == sorted(reps)
        assert sum(weight for _index, weight in reps) == pytest.approx(1.0)
        assert all(0 <= index < len(points) for index, _weight in reps)


class TestWarming:
    def ops_for(self, addresses):
        return [
            DynOp(seq=i, pc=100 + i, opcode="LDQ", op_class=None, mem_addr=addr)
            for i, addr in enumerate(addresses)
        ]

    def test_last_access_order_and_dedup(self):
        ops = self.ops_for([0, 16, 32, 16, 0])
        warming = warming_ops(ops, len(ops), 16, 100)
        assert [op.mem_addr for op in warming] == [32, 16, 0]

    def test_cap_keeps_most_recent_lines(self):
        ops = self.ops_for([0, 16, 32, 48])
        warming = warming_ops(ops, len(ops), 16, 2)
        assert [op.mem_addr for op in warming] == [32, 48]

    def test_ops_are_dependence_free(self):
        warming = warming_ops(self.ops_for([64]), 1, 16, 10)
        (op,) = warming
        assert op.dest is None and op.srcs == () and op.sched_deps == ()


class TestSampledAccuracy:
    """The tentpole bound, at tier-1 scale: a ~100k homogeneous trace."""

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "dot.hpt"
        capture_kernel("dotproduct", path, n=12_000)
        return TraceFeed(path)

    def test_weighted_ipc_within_two_percent_at_low_coverage(self, trace):
        config = fastest_config()
        full = run_full(trace, config)
        report = simulate_sampled(trace, config)
        assert report["coverage"] < 0.5
        error = abs(report["weighted_ipc"] - full.ipc) / full.ipc
        assert error <= 0.02, (report["weighted_ipc"], full.ipc)

    def test_report_is_deterministic(self, trace):
        config = fastest_config()
        first = simulate_sampled(trace, config)
        second = simulate_sampled(trace, config)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_report_shape(self, trace):
        report = simulate_sampled(trace, fastest_config())
        assert report["insts"] == len(trace.ops)
        assert report["simulated_insts"] == sum(
            sample["committed"] for sample in report["samples"]
        )
        assert sum(s["weight"] for s in report["samples"]) == pytest.approx(1.0)
        assert report["content_hash"] == trace.content_hash


def test_short_tail_interval_cannot_zero_the_weighted_ipc():
    """``vector_sum_80k`` ends in a 3-instruction tail.  Sampled as its own
    interval on 8-wide, that tail commits inside the warmup-boundary cycle,
    measures IPC 0 and divides the weighted CPI by zero."""
    from repro.trace import load_corpus_feed

    feed = load_corpus_feed("vector_sum_80k")
    report = simulate_sampled(feed, fastest_config(EIGHT_WIDE))
    assert math.isfinite(report["weighted_ipc"]) and report["weighted_ipc"] > 0
    assert all(sample["ipc"] > 0 for sample in report["samples"])
