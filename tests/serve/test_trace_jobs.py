"""Trace jobs through the executor and the HTTP server."""

import pytest

from repro.serve.client import ServeClient
from repro.serve.protocol import parse_spec
from repro.trace.capture import capture_kernel


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "vs.hpt"
    capture_kernel("vector_sum", path, n=400)
    return path


class TestExecutor:
    def test_full_run_returns_stats_export(self, fresh_executor, small_trace):
        spec = parse_spec({"kind": "trace", "trace": str(small_trace)})
        document = fresh_executor.execute(spec)
        assert document["kind"] == "trace"
        stats = document["stats"]
        assert stats["run"]["benchmark"] == f"tracefile:{spec.content_hash}"
        assert stats["run"]["seed"] == 0
        assert stats["derived"]["ipc"] > 0
        assert stats["fingerprint"] == spec.fingerprint()

    def test_sampled_run_returns_report(self, fresh_executor, small_trace):
        spec = parse_spec(
            {"kind": "trace", "trace": str(small_trace), "sampled": True,
             "interval": 500, "sample_warmup": 100}
        )
        document = fresh_executor.execute(spec)
        report = document["report"]
        assert report["weighted_ipc"] > 0
        assert report["content_hash"] == spec.content_hash

    def test_feed_is_memoized_per_content_hash(self, fresh_executor, small_trace):
        from repro.trace import shared_corpus_feed
        from repro.workloads.stream import FEED_MEMO

        spec = parse_spec({"kind": "trace", "trace": str(small_trace)})
        fresh_executor.execute(spec)
        feed = shared_corpus_feed(spec.trace, spec.content_hash)
        loads = FEED_MEMO.counts.get("trace_loads", 0)
        fresh_executor.execute(spec)
        assert shared_corpus_feed(spec.trace, spec.content_hash) is feed
        assert FEED_MEMO.counts.get("trace_loads", 0) == loads

    def test_executor_holds_one_decoded_feed(self, fresh_executor):
        from repro.workloads.stream import FEED_MEMO

        names = ("vector_sum_80k", "hash_probe_71k", "strsearch_76k")
        specs = {
            name: parse_spec({"kind": "trace", "trace": name, "insts": 300})
            for name in names
        }
        FEED_MEMO.clear()
        before = dict(FEED_MEMO.counts)

        def delta(name):
            return FEED_MEMO.counts.get(name, 0) - before.get(name, 0)

        for name in names:
            fresh_executor.execute(specs[name])
            assert FEED_MEMO.held() == 1
        assert delta("trace_loads") == 3
        # Same-trace jobs still hit the held feed...
        fresh_executor.execute(specs["strsearch_76k"])
        assert (delta("trace_loads"), delta("trace_hits")) == (3, 1)
        # ...and a batch runs its trace jobs grouped, so an interleaved
        # batch decodes each trace once.
        batch = [specs["vector_sum_80k"], specs["hash_probe_71k"]] * 2
        outcomes = fresh_executor.execute_batch(batch)
        assert all(isinstance(outcome, dict) for outcome in outcomes)
        assert outcomes[0] == outcomes[2] and outcomes[1] == outcomes[3]
        assert (delta("trace_loads"), delta("trace_hits")) == (5, 3)
        assert FEED_MEMO.held() == 1

    def test_stale_hash_fails_loudly(self, fresh_executor, small_trace):
        from repro.trace import TraceFormatError

        spec = parse_spec(
            {"kind": "trace", "trace": str(small_trace), "content_hash": "00" * 32}
        )
        with pytest.raises(TraceFormatError, match="stale"):
            fresh_executor.execute(spec)


class TestServedTraceJobs:
    def test_submit_and_wait_over_http(self, server, small_trace):
        client = ServeClient(server.base_url)
        (receipt,) = client.submit(
            [{"kind": "trace", "trace": str(small_trace)}]
        )
        document = client.wait(receipt["id"], timeout=120)
        assert document["result"]["kind"] == "trace"
        assert document["result"]["stats"]["derived"]["ipc"] > 0

    def test_same_content_coalesces_across_paths(self, server, small_trace, tmp_path):
        import shutil

        copy = tmp_path / "copy.hpt"
        shutil.copy(small_trace, copy)
        client = ServeClient(server.base_url)
        receipts = client.submit(
            [
                {"kind": "trace", "trace": str(small_trace)},
                {"kind": "trace", "trace": str(copy)},
            ]
        )
        client.wait(receipts[0]["id"], timeout=120)
        client.wait(receipts[1]["id"], timeout=120)
        assert receipts[1]["coalesced"] or receipts[1]["status"] in ("queued", "done")
        jobs = {job["id"]: job for job in client.jobs()}
        fingerprints = {
            jobs[receipt["id"]]["fingerprint"] for receipt in receipts
        }
        assert len(fingerprints) == 1
