"""End-to-end server behaviour: submit, coalesce, backpressure, metrics."""

import pytest

from repro.serve.client import ServeClient

from .conftest import tiny_run
from .contract import BackpressureContract, HttpSurfaceContract

VERIFY_SOURCE = "    LDI  r1, 5\n    ADD  r2, r1, #1\n    HALT\n"


class TestRunJobs:
    def test_single_run_returns_versioned_stats(self, server):
        client = ServeClient(server.base_url)
        (receipt,) = client.submit(tiny_run())
        assert receipt["status"] == "queued" and not receipt["coalesced"]
        document = client.wait(receipt["id"], timeout=60, poll=1.0)
        stats = document["result"]["stats"]
        assert stats["schema_version"] == 1
        assert stats["run"]["benchmark"] == "gzip"
        assert stats["derived"]["ipc"] > 0
        assert stats["fingerprint"] == document["fingerprint"]
        done = client.jobs(status="done")
        assert [job["id"] for job in done] == [receipt["id"]]
        assert all("result" not in job for job in done)  # listings are light

    def test_identical_jobs_coalesce_distinct_do_not(self, server):
        client = ServeClient(server.base_url)
        receipts = client.submit(
            [tiny_run()] * 4 + [tiny_run("gcc")] * 3 + [tiny_run(seed=8)]
        )
        coalesced = [r for r in receipts if r["coalesced"]]
        primaries = [r for r in receipts if not r["coalesced"]]
        assert len(primaries) == 3 and len(coalesced) == 5
        for receipt in receipts:
            assert client.wait(receipt["id"], timeout=60, poll=1.0)["status"] == "done"
        # 8 jobs, 3 distinct fingerprints -> exactly 3 simulations.
        assert server.server.executor.simulated() == 3
        metrics = client.metrics()
        assert metrics["metrics"]["serve.coalesce_hits"] == 5

    def test_followers_share_the_primary_result(self, server):
        client = ServeClient(server.base_url)
        first, second = client.submit([tiny_run("bzip"), tiny_run("bzip")])
        assert second["coalesced_into"] == first["id"]
        primary = client.wait(first["id"], timeout=60, poll=1.0)
        follower = client.wait(second["id"], timeout=60, poll=1.0)
        assert follower["result"] == primary["result"]

    def test_job_failure_is_reported_not_fatal(self, server, monkeypatch):
        client = ServeClient(server.base_url)
        # An unserviceable spec sneaks past validation only via a broken
        # executor; simulate one by poisoning the cache directory lookup.
        monkeypatch.setattr(
            server.server.executor, "execute",
            lambda spec: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        (receipt,) = client.submit(tiny_run("mcf"))
        from repro.serve.client import JobFailed

        with pytest.raises(JobFailed, match="boom"):
            client.wait(receipt["id"], timeout=30, poll=0.5)
        assert client.healthz()["ok"] is True  # worker survived


class TestVerifyJobs:
    def test_corpus_style_verify_job(self, server):
        client = ServeClient(server.base_url)
        (receipt,) = client.submit(
            {"kind": "verify", "source": VERIFY_SOURCE, "configs": ["base+nonsel"]}
        )
        document = client.wait(receipt["id"], timeout=60, poll=1.0)
        result = document["result"]
        assert result["kind"] == "verify" and result["ok"] is True
        assert result["checked"] == 1 and result["configs"] == ["base+nonsel"]

    def test_verify_jobs_coalesce_on_source(self, server):
        client = ServeClient(server.base_url)
        spec = {"kind": "verify", "source": VERIFY_SOURCE, "configs": ["base+nonsel"]}
        first, second = client.submit([spec, spec])
        assert second["coalesced"] and second["coalesced_into"] == first["id"]


class TestBackpressure(BackpressureContract):
    kind = "server"


class TestHttpSurface(HttpSurfaceContract):
    kind = "server"


class TestMetrics:
    def test_metrics_document_shape(self, server):
        client = ServeClient(server.base_url)
        (receipt,) = client.submit(tiny_run("vpr"))
        client.wait(receipt["id"], timeout=60, poll=1.0)
        document = client.metrics()
        serve = document["serve"]
        assert serve["queue_depth"] == 0 and serve["workers"] == 2
        assert serve["latency_ms"]["p50"] is not None
        assert serve["latency_ms"]["p99"] >= serve["latency_ms"]["p50"]
        metrics = document["metrics"]
        assert metrics["serve.submitted"] >= 1
        assert metrics["serve.completed"] >= 1
        assert "serve.job_latency_ms" in metrics
