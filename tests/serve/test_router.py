"""Cluster router tests: sharding, stealing, failover, registration.

Integration tests boot real BackgroundServer workers (each its own
thread + event loop) that share one on-disk result store, with a
BackgroundRouter in front — the same topology ``scripts/cluster_smoke.py``
exercises with full subprocesses in CI.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.analysis.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.executor import JobExecutor
from repro.serve.router import RouterServer, BackgroundRouter, WorkerHandle
from repro.serve.server import BackgroundServer

from tests.serve.conftest import tiny_run
from tests.serve.contract import BackpressureContract, HttpSurfaceContract


# ----------------------------------------------------------------------
# Unit tests: placement policy (no sockets)
# ----------------------------------------------------------------------
class TestPlacement:
    def _router(self, urls, **kwargs) -> RouterServer:
        return RouterServer(workers=urls, **kwargs)

    def test_home_worker_wins_when_cold(self):
        router = self._router(["http://a:1", "http://b:2"])
        fingerprint = "f" * 64
        home = router.ring.node(fingerprint)
        worker, stolen = router._choose_worker(fingerprint)
        assert worker is not None and worker.url == home
        assert stolen is False

    def test_hot_home_is_stolen_from(self):
        router = self._router(["http://a:1", "http://b:2"], steal_watermark=4)
        fingerprint = "f" * 64
        home = router.ring.node(fingerprint)
        other = next(url for url in router.workers if url != home)
        router.workers[home].queue_depth = 10  # over the watermark
        worker, stolen = router._choose_worker(fingerprint)
        assert worker.url == other
        assert stolen is True

    def test_draining_home_routes_away_without_counting_as_steal(self):
        router = self._router(["http://a:1", "http://b:2"])
        fingerprint = "f" * 64
        home = router.ring.node(fingerprint)
        other = next(url for url in router.workers if url != home)
        router.workers[home].draining = True
        worker, stolen = router._choose_worker(fingerprint)
        assert worker.url == other
        assert stolen is False

    def test_no_routable_workers(self):
        router = self._router(["http://a:1"])
        router.workers["http://a:1"].draining = True
        worker, stolen = router._choose_worker("f" * 64)
        assert worker is None and stolen is False

    def test_everyone_hot_picks_least_loaded(self):
        router = self._router(
            ["http://a:1", "http://b:2", "http://c:3"], steal_watermark=1
        )
        for url, depth in zip(sorted(router.workers), (9, 3, 7)):
            router.workers[url].queue_depth = depth
        worker, _stolen = router._choose_worker("f" * 64)
        assert worker.queue_depth == 3

    def test_probe_failures_evict_from_ring(self):
        # Point at a port nothing listens on: every probe fails.
        router = self._router(["http://127.0.0.1:9"], health_failures=2)
        worker = router.workers["http://127.0.0.1:9"]
        assert worker.url in router.ring
        for _ in range(2):
            asyncio.run(router._probe(worker))
        assert worker.url not in router.ring
        assert worker.healthy is False


# ----------------------------------------------------------------------
# The front-end contract, against a router with no workers
# ----------------------------------------------------------------------
class TestRouterBackpressure(BackpressureContract):
    kind = "router"


class TestRouterHttpSurface(HttpSurfaceContract):
    kind = "router"


# ----------------------------------------------------------------------
# Integration: a real 2-worker cluster behind a router
# ----------------------------------------------------------------------
@pytest.fixture
def cluster(tmp_path):
    """(router, client, workers, executors) over one shared store."""
    store = tmp_path / "store"
    executors = [JobExecutor(cache=ResultCache(store)) for _ in range(2)]
    workers = [
        BackgroundServer(port=0, workers=2, name=f"w{index}", executor=executor)
        for index, executor in enumerate(executors)
    ]
    for worker in workers:
        worker.start()
    router = BackgroundRouter(
        port=0,
        workers=[worker.base_url for worker in workers],
        spool=tmp_path / "router-spool",
        health_interval_s=0.1,
        health_failures=2,
        watch_poll_s=2.0,
    )
    router.start()
    client = ServeClient(router.base_url, timeout=30.0)
    try:
        yield router, client, workers, executors
    finally:
        router.stop(graceful=True)
        for worker in workers:
            worker.stop(graceful=True)


class TestClusterIntegration:
    def test_jobs_complete_through_the_router(self, cluster):
        _router, client, _workers, _executors = cluster
        documents = client.submit_and_wait(
            [tiny_run("gzip"), tiny_run("mcf")], timeout=60.0
        )
        assert [doc["status"] for doc in documents] == ["done", "done"]
        for document in documents:
            assert document["result"]["kind"] == "run"
            assert "derived" in document["result"]["stats"]

    def test_duplicate_specs_coalesce_cluster_wide(self, cluster):
        _router, client, _workers, executors = cluster
        receipts = client.submit([tiny_run("gzip", seed=11)] * 5)
        assert sum(1 for receipt in receipts if receipt["coalesced"]) == 4
        primary = next(r for r in receipts if not r["coalesced"])
        for receipt in receipts:
            document = client.wait(receipt["id"], timeout=60.0)
            assert document["status"] == "done"
            if receipt["coalesced"]:
                assert receipt["coalesced_into"] == primary["id"]
        assert sum(executor.simulated() for executor in executors) == 1

    def test_resubmission_after_completion_hits_the_shared_store(self, cluster):
        _router, client, _workers, executors = cluster
        client.submit_and_wait([tiny_run("gzip", seed=21)], timeout=60.0)
        # New router job (the first is terminal, so no coalescing) — but
        # whichever worker receives it finds the published blob.
        client.submit_and_wait([tiny_run("gzip", seed=21)], timeout=60.0)
        assert sum(executor.simulated() for executor in executors) == 1

    def test_router_healthz_and_worker_listing(self, cluster):
        router, client, workers, _executors = cluster
        health = client.healthz()
        assert health["role"] == "router" and health["workers"] == 2
        listing = client.request("GET", "/v1/workers")["workers"]
        assert sorted(w["url"] for w in listing) == sorted(
            worker.base_url for worker in workers
        )
        # Health probes learn the worker names within a probe cycle.
        deadline = time.monotonic() + 10.0
        names: set = set()
        while names != {"w0", "w1"} and time.monotonic() < deadline:
            listing = client.request("GET", "/v1/workers")["workers"]
            names = {w["name"] for w in listing if w["name"]}
            time.sleep(0.05)
        assert names == {"w0", "w1"}

    def test_worker_registration_endpoint(self, cluster, tmp_path):
        router, client, _workers, _executors = cluster
        extra = BackgroundServer(
            port=0,
            workers=1,
            name="late",
            executor=JobExecutor(cache=ResultCache(tmp_path / "store")),
        )
        extra.start()
        try:
            receipt = client.request(
                "POST",
                "/v1/workers/register",
                {"url": extra.base_url, "name": "late"},
            )
            assert receipt["registered"]["url"] == extra.base_url
            listing = client.request("GET", "/v1/workers")["workers"]
            assert extra.base_url in {w["url"] for w in listing}
            assert extra.base_url in router.server.ring
        finally:
            extra.stop(graceful=True)

    def test_dead_worker_jobs_redispatch_to_survivors(self, cluster):
        """Killing a worker mid-sweep loses no jobs (tentpole failover)."""
        _router, client, workers, executors = cluster
        specs = [tiny_run("gzip", seed=100 + index) for index in range(8)]
        receipts = client.submit(specs)
        # Hard-kill one worker immediately: its in-flight and queued jobs
        # must re-dispatch to the survivor.
        workers[0].stop(graceful=False)
        documents = [client.wait(receipt["id"], timeout=90.0) for receipt in receipts]
        assert all(document["status"] == "done" for document in documents)
        # The shared store bounds total work: never more simulations than
        # unique fingerprints (the SIGKILLed worker may have completed
        # some before dying, which the survivor then found published).
        assert sum(executor.simulated() for executor in executors) <= len(specs)

    def test_router_restart_redispatches_spooled_jobs(self, tmp_path):
        """A router crash/restart resumes pending jobs under original ids."""
        spool = tmp_path / "spool"
        # No workers: accepted jobs starve in the dispatch loop, pending.
        first = BackgroundRouter(port=0, workers=[], spool=spool)
        first.start()
        receipt = ServeClient(first.base_url).submit([tiny_run("gzip", seed=31)])[0]
        first.stop(graceful=True)

        worker = BackgroundServer(
            port=0,
            workers=1,
            executor=JobExecutor(cache=ResultCache(tmp_path / "store")),
        )
        worker.start()
        second = BackgroundRouter(
            port=0, workers=[worker.base_url], spool=spool, watch_poll_s=2.0
        )
        second.start()
        try:
            assert second.server.recovered == 1
            document = ServeClient(second.base_url).wait(receipt["id"], timeout=60.0)
            assert document["status"] == "done"
            assert document["id"] == receipt["id"]
        finally:
            second.stop(graceful=True)
            worker.stop(graceful=True)


class TestWorkerProtocolExtensions:
    def test_worker_accepts_router_assigned_ids(self, tmp_path):
        worker = BackgroundServer(
            port=0,
            workers=1,
            executor=JobExecutor(cache=ResultCache(tmp_path / "store")),
        )
        worker.start()
        try:
            client = ServeClient(worker.base_url)
            receipts = client.submit(
                {"jobs": [tiny_run("gzip", seed=41)], "ids": ["j-000777"]}
            )
            assert receipts[0]["id"] == "j-000777"
            # Idempotent re-dispatch: same id again is acknowledged, not
            # forked into a new identity.
            again = client.submit(
                {"jobs": [tiny_run("gzip", seed=41)], "ids": ["j-000777"]}
            )
            assert again[0]["id"] == "j-000777"
            document = client.wait("j-000777", timeout=60.0)
            assert document["status"] == "done"
            # The id counter moved past the assigned id.
            assert worker.server.table.next_id > 777
        finally:
            worker.stop(graceful=True)

    def test_worker_healthz_reports_queue_depth_and_name(self, tmp_path):
        worker = BackgroundServer(
            port=0,
            workers=1,
            name="probe-me",
            executor=JobExecutor(cache=ResultCache(tmp_path / "store")),
        )
        worker.start()
        try:
            health = ServeClient(worker.base_url).healthz()
            assert health["name"] == "probe-me"
            assert health["queue_depth"] == 0
            assert health["draining"] is False
        finally:
            worker.stop(graceful=True)


class TestStealingLive:
    def test_watermark_zero_spreads_load(self, tmp_path):
        """With the watermark at 0 every home is 'hot': placement must
        still complete all jobs (stealing never strands work)."""
        store = tmp_path / "store"
        executors = [JobExecutor(cache=ResultCache(store)) for _ in range(2)]
        workers = [
            BackgroundServer(port=0, workers=1, executor=executor)
            for executor in executors
        ]
        for worker in workers:
            worker.start()
        router = BackgroundRouter(
            port=0,
            workers=[worker.base_url for worker in workers],
            steal_watermark=0,
            health_interval_s=0.1,
            watch_poll_s=2.0,
        )
        router.start()
        try:
            client = ServeClient(router.base_url, timeout=30.0)
            specs = [tiny_run("gzip", seed=200 + index) for index in range(6)]
            documents = client.submit_and_wait(specs, timeout=90.0)
            assert all(document["status"] == "done" for document in documents)
            metrics = client.metrics()["metrics"]
            assert metrics.get("router.dispatches", 0) >= 6
        finally:
            router.stop(graceful=True)
            for worker in workers:
                worker.stop(graceful=True)


def test_drain_reports_within_deadline(cluster):
    """Router drain with no pending work returns promptly."""
    router, client, _workers, _executors = cluster
    client.submit_and_wait([tiny_run("gzip", seed=51)], timeout=60.0)
    started = time.monotonic()
    router.stop(graceful=True)
    assert time.monotonic() - started < 30.0
