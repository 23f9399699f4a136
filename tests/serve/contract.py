"""One contract for both serve front ends: the job server and the router.

Admission, routing and the job table live once, in
``repro.serve.server.FrontEnd``; the suites below pin that behaviour
down.  A concrete test class sets ``kind`` (``"server"`` or
``"router"``) and inherits every case, so each case runs against both
dispatch strategies.  The front ends are idle — a server with no worker
tasks, a router with no workers — so every admitted job stays queued
and cancellable, and no simulation runs.
"""

from __future__ import annotations

import http.client
import time

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.executor import JobExecutor
from repro.serve.router import BackgroundRouter
from repro.serve.server import BackgroundServer

from .conftest import tiny_run


class _Contract:
    #: which front end the inherited cases run against: "server" or "router"
    kind: str

    def idle(self, **limits) -> BackgroundServer:
        """A front end that admits jobs but never starts one."""
        if self.kind == "server":
            return BackgroundServer(
                port=0, workers=0, executor=JobExecutor(cache=False), **limits
            )
        return BackgroundRouter(port=0, workers=[], **limits)


class BackpressureContract(_Contract):
    def test_429_with_retry_after_when_queue_full(self):
        with self.idle(queue_size=2) as bg:
            client = ServeClient(bg.base_url)
            client.submit([tiny_run(), tiny_run("gcc")])  # fills the queue
            status, headers, document = client._once("POST", "/v1/jobs", tiny_run("bzip"))
            assert status == 429
            assert "queue full" in document["error"]
            retry_after = {k.lower(): v for k, v in headers.items()}["retry-after"]
            assert int(retry_after) >= 1

    def test_coalescing_submissions_bypass_backpressure(self):
        with self.idle(queue_size=1) as bg:
            client = ServeClient(bg.base_url)
            client.submit(tiny_run())
            # Same fingerprint: accepted as a follower despite a full queue.
            (receipt,) = client.submit(tiny_run())
            assert receipt["coalesced"]

    def test_atomic_batch_rejection(self):
        with self.idle(queue_size=2) as bg:
            client = ServeClient(bg.base_url)
            batch = [tiny_run(), tiny_run("gcc"), tiny_run("bzip")]
            status, _headers, _document = client._once("POST", "/v1/jobs", {"jobs": batch})
            assert status == 429
            assert client.jobs() == []  # nothing partially admitted

    def test_cancelled_jobs_free_their_queue_slots(self):
        with self.idle(queue_size=2) as bg:
            client = ServeClient(bg.base_url)
            receipts = client.submit([tiny_run(), tiny_run("gcc")])
            for receipt in receipts:
                assert client.cancel(receipt["id"])["status"] == "cancelled"
            assert client.healthz()["queue_depth"] == 0
            status, _headers, document = client._once("POST", "/v1/jobs", tiny_run("bzip"))
            assert status == 202, document
            assert client.healthz()["queue_depth"] == 1

    def test_cancelling_a_follower_keeps_the_primary_slot(self):
        with self.idle(queue_size=1) as bg:
            client = ServeClient(bg.base_url)
            _primary, follower = client.submit([tiny_run(), tiny_run()])
            client.cancel(follower["id"])
            assert client.healthz()["queue_depth"] == 1
            assert client._once("POST", "/v1/jobs", tiny_run("gcc"))[0] == 429


class HttpSurfaceContract(_Contract):
    def test_bad_spec_is_400(self):
        with self.idle() as bg:
            client = ServeClient(bg.base_url)
            with pytest.raises(ServeError, match="unknown benchmark") as excinfo:
                client.submit(tiny_run("doom"))
            assert excinfo.value.status == 400

    def test_removed_vector_backend_is_400(self):
        with self.idle() as bg:
            retired = "vector"
            status, _headers, document = ServeClient(bg.base_url)._once(
                "POST", "/v1/jobs", {**tiny_run(), "backend": retired}
            )
            assert status == 400
            assert f"unknown backend {retired!r} (known: python, native)" in document["error"]

    def test_unknown_job_404(self):
        with self.idle() as bg:
            client = ServeClient(bg.base_url)
            client.submit(tiny_run())
            status, _headers, document = client._once("GET", "/v1/jobs/j-999999", None)
            assert status == 404
            # The id watermark rides the 404, so clients can tell a job
            # compacted away from one never issued.
            assert document["next_id"] == 2

    def test_unknown_route_404_and_bad_method_405(self):
        with self.idle() as bg:
            client = ServeClient(bg.base_url)
            assert client._once("GET", "/v2/nope", None)[0] == 404
            assert client._once("DELETE", "/v1/jobs", None)[0] == 405
            assert client._once("PUT", "/v1/jobs/j-000001", None)[0] == 405

    def test_invalid_json_body_400(self):
        with self.idle() as bg:
            connection = http.client.HTTPConnection(bg.server.host, bg.port, timeout=10)
            try:
                connection.request("POST", "/v1/jobs", body=b"{not json",
                                   headers={"Content-Type": "application/json"})
                assert connection.getresponse().status == 400
            finally:
                connection.close()

    def test_cancel_queued_job(self):
        with self.idle() as bg:
            client = ServeClient(bg.base_url)
            (receipt,) = client.submit(tiny_run())
            document = client.cancel(receipt["id"])
            assert document["status"] == "cancelled"
            assert client.job(receipt["id"])["status"] == "cancelled"

    def test_list_jobs_with_status_filter(self):
        with self.idle() as bg:
            client = ServeClient(bg.base_url)
            kept, dropped = client.submit([tiny_run(), tiny_run("gcc")])
            client.cancel(dropped["id"])
            assert [job["id"] for job in client.jobs(status="queued")] == [kept["id"]]
            cancelled = client.jobs(status="cancelled")
            assert [job["id"] for job in cancelled] == [dropped["id"]]
            assert all("result" not in job for job in cancelled)  # listings are light
            assert len(client.jobs()) == 2

    def test_draining_refuses_new_jobs_with_503(self):
        bg = self.idle()
        with bg:
            client = ServeClient(bg.base_url)
            (receipt,) = client.submit(tiny_run())
            # The first step of a drain, without the rest: the socket stays
            # open, so the refusal is observable.
            bg._loop.call_soon_threadsafe(setattr, bg.server, "_draining", True)
            deadline = time.monotonic() + 10
            while not client.healthz()["draining"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            status, headers, _document = client._once("POST", "/v1/jobs", tiny_run("gcc"))
            assert status == 503
            assert {k.lower(): v for k, v in headers.items()}["retry-after"] == "5"
            # Reads still work while draining.
            assert client.job(receipt["id"])["status"] == "queued"
            # A drain is already under way, so stop without a second one.
            bg.stop(graceful=False)
