"""Cluster router: fingerprint-sharded dispatch over serve workers.

The router is the single front door of a serve cluster.  It owns global
job identity (ids, coalescing, the crash-safe spool journal) and does no
simulation itself; every accepted primary job is dispatched to one of N
worker processes (plain ``repro serve --worker`` servers) and watched to
completion.  The design invariants (docs/SERVING.md, "Cluster mode"):

* **Fingerprint sharding.**  Jobs are placed by consistent-hashing their
  cache fingerprint onto the worker ring (:mod:`repro.serve.ring`), so
  every submission of one fingerprint lands on the same worker and that
  worker's in-process singleflight coalesces them.  Cluster-wide
  coalescing therefore needs no cross-worker locking at all.
* **Router-pinned ids.**  Dispatches carry the router's job id in the
  batch envelope (``"ids"``, protocol v2), so a job keeps one identity
  on the router, the worker, and the wire.
* **Job stealing.**  When a fingerprint's home worker is hotter than the
  steal watermark (queue depth from its ``/healthz``), the job routes to
  the least-loaded worker instead.  Stolen or re-dispatched jobs cannot
  duplicate completed work: workers share one content-addressed result
  store (:mod:`repro.analysis.store`), whose claims make the second
  worker wait for — or find — the first worker's published blob.
* **Worker lifecycle.**  A health monitor polls every worker's
  ``/healthz``; K consecutive failures evict it from the ring and its
  in-flight jobs re-dispatch to surviving workers.  A worker draining on
  SIGTERM advertises ``draining`` and is removed from routing while its
  in-flight jobs finish — a graceful ring resize.  Workers can also be
  added at runtime via ``POST /v1/workers/register``.
* **Durability.**  The spool journal records every accepted job before
  the 202 and every terminal transition after it; a restarted router
  re-dispatches the pending set under the original ids.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

from repro.obs.registry import MetricsRegistry
from repro.serve.jobs import Job
from repro.serve.protocol import QUEUED
from repro.serve.ring import HashRing
from repro.serve.server import (
    BackgroundServer,
    FrontEnd,
    _default_batch,
    _encode_response,
    _HttpError,
    _parse_json,
)

#: Router defaults (all overridable per instance).
DEFAULT_QUEUE_SIZE = 1024
DEFAULT_STEAL_WATERMARK = 8
DEFAULT_HEALTH_INTERVAL_S = 1.0
DEFAULT_HEALTH_FAILURES = 3
#: Long-poll slice a watcher asks its worker for per round trip.
WATCH_POLL_S = 10.0


# ----------------------------------------------------------------------
# Minimal async HTTP client (stdlib asyncio streams, Connection: close)
# ----------------------------------------------------------------------
async def _worker_request(
    url: str,
    method: str,
    path: str,
    payload: dict | None = None,
    timeout: float = 10.0,
) -> tuple[int, dict]:
    """One HTTP exchange with a worker: ``(status, parsed-JSON body)``."""
    split = urlsplit(url if "//" in url else f"http://{url}")
    host, port = split.hostname or "127.0.0.1", split.port or 80

    async def _exchange() -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            body = b""
            head = [f"{method} {path} HTTP/1.1\r\n", f"Host: {host}\r\n"]
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                head.append("Content-Type: application/json\r\n")
            head.append(f"Content-Length: {len(body)}\r\n")
            head.append("Connection: close\r\n\r\n")
            writer.write("".join(head).encode("latin-1") + body)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(maxsplit=2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(f"malformed status line from {url}: {status_line!r}")
            status = int(parts[1])
            length = 0
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip() or "0")
            raw_body = await reader.readexactly(length) if length else b""
            document = json.loads(raw_body.decode("utf-8")) if raw_body else {}
            if not isinstance(document, dict):
                document = {"body": document}
            return status, document
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    return await asyncio.wait_for(_exchange(), timeout=timeout)


@dataclass
class WorkerHandle:
    """Router-side view of one worker process."""

    url: str
    name: str | None = None
    queue_depth: int = 0
    draining: bool = False
    healthy: bool = True
    consecutive_failures: int = 0
    registered_at: float = field(default_factory=time.time)

    @property
    def routable(self) -> bool:
        return self.healthy and not self.draining

    def public(self) -> dict:
        return {
            "url": self.url,
            "name": self.name,
            "queue_depth": self.queue_depth,
            "draining": self.draining,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
        }


class RouterServer(FrontEnd):
    """The shared front end over a hash ring of serve workers.

    Admitted primaries are placed on workers by fingerprint and watched
    to completion; the router itself simulates nothing.
    """

    role = "router"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: list[str] | tuple[str, ...] = (),
        spool: Path | str | None = None,
        registry: MetricsRegistry | None = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        steal_watermark: int = DEFAULT_STEAL_WATERMARK,
        health_interval_s: float = DEFAULT_HEALTH_INTERVAL_S,
        health_failures: int = DEFAULT_HEALTH_FAILURES,
        watch_poll_s: float = WATCH_POLL_S,
    ):
        super().__init__(host, port, queue_size, spool, registry)
        self.steal_watermark = steal_watermark
        self.health_interval_s = health_interval_s
        self.health_failures = health_failures
        self.watch_poll_s = watch_poll_s
        self.ring = HashRing()
        self.workers: dict[str, WorkerHandle] = {}
        for url in workers:
            self._add_worker(url)
        #: batched dispatch: per-worker buffers of (job, future) waiting
        #: to ride one POST, and the workers with an active flusher.
        self._dispatch_buffers: dict[str, list] = {}
        self._flushing: set[str] = set()
        self.dispatch_batch = _default_batch()
        self._health_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # worker set
    # ------------------------------------------------------------------
    def _add_worker(self, url: str, name: str | None = None) -> WorkerHandle:
        url = url.rstrip("/")
        handle = self.workers.get(url)
        if handle is None:
            handle = WorkerHandle(url=url, name=name)
            self.workers[url] = handle
            self.ring.add(url)
        elif name is not None:
            handle.name = name
        return handle

    def _evict_worker(self, handle: WorkerHandle) -> None:
        if self.ring.remove(handle.url):
            handle.healthy = False
            self.registry.counter("router.worker_evictions").inc()

    def _routable(self) -> list[WorkerHandle]:
        return [w for w in self.workers.values() if w.routable and w.url in self.ring]

    def _choose_worker(self, fingerprint: str) -> tuple[WorkerHandle | None, bool]:
        """Pick the worker for *fingerprint*: ``(worker, stolen)``.

        The home worker (ring placement) wins unless it is gone, not
        routable, or hotter than the steal watermark — then the job is
        stolen by the least-loaded routable worker.
        """
        candidates = self._routable()
        if not candidates:
            return None, False
        home = self.workers.get(self.ring.node(fingerprint) or "")
        if (
            home is not None
            and home.routable
            and home.queue_depth < self.steal_watermark
        ):
            return home, False
        best = min(candidates, key=lambda w: (w.queue_depth, w.url))
        stolen = home is not None and home.routable and best.url != home.url
        return best, stolen

    # ------------------------------------------------------------------
    # front-end hooks
    # ------------------------------------------------------------------
    def _launch(self) -> None:
        self._health_task = self._spawn(self._health_loop(), "router-health")

    def _stop_dispatching(self) -> None:
        # Only the probe needs stopping: dispatchers and watchers see the
        # drain flag and return, leaving their jobs pending for the journal.
        if self._health_task is not None:
            self._health_task.cancel()

    def _retry_after(self) -> int:
        workers = max(1, len(self._routable()))
        return max(1, min(60, self._primaries // workers))

    def _health(self) -> dict:
        return {"role": "router", "workers": len(self._routable())}

    def _workers_listing(self) -> list[dict]:
        return [w.public() for w in sorted(self.workers.values(), key=lambda w: w.url)]

    def _metrics_section(self) -> dict:
        return {"steal_watermark": self.steal_watermark, "workers": self._workers_listing()}

    def _extra_route(self, method: str, path: str, body: bytes) -> bytes | None:
        if path == "/v1/workers" and method == "GET":
            return _encode_response(200, {"workers": self._workers_listing()})
        if path == "/v1/workers/register" and method == "POST":
            return self._register_worker(body)
        return None

    def _register_worker(self, body: bytes) -> bytes:
        payload = _parse_json(body)
        if not isinstance(payload, dict) or not isinstance(payload.get("url"), str):
            raise _HttpError(400, "register body must be {'url': ..., 'name'?: ...}")
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            raise _HttpError(400, "name must be a string")
        handle = self._add_worker(payload["url"], name=name)
        return _encode_response(200, {"registered": handle.public()})

    # ------------------------------------------------------------------
    # health monitoring
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while True:
            await asyncio.gather(
                *(self._probe(worker) for worker in list(self.workers.values())),
                return_exceptions=True,
            )
            await asyncio.sleep(self.health_interval_s)

    async def _probe(self, worker: WorkerHandle) -> None:
        try:
            status, document = await _worker_request(
                worker.url, "GET", "/healthz", timeout=max(2.0, self.health_interval_s)
            )
        except (OSError, asyncio.TimeoutError, ValueError, ConnectionError):
            status, document = None, {}
        if status != 200:
            worker.consecutive_failures += 1
            if worker.consecutive_failures >= self.health_failures and worker.url in self.ring:
                self._evict_worker(worker)
            return
        worker.consecutive_failures = 0
        worker.draining = bool(document.get("draining"))
        depth = document.get("queue_depth")
        if isinstance(depth, int):
            worker.queue_depth = depth
        name = document.get("name")
        if isinstance(name, str) and name:
            worker.name = name
        if not worker.healthy and not worker.draining:
            # Recovered: rejoin the ring (its old keys flow back home).
            worker.healthy = True
            self.ring.add(worker.url)
            self.registry.counter("router.worker_rejoins").inc()

    # ------------------------------------------------------------------
    # dispatch + watch
    # ------------------------------------------------------------------
    def _dispatch(self, job: Job) -> None:
        self._spawn(self._dispatch_and_watch(job), f"dispatch-{job.id}")

    def _settle(self, job: Job, result: dict | None, error: str | None) -> None:
        if job.terminal:  # cancelled meanwhile: its slot is already free
            return
        self._primaries -= 1
        self._finish(job, result=result, error=error)

    async def _send_dispatch(self, worker: WorkerHandle, job: Job) -> tuple[int, dict]:
        """Enqueue *job* for batched POSTing to *worker*.

        Dispatch tasks that place jobs on the same worker in the same
        event-loop tick share one ``POST /v1/jobs`` round-trip (the
        protocol's batch envelope carries all their specs + ids), so a
        1000-job sweep costs tens of worker requests instead of 1000.
        Returns this job's view of the shared response, or raises the
        shared transport error.
        """
        future = asyncio.get_running_loop().create_future()
        self._dispatch_buffers.setdefault(worker.url, []).append((job, future))
        if worker.url not in self._flushing:
            self._flushing.add(worker.url)
            self._spawn(self._flush_dispatches(worker), f"dispatch-flush-{worker.url}")
        return await future

    async def _flush_dispatches(self, worker: WorkerHandle) -> None:
        try:
            await asyncio.sleep(0)  # let same-tick dispatchers pile on
            while True:
                buffer = self._dispatch_buffers.get(worker.url) or []
                if not buffer:
                    return
                entries = buffer[: self.dispatch_batch]
                del buffer[: len(entries)]
                self.registry.histogram("router.dispatch_batch_size").observe(
                    len(entries)
                )
                try:
                    status, document = await _worker_request(
                        worker.url,
                        "POST",
                        "/v1/jobs",
                        {
                            "jobs": [job.spec.as_wire() for job, _ in entries],
                            "ids": [job.id for job, _ in entries],
                        },
                        timeout=10.0,
                    )
                except (
                    OSError,
                    asyncio.TimeoutError,
                    ValueError,
                    ConnectionError,
                ) as error:
                    for _, future in entries:
                        if not future.done():
                            future.set_exception(error)
                    continue
                for _, future in entries:
                    if not future.done():
                        future.set_result((status, document))
        finally:
            self._flushing.discard(worker.url)

    async def _dispatch_and_watch(self, job: Job) -> None:
        """Place one primary on a worker and follow it to a terminal state.

        Every transport failure re-enters the placement loop: the ring may
        have changed (dead worker evicted, drain observed), and the shared
        result store guarantees a re-dispatched job never duplicates work
        that already published.
        """
        starve_rounds = 0
        while not job.terminal:
            if self._draining:
                return  # job stays pending; the journal re-dispatches it
            worker, stolen = self._choose_worker(job.fingerprint)
            if worker is None:
                starve_rounds += 1
                self.registry.counter("router.no_workers_waits").inc()
                await asyncio.sleep(min(2.0, 0.1 * starve_rounds))
                continue
            starve_rounds = 0
            if stolen:
                self.registry.counter("router.steals").inc()
            try:
                status, document = await self._send_dispatch(worker, job)
            except (OSError, asyncio.TimeoutError, ValueError, ConnectionError):
                worker.consecutive_failures += 1
                self.registry.counter("router.dispatch_errors").inc()
                await asyncio.sleep(0.1)
                continue
            if status in (429, 503):
                # Worker backpressure: let its queue depth refresh, then
                # re-place (likely stealing to a colder worker).
                worker.queue_depth = max(worker.queue_depth, self.steal_watermark)
                await asyncio.sleep(0.2)
                continue
            if status >= 400:
                self._settle(
                    job, None, f"worker {worker.url} rejected dispatch: HTTP {status}: "
                    f"{document.get('error', 'unknown')}"
                )
                return
            worker.queue_depth += 1  # optimistic; corrected by next probe
            self.registry.counter("router.dispatches").inc()
            if await self._watch(job, worker):
                return
            self.registry.counter("router.redispatches").inc()

    async def _watch(self, job: Job, worker: WorkerHandle) -> bool:
        """Long-poll *worker* until *job* settles; False to re-dispatch."""
        misses = 0
        while not job.terminal:
            if self._draining:
                return True  # leave pending for the journal
            try:
                status, document = await _worker_request(
                    worker.url,
                    "GET",
                    f"/v1/jobs/{job.id}?wait={self.watch_poll_s:g}",
                    timeout=self.watch_poll_s + 5.0,
                )
            except (OSError, asyncio.TimeoutError, ValueError, ConnectionError):
                misses += 1
                if misses >= 2 or not worker.routable:
                    return False  # worker presumed gone: re-dispatch
                await asyncio.sleep(0.2)
                continue
            misses = 0
            if status == 404:
                # The worker restarted without its table: re-dispatch.
                return False
            if status != 200:
                await asyncio.sleep(0.2)
                continue
            if document.get("status") == "running" and job.status == QUEUED:
                self.table.mark_running(job)  # mirror for status listings
            if document.get("status") in ("done", "failed", "cancelled"):
                self._settle(job, document.get("result"), document.get("error"))
                return True
        return True


class BackgroundRouter(BackgroundServer):
    """A RouterServer on its own thread + event loop (tests, fixtures)."""

    front_end_class = RouterServer
