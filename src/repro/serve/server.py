"""Asyncio HTTP front end: simulation-as-a-service.

Stdlib-only (``asyncio.start_server`` plus a minimal HTTP/1.1 framing
layer).  The endpoint surface (see docs/SERVING.md for the full API
reference):

* ``POST /v1/jobs``      — submit one spec or ``{"jobs": [...]}``; 202
  with per-job ids, or 429 + ``Retry-After`` when the queue is full;
* ``GET /v1/jobs``       — list jobs (``?status=`` filter);
* ``GET /v1/jobs/{id}``  — status/result; ``?wait=SECONDS`` long-polls;
* ``DELETE /v1/jobs/{id}`` — cancel a job that has not started;
* ``GET /metrics``       — the server's MetricsRegistry plus derived
  queue depth and p50/p90/p99 job latency;
* ``GET /healthz``       — liveness.

:class:`FrontEnd` implements all of it once: the request parser, the
job table, admission, long-poll, cancel, the spool journal and the
drain.  Two dispatch strategies sit on it.  :class:`ServeServer` runs
jobs locally: a bounded priority queue of *primary* jobs and N worker
tasks that run batches in threads (``asyncio.to_thread``) through the
shared :class:`~repro.serve.executor.JobExecutor`.  The cluster router
(:class:`repro.serve.router.RouterServer`) places them on workers.
Submissions whose fingerprint matches an active job coalesce onto it
(singleflight) and never occupy queue capacity.  ``SIGTERM``/``SIGINT``
trigger a graceful drain: in-flight jobs finish, queued jobs are
persisted to the spool journal, and a restarted server resumes them
with their original ids.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.obs.registry import MetricsRegistry
from repro.serve.executor import JobExecutor
from repro.serve.jobs import Job, JobTable, SpoolJournal
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    QUEUED,
    ProtocolError,
    parse_batch_with_ids,
)

#: Default bind and capacity knobs (overridable per server).
DEFAULT_PORT = 8765
DEFAULT_WORKERS = 2
DEFAULT_QUEUE_SIZE = 256


def _default_batch() -> int:
    """Max queued jobs one worker drains into a single batched execution."""
    from repro.analysis.parallel import env_int

    return max(1, env_int("REPRO_POOL_BATCH", 8))

#: Long-poll waits are capped so a drain is never held hostage.
MAX_LONGPOLL_S = 30.0

#: A request's head and body must arrive within this many seconds of
#: the connection opening, else 408: a client that stalls mid-request
#: cannot hold a connection forever.
REQUEST_DEADLINE_S = 10.0
#: Header lines accepted per request, and the longest request or header
#: line in bytes; beyond either, 431.
MAX_HEADERS = 100
MAX_LINE_BYTES = 8192
_LONGPOLL_SLICE_S = 0.25

_JSON_HEADERS = "Content-Type: application/json\r\n"

#: Queue entries: (lane, -priority, sequence, job).  The shutdown
#: sentinel rides lane -1, ahead of every real job, so draining workers
#: stop immediately and queued work persists instead of executing.
_SENTINEL = (-1, 0, -1, None)


class _HttpError(Exception):
    """Internal: mapped to an HTTP error response."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: dict | None = None,
        payload: dict | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}
        #: extra fields merged into the JSON error body (e.g. the id
        #: watermark on 404s, so clients can classify missing jobs).
        self.payload = payload or {}


class _RequestTimeout(Exception):
    """Internal: the request deadline passed mid-read."""


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _encode_response(status: int, payload: dict, extra_headers: dict | None = None) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n",
        _JSON_HEADERS,
        f"Content-Length: {len(body)}\r\n",
        "Connection: close\r\n",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}\r\n")
    lines.append("\r\n")
    return "".join(lines).encode("latin-1") + body


async def _read_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request: (method, path, query, body-bytes).

    The whole request must arrive within :data:`REQUEST_DEADLINE_S`
    (else 408), with at most :data:`MAX_HEADERS` header lines of at most
    :data:`MAX_LINE_BYTES` each (else 431).
    """
    # A timer that fails the pending read, rather than wait_for: no extra
    # task per request on the hot path.
    timer = asyncio.get_running_loop().call_later(
        REQUEST_DEADLINE_S, reader.set_exception, _RequestTimeout()
    )
    try:
        return await _parse_request(reader)
    except _RequestTimeout:
        raise _HttpError(408, "request not received in time") from None
    finally:
        timer.cancel()


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        raw = await reader.readline()
    except ValueError:  # longer than the stream's buffer limit
        raw = None
    if raw is None or len(raw) > MAX_LINE_BYTES:
        raise _HttpError(431, f"request line or header over {MAX_LINE_BYTES} bytes")
    return raw


async def _parse_request(reader: asyncio.StreamReader):
    request_line = await _read_line(reader)
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        raw = await _read_line(reader)
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(431, f"more than {MAX_HEADERS} header lines")
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _HttpError(400, "bad Content-Length") from None
    if length < 0 or length > 64 * 1024 * 1024:
        raise _HttpError(400, "unreasonable Content-Length")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = {key: values[-1] for key, values in parse_qs(split.query).items()}
    return method.upper(), split.path.rstrip("/") or "/", query, body


def _parse_json(body: bytes):
    try:
        return json.loads(body.decode("utf-8") or "null")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _HttpError(400, f"request body is not valid JSON: {error}") from None


def _quantiles(histogram) -> dict:
    """p50/p90/p99 bucket of a latency histogram (None before any sample)."""
    quantiles = {"p50": None, "p90": None, "p99": None}
    if histogram is not None and histogram.total:
        points = sorted(histogram.buckets.items())
        total = histogram.total
        for label, fraction in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            threshold = fraction * total
            seen = 0
            for bucket, count in points:
                seen += count
                if seen >= threshold:
                    quantiles[label] = bucket
                    break
    return quantiles


class FrontEnd:
    """The HTTP/job-table core shared by the job server and the router.

    It owns the socket and the routes ``/healthz``, ``/metrics``,
    ``POST/GET /v1/jobs`` and ``GET/DELETE /v1/jobs/{id}``; the
    :class:`JobTable` with spool-journal recovery and compaction; atomic
    admission (429 + ``Retry-After``), the 503 while draining, long-poll
    and cancel; the drain/abort skeleton; and the latency quantiles.

    A subclass is a dispatch strategy: :meth:`_dispatch` takes each
    admitted primary, and the hooks below add its background tasks,
    ``/healthz`` fields, ``/metrics`` section and extra routes.
    """

    #: metric-name prefix and ``/metrics`` section name
    role: str
    #: whether ``POST /v1/jobs`` honours router-pinned ``ids``
    trusts_pinned_ids = False

    def __init__(
        self,
        host: str,
        port: int,
        queue_size: int,
        spool: Path | str | None,
        registry: MetricsRegistry | None,
    ):
        self.host = host
        self.port = port
        self.queue_size = queue_size
        self.registry = registry if registry is not None else MetricsRegistry()
        self.table = JobTable()
        self.journal = SpoolJournal(spool) if spool is not None else None
        #: admitted primaries counted against ``queue_size``; the strategy
        #: gives a slot back when it takes the job, cancel when it cancels.
        self._primaries = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        #: every background task (workers, dispatchers, health probe)
        self._tasks: set[asyncio.Task] = set()
        self._started_at = time.time()
        self.recovered = 0

    # ------------------------------------------------------------------
    # dispatch-strategy hooks
    # ------------------------------------------------------------------
    def _dispatch(self, job: Job) -> None:
        """Take one admitted primary job (its slot is already counted)."""
        raise NotImplementedError

    def _launch(self) -> None:
        """Start the strategy's background tasks once the socket is bound."""

    def _stop_dispatching(self) -> None:
        """First drain step: let the background tasks wind down."""

    def _retry_after(self) -> int:
        """Backpressure hint: expected seconds until queue space frees."""
        raise NotImplementedError

    def _health(self) -> dict:
        """Strategy-specific ``/healthz`` fields."""
        return {}

    def _metrics_section(self) -> dict:
        """Strategy-specific fields of the ``/metrics`` section."""
        return {}

    def _metrics(self) -> dict:
        """The ``metrics`` map of ``/metrics``."""
        return self.registry.as_dict()

    def _extra_route(self, method: str, path: str, body: bytes) -> bytes | None:
        """A response for a route the core does not know, or None (404)."""
        return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, coroutine, name: str) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coroutine, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def start(self) -> None:
        """Recover the spool, bind the socket, start the background tasks."""
        self._recover()
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._launch()

    def _recover(self) -> None:
        if self.journal is None:
            return
        for job_id, spec in self.journal.recover():
            job, coalesced = self.table.submit(spec, job_id=job_id)
            if not coalesced:
                self._primaries += 1
                self._dispatch(job)
            self.recovered += 1
        # Honour the journal's id watermark so ids of jobs that completed
        # before the previous shutdown are never reissued.
        self.table.reserve_next_id(self.journal.next_id)
        if self.recovered:
            self.registry.counter(f"{self.role}.recovered").inc(self.recovered)
        # Drop stale done-markers (and any torn tail) from the journal.
        self.journal.compact(self.table.pending(), next_id=self.table.next_id)

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, persist the rest."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self._stop_dispatching()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self.journal is not None:
            self.journal.compact(self.table.pending(), next_id=self.table.next_id)
        await self._close()

    async def abort(self) -> None:
        """Hard stop (simulated crash): no drain, no journal compaction."""
        self._draining = True
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await self._close()

    async def _close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._drained.set()

    async def run_until_signalled(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain (CLI entry point)."""
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        await self.drain()

    def queue_depth(self) -> int:
        """Admitted primaries not yet taken by the dispatch strategy."""
        return self._primaries

    def _finish(self, job: Job, result: dict | None = None, error: str | None = None) -> None:
        """Settle a primary (and its followers), count and journal them."""
        settled = self.table.finish(job, result=result, error=error)
        outcome = "completed" if error is None else "failed"
        self.registry.counter(f"{self.role}.{outcome}").inc(len(settled))
        latency = self.registry.histogram(f"{self.role}.job_latency_ms")
        for done_job in settled:
            latency.observe(int((done_job.finished_at - done_job.submitted_at) * 1000))
            if self.journal is not None:
                self.journal.record_done(done_job)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await _read_request(reader)
                if request is None:
                    return
                method, path, query, body = request
                self.registry.counter(f"{self.role}.http_requests").inc()
                response = await self._route(method, path, query, body)
            except _HttpError as error:
                response = _encode_response(
                    error.status, {"error": str(error), **error.payload}, error.headers
                )
            except ProtocolError as error:
                response = _encode_response(400, {"error": str(error)})
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as error:  # noqa: BLE001 - never kill the acceptor
                self.registry.counter(f"{self.role}.http_errors").inc()
                response = _encode_response(
                    500, {"error": f"{type(error).__name__}: {error}"}
                )
            writer.write(response)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(self, method: str, path: str, query: dict, body: bytes) -> bytes:
        if path == "/healthz" and method == "GET":
            return _encode_response(
                200,
                {
                    "ok": True,
                    "draining": self._draining,
                    "queue_depth": self._primaries,
                    "protocol_version": PROTOCOL_VERSION,
                    **self._health(),
                },
            )
        if path == "/metrics" and method == "GET":
            return _encode_response(200, self._metrics_document())
        if path == "/v1/jobs":
            if method == "POST":
                return self._post_jobs(body)
            if method == "GET":
                return self._list_jobs(query)
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if method == "GET":
                return await self._get_job(job_id, query)
            if method == "DELETE":
                return self._cancel_job(job_id)
            raise _HttpError(405, f"{method} not allowed on {path}")
        response = self._extra_route(method, path, body)
        if response is None:
            raise _HttpError(404, f"no route for {method} {path}")
        return response

    def _post_jobs(self, body: bytes) -> bytes:
        if self._draining:
            raise _HttpError(503, "server is draining", {"Retry-After": "5"})
        specs, assigned_ids = parse_batch_with_ids(_parse_json(body))
        if not self.trusts_pinned_ids:
            assigned_ids = None
        # Atomic admission: count how many specs are *new work* and check
        # capacity before accepting anything, so a rejected batch leaves
        # no partial state for the client's retry to collide with.
        new_fingerprints: set[str] = set()
        new_work = 0
        for spec in specs:
            digest = spec.fingerprint()
            if digest in new_fingerprints or self.table.active_primary(digest) is not None:
                continue
            new_fingerprints.add(digest)
            new_work += 1
        if self._primaries + new_work > self.queue_size:
            self.registry.counter(f"{self.role}.rejected_429").inc()
            raise _HttpError(
                429,
                f"queue full ({self._primaries}/{self.queue_size} queued)",
                {"Retry-After": str(self._retry_after())},
            )
        accepted = []
        for index, spec in enumerate(specs):
            job_id = assigned_ids[index] if assigned_ids is not None else None
            # Idempotent re-dispatch: when the router retries a submission
            # this worker already holds, acknowledge the existing job
            # instead of forking its identity.
            job = self.table.jobs.get(job_id) if job_id is not None else None
            if job is None:
                job, coalesced = self.table.submit(spec, job_id=job_id)
                if self.journal is not None:
                    self.journal.record_submit(job)
                if coalesced:
                    self.registry.counter(f"{self.role}.coalesce_hits").inc()
                else:
                    self._primaries += 1
                    self._dispatch(job)
                self.registry.counter(f"{self.role}.submitted").inc()
            accepted.append(
                {
                    "id": job.id,
                    "status": job.status,
                    "fingerprint": job.fingerprint,
                    "coalesced": job.coalesced_into is not None,
                    "coalesced_into": job.coalesced_into,
                }
            )
        return _encode_response(202, {"protocol_version": PROTOCOL_VERSION, "jobs": accepted})

    def _list_jobs(self, query: dict) -> bytes:
        status = query.get("status")
        jobs = [
            job.public(include_result=False)
            for job in sorted(self.table.jobs.values(), key=lambda j: j.id)
            if status is None or job.status == status
        ]
        return _encode_response(200, {"jobs": jobs})

    def _job(self, job_id: str) -> Job:
        job = self.table.jobs.get(job_id)
        if job is None:
            # The id watermark lets clients tell "completed before a
            # restart and compacted away" from "never issued".
            raise _HttpError(
                404,
                f"no such job {job_id!r}",
                payload={"next_id": self.table.next_id},
            )
        return job

    async def _get_job(self, job_id: str, query: dict) -> bytes:
        job = self._job(job_id)
        wait = 0.0
        if "wait" in query:
            try:
                wait = min(MAX_LONGPOLL_S, max(0.0, float(query["wait"])))
            except ValueError:
                raise _HttpError(400, "wait must be a number of seconds") from None
        deadline = time.monotonic() + wait
        while not job.terminal and time.monotonic() < deadline and not self._draining:
            remaining = deadline - time.monotonic()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    job.done_event.wait(), timeout=min(_LONGPOLL_SLICE_S, remaining)
                )
        return _encode_response(200, job.public())

    def _cancel_job(self, job_id: str) -> bytes:
        job = self._job(job_id)
        if job.terminal:
            return _encode_response(200, job.public(include_result=False))
        if job.status != QUEUED:
            raise _HttpError(409, f"job {job_id} is {job.status}; only queued jobs cancel")
        if job.coalesced_into is None:
            self._primaries -= 1  # a cancelled primary frees its slot now
        settled = self.table.cancel(job)
        self.registry.counter(f"{self.role}.cancelled").inc(len(settled))
        if self.journal is not None:
            for cancelled in settled:
                self.journal.record_done(cancelled)
        return _encode_response(200, job.public(include_result=False))

    def _metrics_document(self) -> dict:
        self.registry.counter(f"{self.role}.queue_depth").set(self._primaries)
        section = {
            "draining": self._draining,
            "queue_depth": self._primaries,
            "queue_size": self.queue_size,
            "jobs_total": len(self.table.jobs),
            "uptime_s": round(time.time() - self._started_at, 3),
            "latency_ms": _quantiles(self.registry.get(f"{self.role}.job_latency_ms")),
            **self._metrics_section(),
        }
        return {
            "protocol_version": PROTOCOL_VERSION,
            self.role: section,
            "metrics": self._metrics(),
        }


class ServeServer(FrontEnd):
    """The job server: the shared front end over a local worker pool.

    Admitted primaries wait in a bounded priority queue; N worker tasks
    drain it in batches and run each batch in a thread through the
    shared :class:`~repro.serve.executor.JobExecutor`.
    """

    role = "serve"
    #: a worker trusts its router to pin cluster-wide job ids
    trusts_pinned_ids = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = DEFAULT_WORKERS,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        spool: Path | str | None = None,
        executor: JobExecutor | None = None,
        registry: MetricsRegistry | None = None,
        name: str | None = None,
        batch: int | None = None,
    ):
        super().__init__(host, port, queue_size, spool, registry)
        #: worker identity, reported on /healthz (cluster diagnostics)
        self.name = name
        self.workers = workers
        #: batched dispatch: a worker that wakes up drains up to this many
        #: queued jobs and executes them as one batch (REPRO_POOL_BATCH).
        self.batch = batch if batch is not None else _default_batch()
        self.executor = executor if executor is not None else JobExecutor()
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._sequence = 0

    # ------------------------------------------------------------------
    # queue + workers
    # ------------------------------------------------------------------
    def _dispatch(self, job: Job) -> None:
        self._sequence += 1
        self._queue.put_nowait((0, -job.spec.priority, self._sequence, job))

    def _launch(self) -> None:
        for index in range(self.workers):
            self._spawn(self._worker(), f"worker-{index}")

    def _stop_dispatching(self) -> None:
        # Sentinels outrank every job, so blocked workers stop now and no
        # queued job starts; in-flight executions run to completion.
        for _ in range(self.workers):
            self._queue.put_nowait(_SENTINEL)

    def _retry_after(self) -> int:
        timer = self.registry.get("serve.exec_seconds")
        mean = 1.0
        if timer is not None and timer.calls:
            mean = max(0.05, timer.seconds / timer.calls)
        workers = max(1, self.workers)
        estimate = self._primaries * mean / workers
        return max(1, min(60, int(estimate + 0.999)))

    async def _worker(self) -> None:
        while True:
            entry = await self._queue.get()
            if entry[0] < 0:  # shutdown sentinel
                return
            batch: list[Job] = []
            # Batched dispatch: drain whatever else is already queued (up
            # to the batch cap) so one execution — and one warm-pool
            # fan-out — amortizes over every job that was waiting.
            while True:
                job = entry[3]
                # A cancelled entry gave its slot back when it was cancelled.
                if not job.terminal:
                    self._primaries -= 1
                    batch.append(job)
                if len(batch) >= self.batch:
                    break
                try:
                    entry = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if entry[0] < 0:
                    # A drain sentinel outranks jobs, so it can only show
                    # up here mid-drain: leave it for the next loop turn.
                    self._queue.put_nowait(entry)
                    break
            if batch:
                await self._execute_batch(batch)

    async def _execute_batch(self, jobs: list[Job]) -> None:
        for job in jobs:
            self.table.mark_running(job)
        started = time.perf_counter()
        try:
            outcomes = await asyncio.to_thread(
                self.executor.execute_batch, [job.spec for job in jobs]
            )
        except Exception as error:  # noqa: BLE001 - jobs must never kill a worker
            # execute_batch isolates per-spec failures; reaching this
            # means the batch machinery itself broke — fail every member.
            outcomes = [error] * len(jobs)
        elapsed = time.perf_counter() - started
        # One timer sample per job keeps the Retry-After estimate (mean
        # seconds per job) honest under batching.
        self.registry.timer("serve.exec_seconds").add(elapsed, calls=len(jobs))
        self.registry.histogram("serve.batch_size").observe(len(jobs))
        if len(jobs) > 1:
            self.registry.counter("serve.batched_jobs").inc(len(jobs))
        for job, outcome in zip(jobs, outcomes):
            if isinstance(outcome, Exception):
                self._finish(job, error=f"{type(outcome).__name__}: {outcome}")
            else:
                self._finish(job, result=outcome)

    # ------------------------------------------------------------------
    def _health(self) -> dict:
        return {"name": self.name}

    def _metrics_section(self) -> dict:
        return {"workers": self.workers, "batch": self.batch}

    def _metrics(self) -> dict:
        self.registry.counter("serve.simulated").set(self.executor.simulated())
        metrics = self.registry.as_dict()
        # Surface the warm worker pool's counters (pool.* names) next to
        # the server's own — but never create the pool just to report.
        from repro.analysis.pool import maybe_pool

        pool = maybe_pool()
        if pool is not None:
            metrics.update(pool.registry.as_dict())
        return metrics


# ----------------------------------------------------------------------
# Embedding helpers
# ----------------------------------------------------------------------
def run_server(front_end: FrontEnd, announce=None) -> int:
    """Blocking entry point of ``repro serve`` (either front end).

    Starts *front_end*, calls ``announce(front_end)`` once it is bound,
    serves until SIGTERM/SIGINT and drains; returns the exit code.
    """

    async def main() -> None:
        await front_end.start()
        if announce is not None:
            announce(front_end)
        await front_end.run_until_signalled()

    asyncio.run(main())
    return 0


class BackgroundServer:
    """A front end on its own thread + event loop (tests, fixtures).

    Runs a :class:`ServeServer` (subclasses set :attr:`front_end_class`).
    ``start()`` blocks until the socket is bound and exposes ``port``;
    ``stop(graceful=True)`` drains (persisting the queue), while
    ``stop(graceful=False)`` aborts without compaction — a simulated
    crash for persistence tests.
    """

    front_end_class: type[FrontEnd] = ServeServer

    def __init__(self, **server_kwargs):
        self._kwargs = server_kwargs
        self.server: FrontEnd | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop_requested: asyncio.Event | None = None
        self._graceful = True
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    @property
    def base_url(self) -> str:
        assert self.server is not None
        return f"http://{self.server.host}:{self.server.port}"

    async def _main(self) -> None:
        self._stop_requested = asyncio.Event()
        self.server = self.front_end_class(**self._kwargs)
        try:
            await self.server.start()
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            raise
        self._ready.set()
        await self._stop_requested.wait()
        if self._graceful:
            await self.server.drain()
        else:
            await self.server.abort()

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self._main())
        except BaseException:
            self._ready.set()
        finally:
            self._loop.close()

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name=f"{self.front_end_class.role}-bg", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.server is None or self._loop is None:
            raise RuntimeError("background server failed to start")
        return self

    def stop(self, graceful: bool = True) -> None:
        if self._loop is None or self._thread is None or self._stop_requested is None:
            return
        self._graceful = graceful
        # Idempotent: a second stop after the loop already closed
        # (e.g. fixture teardown after a simulated crash) is a no-op.
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        self._thread.join(timeout=60)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(graceful=True)
