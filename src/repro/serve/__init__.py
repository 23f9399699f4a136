"""Simulation-as-a-service: async HTTP job server + retrying client SDK.

The serving layer turns the repository's analysis stack into an
inference-style service (docs/SERVING.md):

* :mod:`repro.serve.protocol` — wire-level job specs, validated against
  :mod:`repro.pipeline.config` and fingerprinted with the result-cache
  digest (the coalescing/idempotency key);
* :mod:`repro.serve.jobs` — the job table with **singleflight
  coalescing** (concurrent jobs sharing a fingerprint simulate once and
  fan the result out) and the crash-safe spool journal that lets a
  restarted server resume pending jobs;
* :mod:`repro.serve.executor` — spec execution on worker threads through
  the shared :class:`~repro.analysis.runner.ExperimentRunner` machinery
  (memo, disk cache, process-local singleflight);
* :mod:`repro.serve.server` — the asyncio HTTP front end (one request
  parser, job table, 429 + ``Retry-After`` backpressure, ``/metrics``,
  graceful SIGTERM drain) and :class:`ServeServer`, which dispatches to
  a bounded priority queue of local worker tasks;
* :mod:`repro.serve.router` — the cluster router: the same front end
  dispatching by consistent hash onto ``repro serve --worker``
  processes, with health probes, job stealing and re-dispatch;
* :mod:`repro.serve.client` — the client SDK: jittered-exponential
  retries, Retry-After compliance, idempotent resubmission, long-poll
  waiting.

Start a server with ``repro serve``; submit with ``repro submit`` or
:class:`~repro.serve.client.ServeClient`.
"""

from repro.serve.client import JobFailed, RetryPolicy, ServeClient, ServeError
from repro.serve.executor import JobExecutor
from repro.serve.jobs import Job, JobTable, SpoolJournal
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RunSpec,
    VerifySpec,
    parse_batch,
    parse_spec,
)
from repro.serve.server import BackgroundServer, ServeServer, run_server

__all__ = [
    "PROTOCOL_VERSION",
    "BackgroundServer",
    "Job",
    "JobExecutor",
    "JobFailed",
    "JobTable",
    "ProtocolError",
    "RetryPolicy",
    "RunSpec",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "SpoolJournal",
    "VerifySpec",
    "parse_batch",
    "parse_spec",
    "run_server",
]
