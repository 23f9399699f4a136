"""Job execution for the serving layer.

Workers hand validated specs to one shared :class:`JobExecutor`, which
routes them onto the existing analysis machinery:

* ``run`` jobs go through :class:`~repro.analysis.runner.ExperimentRunner`
  — one runner per (insts, warmup) pair, all sharing a single on-disk
  :class:`~repro.analysis.cache.ResultCache` — so served results ride the
  same memo → disk-cache → compute chain as the offline CLI, and the
  runner's process-local singleflight keeps concurrent worker threads
  from duplicating a simulation the serve-level coalescer missed.
  The result payload is the **versioned stats export**
  (:func:`repro.obs.export.build_stats_export`) — byte-identical to what
  ``repro export-stats`` writes for the same inputs.
* ``verify`` jobs replay an HPRISC program through the differential
  verification stack (:func:`repro.verify.check_source`) across the
  requested configuration matrix.
* ``trace`` jobs replay a binary tracefile (:mod:`repro.trace`) — full
  runs produce the same versioned stats export as ``run`` jobs; sampled
  runs produce the SimPoint-style sampling report.  The decoded feed is
  kept in the process's one-entry feed memo under its content hash
  (:func:`repro.trace.shared_corpus_feed`), and batches run their trace
  jobs grouped by trace, so many jobs against one trace decode it once
  while a long-lived worker never holds more than one decoded feed.
"""

from __future__ import annotations

import threading

from repro.analysis.cache import ResultCache
from repro.analysis.parallel import group_by_feed
from repro.analysis.runner import ExperimentRunner
from repro.fastsim import apply_backend
from repro.obs.export import build_stats_export
from repro.serve.protocol import JobSpec, RunSpec, TraceSpec, VerifySpec


class JobExecutor:
    """Executes job specs; safe to call from multiple worker threads."""

    def __init__(self, cache: ResultCache | None | bool = True, jobs: int | None = None):
        if cache is True:
            self.cache: ResultCache | None = ResultCache.from_env()
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        #: worker processes each runner may use for bulk work — batched
        #: executions prefetch their cache misses through the warm pool.
        #: None resolves via REPRO_JOBS / CPU count at dispatch time.
        self.jobs = jobs
        self._runners: dict[tuple[int, int], ExperimentRunner] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def runner_for(self, insts: int, warmup: int) -> ExperimentRunner:
        """The shared runner serving one (insts, warmup) run-length pair."""
        key = (insts, warmup)
        with self._lock:
            runner = self._runners.get(key)
            if runner is None:
                runner = ExperimentRunner(
                    insts=insts, warmup=warmup, jobs=self.jobs, cache=self.cache
                )
                self._runners[key] = runner
        return runner

    def simulated(self) -> int:
        """Total simulations actually executed (not served from a cache)."""
        with self._lock:
            runners = list(self._runners.values())
        total = 0
        for runner in runners:
            counter = runner.metrics.get("runner.simulated")
            total += counter.value if counter is not None else 0
        return total

    # ------------------------------------------------------------------
    def execute(self, spec: JobSpec) -> dict:
        """Run one spec to completion; returns the result document."""
        if isinstance(spec, RunSpec):
            return self._execute_run(spec)
        if isinstance(spec, VerifySpec):
            return self._execute_verify(spec)
        if isinstance(spec, TraceSpec):
            return self._execute_trace(spec)
        raise TypeError(f"unknown spec type {type(spec).__name__}")  # pragma: no cover

    def execute_batch(self, specs: list[JobSpec]) -> list[dict | Exception]:
        """Run a batch of specs, isolating failures per spec.

        Returns one entry per spec, in order: the result document on
        success, or the exception that spec raised (so a server worker
        can settle each job individually — one bad spec never poisons
        its batchmates).

        Run-kind specs sharing a run-length pair are bulk-resolved first
        via :meth:`~repro.analysis.runner.ExperimentRunner.prefetch`, so
        their cache misses fan out together over the warm worker pool
        and the per-spec ``execute`` calls below are pure memo lookups
        plus document builds.  Cache hits never reach the pool.  Specs
        then execute grouped by trace, so the one-entry feed memo decodes
        each trace of the batch once.  The batch's memo entries are
        dropped once its documents are built.
        """
        groups: dict[tuple[int, int], list[RunSpec]] = {}
        for spec in specs:
            if isinstance(spec, RunSpec):
                groups.setdefault((spec.insts, spec.warmup), []).append(spec)
        prefetched = []
        for (insts, warmup), members in groups.items():
            requests = []
            for spec in members:
                try:
                    requests.append(
                        (spec.benchmark, apply_backend(spec.config()), spec.seed, spec.shadow)
                    )
                except Exception:  # noqa: BLE001 - surfaced per-spec below
                    pass
            runner = self.runner_for(insts, warmup)
            prefetched.append((runner, requests))
            try:
                runner.prefetch(requests)
            except Exception:  # noqa: BLE001 - surfaced per-spec below
                pass
        outcomes: list[dict | Exception | None] = [None] * len(specs)
        keys = [
            spec.content_hash if isinstance(spec, TraceSpec) else None
            for spec in specs
        ]
        for index in group_by_feed(keys):
            try:
                outcomes[index] = self.execute(specs[index])
            except Exception as error:  # noqa: BLE001 - settled per job
                outcomes[index] = error
        # The documents are built: a long-lived worker keeps no results.
        for runner, requests in prefetched:
            runner.forget(requests)
        return outcomes  # type: ignore[return-value]

    def _execute_run(self, spec: RunSpec) -> dict:
        runner = self.runner_for(spec.insts, spec.warmup)
        # Materialized here (not just inside the runner) so the exported
        # document's config/fingerprint match the run when a server-side
        # REPRO_BACKEND overrides the spec's choice.
        config = apply_backend(spec.config())
        result = runner.result(spec.benchmark, config, shadow=spec.shadow, seed=spec.seed)
        document = build_stats_export(
            result,
            config,
            benchmark=spec.benchmark,
            seed=spec.seed,
            insts=spec.insts,
            warmup=spec.warmup,
            shadow_sizes=spec.shadow_sizes,
        )
        return {"kind": "run", "stats": document}

    def _execute_trace(self, spec: TraceSpec) -> dict:
        from repro.trace import run_full, run_sampled, shared_corpus_feed, trace_token
        from repro.trace.run import TRACE_SEED

        feed = shared_corpus_feed(spec.trace, spec.content_hash)
        # Materialized for the same reason as run jobs: the exported
        # fingerprint must match what actually executed under a
        # server-side REPRO_BACKEND override.
        config = apply_backend(spec.config())
        if spec.sampled:
            report = run_sampled(
                feed,
                config,
                interval=spec.interval,
                k=spec.k,
                warmup=spec.sample_warmup,
                dims=spec.dims,
                seed=spec.sample_seed,
                warm_caches=spec.warm_caches,
                shadow_sizes=spec.shadow_sizes,
                cache=self.cache,
            )
            return {"kind": "trace", "report": report}
        result = run_full(
            feed,
            config,
            insts=spec.insts,
            warmup=spec.warmup,
            shadow_sizes=spec.shadow_sizes,
            cache=self.cache,
        )
        document = build_stats_export(
            result,
            config,
            benchmark=trace_token(spec.content_hash),
            seed=TRACE_SEED,
            insts=spec.insts if spec.insts is not None else 0,
            warmup=spec.warmup,
            shadow_sizes=spec.shadow_sizes,
        )
        return {"kind": "trace", "stats": document}

    def _execute_verify(self, spec: VerifySpec) -> dict:
        # Deferred: the verify stack is needed only by verify jobs.
        from repro.verify import check_source, config_matrix

        configs = config_matrix(names=list(spec.configs) if spec.configs else None)
        failures = []
        for config in configs:
            failure = check_source(spec.source, config, budget=spec.budget)
            if failure is not None:
                failures.append(
                    {
                        "kind": failure.kind,
                        "config": failure.config_name,
                        "message": failure.message,
                    }
                )
        return {
            "kind": "verify",
            "ok": not failures,
            "checked": len(configs),
            "configs": [config.name for config in configs],
            "failures": failures,
        }
