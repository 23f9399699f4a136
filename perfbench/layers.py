"""Inline, layer-by-layer re-execution of grid jobs for the traced pass.

Pool workers and serve workers are other processes, so their layers
cannot be timed from here.  The traced pass re-executes jobs in this
process instead, with a span around each public call on the job's path.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import benchstats
import grid
from repro.analysis.cache import ResultCache
from repro.fastsim import make_processor
from repro.obs.export import build_stats_export
from repro.workloads.feed import ReplayFeed
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload


def run_job(tracer, benchmark: str, config, seed: int, job: str):
    """The pooled job's own path (``execute_job``), one span per layer."""
    with tracer.span("job", job=job):
        with tracer.span("workloads.synthetic.build", job=job):
            workload = SyntheticWorkload(get_profile(benchmark), seed=seed)
        with tracer.span("fastsim.build", job=job):
            processor = make_processor(workload, config, backend=config.backend)
        with tracer.span("fastsim.run", job=job):
            return processor.run(max_insts=grid.INSTS, warmup=grid.WARMUP)


#: Numbers the fresh cache directory of every split job.
_fresh = itertools.count()


def split_job(tracer, benchmark: str, config, seed: int, job: str, cache_root: Path, export: bool):
    """The same job with stream generation and column decode split out of ``run()``.

    The cache round trip goes through a fresh cache under *cache_root*, so
    every call stores into an empty directory.  Returns the result, its
    cache round trip, the op count generated and the export text (or
    None).  Both results must equal the generator-fed run's.
    """
    cache = ResultCache(cache_root / f"{job}-{next(_fresh)}")
    with tracer.span("job.split", job=job):
        with tracer.span("workloads.synthetic.build", job=job):
            workload = SyntheticWorkload(get_profile(benchmark), seed=seed)
        with tracer.span("workloads.synthetic.gen", job=job):
            feed = ReplayFeed.from_stream(workload, limit=grid.INSTS + grid.WARMUP + grid.REPLAY_MARGIN)
        with tracer.span("workloads.feed.columns", job=job):
            feed.columns()
        with tracer.span("fastsim.build", job=job):
            processor = make_processor(feed, config, backend=config.backend)
        with tracer.span("fastsim.loop", job=job):
            result = processor.run(max_insts=grid.INSTS, warmup=grid.WARMUP)
        run = (benchmark, seed, grid.INSTS, grid.WARMUP, config, None)
        with tracer.span("analysis.cache.store", job=job):
            cache.store(*run, result)
        with tracer.span("analysis.cache.load", job=job):
            loaded = cache.load(*run)
        payload = None
        if export:
            with tracer.span("obs.export", job=job):
                document = build_stats_export(
                    loaded, config, benchmark=benchmark, seed=seed, insts=grid.INSTS, warmup=grid.WARMUP
                )
                payload = json.dumps(document, sort_keys=True, indent=1)
    return result, loaded, len(feed.ops), payload


def job_figures(spans, ops: int) -> dict:
    """Per-layer figures from the spans of :func:`run_job` and :func:`split_job`.

    *ops* counts the ops the split jobs generated.  Figures of calls the
    spans do not hold (``fastsim.run`` outside the sweep, ``obs.export``
    outside serve) are left out, so they read 0.
    """
    own = benchstats.self_time_by_name(spans)
    per_job = grid.INSTS + grid.WARMUP
    figures = {
        "workloads.synthetic.build_ms": 1e3 * benchstats.mean(own["workloads.synthetic.build"]),
        "workloads.synthetic.gen_us_per_op": 1e6 * sum(own["workloads.synthetic.gen"]) / ops,
        "workloads.feed.columns_us_per_op": 1e6 * sum(own["workloads.feed.columns"]) / ops,
        "fastsim.build_ms": 1e3 * benchstats.mean(own["fastsim.build"]),
        "fastsim.loop_ns_per_inst": 1e9 * sum(own["fastsim.loop"]) / (len(own["fastsim.loop"]) * per_job),
        "analysis.cache.store_ms": 1e3 * benchstats.mean(own["analysis.cache.store"]),
        "analysis.cache.load_ms": 1e3 * benchstats.mean(own["analysis.cache.load"]),
    }
    if "fastsim.run" in own:
        figures["fastsim.run_ns_per_inst"] = 1e9 * sum(own["fastsim.run"]) / (len(own["fastsim.run"]) * per_job)
    if "obs.export" in own:
        figures["obs.export_ms"] = 1e3 * benchstats.mean(own["obs.export"])
    return figures
