"""One process of the program under test, for the ``sweep`` and ``trace`` workloads.

``run.py`` launches this script several times per run to time set-up:
each launch imports the program, activates the native build and (for the
sweep) starts the warm worker pool, then prints ``READY``.  The parent
answers ``stop`` to all but the last launch; the last one gets ``go``,
runs the workload's timed phase, its correctness checks and, with
``--trace 1``, the traced pass, and prints one ``RESULT`` JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import benchstats
import boot
import grid
from hostclock import Clock
from tracer import Paired, Tracer

#: Seconds of ``--seconds`` charged to one timed repetition.  They turn
#: ``--seconds`` into a fixed amount of work, so one seed always means the
#: same inputs and the same results digest.  On the reference 2-CPU host a
#: sweep repetition (cold and extended sweep) takes about 3.5 s and a trace
#: repetition about 15 s: a 20 s run measures 8 and 2 of them, because
#: the sweep's median still moved from run to run with 5.
SWEEP_REP_S = 2.5
TRACE_REP_S = 10.0

#: Jobs re-run on the python reference backend per run (parity check).
PARITY_JOBS = 2


def result_hash(value) -> str:
    """SHA-256 of a result's canonical JSON.

    Runs keep this instead of the result itself: a heap that grows with
    every repetition makes the collector, and so the later repetitions,
    slower.
    """
    return hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class Checks:
    """Correctness failures of one run, reported rather than raised."""

    def __init__(self):
        self.errors: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)


# ----------------------------------------------------------------------
# sweep: offline figure sweep through the warm pool
# ----------------------------------------------------------------------
def sweep_setup():
    from repro.analysis.parallel import Job, run_jobs
    from repro.analysis.pool import get_pool

    # Start the warm pool the timed sweeps use: the first dispatch forks
    # the workers.  Two reference-shape jobs outside the grid's seeds make
    # that dispatch, so pool start-up is set-up, not sweep time.
    config = grid.configs()[0]
    run_jobs([Job("gzip", config, 1, grid.INSTS, grid.WARMUP), Job("mcf", config, 1, grid.INSTS, grid.WARMUP)], workers=2)
    return get_pool(2)


def sweep_requests(seed: int, rep: int, configs, benchmarks, purpose: str = "sweep"):
    draw = grid.rng(seed, f"{purpose}-{rep}")
    seeds = {benchmark: draw.randrange(1, 2**31) for benchmark in benchmarks}
    return [(benchmark, config, seeds[benchmark], False) for benchmark in benchmarks for config in configs]


def sweep_pass(args, pool, clock, checks, outcomes, results: dict):
    """The timed reps, in reference seconds (*clock*): a cold pooled sweep, then a sweep that finds half its grid cached.

    The second request keeps the cold sweep's streams for every other
    benchmark and draws new ones for the rest, as when a sweep is
    extended: half is read from the store, half simulates in the pool.
    """
    from repro.analysis.cache import ResultCache, serialize_result
    from repro.analysis.runner import ExperimentRunner

    configs, benchmarks = grid.configs(), grid.benchmarks()
    reps = max(1, round(args.seconds / SWEEP_REP_S))
    before = pool.registry.as_dict()
    cold, warm, hits, lookups, total_simulated = [], [], 0, 0, 0
    for rep in range(reps):
        requests = sweep_requests(args.seed, rep, configs, benchmarks)
        fresh = sweep_requests(args.seed, rep, configs, benchmarks, "sweep-extend")
        extended = [req for req in requests if req[0] in benchmarks[0::2]]
        extended += [req for req in fresh if req[0] in benchmarks[1::2]]
        cache_dir = Path(args.tmp) / f"sweep-{rep}"

        def runner():
            return ExperimentRunner(
                insts=grid.INSTS, warmup=grid.WARMUP, seed=0, benchmarks=benchmarks,
                num_seeds=1, jobs=2, cache=ResultCache(cache_dir),
            )

        first = runner()
        with clock.bracket() as timed:
            simulated = first.prefetch(requests)
        cold.append(timed.sample())
        second = runner()
        with clock.bracket() as timed:
            resimulated = second.prefetch(extended)
        warm.append(timed.sample())
        checks.expect(simulated == len(requests), f"rep {rep}: cold sweep simulated {simulated} of {len(requests)}")
        checks.expect(resimulated == len(extended) // 2, f"rep {rep}: extended sweep simulated {resimulated}")
        total_simulated += simulated + resimulated
        hits += second.cache.hits
        lookups += first.cache.hits + first.cache.misses + second.cache.hits + second.cache.misses
        for benchmark, config, seed, _ in requests:
            results[(benchmark, config.name, seed)] = result_hash(serialize_result(first.result(benchmark, config, seed=seed)))
            outcomes.ok()
        for benchmark, config, seed, _ in extended:
            again = result_hash(serialize_result(second.result(benchmark, config, seed=seed)))
            checks.expect(results.setdefault((benchmark, config.name, seed), again) == again,
                          f"{benchmark}/{config.name}/{seed}: cache round trip differs")
            outcomes.ok()
    after = pool.registry.as_dict()
    jobs = len(configs) * len(benchmarks) * reps
    first_wall = cold[0][0]
    cold, warm = clock.seconds(cold), clock.seconds(warm)
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in after if isinstance(after[name], int)}
    return {
        "cold": cold, "warm": warm, "first_wall": first_wall, "jobs": jobs, "hits": hits, "lookups": lookups, "pool": delta,
        "insts": jobs * (grid.INSTS + grid.WARMUP), "simulated": total_simulated, "reps": reps,
        "unique": len(results),
    }


def sweep_parity(args, checks, results: dict):
    """Python reference backend on a few grid jobs: byte-equal results."""
    from repro.analysis.cache import serialize_result
    from repro.analysis.parallel import Job, execute_job

    configs, benchmarks = grid.configs("python"), grid.benchmarks()
    requests = sweep_requests(args.seed, 0, configs, benchmarks)
    picks = grid.rng(args.seed, "sweep-parity").sample(requests, PARITY_JOBS)
    for benchmark, config, seed, _ in picks:
        reference = result_hash(serialize_result(execute_job(Job(benchmark, config, seed, grid.INSTS, grid.WARMUP))))
        checks.expect(
            reference == results[(benchmark, config.name, seed)],
            f"python backend disagrees on {benchmark}/{config.name}/{seed}",
        )


def sweep_traced(args, tracer, checks, results: dict, plain: dict) -> dict:
    """Re-execute rep 0 inline, one span per layer (pool workers are out of reach).

    Every re-execution runs untraced and traced (:class:`tracer.Paired`):
    the traced runs give the layer figures, the untraced ones the inline
    job walls and the tracing overhead.
    """
    from repro.analysis.cache import serialize_result

    import layers

    configs, benchmarks = grid.configs(), grid.benchmarks()
    requests = sweep_requests(args.seed, 0, configs, benchmarks)
    paired = Paired(tracer)
    for index, (benchmark, config, seed, _) in enumerate(requests):
        for result in paired.run(lambda t: layers.run_job(t, benchmark, config, seed, f"sweep-job-{index}"), "run_job"):
            checks.expect(
                result_hash(serialize_result(result)) == results[(benchmark, config.name, seed)],
                f"inline rerun of {benchmark}/{config.name}/{seed} differs from the pooled result",
            )
    inline = paired.walls[0]
    ops = 0
    for index, benchmark in enumerate(benchmarks):
        _, config, seed, _ = requests[index * len(configs) + index % len(configs)]
        runs = paired.run(lambda t: layers.split_job(
            t, benchmark, config, seed, f"sweep-split-{index}", Path(args.tmp) / "sweep-layers", export=False
        ), "split_job")
        ops += runs[1][2]
        expected = results[(benchmark, config.name, seed)]
        for result, loaded, _, _ in runs:
            checks.expect(result_hash(serialize_result(result)) == expected,
                          f"replay feed changed {benchmark}/{config.name}/{seed}")
            checks.expect(result_hash(serialize_result(loaded)) == expected,
                          f"cache round trip changed {benchmark}/{config.name}/{seed}")

    pool = plain["pool"]
    chunks = pool.get("pool.chunks_sent", 0)
    figures = layers.job_figures(tracer.spans, ops)
    figures.update({
        # Pooled wall x workers is the CPU time the pool had; what the same
        # jobs did not need inline is the pool's own cost.
        "analysis.pool.overhead_ms_per_job": 1e3 * (plain["first_wall"] * 2 - inline) / len(requests),
        "analysis.pool.dispatches": pool.get("pool.dispatches", 0),
        "analysis.pool.chunk_jobs_mean": pool.get("pool.jobs_dispatched", 0) / chunks if chunks else 0.0,
        "analysis.pool.config_ships": pool.get("pool.config_ships", 0),
        "analysis.pool.worker_starts": pool.get("pool.worker_starts", 0),
        "analysis.cache.hit_ratio": plain["hits"] / plain["lookups"],
        "analysis.runner.sims_per_unique_fp": plain["simulated"] / plain["unique"],
        "bench.tracing_overhead_pct": paired.overhead_pct(),
    })
    return figures


# ----------------------------------------------------------------------
# trace: corpus replay, full and sampled
# ----------------------------------------------------------------------
def trace_plan(seed: int, configs):
    """``([(trace, machine)], sample_seed)`` from the seed.

    An 8-wide replay is slower, so a free draw of the widths made the
    corpus pass's cost depend on how many, and which, traces a seed put
    on 8-wide machines.  The traces are paired by length instead (the two
    longest, the next two, the two shortest); in each pair the seed puts
    one trace on a 4-wide and the other on an 8-wide machine, and each
    trace gets its own drawn technique variant.
    """
    from repro.trace import corpus_listing

    draw = grid.rng(seed, "trace")
    rows = sorted((row for row in corpus_listing() if row["committed"]), key=lambda row: (-row["insts"], row["name"]))
    by_width = {width: [c for c in configs if c.width == width] for width in grid.WIDTHS}
    plan = []
    for first in range(0, len(rows), len(grid.WIDTHS)):
        widths = list(grid.WIDTHS)
        draw.shuffle(widths)
        plan += [(row["name"], draw.choice(by_width[width])) for row, width in zip(rows[first:], widths)]
    return plan, draw.randrange(1, 1000)


def trace_pass(args, tracer, clock, checks, outcomes, results: dict, reps: int | None = None):
    """Repetitions over the corpus: each trace decoded and replayed in full, then decoded and sampled.

    Times are kept per trace in reference seconds (*clock*), so a pass
    figure can be the sum of per-trace medians: one slow decode then
    moves one trace's median, not a pass.
    """
    from repro.analysis.cache import ResultCache, serialize_result
    from repro.trace import load_corpus_feed, run_full, run_sampled

    plan, sample_seed = trace_plan(args.seed, grid.configs())
    reps = reps or max(1, round(args.seconds / TRACE_REP_S))
    full = {name: [] for name, _ in plan}
    sampled = {name: [] for name, _ in plan}
    sampled_ok, insts, sampled_insts = [], 0, 0
    coverage, ipc_error, failures = [], [], []
    for rep in range(reps):
        for name, config in plan:
            cache = ResultCache(Path(args.tmp) / f"{tracer.enabled:d}-trace-{rep}-{name}")
            job = f"trace-{rep}-{name}"
            with clock.bracket() as timed, tracer.span("job.trace.full", job=job):
                with tracer.span("trace.format.decode", job=job):
                    feed = load_corpus_feed(name)
                with tracer.span("trace.run.full", job=job):
                    result = run_full(feed, config, cache=cache)
            full[name].append(timed.sample())
            outcomes.ok()
            insts += len(feed.ops)
            full_record = result_hash(serialize_result(result))
            if rep:
                checks.expect(results[(name, config.name, "full")] == full_record, f"{name}: replay not deterministic")
            results[(name, config.name, "full")] = full_record
            error = None
            with clock.bracket() as timed, tracer.span("job.trace.sampled", job=job):
                with tracer.span("trace.format.decode", job=job):
                    feed = load_corpus_feed(name)
                try:
                    with tracer.span("trace.sampling.run_sampled", job=job):
                        report = run_sampled(feed, config, seed=sample_seed, cache=cache)
                except Exception as raised:  # noqa: BLE001 - a failed replay is counted, the run goes on
                    error = raised
            # A failed replay's time is kept: the user waited for it all the same.
            sampled[name].append(timed.sample())
            if error is not None:
                failures.append(f"run_sampled({name}, {config.name}, seed={sample_seed}) raised "
                                f"{type(error).__name__}: {error}")
                outcomes.fail(type(error).__name__)
                continue
            sampled_ok.append(sampled[name][-1])
            outcomes.ok()
            sampled_insts += len(feed.ops)
            coverage.append(report["coverage"])
            ipc_error.append(100.0 * abs(report["weighted_ipc"] - result.stats.ipc) / result.stats.ipc)
            results[(name, config.name, "sampled", sample_seed)] = result_hash(report)
    full = {name: clock.seconds(samples) for name, samples in full.items()}
    sampled = {name: clock.seconds(samples) for name, samples in sampled.items()}
    sampled_ok = clock.seconds(sampled_ok)
    return {"full": full, "sampled": sampled, "sampled_ok": sampled_ok, "insts": insts, "reps": reps,
            "sampled_insts": sampled_insts, "failures": failures,
            "coverage": benchstats.mean(coverage), "ipc_error_pct": benchstats.mean(ipc_error)}


def trace_parity(args, checks):
    """Python reference backend on a prefix of two traces: byte-equal results."""
    import dataclasses

    from repro.analysis.cache import serialize_result
    from repro.trace import load_corpus_feed, run_full

    plan, _ = trace_plan(args.seed, grid.configs())
    for name, config in grid.rng(args.seed, "trace-parity").sample(plan, PARITY_JOBS):
        feed = load_corpus_feed(name, limit=4_000)
        native = serialize_result(run_full(feed, config))
        python = serialize_result(run_full(feed, dataclasses.replace(config, backend="python")))
        checks.expect(native == python, f"python backend disagrees on a prefix of {name}/{config.name}")


def trace_traced(args, tracer, checks, results: dict, plain: dict, traced: dict) -> dict:
    """Split a full replay's processor build and loop out of ``run_full``, and time the sampler's steps.

    Each split runs untraced and traced (:class:`tracer.Paired`); the
    pair gives the tracing overhead.
    """
    from repro.analysis.cache import serialize_result
    from repro.fastsim import make_processor
    from repro.trace import (
        DEFAULT_DIMS, DEFAULT_INTERVAL, DEFAULT_K, kmeans, load_corpus_feed, profile_intervals, project_bbv,
    )

    def split(tracer, name, config, job):
        with tracer.span("job.trace.split", job=job):
            with tracer.span("trace.format.decode", job=job):
                feed = load_corpus_feed(name)
            with tracer.span("workloads.feed.columns", job=job):
                feed.columns()
            with tracer.span("fastsim.build", job=job):
                processor = make_processor(feed, config, backend=config.backend)
            with tracer.span("fastsim.loop", job=job):
                result = processor.run(max_insts=len(feed.ops), warmup=0)
        with tracer.span("job.trace.sampler", job=job):
            with tracer.span("trace.sampling.profile", job=job):
                vectors, _counts = profile_intervals(feed.ops, DEFAULT_INTERVAL)
                points = [project_bbv(vector, DEFAULT_DIMS) for vector in vectors]
            with tracer.span("trace.sampling.kmeans", job=job):
                kmeans(points, DEFAULT_K, sample_seed)
        return result_hash(serialize_result(result)), len(feed.ops)

    plan, sample_seed = trace_plan(args.seed, grid.configs())
    paired = Paired(tracer)
    insts = 0
    for name, config in plan:
        runs = paired.run(lambda t: split(t, name, config, f"trace-split-{name}"), "split")
        insts += runs[1][1]
        for record, _ in runs:
            checks.expect(record == results[(name, config.name, "full")], f"{name}: direct replay differs from run_full")

    own = benchstats.self_time_by_name(tracer.spans)
    # The traced repetition decodes each trace twice (full, sampled) and
    # the traced splits once more.
    decoded = 2 * traced["insts"] + insts
    return {
        "workloads.feed.columns_us_per_op": 1e6 * sum(own["workloads.feed.columns"]) / insts,
        "fastsim.build_ms": 1e3 * benchstats.mean(own["fastsim.build"]),
        "fastsim.loop_ns_per_inst": 1e9 * sum(own["fastsim.loop"]) / insts,
        "trace.format.decode_us_per_record": 1e6 * sum(own["trace.format.decode"]) / decoded,
        "trace.run.full_ns_per_inst": 1e9 * sum(own["trace.run.full"]) / traced["insts"],
        "trace.sampling.profile_ms": 1e3 * benchstats.mean(own["trace.sampling.profile"]),
        "trace.sampling.kmeans_ms": 1e3 * benchstats.mean(own["trace.sampling.kmeans"]),
        "trace.sampling.coverage": plain["coverage"],
        "trace.sampling.ipc_error_pct": plain["ipc_error_pct"],
        "trace.sampling.insts_per_s": plain["sampled_insts"] / sum(plain["sampled_ok"]),
        "bench.tracing_overhead_pct": paired.overhead_pct(),
    }


# ----------------------------------------------------------------------
def digest(results: dict) -> str:
    hasher = hashlib.sha256()
    for key in sorted(results, key=repr):
        hasher.update(f"{key!r}={results[key]}\n".encode())
    return hasher.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("sweep", "trace"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--native", required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    boot.activate(args.native)
    pool = None
    if args.workload == "sweep":
        pool = sweep_setup()
    else:
        import repro.trace  # noqa: F401 - part of set-up, not of the first replay
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return

    checks, outcomes, results = Checks(), benchstats.Outcomes(), {}
    out: dict = {}
    with Clock() as clock:
        if args.workload == "sweep":
            out["pass"] = sweep_pass(args, pool, clock, checks, outcomes, results)
        else:
            out["pass"] = trace_pass(args, Tracer(False), clock, checks, outcomes, results)
    if args.trace:
        tracer = Tracer(True)
        if args.workload == "sweep":
            # A pooled sweep shows nothing of the layers inside the workers,
            # so the traced pass is the inline re-execution alone.
            out["layers"] = sweep_traced(args, tracer, checks, results, out["pass"])
        else:
            # One traced repetition with the inputs of the first untraced one.
            traced_results = {}
            with Clock() as traced_clock:
                traced = trace_pass(args, tracer, traced_clock, checks, benchstats.Outcomes(), traced_results, reps=1)
            checks.expect(
                all(results.get(key) == value for key, value in traced_results.items()),
                "traced pass produced different results",
            )
            out["layers"] = trace_traced(args, tracer, checks, results, out["pass"], traced)
        out["spans"] = [[s.id, s.name, s.start, s.end, s.parent, s.job] for s in tracer.spans]
    if args.workload == "sweep":
        sweep_parity(args, checks, results)
    else:
        trace_parity(args, checks)

    rss = boot.vm_hwm_mb()
    if pool is not None:
        rss += sum(boot.vm_hwm_mb(pid) for pid in pool.worker_pids())
    out.update(
        digest=digest(results), errors=checks.errors, attempted=outcomes.attempted,
        failed=outcomes.failed, rss_mb=rss, host_slowdown=clock.slowdown(),
        report={"failures": "; ".join(dict.fromkeys(out["pass"].get("failures", ()))) or "none"},
    )
    print("RESULT " + json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
