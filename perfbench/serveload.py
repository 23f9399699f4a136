"""The ``serve`` workload: routed serving, sequential and under load.

Topology: one ``repro serve --router`` over two ``repro serve --worker``
processes sharing a fresh store; each worker has one inline simulation
slot (``--workers 1``, ``REPRO_JOBS=1``, so no nested pool).  Load comes
from this process: at most two threads, each with one connection at a
time.

Every run measures, in reference seconds (:mod:`hostclock`):

* Sequential cold and warm jobs: one client submits-and-waits each of
  the 96 grid cells twice, each time with a fresh fingerprint (cold:
  routed, dispatched and simulated), and after each one a repeat of a
  job already done (warm: answered from the store).  One job at a time, so a latency is the job's own path, not
  its queueing behind others, and a host-speed drift can be rescaled.
* Closed loop: two clients submit-and-wait fresh cold jobs in batches,
  one round per pass over the grid; the completion rate is the
  cluster's capacity.

The traced run (``--trace 1``) adds the open loop the layer figures come
from: seeded Poisson arrivals at :data:`RATE` with an exact mix
(:func:`open_mix`) of new fingerprints, repeats of fingerprints first due
long before (answered from the store once finished) and duplicates due
just behind the new spec they copy (coalesced while in flight).  A job is
timed from its due time to the router's completion stamp, and classified
cold or warm by whether its fingerprint had finished when it was due.
Queueing in an open loop grows faster than linearly as the host slows,
so its latencies are printed in host milliseconds, not bounded.

No request is retried: a refusal (429), an error or a timeout is a failure.
"""

from __future__ import annotations

import json
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchstats
import boot
import grid
from nativebuild import BenchError
from hostclock import OWN_PROBES_S, Clock
from tracer import Paired, Tracer

HERE = Path(__file__).resolve().parent

#: Open-loop arrival rate (jobs/s) of the traced run: about half the
#: closed-loop capacity measured on the reference 2-CPU host.  A constant,
#: never re-derived per run, so a slower program shows as queueing, not as
#: a lighter load.
RATE = 10.0
#: Jobs per closed-loop submission: four per round, two per client.  With
#: one batch of 48 per client, a round could run at half the rate.
CLOSED_BATCH = 24
#: Nominal seconds of one closed-loop round (the 96 grid cells) on the
#: reference host, and shares of ``--seconds`` given to closed-loop
#: rounds and (traced run only) to the open loop: 5 rounds at 20 s,
#: because the median of 3 still moved by 0.13 from run to run.
CLOSED_ROUND_S = 3.2
CLOSED_S, OPEN_S = 0.8, 1.0
#: Sequential jobs between two reference probes.
SEQUENTIAL_ROUND = 12
#: Passes over the grid cells of the sequential phase: two, so that the
#: p90 has the 10 samples beyond it that :func:`benchstats.reportable`
#: asks for.
SEQUENTIAL_PASSES = 2
#: Exact shares of the open loop's jobs that repeat a finished spec and
#: that duplicate one in flight; the rest are new.  A design choice, not
#: measured traffic: cold jobs (new and duplicates) stay the majority and
#: number >= 100 in a 20 s run, so their p90 is reportable, and each
#: other class gets tens of samples.
SHARE_REPEAT, SHARE_DUPLICATE = 0.40, 0.15
#: A duplicate is due this long after the new spec it copies, well inside
#: that job's execution; a repeat copies a spec first due at least this long ago.
DUPLICATE_LAG_S, REPEAT_AGE_S = 0.01, 1.5
#: First of the two ports the workers listen on (see :func:`worker_ports`).
WORKER_PORTS = 47310
#: Per-request limits; exceeding one is a failure, not a wait.
REQUEST_TIMEOUT_S, JOB_TIMEOUT_S = 10.0, 60.0


def open_mix(count: int) -> dict:
    """How many of *count* open-loop jobs are new, repeats and duplicates."""
    repeat, duplicate = round(count * SHARE_REPEAT), round(count * SHARE_DUPLICATE)
    return {"new": count - repeat - duplicate, "repeat": repeat, "duplicate": duplicate}


def open_schedule(seed: int, count: int):
    """``[(due offset s, wire spec, kind)]`` for the open loop, from the seed alone.

    New specs and repeats arrive as one Poisson stream, whose rate leaves
    room for the duplicates so that all jobs together arrive at
    :data:`RATE`.  Each kind's count is exactly :func:`open_mix`'s.
    """
    draw = grid.rng(seed, "serve-open")
    fresh = grid.cell_stream(draw)
    mix = open_mix(count)
    left = {"new": mix["new"], "repeat": mix["repeat"]}
    rate = RATE * (left["new"] + left["repeat"]) / count
    plan, firsts = [], []
    at = 0.0
    while left["new"] or left["repeat"]:
        at += draw.expovariate(rate)
        old = [spec for due, spec in firsts if at - due >= REPEAT_AGE_S]
        # Repeats are drawn in proportion to what is left of each kind, once a spec is old enough.
        if old and left["repeat"] and draw.random() * (left["new"] + left["repeat"]) < left["repeat"]:
            kind, spec = "repeat", draw.choice(old)
        elif left["new"]:
            kind, spec = "new", next(fresh)
            firsts.append((at, spec))
        else:
            raise BenchError("open-loop plan has repeats left but no spec old enough to repeat")
        left[kind] -= 1
        plan.append((at, spec, kind))
    news = [(at, spec) for at, spec, kind in plan if kind == "new"]
    plan += [(at + DUPLICATE_LAG_S, spec, "duplicate") for at, spec in draw.sample(news, mix["duplicate"])]
    plan.sort(key=lambda entry: entry[0])
    return plan


def closed_specs(seed: int, count: int, purpose: str = "serve-closed"):
    fresh = grid.cell_stream(grid.rng(seed, purpose))
    return [next(fresh) for _ in range(count)]


def fingerprint(spec: dict) -> str:
    from repro.serve.protocol import parse_spec

    return parse_spec(dict(spec)).fingerprint()


# ----------------------------------------------------------------------
# cluster processes
# ----------------------------------------------------------------------
class Cluster:
    """One router over two workers, all ``repro serve`` processes."""

    def __init__(self, native: Path, env: dict, store: Path, root: Path):
        self.procs: list[subprocess.Popen] = []
        env = {**env, "REPRO_JOBS": "1"}
        try:
            workers = [
                self._boot(native, env, root, ["--worker", "--port", str(port), "--workers", "1", "--name", f"w{i}",
                                               "--store", str(store)])
                for i, port in enumerate(worker_ports())
            ]
            self.worker_urls = [self._announced(proc, "worker [") for proc in workers]
            router = self._boot(native, env, root, ["--router", "--port", "0",
                                                    *(p for url in self.worker_urls for p in ("--worker-url", url))])
            self.router_url = self._announced(router, "routing on")
        except BaseException:
            self.stop()
            raise

    def _boot(self, native, env, root, argv) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "boot.py"), str(native), "serve", *argv],
            stdout=subprocess.PIPE, text=True, env=env, cwd=root,
        )
        self.procs.append(proc)
        return proc

    @staticmethod
    def _announced(proc, prefix: str) -> str:
        line = proc.stdout.readline()
        if not line.startswith(prefix):
            raise BenchError(f"serve process did not start: {line.strip() or 'no output'}")
        return line.split(" on ", 1)[1].strip()

    def rss_mb(self) -> float:
        return sum(boot.vm_hwm_mb(proc.pid) for proc in self.procs)

    def stop(self) -> None:
        for proc in reversed(self.procs):  # router first, then its workers
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


def worker_ports() -> list[int]:
    """Two free ports for the workers, the first free pair of :data:`WORKER_PORTS` onwards.

    The router's ring hashes each worker's URL, so the share of
    fingerprints each worker owns depends on its port.  With ports the
    system picks, that share changed with every boot, and so did the
    closed-loop rate; fixed ports give every run the same split.
    """
    import socket

    def free(port: int) -> bool:
        with socket.socket() as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                probe.bind(("127.0.0.1", port))
            except OSError:
                return False
        return True

    for first in range(WORKER_PORTS, WORKER_PORTS + 200, 2):
        if free(first) and free(first + 1):
            return [first, first + 1]
    raise BenchError(f"no two free ports from {WORKER_PORTS} on")


def client(url: str):
    from repro.serve.client import RetryPolicy, ServeClient

    return ServeClient(url, timeout=REQUEST_TIMEOUT_S, retry=RetryPolicy(retries=0))


# ----------------------------------------------------------------------
# load phases
# ----------------------------------------------------------------------
def open_loop(url: str, plan, outcomes: benchstats.Outcomes, served: dict, tracer) -> dict:
    """Send *plan* on schedule from one thread; follow completions on a second.

    With an enabled *tracer*, client-side spans are recorded as the loop
    goes: each submit round trip, and once the follower sees a job done,
    the job from its due time to the router's completion stamp with how
    late it was sent.  The round trip is a span of its own, not one of
    the job's layers: its response leg runs while the router already
    dispatches the job.
    """
    from repro.serve.client import ServeError

    sender, follower = client(url), client(url)
    pending: queue.Queue = queue.Queue()
    records: list[dict] = []
    start = time.time() + 0.2

    def follow():
        while True:
            item = pending.get()
            if item is None:
                return
            record = item
            deadline = record["due"] + JOB_TIMEOUT_S
            while True:
                try:
                    document = follower.job(record["id"], wait=5)
                except ServeError as error:
                    outcomes.fail(benchstats.failure_reason(error.status, error))
                    break
                except Exception as error:  # noqa: BLE001 - the follower must see every job out
                    outcomes.fail(f"client_{type(error).__name__}")
                    break
                if document["status"] in ("done", "failed", "cancelled"):
                    if document["status"] == "done":
                        record["finished"] = document["finished_at"]
                        record["span"] = tracer.add("job.serve", record["due"], record["finished"], None, record["id"])
                        tracer.add("serve.generator_late", record["due"], record["sent"], record["span"], record["id"])
                        served.setdefault(record["fingerprint"], document["result"])
                        outcomes.ok()
                    else:
                        outcomes.fail(f"job_{document['status']}")
                    break
                if time.time() > deadline:
                    outcomes.fail("timeout")
                    break

    thread = threading.Thread(target=follow, name="open-loop-follower")
    thread.start()
    try:
        for offset, spec, _kind in plan:
            due = start + offset
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            sent = time.time()
            try:
                receipt = sender.submit(spec)[0]
            except ServeError as error:
                outcomes.fail(benchstats.failure_reason(error.status, error))
                continue
            ack = time.time()
            tracer.add("serve.client.submit", sent, ack, None, receipt["id"])
            record = {"due": due, "sent": sent, "ack": ack, "id": receipt["id"],
                      "fingerprint": receipt["fingerprint"], "coalesced": receipt["coalesced"]}
            records.append(record)
            pending.put(record)
    finally:
        pending.put(None)
        thread.join()
    done = [r for r in records if "finished" in r]
    first: dict[str, float] = {}
    for record in done:
        first[record["fingerprint"]] = min(first.get(record["fingerprint"], record["finished"]), record["finished"])
    warm = benchstats.classify_warm([(r["due"], r["fingerprint"]) for r in done], first)
    for record, is_warm in zip(done, warm):
        record["warm"] = is_warm
        record["latency"] = benchstats.open_loop_latency(record["due"], record["finished"])
    return {"records": records}


def sequential(url: str, specs, seed: int, clock, outcomes: benchstats.Outcomes, served: dict):
    """Submit-and-wait each spec in turn from one client, each followed by a repeat of a finished one.

    Returns the cold and the warm latencies in reference seconds.  A
    latency runs from the submit call to the wait returning the finished
    job.  The warm request repeats a seeded pick among the specs done so
    far, so cold and warm jobs sample the same stretches of host time.
    Every :data:`SEQUENTIAL_ROUND` pairs sit between two reference
    probes.
    """
    from repro.serve.client import ServeError

    connection = client(url)
    draw = grid.rng(seed, "serve-warm")

    def submit_and_wait(spec) -> bool:
        try:
            receipt = connection.submit(spec)[0]
            document = connection.wait(receipt["id"], timeout=JOB_TIMEOUT_S, poll=5)
        except ServeError as error:
            outcomes.fail(benchstats.failure_reason(error.status, error))
            return False
        except Exception as error:  # noqa: BLE001 - a failed job is counted, the phase goes on
            outcomes.fail(f"client_{type(error).__name__}")
            return False
        served.setdefault(receipt["fingerprint"], document["result"])
        outcomes.ok()
        return True

    samples = {"cold": [], "warm": []}
    for first in range(0, len(specs), SEQUENTIAL_ROUND):
        with clock.bracket():
            for index in range(first, min(first + SEQUENTIAL_ROUND, len(specs))):
                for kind, spec in (("cold", specs[index]), ("warm", specs[draw.randrange(index + 1)])):
                    start = time.perf_counter()
                    if submit_and_wait(spec):
                        end = time.perf_counter()
                        samples[kind].append([end - start, start, end])
    return clock.seconds(samples["cold"]), clock.seconds(samples["warm"])


def closed_loop(url: str, specs, outcomes: benchstats.Outcomes, served: dict) -> tuple[float, int]:
    """Two clients submit-and-wait batches of cold jobs back to back.

    Returns the phase wall and the jobs that completed in it; a refused,
    failed or timed-out job is not a completion.

    A batch per round trip keeps both workers fed whatever ring placement
    the fingerprints get, so the phase measures capacity, not placement luck.
    """
    from repro.serve.client import ServeError

    batches = [specs[i:i + CLOSED_BATCH] for i in range(0, len(specs), CLOSED_BATCH)][::-1]
    lock = threading.Lock()
    ends: list[float] = []

    def loop():
        connection = client(url)
        while True:
            with lock:
                if not batches:
                    return
                batch = batches.pop()
            try:
                receipts = connection.submit(batch)
            except ServeError as error:
                for _ in batch:
                    outcomes.fail(benchstats.failure_reason(error.status, error))
                continue
            for receipt in receipts:
                try:
                    document = connection.wait(receipt["id"], timeout=JOB_TIMEOUT_S, poll=5)
                except ServeError as error:
                    outcomes.fail(benchstats.failure_reason(error.status, error))
                    continue
                except Exception as error:  # noqa: BLE001 - a client must see its batch out
                    outcomes.fail(f"client_{type(error).__name__}")
                    continue
                with lock:
                    ends.append(time.perf_counter())
                    served.setdefault(receipt["fingerprint"], document["result"])
                outcomes.ok()

    start = time.perf_counter()
    threads = [threading.Thread(target=loop, name=f"closed-loop-{i}") for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return max(ends, default=start) - start, len(ends)


# ----------------------------------------------------------------------
def histogram_mean(histogram: dict) -> float:
    total = sum(histogram.values())
    return sum(int(bucket) * count for bucket, count in histogram.items()) / total if total else 0.0


def serve_layers(cluster: Cluster, opened: dict, fetch_ms: list, unique: int) -> tuple[dict, dict, dict]:
    """Per-layer figures read back from the router's and workers' own records.

    Also returns the router's and the workers' job documents by id.
    """
    router = client(cluster.router_url)
    routed = {job["id"]: job for job in router.jobs()}
    router_metrics = router.metrics()["metrics"]
    worker_jobs, worker_metrics = {}, []
    shares = []
    for url in cluster.worker_urls:
        view = client(url)
        jobs = view.jobs()
        shares.append(len(jobs))
        worker_jobs.update({job["id"]: job for job in jobs})
        worker_metrics.append(view.metrics()["metrics"])
    # Layer figures of the open loop only: closed-loop batches run as one
    # execution, so their per-job stamps describe the batch, not the job.
    records = opened["records"]
    opened_jobs = [worker_jobs[r["id"]] for r in records if r["id"] in worker_jobs]
    waits = [1e3 * (j["started_at"] - j["submitted_at"]) for j in opened_jobs if j["started_at"]]
    execs = [1e3 * (j["finished_at"] - j["started_at"]) for j in opened_jobs if j["finished_at"]]
    hops = [
        1e3 * ((routed[j["id"]]["finished_at"] - routed[j["id"]]["submitted_at"]) - (j["finished_at"] - j["submitted_at"]))
        for j in opened_jobs if j["finished_at"] and routed[j["id"]]["finished_at"]
    ]
    batches: dict[str, int] = {}
    for metrics in worker_metrics:
        for bucket, count in metrics.get("serve.batch_size", {}).items():
            batches[bucket] = batches.get(bucket, 0) + count
    simulated = sum(m.get("serve.simulated", 0) for m in worker_metrics)
    executed = sum(shares)
    rejected = router_metrics.get("router.rejected_429", 0) + sum(m.get("serve.rejected_429", 0) for m in worker_metrics)
    layers = {
        "serve.client.submit_ms": benchstats.median([1e3 * (r["ack"] - r["sent"]) for r in records]),
        "serve.client.fetch_ms": benchstats.median(fetch_ms),
        "serve.queue_wait_ms_p50": benchstats.percentile(waits, 0.5),
        "serve.queue_wait_ms_p90": benchstats.reportable(waits, 0.9) or 0.0,
        "serve.exec_ms_p50": benchstats.percentile(execs, 0.5),
        "serve.router_hop_ms_p50": benchstats.percentile(hops, 0.5),
        "serve.batch_size_mean": histogram_mean(batches),
        "serve.router.dispatch_batch_size_mean": histogram_mean(router_metrics.get("router.dispatch_batch_size", {})),
        "serve.coalesced_ratio": sum(r["coalesced"] for r in records) / len(records),
        "serve.rejected_429": rejected,
        "serve.worker_share_max": max(shares) / executed,
        "serve.gen_late_ms_p90": benchstats.reportable(
            [1e3 * benchstats.lateness(r["due"], r["sent"]) for r in records], 0.9) or 0.0,
        "analysis.cache.hit_ratio": 1.0 - simulated / executed,
        "analysis.runner.sims_per_unique_fp": simulated / unique,
    }
    return layers, routed, worker_jobs


def server_spans(tracer, records, routed, worker_jobs) -> None:
    """The servers' own stamps as children of each job's client-side span.

    ``serve.client.request`` runs from the client's send to the router's
    submit stamp; ``serve.router`` is the router's job interval, from its
    own submit and completion stamps, and holds the worker's queue wait
    and execution (a duplicate coalesced at the router has no worker job).
    Every boundary is an event some process stamped, none a span's end
    derived from the others, so stamps that do not nest (a worker interval
    outside the router's, a router stamp before the send) show as a gap.
    """
    for record in records:
        if "finished" not in record:
            continue
        job = routed[record["id"]]
        tracer.add("serve.client.request", record["sent"], job["submitted_at"], record["span"], record["id"])
        hop = tracer.add("serve.router", job["submitted_at"], job["finished_at"], record["span"], record["id"])
        work = worker_jobs.get(record["id"])
        if work and work["started_at"] and work["finished_at"]:
            tracer.add("serve.queue_wait", work["submitted_at"], work["started_at"], hop, record["id"])
            tracer.add("serve.exec", work["started_at"], work["finished_at"], hop, record["id"])


# ----------------------------------------------------------------------
def check_exports(served: dict, specs: dict, store: Path, tmp: Path, seed: int, errors: list) -> str:
    """Served exports vs offline ``export_run``: byte-identical. Returns the results digest."""
    import dataclasses
    import hashlib

    from repro.analysis.cache import ResultCache, serialize_result
    from repro.analysis.parallel import Job, execute_job
    from repro.analysis.runner import ExperimentRunner
    from repro.obs.export import write_stats_json
    from repro.serve.protocol import parse_spec

    def offline(cache_dir):
        return ExperimentRunner(insts=grid.INSTS, warmup=grid.WARMUP, seed=0, benchmarks=grid.benchmarks(),
                                num_seeds=1, jobs=1, cache=ResultCache(cache_dir))

    from_store = offline(store)
    fresh = offline(tmp / "offline-fresh")
    resimulate = set(grid.rng(seed, "serve-parity").sample(sorted(served), 4))
    python_checks = set(sorted(resimulate)[:2])
    hasher = hashlib.sha256()
    for index, fp in enumerate(sorted(served)):
        spec = parse_spec(dict(specs[fp]))
        served_bytes = write_stats_json(served[fp]["stats"], tmp / "served" / str(index)).read_bytes()
        hasher.update(fp.encode() + b"\0" + served_bytes)
        runner = fresh if fp in resimulate else from_store
        offline_bytes = runner.export_run(spec.benchmark, spec.config(), tmp / "offline" / str(index),
                                          seed=spec.seed).read_bytes()
        if served_bytes != offline_bytes:
            errors.append(f"served export of {spec.benchmark}/seed={spec.seed} differs from offline export_run")
        if fp in python_checks:
            config = dataclasses.replace(spec.config(), backend="python")
            reference = serialize_result(execute_job(Job(spec.benchmark, config, spec.seed, spec.insts, spec.warmup)))
            if reference != served[fp]["stats"]["result"]:
                errors.append(f"python backend disagrees on served {spec.benchmark}/seed={spec.seed}")
    return hasher.hexdigest()


def split_sample(tracer, served: dict, specs: dict, tmp: Path, seed: int, errors: list) -> dict:
    """Re-execute a sample of served jobs inline, layer by layer, untraced and traced."""
    from repro.analysis.cache import serialize_result
    from repro.serve.protocol import parse_spec

    import layers

    paired = Paired(tracer)
    ops = 0
    picks = grid.rng(seed, "serve-split").sample(sorted(served), 12)
    for index, fp in enumerate(picks):
        spec = parse_spec(dict(specs[fp]))
        runs = paired.run(lambda t: layers.split_job(
            t, spec.benchmark, spec.config(), spec.seed, f"serve-split-{index}", tmp / "serve-layers", export=True
        ), "split_job")
        ops += runs[1][2]
        expected = served[fp]["stats"]
        for result, loaded, _, payload in runs:
            if serialize_result(result) != expected["result"] or serialize_result(loaded) != expected["result"]:
                errors.append(f"inline rerun of served {spec.benchmark}/seed={spec.seed} differs")
            if json.loads(payload) != expected:
                errors.append(f"inline export of served {spec.benchmark}/seed={spec.seed} differs")
    figures = layers.job_figures(tracer.spans, ops)
    figures["bench.tracing_overhead_pct"] = paired.overhead_pct()
    return figures


def load_pass(native: Path, env: dict, tmp: Path, root: Path, seed: int, seconds: float, tracer, clock,
              open_phase: bool):
    """Boot a cluster on a fresh store and drive the sequential, closed-loop and (if asked) open-loop phases."""
    store = tmp / "store"
    with clock.bracket() as booted:
        cluster = Cluster(native, env, store, root)
    try:
        outcomes, served, specs = benchstats.Outcomes(), {}, {}
        cells = len(grid.benchmarks()) * len(grid.WIDTHS) * len(grid.VARIANTS)
        cold_specs = closed_specs(seed, SEQUENTIAL_PASSES * cells, "serve-sequential")
        rounds = max(1, round(CLOSED_S * seconds / CLOSED_ROUND_S))
        closed = closed_specs(seed, rounds * cells)
        plan = open_schedule(seed, max(120, round(RATE * OPEN_S * seconds))) if open_phase else []
        for spec in cold_specs + closed + [spec for _, spec, _ in plan]:
            specs.setdefault(fingerprint(spec), spec)
        cold, warm = sequential(cluster.router_url, cold_specs, seed, clock, outcomes, served)
        rounds, done = [], []
        for first in range(0, len(closed), cells):
            with clock.bracket() as timed:
                wall, completed = closed_loop(cluster.router_url, closed[first:first + cells], outcomes, served)
            rounds.append(timed.sample(wall))
            done.append(completed)
        rates = [count * (grid.INSTS + grid.WARMUP) / wall for count, wall in zip(done, clock.seconds(rounds))]
        done_total = sum(done)
        out = {"cold": cold, "warm": warm, "closed_rates": rates, "closed_done": done_total}
        if open_phase:
            opened = open_loop(cluster.router_url, plan, outcomes, served, tracer)
            fetch_ms = []
            fetcher = client(cluster.router_url)
            for record in opened["records"][:20]:
                start = time.time()
                fetcher.job(record["id"])
                end = time.time()
                tracer.add("serve.client.fetch", start, end, None, record["id"])
                fetch_ms.append(1e3 * (end - start))
            layers, routed, worker_jobs = serve_layers(cluster, opened, fetch_ms, len(specs))
            server_spans(tracer, opened["records"], routed, worker_jobs)
            out.update(opened=opened, layers=layers)
        out.update(rss=cluster.rss_mb())
    finally:
        cluster.stop()
    out.update(setup=booted.sample(), store=store, outcomes=outcomes, served=served, specs=specs, plan=plan)
    return out


def run(args, native: Path, tmp: Path, env: dict, root: Path, setup_reps: int) -> dict:
    """The untraced run, or with ``--trace 1`` the traced one.

    The traced run adds the open loop, records its client spans as it
    goes, and then splits a sample of served jobs layer by layer.
    """
    setups = []
    tracer = Tracer(bool(args.trace))
    with Clock() as clock:
        for rep in range(setup_reps - 1):
            with clock.bracket() as booted:
                cluster = Cluster(native, env, tmp / f"setup-store-{rep}", root)
            cluster.stop()
            setups.append(booted.sample())
        main = load_pass(native, env, tmp, root, args.seed, args.seconds, tracer, clock, open_phase=bool(args.trace))
    setups.append(main["setup"])
    errors: list[str] = []
    cold, warm = [1e3 * c for c in main["cold"]], [1e3 * w for w in main["warm"]]
    if not cold or not warm or not main["closed_done"]:
        raise BenchError(f"serve completed {len(cold)} cold, {len(warm)} warm and {main['closed_done']} closed-loop jobs")
    result_digest = check_exports(main["served"], main["specs"], main["store"], tmp, args.seed, errors)
    outcomes = main["outcomes"]
    per_job = grid.INSTS + grid.WARMUP
    report = {
        "serve_cold_ms_p90": _tail(cold), "serve_warm_ms_p90": _tail(warm),
        "serve_jobs_per_s": (f"{benchstats.median(main['closed_rates']) / per_job:.6g} jobs/s "
                             f"(median of {len(main['closed_rates'])} rounds, n={main['closed_done']})"),
        "unique_fingerprints": len(main["specs"]),
        "failures": json.dumps(outcomes.reasons, sort_keys=True),
    }
    out = {
        "pass": {"cold": main["cold"], "warm": main["warm"], "closed_rates": main["closed_rates"]},
        "setup": clock.seconds(setups, OWN_PROBES_S), "rss_mb": main["rss"], "digest": result_digest, "errors": errors,
        "attempted": outcomes.attempted, "failed": outcomes.failed, "report": report,
        "host_slowdown": clock.slowdown(),
    }
    if args.trace:
        records = [r for r in main["opened"]["records"] if "finished" in r]
        open_cold = [1e3 * r["latency"] for r in records if not r["warm"]]
        open_warm = [1e3 * r["latency"] for r in records if r["warm"]]
        report.update({
            "open_loop_plan": " ".join(f"{kind}={count}" for kind, count in open_mix(len(main["plan"])).items()),
            "open_loop_jobs": (f"cold={len(open_cold)} warm={len(open_warm)} "
                               f"coalesced={sum(r['coalesced'] for r in main['opened']['records'])}"),
            "open_loop_cold_ms_host": f"p50 {_p50(open_cold)}, p90 {_tail(open_cold)}",
            "open_loop_warm_ms_host": f"p50 {_p50(open_warm)}, p90 {_tail(open_warm)}",
        })
        layers = dict(main["layers"])
        layers.update(split_sample(tracer, main["served"], main["specs"], tmp, args.seed, errors))
        out.update(layers=layers, spans=[[s.id, s.name, s.start, s.end, s.parent, s.job] for s in tracer.spans])
    return out


def _p50(values) -> str:
    return f"{benchstats.median(values):.6g} ms (n={len(values)})" if values else "n/a (n=0)"


def _tail(values) -> str:
    p90 = benchstats.reportable(values, 0.9)
    if p90 is None:
        return f"n/a (n={len(values)}: fewer than {benchstats.MIN_BEYOND} samples beyond p90)"
    return f"{p90:.6g} ms (n={len(values)})"
