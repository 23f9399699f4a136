"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep|serve|trace --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

The last line of standard output is the result object; the lines before it
are for people (host facts, every metric with its unit and sample count,
the results digest).  ``--trace 1`` adds a traced pass with the same
seed and reports the per-layer metrics.  ``--all``
runs the three workloads untraced and traced in turn and prints
everything, with no result line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchstats
import hostclock
import nativebuild
from benchstats import Span
from hostclock import Clock
from nativebuild import BenchError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("sweep", "serve", "trace")
#: Set-up is timed this many times per run and reported as the median.
SETUP_REPS = {"sweep": 11, "serve": 7, "trace": 11}
#: A run that has not finished by then is killed and fails.
SESSION_TIMEOUT_S = 170.0
#: Largest share of a traced job's wall that its layers may leave unexplained.
MAX_LAYER_GAP = 0.10


def declared_metrics() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env(tmp: Path) -> dict:
    """The environment of every program process: no inherited ``REPRO_*`` knobs, caches under *tmp*."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # A per-process random string hash seed changes dict and set layouts,
    # and with them the speed of the same work from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# sweep / trace: the program runs in session.py processes
# ----------------------------------------------------------------------
def run_session(args, native: Path, tmp: Path) -> dict:
    command = [
        sys.executable, str(HERE / "session.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--native", str(native), "--tmp", str(tmp),
    ]
    setups = []
    with Clock() as clock:
        result = launch_sessions(args, command, child_env(tmp), clock, setups)
    # A launch is short and the next one starts right after it, so only its own probes are near it.
    result["setup"] = clock.seconds(setups, hostclock.OWN_PROBES_S)
    return result


def launch_sessions(args, command, env: dict, clock, setups: list) -> dict:
    """Time each launch to ``READY`` into *setups*; the last one runs the workload and returns its result."""
    deadline = time.monotonic() + SESSION_TIMEOUT_S
    for rep in range(SETUP_REPS[args.workload]):
        proc = watchdog = None
        try:
            with clock.bracket() as timed:
                proc = subprocess.Popen(
                    command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True, cwd=ROOT
                )
                # A hung session must not hold the run past its time limit.
                watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
                watchdog.start()
                line = proc.stdout.readline()
            # The probe after READY runs while the session waits for its answer.
            setups.append(timed.sample())
            if line.strip() != "READY":
                raise BenchError(f"{args.workload} session failed to start: {line.strip() or 'no output'}")
            last = rep == SETUP_REPS[args.workload] - 1
            proc.stdin.write("go\n" if last else "stop\n")
            proc.stdin.flush()
            if not last:
                proc.wait()
                continue
            result = None
            for line in proc.stdout:
                if line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            proc.wait()
            if proc.returncode != 0 or result is None:
                raise BenchError(f"{args.workload} session exited with code {proc.returncode}")
        finally:
            if watchdog is not None:
                watchdog.cancel()
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
    return result


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(workload: str, out: dict) -> tuple[dict, dict]:
    """The end-to-end metrics and their sample counts; every time is in reference seconds.

    Throughput comes from the median repetition (sweep), the median
    closed-loop round (serve) or the per-trace medians (trace), like the
    latencies, so one repetition slowed by the shared host moves neither.
    """
    run = out["pass"]
    if workload == "trace":
        # A corpus pass, figured as the sum of each trace's median over the repetitions.
        full, sampled = benchstats.sum_of_medians(run["full"].values()), benchstats.sum_of_medians(run["sampled"].values())
        insts_per_s = run["insts"] / run["reps"] / full
        sim_ms, shortcut_ms = 1e3 * full, 1e3 * sampled
        sim_n, shortcut_n = (sum(len(times) for times in run[kind].values()) for kind in ("full", "sampled"))
    else:
        if workload == "serve":
            insts_per_s = benchstats.median(run["closed_rates"])
        else:
            insts_per_s = run["insts"] / run["reps"] / benchstats.median(run["cold"])
        sim_ms, shortcut_ms = 1e3 * benchstats.median(run["cold"]), 1e3 * benchstats.median(run["warm"])
        sim_n, shortcut_n = len(run["cold"]), len(run["warm"])
    values = {
        "setup_s": benchstats.median(out["setup"]),
        "max_rss_mb": out["rss_mb"],
        "insts_per_s": insts_per_s,
        "sim_ms_p50": sim_ms,
        "shortcut_ms_p50": shortcut_ms,
    }
    counts = {"setup_s": len(out["setup"]), "sim_ms_p50": sim_n, "shortcut_ms_p50": shortcut_n}
    return values, counts


def per_layer(out: dict, declared: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass; a layer off this workload's path reads 0."""
    values = {name: 0.0 for name in declared}
    values.update(out["layers"])
    spans = [Span(*row) for row in out["spans"]]
    roots = [span for span in spans if span.parent is None and span.name.startswith("job")]
    gaps = [benchstats.layer_gap(spans, root.id) for root in roots]
    values["bench.layer_gap_max_pct"] = 100.0 * max(gaps, default=0.0)
    errors = []
    if max(gaps, default=0.0) > MAX_LAYER_GAP:
        errors.append(f"traced layers leave {100 * max(gaps):.1f}% of a job's wall unexplained")
    if set(values) != set(declared):
        raise BenchError(f"per-layer metrics do not match BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    return values, errors


# ----------------------------------------------------------------------
def run_workload(args, native: Path) -> dict:
    """Run one workload, print its human-readable lines and return the result object."""
    tmp = WORK / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if args.workload == "serve":
            # The load generator and the offline parity checks run here.
            os.environ.update(child_env(tmp))
            sys.path.insert(0, str(ROOT / "src"))
            import boot
            import serveload

            boot.activate(str(native))
            out = serveload.run(args, native, tmp, child_env(tmp), ROOT, SETUP_REPS["serve"])
        else:
            out = run_session(args, native, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    end_units, layer_units = declared_metrics()
    values, counts = end_to_end(args.workload, out)
    if set(values) != set(end_units):
        raise BenchError(f"end-to-end metrics do not match BENCHMARK.json: {sorted(set(values) ^ set(end_units))}")
    errors = list(out["errors"])
    for name, value in sorted(values.items()):
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"[{args.workload}] {name} = {value:.6g} {end_units[name]}{n}")
    print(f"[{args.workload}] host_slowdown = {out['host_slowdown']:.3f} (median reference probe over its nominal "
          f"{1e3 * hostclock.REFERENCE_S:g} ms; the times above are in reference seconds)")
    for name, value in sorted(out.get("report", {}).items()):
        print(f"[{args.workload}] {name} = {value}")
    if args.trace:
        spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(out["spans"]) + "\n", encoding="utf-8")
        print(f"[{args.workload}] spans (id, name, start, end, parent, job) written to {spans_file.relative_to(ROOT)}")
        layer_values, layer_errors = per_layer(out, layer_units)
        errors += layer_errors
        for name, value in sorted(layer_values.items()):
            print(f"[{args.workload}] {name} = {value:.6g} {layer_units[name]}")
        metrics = {name: {"value": layer_values[name], "unit": layer_units[name]} for name in layer_units}
    else:
        metrics = {name: {"value": values[name], "unit": end_units[name]} for name in end_units}
    print(
        f"[{args.workload}] attempted={out['attempted']} succeeded={out['attempted'] - out['failed']} "
        f"failed={out['failed']} ops_failed_ratio={out['failed'] / max(1, out['attempted']):.6g}"
    )
    print(f"[{args.workload}] results_digest={out['digest']}")
    for error in errors:
        print(f"[{args.workload}] CHECK FAILED: {error}")
    return {
        "correct": not errors,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    try:
        native = nativebuild.build(ROOT, WORK)
        info = nativebuild.host_info(ROOT)
        print("host: " + " ".join(f"{key}={value}" for key, value in info.items()))
        if not args.all:
            print(json.dumps(run_workload(args, native)))
            return 0
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace}), native)
                ok = ok and result["correct"] and result["failed"] == 0
        return 0 if ok else 1
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
