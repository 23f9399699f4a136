"""Host-speed calibrated timing.

The benchmark runs on a few cores of a shared host whose speed drifts by
a third or more over tens of seconds, as neighbours come and go.  No
estimator inside one run removes a drift that lasts the whole run, so
every timed operation is bracketed by a fixed reference loop that is not
part of the program, probed right before and right after the operation
while the program is idle.  The operation's wall time is rescaled by the
reference's nominal time over its measured time near the operation,
giving *reference seconds*: what the operation would have taken with
the host at the speed it had when :data:`REFERENCE_S` was measured.

A change to the program moves its operations but not the reference, so
it shows in full; a host slowdown moves both and cancels.  Each run
prints the median probe over :data:`REFERENCE_S` as ``host_slowdown``, so
the rescaling can be checked.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

import benchstats

#: The reference loop's time on the unloaded reference host (2-CPU
#: x86-64 VM, CPython 3.11).  Only a unit: it fixes what one reference
#: second is, and never changes between runs.
REFERENCE_S = 0.015
#: Reference loops per probe; a probe is their fastest.
PROBE_LOOPS = 2
#: Probes up to this many seconds before or after a sample give its host speed.
WINDOW_S = 4.0
#: A window that holds only a bracket's own two probes.
OWN_PROBES_S = 0.1
#: How much of the probed host-speed change is taken out of a sample.
#: The loop is pure interpreter work; the program's time also holds
#: system calls, process wake-ups and memory stalls, which speed up and
#: slow down less with the host.  Over 5-seed batches in three different
#: stretches of the reference host, full rescaling (1) overcorrected
#: whenever the host swung (spreads up to 0.15), none (0) left the drift
#: in (up to 0.21), and 0.75 kept the time metrics' spread at or below
#: 0.12 in every batch.
ELASTICITY = 0.75


def reference_loop() -> int:
    """Fixed interpreter work of the kinds the program does: dict, list, bytes and integer ops."""
    table: dict[int, int] = {}
    out = []
    data = bytes(range(256)) * 8
    for i in range(40_000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + data[i & 2047]
        out.append(key ^ i)
    return len(out) + len(table)


def probe() -> float:
    """Seconds the reference loop takes now (fastest of :data:`PROBE_LOOPS`)."""
    best = float("inf")
    for _ in range(PROBE_LOOPS):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best


class Clock:
    """Times operations in reference seconds.

    A probe runs the loop in one helper process per CPU at the same
    time, each pinned to its CPU where the host allows, and takes their
    mean.  A lone loop in one process runs fastest exactly when the other
    CPU idles, so its speed swung more than the program's did and
    rescaling by it overcorrected (a pass rescaled 25% slow when the lone
    probe read 35% fast); the host's speed under load on every CPU follows
    the program.  Start a clock after any process pool the program forks,
    and close it (``with``).  *fake_probe* stands in for the helpers in
    tests.

    One probe is too short to tell the host's speed by itself: probes
    seconds apart differ by a third.  So a sample is rescaled by the
    median of every probe within :data:`WINDOW_S` of it
    (:func:`benchstats.rescaled`), which follows drifts that last longer
    than that and smooths the probes' own jitter.
    """

    def __init__(self, fake_probe=None):
        #: ``[time, seconds]`` of every probe, in ``perf_counter`` time.
        self.probes: list[list[float]] = []
        self._fake_probe = fake_probe
        self._helpers: list[subprocess.Popen] = []
        if fake_probe is None:
            cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None] * (os.cpu_count() or 1)
            for cpu in cpus:
                pin = [] if cpu is None else [str(cpu)]
                self._helpers.append(subprocess.Popen(
                    [sys.executable, __file__, *pin], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))

    def probe(self) -> None:
        """Time the reference loop now and keep it."""
        if self._fake_probe is not None:
            seconds = self._fake_probe()
        else:
            for helper in self._helpers:
                helper.stdin.write("probe\n")
                helper.stdin.flush()
            times = [float(helper.stdout.readline()) for helper in self._helpers]
            seconds = sum(times) / len(times)
        self.probes.append([perf_counter(), seconds])

    def bracket(self) -> "Bracket":
        """``with clock.bracket() as timed:`` probes around the block; ``timed.sample()`` after it."""
        return Bracket(self)

    def seconds(self, samples, window: float = WINDOW_S) -> list[float]:
        """``[raw, start, end]`` samples taken on this clock, in reference seconds."""
        return benchstats.rescaled(samples, self.probes, REFERENCE_S, window, ELASTICITY)

    def slowdown(self) -> float:
        """Median probe over :data:`REFERENCE_S`: how much slower than the reference host this run was."""
        return benchstats.median([seconds for _, seconds in self.probes]) / REFERENCE_S if self.probes else 1.0

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    def __enter__(self) -> "Clock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Bracket:
    """One operation between two probes."""

    def __init__(self, clock: Clock):
        self.clock = clock

    def __enter__(self) -> "Bracket":
        self.clock.probe()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()
        self.clock.probe()

    def sample(self, raw: float | None = None) -> list[float]:
        """``[raw seconds, start, end]`` of the block, or of *raw* seconds measured inside it."""
        return [self.end - self.start if raw is None else raw, self.start, self.end]


def _helper(argv) -> None:
    """A probe helper: one probe per line read, until stdin closes."""
    if argv:
        os.sched_setaffinity(0, {int(argv[0])})
    while sys.stdin.readline():
        print(probe(), flush=True)


if __name__ == "__main__":
    _helper(sys.argv[1:])
