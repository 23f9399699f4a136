"""Smoke tests: every example script must run to completion."""

import pathlib
import subprocess
import sys

import pytest

_EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: Fast argument sets so the whole module stays test-suite friendly.
_CASES = {
    "quickstart.py": ["fibonacci"],
    "halfprice_comparison.py": ["--benchmarks", "gzip", "--insts", "800", "--warmup", "1200"],
    "spec_characterization.py": ["--benchmarks", "gzip", "--insts", "600", "--warmup", "900"],
    "circuit_timing.py": [],
    "custom_workload.py": [],
    "trace_capture.py": ["--ops", "3000"],
    "dependence_matrix_demo.py": [],
}


def run_example(name, args):
    return subprocess.run(
        [sys.executable, str(_EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", sorted(_CASES))
def test_example_runs(name):
    result = run_example(name, _CASES[name])
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{name} produced no output"


def test_all_examples_covered():
    """Every example script has a smoke test (keep _CASES in sync)."""
    on_disk = {
        p.name for p in _EXAMPLES.glob("*.py") if not p.name.startswith("generate")
    }
    assert on_disk == set(_CASES)


def test_trace_capture_writes_a_replayable_binary_trace(tmp_path):
    """The example's tracefile holds the live synthetic stream, op by op."""
    from repro.trace import TraceFeed
    from repro.workloads import SyntheticWorkload, collect_stream, get_profile
    from repro.workloads.trace import DynOp

    result = run_example(
        "trace_capture.py",
        ["--benchmark", "gzip", "--ops", "1500", "--out", str(tmp_path)],
    )
    assert result.returncode == 0, result.stderr[-2000:]
    feed = TraceFeed(tmp_path / "gzip.hpt")
    live = collect_stream(SyntheticWorkload(get_profile("gzip"), seed=42), 1500)
    assert len(feed.ops) == len(live) == 1500
    for replayed, expected in zip(feed.ops, live):
        for field in DynOp.__slots__:
            assert getattr(replayed, field) == getattr(expected, field), field
