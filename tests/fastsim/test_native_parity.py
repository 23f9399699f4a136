"""Bit-parity of the native backend against the python reference.

The heavyweight gate is ``repro fuzz --cross-backend`` (random programs,
full config matrix); these tests pin a fast deterministic slice of the
same contract in tier-1: identical serialized results — every counter,
histogram and predictor-bank count — on representative machine variants,
plus the cross-backend fuzz plumbing itself.  Every parity test skips
cleanly when the compiled extension is missing.
"""

import json

import pytest

from repro.analysis.cache import serialize_result
from repro.fastsim import make_processor, native_available
from repro.pipeline.config import (
    EIGHT_WIDE,
    FOUR_WIDE,
    BypassModel,
    RecoveryModel,
    RegFileModel,
    RenameModel,
    SchedulerModel,
)
from repro.workloads.feed import EmulatorFeed, ReplayFeed
from repro.workloads.kernels import kernel_program
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

_VARIANTS = {
    "base": FOUR_WIDE,
    "seq-wakeup+sel": FOUR_WIDE.with_techniques(
        scheduler=SchedulerModel.SEQ_WAKEUP, recovery=RecoveryModel.SELECTIVE
    ),
    "tag-elim": FOUR_WIDE.with_techniques(scheduler=SchedulerModel.TAG_ELIM),
    "kitchen-sink": FOUR_WIDE.with_techniques(
        scheduler=SchedulerModel.SEQ_WAKEUP,
        regfile=RegFileModel.SEQUENTIAL,
        rename=RenameModel.HALF_PORTS,
        bypass=BypassModel.HALF,
        recovery=RecoveryModel.SELECTIVE,
    ),
    "8-wide": EIGHT_WIDE,
}

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="native backend needs the compiled extension (pip install -e .[native])",
)


def _payload(processor, insts, warmup):
    result = processor.run(max_insts=insts, warmup=warmup)
    return json.dumps(serialize_result(result), sort_keys=True)


def _assert_parity(make_feed, config, insts=1_200, warmup=0, shadow=None):
    payloads = {}
    for backend in ("python", "native"):
        processor = make_processor(
            make_feed(), config, backend=backend, shadow_sizes=shadow
        )
        payloads[backend] = _payload(processor, insts, warmup)
    assert payloads["python"] == payloads["native"]


@requires_native
@pytest.mark.parametrize("name", sorted(_VARIANTS))
def test_synthetic_workload_parity(name):
    config = _VARIANTS[name]
    _assert_parity(lambda: SyntheticWorkload(get_profile("gzip"), seed=3), config)


@requires_native
def test_parity_with_warmup_and_shadow_bank():
    _assert_parity(
        lambda: SyntheticWorkload(get_profile("gcc"), seed=7),
        FOUR_WIDE,
        warmup=200,
        shadow=(64, 256),
    )


@requires_native
def test_emulator_feed_parity():
    """A plain generator feed (read through a private stream) is bit-exact."""
    program = kernel_program("pointer_chase")
    _assert_parity(lambda: EmulatorFeed(program, name="pointer_chase"), FOUR_WIDE)


@requires_native
def test_replay_feed_decoded_columns_parity():
    """A materialized ReplayFeed (one cached stream) matches the reference too."""
    workload = SyntheticWorkload(get_profile("vortex"), seed=5)
    feed = ReplayFeed.from_stream(workload, 1_600)
    feed.columns()
    _assert_parity(lambda: feed_copy(feed), FOUR_WIDE)


def feed_copy(feed):
    """Fresh ReplayFeed over the same ops (processors consume feeds once)."""
    clone = ReplayFeed(
        feed.ops, name=feed.name, pc_address=getattr(feed, "pc_address", None)
    )
    clone.columns()
    return clone


@requires_native
def test_native_backend_is_single_run():
    workload = SyntheticWorkload(get_profile("gzip"), seed=3)
    processor = make_processor(workload, FOUR_WIDE, backend="native")
    processor.run(max_insts=300, warmup=0)
    with pytest.raises(Exception, match="single-run"):
        processor.run(max_insts=300, warmup=0)


@requires_native
def test_cross_backend_fuzz_smoke():
    """A short python-vs-native fuzz session through the real orchestration."""
    from repro.verify.fuzz import config_matrix, run_fuzz

    report = run_fuzz(
        3,
        seed=11,
        configs=config_matrix(names=["base", "tag-elim+sel"]),
        cross_backend=True,
    )
    assert report.ok, report.summary()
    assert report.checked == 3 * 3  # 3 programs x (base x2 recoveries + 1)
    assert report.backends == ("python", "native")
    assert "[cross-backend: python vs native]" in report.summary()


def test_cross_backend_fuzz_without_native_fails_loudly(monkeypatch):
    """With no compiled extension the gate fails in one line, never passes."""
    import repro.verify.fuzz as fuzz_mod
    from repro.errors import ConfigurationError
    from repro.verify.fuzz import run_fuzz

    monkeypatch.setattr(fuzz_mod, "native_available", lambda: False)
    with pytest.raises(ConfigurationError) as excinfo:
        run_fuzz(1, seed=11, cross_backend=True)
    message = str(excinfo.value)
    assert "\n" not in message
    assert "python with native" in message and "compiled extension" in message


@requires_native
def test_runner_serves_both_backends_identically(monkeypatch):
    """REPRO_BACKEND flows through the runner; stats stay bit-identical."""
    from repro.analysis.runner import ExperimentRunner

    payloads = {}
    for choice in ("python", "native"):
        monkeypatch.setenv("REPRO_BACKEND", choice)
        runner = ExperimentRunner(
            insts=800, warmup=200, seed=3, benchmarks=("gzip",), cache=False
        )
        result = runner.result("gzip", FOUR_WIDE)
        payloads[choice] = json.dumps(serialize_result(result), sort_keys=True)
    assert payloads["python"] == payloads["native"]
