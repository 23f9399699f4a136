"""Tests for branch direction predictors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.frontend.direction import (
    BimodalPredictor,
    CombinedPredictor,
    GSharePredictor,
)


class TestCounterTables:
    """The flat 2-bit saturating-counter tables behind every predictor."""

    def test_initial_weakly_taken(self):
        for predictor in (BimodalPredictor(64), GSharePredictor(64, 4)):
            assert set(predictor._table) == {2}
            assert predictor.predict(5) is True
        assert set(CombinedPredictor(64, 64, 64)._selector) == {2}

    def test_saturates_high(self):
        predictor = BimodalPredictor(64)
        for _ in range(10):
            predictor.update(9, True)
        assert predictor._table[9] == 3

    def test_saturates_low(self):
        predictor = BimodalPredictor(64)
        for _ in range(10):
            predictor.update(9, False)
        assert predictor._table[9] == 0

    def test_predict_threshold(self):
        predictor = BimodalPredictor(64)
        predictor.update(9, False)
        assert predictor._table[9] == 1
        assert predictor.predict(9) is False
        predictor.update(9, True)
        assert predictor.predict(9) is True

    def test_train(self):
        predictor = BimodalPredictor(64)
        for _ in range(2):
            predictor.update(9, False)
        predictor.update(9, True)
        predictor.update(9, True)
        assert predictor.predict(9) is True

    def test_zero_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            BimodalPredictor(64, bits=0)
        with pytest.raises(ConfigurationError):
            GSharePredictor(64, bits=0)

    def test_hysteresis(self):
        """A strong counter survives one contrary outcome."""
        predictor = BimodalPredictor(64)
        predictor.update(9, True)
        predictor.update(9, False)
        assert predictor.predict(9) is True

    def test_only_the_indexed_counter_moves(self):
        predictor = BimodalPredictor(64)
        predictor.update(9, False)
        assert [i for i, v in enumerate(predictor._table) if v != 2] == [9]

    def test_selector_trains_only_on_disagreement(self):
        combined = CombinedPredictor(64, 64, 64, history_bits=4)
        # Both components start weakly taken: they agree, so a taken
        # outcome leaves the selector alone.
        combined.update(3, True)
        assert combined._selector[3] == 2
        # Drive bimodal to not-taken while gshare (history now 0b1) is
        # still weakly taken at its new index: they disagree, and the
        # selector moves toward the component that was right.
        combined.bimodal._table[3] = 0
        assert combined.bimodal.predict(3) is False
        assert combined.gshare.predict(3) is True
        combined.update(3, True)
        assert combined._selector[3] == 3
        combined.bimodal._table[3] = 0
        combined.gshare._table[(3 ^ combined.gshare.history) & 63] = 3
        combined.update(3, False)
        assert combined._selector[3] == 2

    def test_gshare_history_shifts_after_training(self):
        """The counter trained is the one the *old* history indexed."""
        predictor = GSharePredictor(64, history_bits=4)
        predictor.update(1, True)
        assert predictor.history == 0b1
        assert predictor._table[1] == 3  # index 1 ^ 0, trained before the shift
        predictor.update(1, False)
        assert predictor.history == 0b10
        assert predictor._table[1 ^ 0b1] == 1  # old history 0b1 indexed it
        assert predictor._table[1] == 3


class TestBimodal:
    def test_learns_always_taken(self):
        predictor = BimodalPredictor(128)
        for _ in range(4):
            predictor.update(100, True)
        assert predictor.predict(100) is True

    def test_learns_never_taken(self):
        predictor = BimodalPredictor(128)
        for _ in range(4):
            predictor.update(100, False)
        assert predictor.predict(100) is False

    def test_aliasing_wraps_by_table_size(self):
        predictor = BimodalPredictor(128)
        for _ in range(4):
            predictor.update(0, False)
        assert predictor.predict(128) is False  # aliases to index 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            BimodalPredictor(100)


class TestGShare:
    def test_learns_alternating_pattern(self):
        """gshare disambiguates T/N alternation through history."""
        predictor = GSharePredictor(1024, history_bits=8)
        outcome = True
        correct = 0
        total = 400
        for step in range(total):
            if predictor.predict(500) == outcome:
                correct += 1
            predictor.update(500, outcome)
            outcome = not outcome
        # After warmup the pattern should be predicted nearly perfectly;
        # a bimodal predictor would sit near 50%.
        assert correct / total > 0.9

    def test_history_updates(self):
        predictor = GSharePredictor(256, history_bits=4)
        predictor.update(0, True)
        predictor.update(0, False)
        assert predictor.history == 0b10


class TestCombined:
    def test_beats_components_on_mixed_workload(self):
        """Selector learns to route each branch to its better component."""
        combined = CombinedPredictor(1024, 1024, 1024, history_bits=8)
        # Branch A: strongly biased (bimodal-friendly).
        # Branch B: alternating (gshare-friendly).
        correct = 0
        total = 0
        outcome_b = True
        for step in range(600):
            for pc, outcome in ((40, True), (80, outcome_b)):
                if step > 200:  # measure after warmup
                    correct += combined.predict(pc) == outcome
                    total += 1
                combined.update(pc, outcome)
            outcome_b = not outcome_b
        assert correct / total > 0.9

    def test_biased_branch(self):
        combined = CombinedPredictor(256, 256, 256)
        for _ in range(10):
            combined.update(7, True)
        assert combined.predict(7) is True


class TestPredictorProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4095), st.booleans()), max_size=200))
    def test_predict_never_crashes_and_is_boolean(self, stream):
        predictor = CombinedPredictor(256, 256, 256)
        for pc, taken in stream:
            assert isinstance(predictor.predict(pc), bool)
            predictor.update(pc, taken)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1 << 40))
    def test_large_pcs_are_masked(self, pc):
        predictor = BimodalPredictor(64)
        predictor.update(pc, True)
        assert isinstance(predictor.predict(pc), bool)
