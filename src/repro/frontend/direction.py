"""Branch direction predictors: bimodal, gshare and a combined selector.

All predictors follow the same two-call protocol::

    taken = predictor.predict(pc)
    ...                       # later, when the branch resolves
    predictor.update(pc, actual_taken)

Every table is a flat list of n-bit saturating counters (plain ints, the
idiom of :class:`repro.core.last_arrival.LastArrivalPredictor`): a
counter starts weakly taken, predicts taken in the upper half of its
range and saturates at 0 and ``2**bits - 1``.

The combined predictor (McFarling-style, as shipped in the Alpha 21264 and
SimpleScalar) keeps both component predictions from the most recent
``predict`` internally so that ``update`` can train the selector.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def _counter_table(entries: int, bits: int, what: str) -> tuple[list[int], int, int]:
    """A weakly-taken counter table, its maximum and its taken threshold."""
    if entries <= 0 or entries & (entries - 1):
        raise ConfigurationError(f"{what} table size must be a power of two")
    if bits < 1:
        raise ConfigurationError("counter needs at least one bit")
    maximum = (1 << bits) - 1
    mid = maximum // 2
    return [mid + 1] * entries, maximum, mid


def _train(table: list[int], index: int, maximum: int, up: bool) -> None:
    value = table[index]
    if up:
        if value < maximum:
            table[index] = value + 1
    elif value > 0:
        table[index] = value - 1


class BimodalPredictor:
    """PC-indexed table of 2-bit saturating counters."""

    def __init__(self, entries: int = 4096, bits: int = 2):
        self._table, self._max, self._mid = _counter_table(entries, bits, "bimodal")
        self.entries = entries
        self._mask = entries - 1

    def predict(self, pc: int) -> bool:
        return self._table[pc & self._mask] > self._mid

    def update(self, pc: int, taken: bool) -> None:
        _train(self._table, pc & self._mask, self._max, taken)


class GSharePredictor:
    """Global-history predictor: PC XOR history indexes a counter table."""

    def __init__(self, entries: int = 4096, history_bits: int = 12, bits: int = 2):
        self._table, self._max, self._mid = _counter_table(entries, bits, "gshare")
        self.entries = entries
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        self.history = 0

    def predict(self, pc: int) -> bool:
        return self._table[(pc ^ self.history) & self._mask] > self._mid

    def update(self, pc: int, taken: bool) -> None:
        """Train the counter, then shift the outcome into the history."""
        _train(self._table, (pc ^ self.history) & self._mask, self._max, taken)
        self.history = ((self.history << 1) | int(taken)) & self._history_mask


class CombinedPredictor:
    """McFarling combined predictor: bimodal + gshare + selector.

    The selector is a table of 2-bit counters indexed by PC; high values
    favour the gshare component.  It trains only when the two components
    disagree.
    """

    def __init__(
        self,
        bimodal_entries: int = 4096,
        gshare_entries: int = 4096,
        selector_entries: int = 4096,
        history_bits: int = 12,
    ):
        self._selector, self._selector_max, self._selector_mid = _counter_table(
            selector_entries, 2, "selector"
        )
        self._selector_mask = selector_entries - 1
        self.bimodal = BimodalPredictor(bimodal_entries)
        self.gshare = GSharePredictor(gshare_entries, history_bits)

    def predict(self, pc: int) -> bool:
        if self._selector[pc & self._selector_mask] > self._selector_mid:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        bimodal_said = self.bimodal.predict(pc)
        gshare_said = self.gshare.predict(pc)
        if bimodal_said != gshare_said:
            _train(
                self._selector,
                pc & self._selector_mask,
                self._selector_max,
                gshare_said == taken,
            )
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)
