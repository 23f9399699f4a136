"""Set-associative cache model with true-LRU replacement.

The model tracks tags only (no data), which is all a timing simulator needs.
LRU is implemented with per-set ordered dictionaries: a hit moves the line to
the MRU position, a fill evicts the LRU line.  A set's dictionary is created
on its first access, so building a cache costs nothing per set (the native
backend keeps its own cache state and only reads the geometry and counters).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int

    def __post_init__(self):
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ConfigurationError(f"{self.name}: non-positive cache parameter")
        if not _is_power_of_two(self.line_bytes):
            raise ConfigurationError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line = {self.associativity * self.line_bytes}"
            )
        if not _is_power_of_two(self.num_sets):
            raise ConfigurationError(f"{self.name}: set count must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = 0


class Cache:
    """One level of set-associative cache with LRU replacement."""

    __slots__ = ("config", "stats", "_line_shift", "_set_mask", "_sets")

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._sets: list[OrderedDict[int, bool] | None] = [None] * config.num_sets

    # ------------------------------------------------------------------
    def line_address(self, addr: int) -> int:
        """Align *addr* down to its cache-line address."""
        return (addr >> self._line_shift) << self._line_shift

    def _locate(self, addr: int) -> tuple[OrderedDict, int]:
        line = addr >> self._line_shift
        cache_set = self._sets[line & self._set_mask]
        if cache_set is None:
            cache_set = self._sets[line & self._set_mask] = OrderedDict()
        return cache_set, line

    # ------------------------------------------------------------------
    def access(self, addr: int, write: bool = False) -> bool:
        """Look up *addr*; fill on miss.  Returns True on a hit."""
        cache_set, tag = self._locate(addr)
        self.stats.accesses += 1
        if tag in cache_set:
            self.stats.hits += 1
            cache_set.move_to_end(tag)
            if write:
                cache_set[tag] = True
            return True
        self.stats.misses += 1
        self._fill(cache_set, tag, dirty=write)
        return False

    def probe(self, addr: int) -> bool:
        """Check residency of *addr* without updating LRU or statistics."""
        cache_set, tag = self._locate(addr)
        return tag in cache_set

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding *addr*; returns True if it was present."""
        cache_set, tag = self._locate(addr)
        return cache_set.pop(tag, None) is not None

    def flush(self) -> None:
        """Empty the cache (statistics are preserved)."""
        self._sets = [None] * len(self._sets)

    # ------------------------------------------------------------------
    def _fill(self, cache_set: OrderedDict, tag: int, dirty: bool) -> None:
        if len(cache_set) >= self.config.associativity:
            cache_set.popitem(last=False)
            self.stats.evictions += 1
        cache_set[tag] = dirty

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently in the cache."""
        return sum(len(cache_set) for cache_set in self._sets if cache_set)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        cfg = self.config
        return (
            f"Cache({cfg.name}: {cfg.size_bytes}B {cfg.associativity}-way "
            f"{cfg.line_bytes}B lines)"
        )
