"""Set-associative cache (tags and recency only).

The simulator keeps a single coherent value store (main memory, updated at
commit); caches track *presence* and *recency*, which is what all the
timing — and the entire covert channel — depends on.  A line is either
present in a cache level or not; ``clflush`` removes it from every level.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .replacement import make_policy


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    ``latency`` is the lookup latency charged when this level is reached;
    total access latency is the sum of latencies along the walk, as in
    Table 1 of the paper (L1 2, L2 8, L3 32, memory 200).
    """

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    latency: int = 2
    replacement: str = "lru"

    def __post_init__(self):
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError(
                f"{self.name}: size must be a multiple of assoc * line size")

    @property
    def n_sets(self):
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def n_lines(self):
        return self.size_bytes // self.line_bytes


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        total = self.accesses
        return self.misses / total if total else 0.0


class SetAssociativeCache:
    """One level of set-associative cache with pluggable replacement.

    Sets are allocated on their first fill: ``_sets`` maps set index to
    that set's way list and holds only sets that were ever filled (since
    the last :meth:`reset`).  A short trial touches a few dozen of the
    paper L3's 8,192 sets, so building a machine costs what the trial
    touches, not what the geometry models.  ``probe``, ``lookup`` and
    ``invalidate`` treat an absent set exactly as an empty one and never
    create it, and the replacement policy sees the same call sequence as
    with every set allocated up front.
    """

    def __init__(self, config: CacheConfig, rng_seed=1):
        self.config = config
        self._policy = make_policy(config.replacement, seed=rng_seed)
        self._sets = {}
        self._set_shift = (config.line_bytes - 1).bit_length()
        self._set_mask = config.n_sets - 1
        if config.n_sets & self._set_mask:
            raise ValueError(f"{config.name}: set count must be a power of 2")
        self.stats = CacheStats()

    # -- address mapping -------------------------------------------------------

    def line_of(self, addr):
        """Return the line (block-aligned) address containing ``addr``."""
        return addr & ~(self.config.line_bytes - 1)

    def _set_and_tag(self, addr):
        """Return (way list, tag); an absent set reads as the empty ``()``."""
        line = addr >> self._set_shift
        return self._sets.get(line & self._set_mask, ()), line

    # -- operations --------------------------------------------------------------

    def probe(self, addr):
        """Presence check with no side effects (no recency update, no stats)."""
        ways, tag = self._set_and_tag(addr)
        return tag in ways

    def lookup(self, addr, update=True):
        """Return True on hit.  Updates recency and hit/miss statistics.

        ``update=False`` suppresses the recency update (used to keep
        runahead-mode hits from perturbing replacement state when modeling
        stealth variants) but still counts statistics.
        """
        ways, tag = self._set_and_tag(addr)
        if tag in ways:
            if update:
                self._policy.on_hit(ways, tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, addr):
        """Insert the line holding ``addr``; returns the evicted line or None."""
        tag = addr >> self._set_shift
        index = tag & self._set_mask
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = OrderedDict()
        elif tag in ways:
            self._policy.on_hit(ways, tag)
            return None
        evicted = None
        if len(ways) >= self.config.assoc:
            victim = self._policy.victim(ways)
            del ways[victim]
            evicted = victim << self._set_shift
            self.stats.evictions += 1
        self._policy.on_fill(ways, tag)
        self.stats.fills += 1
        return evicted

    def invalidate(self, addr):
        """Remove the line holding ``addr``; returns True if it was present."""
        ways, tag = self._set_and_tag(addr)
        if tag in ways:
            del ways[tag]
            self.stats.invalidations += 1
            return True
        return False

    def occupancy(self):
        """Total number of resident lines."""
        return sum(len(ways) for ways in self._sets.values())

    def resident_lines(self):
        """Return all resident line addresses in set-index order (for tests
        and analysis)."""
        lines = []
        for index in sorted(self._sets):
            lines.extend(tag << self._set_shift for tag in self._sets[index])
        return lines

    def ways_by_set(self):
        """Every set's tags in recency order (eviction candidate first),
        indexed by set; a set never filled is an empty list."""
        return [list(self._sets.get(index, ()))
                for index in range(self.config.n_sets)]

    def allocated_sets(self):
        """How many sets have been allocated (filled at least once since the
        last :meth:`reset`); probes, lookups and invalidations add none."""
        return len(self._sets)

    def reset(self):
        """Drop all contents and statistics."""
        self._sets.clear()
        self.stats = CacheStats()
