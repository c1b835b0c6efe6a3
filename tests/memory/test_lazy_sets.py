"""Differential test: lazily allocated cache sets vs an eager reference.

``SetAssociativeCache`` creates a set on its first fill.  The reference
below allocates every set up front, as the cache used to, and drives the
same replacement policy through the same calls; any random operation
sequence must give identical return values, evictions, statistics,
occupancy and resident-line order.  Probes and misses must create no set.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.memory import CacheConfig, CacheStats, SetAssociativeCache
from repro.memory.replacement import make_policy


class EagerCache:
    """Reference cache: one way list per set, allocated at construction."""

    def __init__(self, config, rng_seed=1):
        self.config = config
        self.policy = make_policy(config.replacement, seed=rng_seed)
        self.sets = [OrderedDict() for _ in range(config.n_sets)]
        self.shift = (config.line_bytes - 1).bit_length()
        self.stats = CacheStats()

    def _set_and_tag(self, addr):
        tag = addr >> self.shift
        return self.sets[tag % self.config.n_sets], tag

    def probe(self, addr):
        ways, tag = self._set_and_tag(addr)
        return tag in ways

    def lookup(self, addr, update=True):
        ways, tag = self._set_and_tag(addr)
        if tag in ways:
            if update:
                self.policy.on_hit(ways, tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, addr):
        ways, tag = self._set_and_tag(addr)
        if tag in ways:
            self.policy.on_hit(ways, tag)
            return None
        evicted = None
        if len(ways) >= self.config.assoc:
            victim = self.policy.victim(ways)
            del ways[victim]
            evicted = victim << self.shift
            self.stats.evictions += 1
        self.policy.on_fill(ways, tag)
        self.stats.fills += 1
        return evicted

    def invalidate(self, addr):
        ways, tag = self._set_and_tag(addr)
        if tag in ways:
            del ways[tag]
            self.stats.invalidations += 1
            return True
        return False

    def reset(self):
        for ways in self.sets:
            ways.clear()
        self.stats = CacheStats()

    def occupancy(self):
        return sum(len(ways) for ways in self.sets)

    def resident_lines(self):
        return [tag << self.shift for ways in self.sets for tag in ways]

    def ways_by_set(self):
        return [list(ways) for ways in self.sets]


#: 8 sets x 2 ways of 64-byte lines; lines 0..47 cover every set 6 times
#: over, so fills conflict and evict.
CONFIG = dict(size_bytes=1024, assoc=2, line_bytes=64)
N_LINES = 48

OPS = st.lists(
    st.tuples(st.sampled_from(["fill", "lookup", "lookup-no-update", "probe",
                               "invalidate", "reset"]),
              st.integers(min_value=0, max_value=N_LINES - 1),
              st.integers(min_value=0, max_value=63)),
    max_size=120)


def apply(cache, op, addr):
    if op == "fill":
        return cache.fill(addr)
    if op == "lookup":
        return cache.lookup(addr)
    if op == "lookup-no-update":
        return cache.lookup(addr, update=False)
    if op == "probe":
        return cache.probe(addr)
    if op == "invalidate":
        return cache.invalidate(addr)
    return cache.reset()


@given(OPS, st.sampled_from(["lru", "fifo", "random"]),
       st.integers(min_value=0, max_value=2 ** 64 - 1))
@settings(max_examples=150, deadline=None)
def test_lazy_sets_match_eager_reference(ops, policy, seed):
    config = CacheConfig("diff", replacement=policy, **CONFIG)
    lazy = SetAssociativeCache(config, rng_seed=seed)
    eager = EagerCache(config, rng_seed=seed)
    for op, line, offset in ops:
        addr = line * config.line_bytes + offset
        allocated = lazy.allocated_sets()
        was_present = lazy.probe(addr)
        assert apply(lazy, op, addr) == apply(eager, op, addr), (op, addr)
        assert lazy.stats == eager.stats
        assert lazy.occupancy() == eager.occupancy()
        assert lazy.resident_lines() == eager.resident_lines()
        assert lazy.ways_by_set() == eager.ways_by_set()
        if op == "reset":
            assert lazy.allocated_sets() == 0
        elif op != "fill" or was_present:
            # Probes, lookups, invalidations and fills that hit never
            # allocate a set.
            assert lazy.allocated_sets() == allocated, (op, addr)
        else:
            assert lazy.allocated_sets() <= allocated + 1


def test_probe_and_miss_create_no_set():
    cache = SetAssociativeCache(CacheConfig("diff", **CONFIG))
    for line in range(N_LINES):
        addr = line * 64
        assert not cache.probe(addr)
        assert not cache.lookup(addr)
        assert not cache.lookup(addr, update=False)
        assert not cache.invalidate(addr)
    assert cache.allocated_sets() == 0
    assert cache.ways_by_set() == [[] for _ in range(cache.config.n_sets)]
    assert cache.stats.misses == 2 * N_LINES
    cache.fill(0x40)
    assert cache.allocated_sets() == 1


def test_paper_l3_allocates_only_touched_sets():
    cache = SetAssociativeCache(CacheConfig("L3", 4 << 20, 8, latency=32))
    assert cache.config.n_sets == 8192
    assert cache.allocated_sets() == 0
    for line in range(20):
        cache.fill(line * 64)
    assert cache.allocated_sets() == 20
    assert cache.occupancy() == 20
