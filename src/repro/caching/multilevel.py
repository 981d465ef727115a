"""Multi-level cache hierarchies.

Models the paper's Section 4.3 topology: a client cache stands between
the workload and the server cache, so the server only observes — and
can only learn from — the client's miss stream.  The hierarchy is
policy-agnostic at both levels; the aggregating server cache plugs in
through the same interface as LRU/LFU (see
:class:`repro.core.aggregating_cache.AggregatingServerCache`).

Replays run *level by level*: each level turns its whole input stream
into its miss stream in one tight pass (:func:`_level_misses`), and that
miss stream feeds the next level.  This is exact because a level's
state depends only on the keys it is shown, in order — interleaving
the levels per event changes nothing any level can observe.  Where
that premise could fail, :func:`_level_by_level_ok` keeps the
interleaved per-event loop: collection on (registry and flight-recorder
order), an eviction listener that could watch the other levels, state
shared between levels (a successor tracker, a random generator, the
same cache object twice), or a level type outside the known policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..obs import registry as _obs
from .base import Cache, CacheStats, NullCache
from .lru import LRUCache
from .random_cache import RandomCache


def _level_by_level_ok(levels: Sequence[Cache]) -> bool:
    """Whether replaying ``levels`` one at a time matches the per-event loop.

    Level types are checked by exact type (a subclass may override
    anything): the ``repro.caching`` policies, :class:`NullCache`, and
    the aggregating server cache, whose state depends only on the keys
    they are shown.  Both are imported at call time: the package and
    the aggregating cache module are still initialising when this
    module is first imported.
    """
    if _obs.ENABLED:
        return False
    from ..core.aggregating_cache import AggregatingServerCache
    from . import POLICIES

    isolated = {NullCache, *POLICIES.values()}
    shared = set()
    for level in levels:
        kind = type(level)
        if kind is AggregatingServerCache:
            if level._cache.evict_listener is not None:
                return False
            state = level.tracker
        elif kind not in isolated:
            return False
        elif kind is LRUCache and level.evict_listener is not None:
            return False
        elif kind is RandomCache:
            state = level._rng
        else:
            state = None
        for owned in (level, state):
            if owned is None:
                continue
            if id(owned) in shared:
                return False
            shared.add(id(owned))
    return True


def _level_misses(cache: Cache, stream: Sequence[str]) -> Sequence[str]:
    """Replay ``stream`` through one level; return its misses, in order."""
    from ..core.aggregating_cache import AggregatingServerCache

    kind = type(cache)
    if kind is NullCache:
        stream = list(stream)
        cache.stats.misses += len(stream)
        return stream
    if kind is LRUCache or kind is AggregatingServerCache:
        return cache.replay_misses(stream)
    access = cache.access
    return [key for key in stream if not access(key)]


def _replay(levels: Sequence[Cache], sequence: Sequence[str], access) -> None:
    """Level by level when that is exact, else ``access(key)`` per key."""
    if _level_by_level_ok(levels):
        for level in levels:
            sequence = _level_misses(level, sequence)
    else:
        for key in sequence:
            access(key)


@dataclass
class HierarchyResult:
    """Outcome of replaying a trace through a two-level hierarchy."""

    client_stats: CacheStats
    server_stats: CacheStats
    #: Demand accesses that reached the server (== client misses).
    server_requests: int

    @property
    def client_hit_rate(self) -> float:
        """Hit rate observed at the client cache."""
        return self.client_stats.hit_rate

    @property
    def server_hit_rate(self) -> float:
        """Hit rate observed at the server cache, over server requests."""
        return self.server_stats.hit_rate

    @property
    def end_to_end_hit_rate(self) -> float:
        """Fraction of workload accesses absorbed before the backing store."""
        accesses = self.client_stats.accesses
        if not accesses:
            return 0.0
        store_fetches = self.server_stats.misses
        return 1.0 - (store_fetches / accesses)


class TwoLevelHierarchy:
    """A client cache in front of a server cache.

    Every workload access first consults the client cache; only misses
    are forwarded to the server cache, exactly reproducing the filtering
    effect the paper studies.  Pass ``client=None`` (or a
    :class:`NullCache`) to expose the server to the raw stream.
    """

    def __init__(self, client: Optional[Cache], server: Cache):
        self.client = client if client is not None else NullCache()
        self.server = server

    def access(self, key: str) -> bool:
        """Issue one demand access; returns True if any level hit."""
        if self.client.access(key):
            return True
        self.server.access(key)
        return False

    def replay(self, sequence: Sequence[str]) -> HierarchyResult:
        """Drive the hierarchy with a full access sequence.

        Level by level when that is exact (see the module docstring),
        otherwise one interleaved :meth:`access` per key; the results
        are identical either way.
        """
        _replay((self.client, self.server), sequence, self.access)
        return self.result()

    def result(self) -> HierarchyResult:
        """Snapshot the hierarchy's statistics."""
        return HierarchyResult(
            client_stats=self.client.stats.snapshot(),
            server_stats=self.server.stats.snapshot(),
            server_requests=self.server.stats.accesses,
        )


class MultiLevelHierarchy:
    """An arbitrary-depth stack of caches (level 0 is nearest the client).

    Generalizes :class:`TwoLevelHierarchy` for the extension experiments
    on deeper storage hierarchies (client memory → client disk → server
    memory), each level seeing only the miss stream of the level above.
    """

    def __init__(self, levels: Sequence[Cache]):
        if not levels:
            raise ValueError("a hierarchy needs at least one cache level")
        self.levels: List[Cache] = list(levels)

    def access(self, key: str) -> int:
        """Issue one access; returns the level index that hit, or -1.

        A return of ``-1`` means every level missed and the backing
        store served the request.
        """
        for index, level in enumerate(self.levels):
            if level.access(key):
                return index
        return -1

    def replay(self, sequence: Sequence[str]) -> List[CacheStats]:
        """Drive the stack with a full sequence; returns per-level stats.

        Level by level when that is exact, as for
        :meth:`TwoLevelHierarchy.replay`.
        """
        _replay(self.levels, sequence, self.access)
        return [level.stats.snapshot() for level in self.levels]
