"""The aggregating cache (paper Section 3, evaluated in Sections 4.2-4.3).

Two deployments of the same idea:

* :class:`AggregatingClientCache` — the client-side configuration of
  Figure 2/Figure 3.  The client's cache manager replaces each demand
  fetch with a *group* fetch: the server (which holds the relationship
  metadata, fed by access statistics piggy-backed on client requests)
  returns the demanded file plus up to ``g-1`` predicted companions.
  "Upon receiving a group of g files, the client uses LRU replacement
  for its cache, placing the requested file at the head of its list,
  with the remaining members of the group appended to the end."
* :class:`AggregatingServerCache` — the server-side configuration of
  Figure 4, with *no client cooperation*: the server sees only the miss
  stream of an intervening client cache, builds its successor metadata
  from that filtered stream, and still fetches groups from server
  storage on each of its own misses.  It implements the standard
  :class:`~repro.caching.base.Cache` interface so it drops into
  :class:`~repro.caching.multilevel.TwoLevelHierarchy` beside LRU/LFU.

Thread-safety audit (for the ``repro serve`` daemon)
----------------------------------------------------
These classes are **not** thread-safe, deliberately.  Every structure
on the access path is unsynchronized CPython dict machinery mutated
mid-operation: the LRU ``OrderedDict`` (``move_to_end`` during
lookup), the per-file :class:`~repro.core.successors.LRUSuccessorList`
orders, the tracker's ``_previous`` transition cursor, and the plain
integer counters on :class:`~repro.caching.base.CacheStats` and
:class:`GroupFetchLog` (``+=`` is a read-modify-write, droppable under
interleaving).  One ``access()`` call touches all four in sequence, so
there is no linearization point short of the whole call — per-field
locks would still produce torn hit/miss accounting and corrupt
eviction order.

Adding internal locks here would tax the replay fast paths (millions
of uncontended acquisitions per figure) to benefit only the one
concurrent deployment, so the concurrency boundary lives with the
owner instead: :class:`repro.serve.server.CacheDaemon` serializes
every cache touch — accesses, invalidations, and stats snapshots —
under a single lock (a single-writer design; batches amortize the
acquisition).  Any future concurrent embedder must do the same:
hold one lock across the *entire* ``access()``/``invalidate()``
call plus whatever counter reads must be consistent with it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..caching.base import Cache, CacheStats
from ..caching.lru import LRUCache, record_lru_counters
from ..obs import registry as _obs
from ..obs import tracing as _tracing
from ..traces.symbols import intern_sequence
from .grouping import GroupBuilder, build_group_fast
from .successors import LRUSuccessorList, SuccessorTracker


@dataclass
class GroupFetchLog:
    """Aggregate accounting of group retrieval activity.

    ``group_fetches`` equals demand misses (every miss triggers exactly
    one group request); ``files_retrieved`` counts every file shipped,
    demanded or predicted; ``predicted_installed`` counts predicted
    companions that were actually new to the cache (already-resident
    companions are not shipped twice).

    ``max_records`` optionally keeps per-fetch ``(demanded, size,
    installed)`` detail records, bounded to the newest ``max_records``
    entries so long replays never accumulate one record per group fetch
    unbounded.  The aggregate counters above — and therefore the
    count and :attr:`mean_group_size` summary — stay exact however
    many records have been discarded.
    """

    group_fetches: int = 0
    files_retrieved: int = 0
    predicted_installed: int = 0
    max_records: int = 0
    records: Optional[deque] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.max_records < 0:
            raise ValueError(
                f"max_records must be >= 0, got {self.max_records}"
            )
        if self.max_records and self.records is None:
            self.records = deque(maxlen=self.max_records)

    def record(self, demanded: str, size: int, installed: int) -> None:
        """Keep one per-fetch detail record (only when bounded keeping
        is enabled); the oldest record is dropped once full."""
        if self.records is not None:
            self.records.append((demanded, size, installed))

    @property
    def mean_group_size(self) -> float:
        """Average files shipped per group fetch (exact, never sampled)."""
        if not self.group_fetches:
            return 0.0
        return self.files_retrieved / self.group_fetches


def fused_loop_ok(owner) -> bool:
    """Whether :func:`replay_groups` reproduces ``owner``'s access path.

    The one predicate both aggregating caches build their fast-path
    check on.  The fused loop hard-codes LRU successor lists and the
    stock group builder, so alternative policies and builders take the
    per-event path.  So do replays that need per-event visibility: an
    active flight recorder, or per-fetch ``GroupFetchLog`` records (the
    fused loop batches its accounting and would emit neither).
    """
    tracker = owner.tracker
    builder = owner.builder
    return (
        not (_obs.ENABLED and _tracing.ACTIVE is not None)
        and owner.fetch_log.records is None
        and type(tracker) is SuccessorTracker
        and tracker.policy == "lru"
        and type(builder) is GroupBuilder
        and builder.tracker is tracker
        and builder.group_size == owner.group_size
        and all(type(slist) is LRUSuccessorList for slist in tracker._lists.values())
    )


def replay_groups(
    owner, sequence: Iterable, prev, observe_group=None, observe_chain=None
) -> Tuple[List, int]:
    """The fused aggregating loop over one cache's raw state.

    Per event: observe the transition from ``prev`` on the owner's
    tracker, then an LRU demand access on its inner cache; on a miss,
    build the group and install the companions at the LRU tail.  That
    is :meth:`AggregatingClientCache.access` and (with
    ``observe_requests``) :meth:`AggregatingServerCache.access`
    count-for-count, as one loop over the raw dicts; hit counts are
    batched into the stats once per replay instead of once per event.
    Callers check :func:`fused_loop_ok` first.

    ``prev`` is the tracker's previous key in the sequence's key space
    (the client's interned replays pass it interned).  The optional
    ``observe_*`` callables receive every group's size.  Returns the
    demand misses in order (the stream a cache behind this one sees)
    and the number of singleton groups built, counted only when
    ``observe_group`` is given.
    """
    tracker = owner.tracker
    cache = owner._cache
    order = cache._order
    listener = cache.evict_listener
    capacity = cache.capacity
    stats = cache.stats
    lists = tracker._lists
    lists_get = lists.get
    successor_capacity = tracker.capacity
    group_size = owner.group_size
    install = cache.install_group_at_tail_fast
    misses: List = []
    record_miss = misses.append
    hits = evictions = singleton_builds = 0
    files_retrieved = predicted_installed = 0
    for file_id in sequence:
        if prev is not None:
            slist = lists_get(prev)
            if slist is None:
                slist = LRUSuccessorList(successor_capacity)
                slist._items = [file_id]
                lists[prev] = slist
            else:
                items = slist._items
                if items[0] != file_id:
                    try:
                        items.remove(file_id)
                    except ValueError:
                        if len(items) >= successor_capacity:
                            items.pop()
                    items.insert(0, file_id)
        prev = file_id
        if file_id in order:
            order.move_to_end(file_id)
            hits += 1
            continue
        record_miss(file_id)
        while len(order) >= capacity:
            victim, _value = order.popitem(last=False)
            if listener is not None:
                listener(victim)
            evictions += 1
        order[file_id] = None
        members = build_group_fast(lists_get, group_size, file_id)
        if observe_group is not None:
            observe_group(len(members))
            observe_chain(len(members))
            if len(members) == 1:
                singleton_builds += 1
        installed = install(order, members[1:], stats)
        files_retrieved += 1 + installed
        predicted_installed += installed
    if hits or misses:
        tracker._previous = prev
    stats.hits += hits
    stats.misses += len(misses)
    stats.evictions += evictions
    log = owner.fetch_log
    log.group_fetches += len(misses)
    log.files_retrieved += files_retrieved
    log.predicted_installed += predicted_installed
    return misses, singleton_builds


class AggregatingClientCache:
    """Client cache with group fetches replacing demand fetches.

    Parameters
    ----------
    capacity:
        Client cache capacity in whole files.
    group_size:
        ``g`` — the best-effort group size; 1 degenerates to plain LRU.
    successor_policy / successor_capacity:
        Management of the server-side per-file successor lists.  The
        paper's configuration is LRU lists of a small handful of
        entries.
    shared_tracker:
        Optional externally owned tracker, letting several caches (or a
        pre-trained server) share relationship metadata.
    max_fetch_records:
        When positive, the :class:`GroupFetchLog` keeps the newest
        ``max_fetch_records`` per-fetch detail records (replays then
        take the generic path so every fetch is seen).
    """

    def __init__(
        self,
        capacity: int,
        group_size: int = 5,
        successor_policy: str = "lru",
        successor_capacity: int = 8,
        shared_tracker: Optional[SuccessorTracker] = None,
        max_fetch_records: int = 0,
    ):
        self._cache = LRUCache(capacity)
        self._cache.trace_name = "client"
        self.tracker = (
            shared_tracker
            if shared_tracker is not None
            else SuccessorTracker(policy=successor_policy, capacity=successor_capacity)
        )
        self.builder = GroupBuilder(self.tracker, group_size)
        self.group_size = group_size
        self.fetch_log = GroupFetchLog(max_records=max_fetch_records)
        #: Escape hatch for tests and A/B comparisons: when False,
        #: :meth:`replay` always takes the generic per-event path even
        #: if the configuration qualifies for the fast loop.
        self.use_fast_replay = True

    @property
    def capacity(self) -> int:
        """Client cache capacity in files."""
        return self._cache.capacity

    @property
    def stats(self) -> CacheStats:
        """Demand hit/miss statistics of the client cache."""
        return self._cache.stats

    @property
    def demand_fetches(self) -> int:
        """Remote fetch requests issued — the Figure 3 y-axis.

        One per demand miss: the group is retrieved with a single
        request, which is precisely why "reducing the number of
        inter-group transitions is equivalent to reducing the total
        number of remote fetch requests" (Section 2.1).
        """
        return self._cache.stats.misses

    def access(self, file_id: str) -> bool:
        """One file open at the client; returns True on cache hit.

        The access statistic is forwarded to the (conceptual) server
        tracker unconditionally — hits included — because the client
        piggy-backs its full, unfiltered access stream (Section 3).
        """
        self.tracker.observe(file_id)
        if self._cache.access(file_id):
            return True
        # Demand miss: one group request to the server.
        group = self.builder.build(file_id)
        if _obs.ENABLED:
            _obs.get_registry().histogram("client_cache.group_fetch.size").observe(
                len(group)
            )
            recorder = _tracing.ACTIVE
            if recorder is not None:
                planned, skipped = self._cache.plan_group_install(group.predicted)
                recorder.group_fetch("client", file_id, planned, skipped)
        log = self.fetch_log
        log.group_fetches += 1
        log.files_retrieved += 1  # the demanded file itself
        # The demanded file was installed at the MRU head by access();
        # companions go to the LRU tail as one batch so unconfirmed
        # predictions never outrank demand-fetched residents (and never
        # evict each other).
        installed = self._install_companions(group.predicted)
        log.files_retrieved += installed
        log.predicted_installed += installed
        if log.records is not None:
            log.record(file_id, 1 + installed, installed)
        return False

    def _install_companions(self, companions) -> int:
        """Place predicted companions; subclass hook for instrumentation."""
        return self._cache.install_group_at_tail(companions)

    def _metrics_baseline(self) -> Tuple[int, ...]:
        """Pre-replay totals used to record per-replay metric deltas."""
        stats = self._cache.stats
        log = self.fetch_log
        return (
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.installs,
            log.group_fetches,
            log.files_retrieved,
            log.predicted_installed,
        )

    def _record_replay_metrics(
        self, registry, baseline: Tuple[int, ...], transitions: Optional[int]
    ) -> None:
        """Credit this replay's deltas to the registry (collection is on).

        Both replay paths report through here, so the recorded counters
        are identical whichever loop ran; ``transitions`` is only passed
        by the fast loop (the generic path counts transitions inside
        :meth:`SuccessorTracker.observe_transition`).
        """
        stats = self._cache.stats
        log = self.fetch_log
        current = (
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.installs,
            log.group_fetches,
            log.files_retrieved,
            log.predicted_installed,
        )
        names = (
            "client_cache.hits",
            "client_cache.misses",
            "client_cache.evictions",
            "client_cache.installs",
            "client_cache.group_fetches",
            "client_cache.files_retrieved",
            "client_cache.predicted_installed",
        )
        for name, before, after in zip(names, baseline, current):
            registry.counter(name).inc(after - before)
        if transitions:
            registry.counter("successors.transitions").inc(transitions)

    def _fast_replay_ok(self) -> bool:
        """Whether :func:`replay_groups` matches this configuration.

        The fused loop bypasses the :meth:`access` /
        ``_install_companions`` hooks, so subclasses take the generic
        per-event path, as does anything :func:`fused_loop_ok` rejects.
        """
        return (
            self.use_fast_replay
            and type(self) is AggregatingClientCache
            and fused_loop_ok(self)
        )

    def _replay_fast(self, sequence: Sequence[str], intern: bool) -> CacheStats:
        """The fused loop, plus this cache's batched replay metrics.

        Count-for-count identical to the generic loop (asserted by the
        fast-path equality tests).
        """
        prev = self.tracker._previous
        if intern:
            codes, table = intern_sequence(sequence)
            if prev is not None:
                prev = table.intern(prev)
            sequence = codes
        # Metrics: read the flag once, keep the per-event loop untouched,
        # and record batched deltas after the loop.  Only the per-miss
        # group-size observation happens inline (misses are the rare
        # case, and only when collection is enabled).
        record = _obs.ENABLED
        observe_group = observe_chain = None
        if record:
            registry = _obs.get_registry()
            observe_group = registry.histogram("client_cache.group_fetch.size").observe
            observe_chain = registry.histogram("grouping.chain.length").observe
            baseline = self._metrics_baseline()
            started = time.perf_counter_ns()
        _misses, singleton_builds = replay_groups(
            self, sequence, prev, observe_group, observe_chain
        )
        stats = self._cache.stats
        if record:
            events = len(sequence)
            transitions = events - 1 if (prev is None and events) else events
            self._record_replay_metrics(registry, baseline, transitions)
            # Per-policy counters the generic path records inside the
            # inner LRU cache, as one batched delta (fast branch only —
            # the generic path already counted per event).
            record_lru_counters(
                registry,
                hits=stats.hits - baseline[0],
                misses=stats.misses - baseline[1],
                evictions=stats.evictions - baseline[2],
                installs=stats.installs - baseline[3],
            )
            if singleton_builds:
                registry.counter("grouping.build.singletons").inc(singleton_builds)
            registry.histogram("client_cache.replay.fast.ns").observe(
                time.perf_counter_ns() - started
            )
        return stats.snapshot()

    def replay(self, sequence: Sequence[str], intern: bool = False) -> CacheStats:
        """Drive the cache with a full access sequence.

        The common configuration (LRU successor lists, stock builder)
        runs a specialized inlined loop; anything else falls back to
        per-event :meth:`access` calls with identical counts.
        ``intern=True`` replays dense integer codes instead of the
        original keys — statistics are unchanged (the policy is
        key-agnostic), but post-replay residency is keyed by codes, so
        reserve it for metrics-only runs.
        """
        if self._fast_replay_ok():
            return self._replay_fast(sequence, intern)
        if intern:
            sequence, _table = intern_sequence(sequence)
        record = _obs.ENABLED
        if record:
            registry = _obs.get_registry()
            baseline = self._metrics_baseline()
            started = time.perf_counter_ns()
        access = self.access
        for file_id in sequence:
            access(file_id)
        if record:
            # Transitions were already counted per event by the tracker.
            self._record_replay_metrics(registry, baseline, None)
            registry.histogram("client_cache.replay.generic.ns").observe(
                time.perf_counter_ns() - started
            )
        return self._cache.stats.snapshot()

    def __contains__(self, file_id: str) -> bool:
        return file_id in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    def resident_files(self) -> Iterator[str]:
        """Resident files from LRU victim to MRU head."""
        return self._cache.keys()


class AggregatingServerCache(Cache):
    """Server-side aggregating cache behind an uncooperative client cache.

    Conforms to the :class:`Cache` protocol: ``access`` is called with
    the server's request stream (the client cache's misses).  Successor
    metadata is learned from that same filtered stream — "in this
    section we assume no cooperation from the intervening client
    caches" (Section 4.3).  On a server miss the demanded file plus its
    predicted group is staged from server storage into the server
    cache.
    """

    policy_name = "aggregating"

    def __init__(
        self,
        capacity: int,
        group_size: int = 5,
        successor_policy: str = "lru",
        successor_capacity: int = 8,
        shared_tracker: Optional[SuccessorTracker] = None,
        observe_requests: bool = True,
        max_fetch_records: int = 0,
    ):
        super().__init__(capacity)
        self._cache = LRUCache(capacity)
        self._cache.trace_name = "server"
        self.tracker = (
            shared_tracker
            if shared_tracker is not None
            else SuccessorTracker(policy=successor_policy, capacity=successor_capacity)
        )
        self.builder = GroupBuilder(self.tracker, group_size)
        self.group_size = group_size
        self.fetch_log = GroupFetchLog(max_records=max_fetch_records)
        # When the tracker is fed externally (cooperative clients
        # piggy-backing their full access streams), the server must not
        # double-observe its own filtered request stream.
        self.observe_requests = observe_requests
        # Share the inner cache's stats object so base-class accounting
        # and hierarchy reporting observe one source of truth.
        self.stats = self._cache.stats

    # -- Cache protocol ----------------------------------------------------
    def access(self, key: str) -> bool:
        """One server request (a client miss); returns True on server hit."""
        if self.observe_requests:
            self.tracker.observe(key)
        if self._cache.access(key):
            if _obs.ENABLED:
                _obs.get_registry().counter("server_cache.hits").inc()
            return True
        group = self.builder.build(key)
        if _obs.ENABLED:
            registry = _obs.get_registry()
            registry.counter("server_cache.misses").inc()
            registry.histogram("server_cache.group_fetch.size").observe(len(group))
            recorder = _tracing.ACTIVE
            if recorder is not None:
                planned, skipped = self._cache.plan_group_install(group.predicted)
                recorder.group_fetch("server", key, planned, skipped)
        log = self.fetch_log
        log.group_fetches += 1
        log.files_retrieved += 1
        installed = self._cache.install_group_at_tail(group.predicted)
        log.files_retrieved += installed
        log.predicted_installed += installed
        if log.records is not None:
            log.record(key, 1 + installed, installed)
        return False

    def _fast_replay_ok(self) -> bool:
        """Whether :meth:`replay_misses` may run :func:`replay_groups`.

        Only when the server learns from its own requests (the loop
        always observes), and only with collection off: the loop records
        none of :meth:`access`'s per-request metrics, so collection-on
        replays take the per-event path and count exactly as it does.
        """
        return (
            self.observe_requests
            and not _obs.ENABLED
            and type(self) is AggregatingServerCache
            and fused_loop_ok(self)
        )

    def replay_misses(self, sequence: Iterable[str]) -> List[str]:
        """Serve every request in order; return the server misses, in order.

        Count-for-count the same as calling :meth:`access` per request,
        through the fused loop when the configuration allows it.
        """
        if self._fast_replay_ok():
            return replay_groups(self, sequence, self.tracker._previous)[0]
        access = self.access
        return [key for key in sequence if not access(key)]

    def replay(self, sequence: Iterable[str]) -> CacheStats:
        """Drive the cache with a full request sequence; returns its stats."""
        self.replay_misses(sequence)
        return self.stats.snapshot()

    def _lookup(self, key: str) -> bool:  # pragma: no cover - access() overrides
        return key in self._cache

    def _admit(self, key: str) -> None:  # pragma: no cover - access() overrides
        self._cache._admit(key)

    def _evict_one(self) -> str:  # pragma: no cover - access() overrides
        return self._cache._evict_one()

    def _remove(self, key: str) -> None:
        self._cache.invalidate(key)

    def stats_dict(self) -> dict:
        """One JSON-ready snapshot of every counter this cache keeps.

        The ``repro serve`` daemon's ``/stats`` payload and Prometheus
        rendering are built from this, and ``scripts/check_serve.py``
        compares two of them (served vs journal-replayed) field by
        field — so the dict deliberately carries *derived* ratios too,
        computed from the same counters both sides hold.

        ``prefetch_efficiency`` is installed companions per offered
        companion slot (``predicted_installed / (group_fetches *
        (g - 1))``), matching the time-series definition in
        :mod:`repro.obs.timeseries`.
        """
        stats = self.stats
        log = self.fetch_log
        slots = log.group_fetches * max(self.group_size - 1, 0)
        return {
            "policy": self.policy_name,
            "capacity": self.capacity,
            "group_size": self.group_size,
            "hits": stats.hits,
            "misses": stats.misses,
            "accesses": stats.accesses,
            "hit_ratio": stats.hit_rate,
            "evictions": stats.evictions,
            "installs": stats.installs,
            "group_fetches": log.group_fetches,
            "files_retrieved": log.files_retrieved,
            "predicted_installed": log.predicted_installed,
            "mean_group_size": log.mean_group_size,
            "prefetch_efficiency": (
                log.predicted_installed / slots if slots else 0.0
            ),
            "resident": len(self),
            "metadata_entries": self.tracker.metadata_entries(),
        }

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, key: str) -> bool:
        return key in self._cache

    def keys(self) -> Iterator[str]:
        return self._cache.keys()
