"""Distributed file system replay engine (paper Figure 2).

Models the topology the paper draws: client machines with local cache
managers, a remote file server with relationship metadata and its own
cache, and server storage behind it.  Requests flow client cache →
server cache → store; group retrieval happens on the client-miss path,
with companion files riding the single demand request.

The engine is a *replay* simulator: it consumes an access sequence and
counts — no clocks, no queueing — because every metric the paper
reports (demand fetches, hit rates) is a counting metric and the paper
explicitly rejects timing as a modelling input (Section 2.2).

Replay throughput is the budget every figure spends, so
:meth:`DistributedFileSystem.replay` carries a specialized fast loop
for the common configuration (LRU successor lists, plain LRU caches,
the stock group builder, with or without write invalidation): the
per-event work of ``tracker.observe`` + ``cache.access`` +
``builder.build`` — and, under ``invalidate_on_write``, the per-file
callback breaks of :meth:`DistributedFileSystem._apply_mutation` — is
inlined over the caches' ordered dicts, eliminating the CPython call
overhead that dominates the hot path.  The loop is count-for-count
identical to the generic path — the tests assert byte-identical
:class:`SystemMetrics` and post-replay cache and successor state — and
any configuration the fast loop does not cover falls back to the
generic one.  Traces that carry integer columns (a columnar trace, or
a text trace as :func:`~repro.traces.reader.read_trace` returns it)
replay the same configurations on the array kernel of
:mod:`repro.sim.kernel`, write invalidation included, without ever
building event objects.  Passing ``intern=True`` additionally replaces
file-id strings with dense integer codes for the duration of the
replay (all policies are key-agnostic, so every counter is unchanged).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..caching.base import CacheStats
from ..caching.lru import LRUCache, record_lru_counters
from ..core.grouping import GroupBuilder, build_group_fast
from ..core.successors import LRUSuccessorList, SuccessorTracker
from ..errors import SimulationError
from ..obs import registry as _obs
from ..obs import timeseries as _ts
from ..obs import tracing as _tracing
from ..traces.columnar import ColumnarTrace
from ..traces.events import EventKind, Trace
from ..traces.symbols import SymbolTable, intern_sequence


class Store:
    """Server backing storage: always has every file; counts retrievals.

    ``fetches`` counts files shipped off the storage device — the
    ultimate cost grouping tries to amortize into fewer, larger
    retrievals.
    """

    def __init__(self):
        self.fetches = 0
        self.group_fetches = 0

    def fetch(self, file_id: str) -> str:
        """Retrieve one file."""
        self.fetches += 1
        return file_id

    def fetch_group(self, file_ids: Sequence[str]) -> List[str]:
        """Retrieve a group of files with one storage operation."""
        self.group_fetches += 1
        self.fetches += len(file_ids)
        return list(file_ids)


@dataclass
class SystemMetrics:
    """End-of-run accounting for a :class:`DistributedFileSystem`."""

    client_stats: Dict[str, CacheStats]
    server_stats: CacheStats
    store_fetches: int
    store_group_fetches: int
    remote_requests: int
    metadata_entries: int
    invalidations: int = 0

    @property
    def total_client_accesses(self) -> int:
        """Demand accesses summed across clients."""
        return sum(stats.accesses for stats in self.client_stats.values())

    @property
    def mean_client_hit_rate(self) -> float:
        """Access-weighted client hit rate across all clients."""
        accesses = self.total_client_accesses
        if not accesses:
            return 0.0
        hits = sum(stats.hits for stats in self.client_stats.values())
        return hits / accesses


class DistributedFileSystem:
    """Clients with aggregating caches in front of a caching file server.

    Parameters
    ----------
    client_capacity:
        Capacity (files) of each client's cache.
    server_capacity:
        Capacity of the server's own cache; ``0`` disables it (every
        server request goes to the store).
    group_size:
        Best-effort group size ``g``; 1 reduces the system to plain
        demand-fetch LRU everywhere.
    cooperative:
        When True (the Figure 2 design), clients piggy-back their full
        access stream to the server, so relationship metadata sees
        unfiltered behaviour.  When False (the Section 4.3 scenario),
        the server learns only from the requests that reach it.
    successor_policy / successor_capacity:
        Server-side successor list management.
    invalidate_on_write:
        When True, mutation events are treated as AFS/Coda-style
        callback breaks: a WRITE by one client invalidates every other
        client's cached copy, and a DELETE invalidates the file
        everywhere (clients and server cache).  Grouping's group
        overlaps impose no extra consistency burden here — exactly the
        paper's Section 2.1 point — because invalidation is per file,
        not per group.  Invalidating replays run the same fused loop
        and array kernel as the rest (the kernel reads the kind
        column), so the setting costs the mutation work and nothing
        more.
    """

    def __init__(
        self,
        client_capacity: int,
        server_capacity: int = 0,
        group_size: int = 5,
        cooperative: bool = True,
        successor_policy: str = "lru",
        successor_capacity: int = 8,
        invalidate_on_write: bool = False,
    ):
        self.tracker = SuccessorTracker(
            policy=successor_policy, capacity=successor_capacity
        )
        self.builder = GroupBuilder(self.tracker, group_size)
        self.group_size = group_size
        self.cooperative = cooperative
        self.client_capacity = client_capacity
        self.server_cache: Optional[LRUCache] = (
            LRUCache(server_capacity) if server_capacity > 0 else None
        )
        if self.server_cache is not None:
            self.server_cache.trace_name = "server"
        self.store = Store()
        self.clients: Dict[str, LRUCache] = {}
        self.remote_requests = 0
        self.invalidate_on_write = invalidate_on_write
        self.invalidations = 0
        self._server_stats = CacheStats()
        #: Escape hatch for tests and A/B comparisons: when False,
        #: :meth:`replay` always takes the generic per-event path even
        #: if the configuration qualifies for the fast loop.
        self.use_fast_replay = True

    def _client_cache(self, client_id: str) -> LRUCache:
        cache = self.clients.get(client_id)
        if cache is None:
            cache = LRUCache(self.client_capacity)
            cache.trace_name = f"client.{client_id}"
            self.clients[client_id] = cache
        return cache

    def access(self, client_id: str, file_id: str) -> bool:
        """One file open from one client; returns True on client hit."""
        if self.cooperative:
            self.tracker.observe(file_id)
        cache = self._client_cache(client_id)
        if cache.access(file_id):
            return True

        # Client miss: one remote request retrieves the whole group.
        self.remote_requests += 1
        if not self.cooperative:
            self.tracker.observe(file_id)
        group = self.builder.build(file_id)
        if _obs.ENABLED:
            _obs.get_registry().histogram("engine.group_fetch.size").observe(
                len(group)
            )

        # Serve each group member from the server cache when resident,
        # otherwise stage it from the store (and cache it server-side).
        to_ship: List[str] = list(group)
        recorder = _tracing.ACTIVE if _obs.ENABLED else None
        if self.server_cache is not None:
            if self.server_cache.access(file_id):
                self._server_stats.hits += 1
            else:
                self._server_stats.misses += 1
                self.store.fetch(file_id)
            companions = [m for m in to_ship if m != file_id]
            for member in companions:
                if not self.server_cache.probe(member):
                    self.store.fetch(member)
            if recorder is not None:
                planned, skipped = self.server_cache.plan_group_install(companions)
                recorder.group_fetch("server", file_id, planned, skipped)
            self.server_cache.install_group_at_tail(companions)
        else:
            for member in to_ship:
                self.store.fetch(member)

        # Client placement: the demanded file is already at the MRU head
        # (admitted by the miss above); companions append at the tail as
        # one batch.
        client_companions = [member for member in to_ship if member != file_id]
        if recorder is not None:
            planned, skipped = cache.plan_group_install(client_companions)
            recorder.group_fetch(cache.trace_name, file_id, planned, skipped)
        cache.install_group_at_tail(client_companions)
        return False

    def _apply_mutation(self, client_id: str, file_id, kind: EventKind) -> None:
        """Invalidate cached copies for one mutation (see class docs)."""
        recorder = _tracing.ACTIVE if _obs.ENABLED else None
        if kind is EventKind.DELETE:
            for cache in self.clients.values():
                if cache.invalidate(file_id):
                    self.invalidations += 1
                    if recorder is not None:
                        recorder.evict(cache.trace_name, file_id, "invalidate")
            if self.server_cache is not None:
                if self.server_cache.invalidate(file_id):
                    self.invalidations += 1
                    if recorder is not None:
                        recorder.evict("server", file_id, "invalidate")
            return
        for other_id, cache in self.clients.items():
            if other_id != client_id and cache.invalidate(file_id):
                self.invalidations += 1
                if recorder is not None:
                    recorder.evict(cache.trace_name, file_id, "invalidate")

    def process_mutation(self, client_id: str, event) -> None:
        """Apply one mutation event's consistency effects.

        A WRITE breaks other clients' callbacks on the file; a DELETE
        removes the file everywhere.  The writing client keeps (or, for
        DELETE, also loses) its copy.
        """
        self._apply_mutation(client_id, event.file_id, event.kind)

    def _fast_replay_ok(self) -> bool:
        """Whether the specialized replay loop matches this configuration.

        The fast loop hard-codes LRU successor lists, plain LRU caches
        and the stock group builder; anything else (subclasses,
        alternative policies) takes the generic path.  Write
        invalidation is covered: the loop applies
        :meth:`_apply_mutation`'s callback breaks inline.  An active
        flight recorder forces the generic path: the fused loop batches
        its accounting and cannot emit per-decision trace records, and
        the tracing contract is that traced and untraced replays count
        identically.  The columnar array kernel covers the same
        configurations — see :meth:`_kernel_ok`.
        """
        if not self.use_fast_replay:
            return False
        if _obs.ENABLED and _tracing.ACTIVE is not None:
            return False
        if type(self.tracker) is not SuccessorTracker or self.tracker.policy != "lru":
            return False
        if type(self.builder) is not GroupBuilder:
            return False
        if self.builder.tracker is not self.tracker:
            return False
        if self.builder.group_size != self.group_size:
            return False
        if self.server_cache is not None and type(self.server_cache) is not LRUCache:
            return False
        if any(type(cache) is not LRUCache for cache in self.clients.values()):
            return False
        if any(
            type(slist) is not LRUSuccessorList
            for slist in self.tracker._lists.values()
        ):
            return False
        return True

    def _kernel_ok(self) -> bool:
        """Whether the columnar array kernel may replay for this system.

        The kernel (:mod:`repro.sim.kernel`) encodes the same
        configurations as the fused loop, write invalidation included
        (it reads the kind column), so this is :meth:`_fast_replay_ok`.
        Every caller that picks the kernel asks this; whether the live
        state imports into arrays is decided after it, by
        :func:`repro.sim.kernel.v2_import`.
        """
        return self._fast_replay_ok()

    def _metrics_baseline(self) -> Tuple:
        """Pre-replay totals used to record per-replay metric deltas.

        Client and server-LRU entries carry the full 4-tuple (hits,
        misses, evictions, installs) so the fast loop can batch-credit
        the per-policy ``cache.lru.*`` counters the generic path
        records per event inside the caches themselves.
        """
        server = self.server_cache
        return (
            {
                client_id: (
                    cache.stats.hits,
                    cache.stats.misses,
                    cache.stats.evictions,
                    cache.stats.installs,
                )
                for client_id, cache in self.clients.items()
            },
            (self._server_stats.hits, self._server_stats.misses),
            self.store.fetches,
            self.remote_requests,
            self.invalidations,
            (
                (
                    server.stats.hits,
                    server.stats.misses,
                    server.stats.evictions,
                    server.stats.installs,
                )
                if server is not None
                else None
            ),
        )

    def _record_replay_metrics(
        self, registry, baseline: Tuple, transitions: Optional[int]
    ) -> None:
        """Credit this replay's deltas to the registry (collection is on).

        Both replay paths report through here, so the recorded counters
        are identical whichever loop ran; ``transitions`` is only passed
        by the fast loop (the generic path counts transitions inside
        :meth:`SuccessorTracker.observe_transition`).
        """
        clients_before, server_before, store_before, remote_before, inv_before = (
            baseline[:5]
        )
        total_hits = total_misses = 0
        for client_id, cache in self.clients.items():
            hits_before, misses_before = clients_before.get(client_id, (0, 0, 0, 0))[:2]
            hits = cache.stats.hits - hits_before
            misses = cache.stats.misses - misses_before
            total_hits += hits
            total_misses += misses
            registry.counter(f"engine.client.{client_id}.hits").inc(hits)
            registry.counter(f"engine.client.{client_id}.misses").inc(misses)
        registry.counter("engine.client.hits").inc(total_hits)
        registry.counter("engine.client.misses").inc(total_misses)
        registry.counter("engine.server.hits").inc(
            self._server_stats.hits - server_before[0]
        )
        registry.counter("engine.server.misses").inc(
            self._server_stats.misses - server_before[1]
        )
        registry.counter("engine.store.fetches").inc(
            self.store.fetches - store_before
        )
        registry.counter("engine.remote_requests").inc(
            self.remote_requests - remote_before
        )
        registry.counter("engine.invalidations").inc(
            self.invalidations - inv_before
        )
        registry.gauge("engine.clients").set(len(self.clients))
        registry.gauge("engine.metadata.entries").set(
            self.tracker.metadata_entries()
        )
        if transitions:
            registry.counter("successors.transitions").inc(transitions)

    def _record_policy_counters(self, registry, baseline: Tuple) -> None:
        """Batch-credit ``cache.lru.*`` deltas (fast replay branch only).

        The generic path records these per event inside the LRU caches;
        the fused loop bypasses those sites, so it credits the same
        totals here from the stats deltas of every client cache plus
        the server cache.  Never called from the shared
        :meth:`_record_replay_metrics` — that would double-count the
        generic path.
        """
        clients_before = baseline[0]
        server_before = baseline[5]
        hits = misses = evictions = installs = 0
        for client_id, cache in self.clients.items():
            before = clients_before.get(client_id, (0, 0, 0, 0))
            stats = cache.stats
            hits += stats.hits - before[0]
            misses += stats.misses - before[1]
            evictions += stats.evictions - before[2]
            installs += stats.installs - before[3]
        if self.server_cache is not None:
            before = server_before if server_before is not None else (0, 0, 0, 0)
            stats = self.server_cache.stats
            hits += stats.hits - before[0]
            misses += stats.misses - before[1]
            evictions += stats.evictions - before[2]
            installs += stats.installs - before[3]
        record_lru_counters(
            registry,
            hits=hits,
            misses=misses,
            evictions=evictions,
            installs=installs,
        )

    def _replay_fast(self, trace: Trace, intern: bool) -> SystemMetrics:
        """Inlined replay loop for the common LRU configuration.

        Count-for-count identical to driving :meth:`access` per event
        (plus :meth:`_apply_mutation` under ``invalidate_on_write``);
        the bound-method and dataclass traffic of the generic path is
        replaced with direct OrderedDict operations, batched stats
        updates per client segment, and allocation-free group builds.
        A mutation deletes the file from the other clients' dicts
        (WRITE, CREATE) or from every dict including the server's
        (DELETE) after the event's access, touching no stats and no
        evict listener, exactly as :meth:`Cache.invalidate` does.
        """
        events = trace.events
        prev = self.tracker._previous
        if intern:
            table = SymbolTable()
            codes = table.encode([event.file_id for event in events])
            if prev is not None:
                prev = table.intern(prev)
        else:
            codes = [event.file_id for event in events]
        client_ids = [event.client_id or "client00" for event in events]
        delete = EventKind.DELETE
        if self.invalidate_on_write:
            # The event's kind when it mutates the file, None otherwise.
            write, create = EventKind.WRITE, EventKind.CREATE
            mutations = [
                kind if kind is write or kind is create or kind is delete else None
                for kind in map(attrgetter("kind"), events)
            ]
        else:
            mutations = repeat(None)

        tracker = self.tracker
        lists = tracker._lists
        lists_get = lists.get
        successor_capacity = tracker.capacity
        group_size = self.group_size
        cooperative = self.cooperative
        clients = self.clients
        client_capacity = self.client_capacity
        server = self.server_cache
        server_mirror = self._server_stats
        if server is not None:
            server_order = server._order
            server_stats = server.stats
            server_capacity = server.capacity
            server_listener = server.evict_listener
            server_install = server.install_group_at_tail_fast

        # Metrics: read the flag once, keep the per-event loop untouched,
        # and record batched deltas after the loop.  Only the per-miss
        # group-size observation happens inline (and only when
        # collection is enabled).
        record = _obs.ENABLED
        observe_group = observe_chain = None
        singleton_builds = 0
        if record:
            registry = _obs.get_registry()
            observe_group = registry.histogram("engine.group_fetch.size").observe
            observe_chain = registry.histogram("grouping.chain.length").observe
            baseline = self._metrics_baseline()
            prev_was_none = prev is None
            started = time.perf_counter_ns()

        remote_requests = 0
        store_fetches = 0
        invalidations = 0
        current_client = None
        cache = None
        cache_listener = None
        order = None
        cache_stats = None
        pending_hits = 0

        for file_id, client_id, mutation in zip(codes, client_ids, mutations):
            if cooperative:
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

            if client_id != current_client:
                if pending_hits:
                    cache_stats.hits += pending_hits
                    pending_hits = 0
                current_client = client_id
                cache = clients.get(client_id)
                if cache is None:
                    cache = LRUCache(client_capacity)
                    cache.trace_name = f"client.{client_id}"
                    clients[client_id] = cache
                cache_listener = cache.evict_listener
                order = cache._order
                cache_stats = cache.stats

            if file_id in order:
                order.move_to_end(file_id)
                pending_hits += 1
            else:
                # ---- client miss: demand admit, then one group request ----
                cache_stats.misses += 1
                while len(order) >= client_capacity:
                    victim, _value = order.popitem(last=False)
                    if cache_listener is not None:
                        cache_listener(victim)
                    cache_stats.evictions += 1
                order[file_id] = None
                remote_requests += 1

                if not cooperative:
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

                members = build_group_fast(lists_get, group_size, file_id)
                if observe_group is not None:
                    observe_group(len(members))
                    observe_chain(len(members))
                    if len(members) == 1:
                        singleton_builds += 1
                companions = members[1:]
                if server is not None:
                    if file_id in server_order:
                        server_order.move_to_end(file_id)
                        server_stats.hits += 1
                        server_mirror.hits += 1
                    else:
                        server_stats.misses += 1
                        server_mirror.misses += 1
                        store_fetches += 1
                        while len(server_order) >= server_capacity:
                            victim, _value = server_order.popitem(last=False)
                            if server_listener is not None:
                                server_listener(victim)
                            server_stats.evictions += 1
                        server_order[file_id] = None
                    for member in companions:
                        if member not in server_order:
                            store_fetches += 1
                    server_install(server_order, companions, server_stats)
                else:
                    store_fetches += len(members)
                cache.install_group_at_tail_fast(order, companions, cache_stats)

            if mutation is None:
                continue
            # ---- write invalidation: per-file callback breaks ----
            for other in clients.values():
                if other is not cache or mutation is delete:
                    other_order = other._order
                    if file_id in other_order:
                        del other_order[file_id]
                        invalidations += 1
            if mutation is delete and server is not None and file_id in server_order:
                del server_order[file_id]
                invalidations += 1

        if pending_hits:
            cache_stats.hits += pending_hits
        if events:
            tracker._previous = prev
        self.remote_requests += remote_requests
        self.store.fetches += store_fetches
        self.invalidations += invalidations
        if record:
            if cooperative:
                transition_sites = len(events)
            else:
                # Non-cooperative: the tracker observes only the miss
                # stream, so each remote request is one transition site.
                transition_sites = remote_requests
            transitions = (
                transition_sites - 1
                if (prev_was_none and transition_sites)
                else transition_sites
            )
            self._record_replay_metrics(registry, baseline, transitions)
            self._record_policy_counters(registry, baseline)
            if singleton_builds:
                registry.counter("grouping.build.singletons").inc(singleton_builds)
            registry.histogram("engine.replay.fast.ns").observe(
                time.perf_counter_ns() - started
            )
            registry.counter("engine.replay.path.fast").inc()
        return self.metrics()

    def replay(
        self,
        trace: Trace,
        intern: bool = False,
        progress=None,
    ) -> SystemMetrics:
        """Drive the system with a trace (events carry client ids).

        Every event is a demand access to its file (a write still needs
        the file resident); with ``invalidate_on_write`` the mutation
        side effects are applied after the access.

        ``intern=True`` replays dense integer file-id codes instead of
        the original strings — every counter in the returned metrics is
        identical (all policies are key-agnostic), but post-replay cache
        contents are keyed by codes, so reserve it for metrics-only
        runs.  Configurations the specialized loop does not cover run
        the generic per-event path either way.

        When windowed telemetry is active (:func:`repro.obs.windowing`),
        the replay is driven window by window through the same loops and
        one :class:`~repro.obs.timeseries.WindowSample` is recorded per
        window — the single ``_ts.ACTIVE`` read below is the only cost
        when it is not.  ``progress`` follows the shared
        :func:`~repro.sim.progress.normalize_progress` contract and is
        reported per window (windowed) or once up front (unwindowed).
        """
        if _ts.ACTIVE is not None:
            return _ts.windowed_replay(self, trace, intern=intern, progress=progress)
        if progress is not None:
            from .progress import normalize_progress

            notify = normalize_progress(progress)
            if notify is not None:
                notify(0, 1, {"window": 0, "start": 0}, 0.0)
        return self._replay_trace(trace, intern)

    def _replay_trace(self, trace: Trace, intern: bool) -> SystemMetrics:
        """One uninterrupted replay pass (kernel, fast or generic).

        The windowed driver calls this per chunk; ``replay`` calls it
        for the whole trace.  Eligibility is re-checked per call.

        A trace with columns (a :class:`ColumnarTrace`, or a text trace
        as :func:`~repro.traces.reader.read_trace` returns it) replays
        on the array kernel (:func:`repro.sim.kernel.replay_columns_v2`)
        when :meth:`_kernel_ok` holds and
        :func:`repro.sim.kernel.v2_import` accepts the live state.  A
        columnar trace replays in its code space; a text trace in the
        key space the event loops use (file-id strings, or with
        ``intern=True`` the codes they intern), so caches, successor
        lists and ``_previous`` end as the per-event path leaves them.
        What the kernel declines replays the decoded events on the dict
        loop, a columnar trace's events keyed by their codes so that
        its key space does not depend on the path.
        ``engine.replay.path.*`` records which loop ran.
        """
        columns = (
            trace
            if isinstance(trace, ColumnarTrace)
            else getattr(trace, "columns", None)
        )
        if columns is not None and self._kernel_ok():
            from .kernel import replay_columns_v2, v2_import

            strings = columns is not trace and not intern
            state = v2_import(self, columns, strings=strings)
            if state is not None:
                metrics = replay_columns_v2(self, columns, state=state)
                state.export()
                return metrics
            if columns is trace:
                from .kernel import map_previous

                tracker = self.tracker
                tracker._previous = map_previous(trace, tracker._previous)
                return self._replay_fast(trace.to_trace(codes=True), intern=False)
        if isinstance(trace, ColumnarTrace):
            return self._replay_trace(trace.to_trace(), intern)
        if self._fast_replay_ok():
            return self._replay_fast(trace, intern)
        record = _obs.ENABLED
        if record:
            registry = _obs.get_registry()
            baseline = self._metrics_baseline()
            started = time.perf_counter_ns()
        if intern:
            table = SymbolTable()
            interned = table.intern
            for event in trace:
                client = event.client_id or "client00"
                file_id = interned(event.file_id)
                self.access(client, file_id)
                if self.invalidate_on_write and event.is_mutation:
                    self._apply_mutation(client, file_id, event.kind)
        else:
            for event in trace:
                client = event.client_id or "client00"
                self.access(client, event.file_id)
                if self.invalidate_on_write and event.is_mutation:
                    self.process_mutation(client, event)
        if record:
            # Transitions were already counted per event by the tracker.
            self._record_replay_metrics(registry, baseline, None)
            registry.histogram("engine.replay.generic.ns").observe(
                time.perf_counter_ns() - started
            )
            registry.counter("engine.replay.path.generic").inc()
        return self.metrics()

    def metrics(self) -> SystemMetrics:
        """Snapshot system-wide accounting."""
        return SystemMetrics(
            client_stats={
                client_id: cache.stats.snapshot()
                for client_id, cache in self.clients.items()
            },
            server_stats=self._server_stats.snapshot(),
            store_fetches=self.store.fetches,
            store_group_fetches=self.store.group_fetches,
            remote_requests=self.remote_requests,
            metadata_entries=self.tracker.metadata_entries(),
            invalidations=self.invalidations,
        )


def replay_cache(cache, sequence: Iterable[str], intern: bool = False) -> CacheStats:
    """Drive any object with an ``access(key)`` method; return its stats.

    The universal single-cache replay loop used by experiments: works
    for plain :class:`~repro.caching.base.Cache` policies, the
    aggregating caches, and :class:`~repro.core.predictors.PrefetchingCache`.

    ``intern=True`` first encodes the sequence to dense integer codes
    (one pass, one shared :class:`~repro.traces.symbols.SymbolTable`),
    which speeds up hash-heavy policies on long string keys; the
    returned statistics are unchanged because every policy is
    key-agnostic.
    """
    if intern:
        sequence, _table = intern_sequence(sequence)
    access = cache.access
    for key in sequence:
        access(key)
    stats = getattr(cache, "stats", None)
    if stats is None:
        raise SimulationError(
            f"{type(cache).__name__} exposes no .stats after replay"
        )
    return stats.snapshot()
