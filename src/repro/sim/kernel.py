"""Batch replay kernel over columnar integer traces.

The engine's fused fast loop (:meth:`DistributedFileSystem._replay_fast`)
removed the per-event call overhead of the generic path, but it still
starts from event *objects*: every replay pays a pass that pulls
``event.file_id`` / ``event.client_id`` out of 60k dataclasses before
the hot loop can run, and ``intern=True`` pays a second pass to encode
strings.  This module is the next rung down: kernels that consume the
integer columns of a :class:`~repro.traces.columnar.ColumnarTrace`
*directly* — no event objects, no strings, no encoding pass — the same
narrow-ABI split SimCash uses between its python API and its Rust core,
kept in python but with the same discipline: the kernel sees arrays of
ints and a handful of dicts, nothing else.

Three kernels live here:

* :func:`replay_columns` — the full Figure-2 system replay.  A port of
  the engine's fused loop that iterates zero-copy column slices
  per client segment.  It is **count-identical** to the generic
  per-event path (the engine equivalence tests assert byte-equal
  :class:`~repro.sim.engine.SystemMetrics` on all four paper
  workloads), and reports observability deltas through the same
  batched helpers the fast loop uses.
* :func:`replay_columns_v2` — the array-backed eviction core.  The
  dict-based LRU state of ``replay_columns`` is swapped for the flat
  arrays of :class:`~repro.caching.array_lru.ArrayLRU` (one stamp
  store per hit, lazy exact eviction) and the successor-slot form of
  :class:`~repro.core.successors.ArraySuccessorTracker` (slot lists
  shared in place with the canonical tracker).  State imports from the
  live system at entry and exports back at exit, so the caches and
  tracker end byte-identical to the other paths; :func:`v2_import`
  decides eligibility and the engine falls back to ``replay_columns``
  explicitly when it returns None.
* :func:`scan_columns` — the pure-int column scan: event counts, unique
  files, and the kind histogram in one pass.  Vectorized with numpy
  when available, with a count-identical pure-python fallback built on
  C-speed primitives (``set`` construction, ``bytes.count``).  This is
  the 10M+ events/s hot path the strict benchmark gate tracks; the
  windowed telemetry driver and ``repro trace info`` ride it.

Every replay entry point records which loop ran under the
``engine.replay.path.*`` counters (``kernel_v2`` / ``kernel`` /
``fast`` / ``generic``), so ``repro metrics`` and ``repro report`` can
show whether a run actually took the path you think it did.

numpy is strictly optional: :data:`HAVE_NUMPY` gates every use, and the
fallbacks produce identical counts (asserted by ``tests/test_kernel.py``
with the flag forced off).  The stateful replay loop itself is pure
python either way — LRU and successor-list updates are inherently
sequential — numpy accelerates the *batch* work around it: client
segmentation and column scans.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

# REPRO_NO_NUMPY forces the pure-python paths even where numpy is
# importable — the CI numpy leg uses it to prove the fallbacks end to
# end, without monkeypatching, on a numpy-equipped interpreter.
if os.environ.get("REPRO_NO_NUMPY"):  # pragma: no cover - CI-only gate
    _np = None
    HAVE_NUMPY = False
else:
    try:  # pragma: no cover - exercised via the HAVE_NUMPY=False tests
        import numpy as _np

        HAVE_NUMPY = True
    except ImportError:  # pragma: no cover
        _np = None
        HAVE_NUMPY = False

from ..caching.array_lru import ArrayLRU, refill_queue
from ..caching.lru import LRUCache
from ..core.grouping import build_group_fast
from ..core.successors import ArraySuccessorTracker, LRUSuccessorList
from ..obs import registry as _obs

#: Default client identity for events that carry none (engine contract).
DEFAULT_CLIENT = "client00"

#: Minimum trace length for the array-backed kernel.  Importing and
#: exporting the array state costs O(cache sizes + metadata entries);
#: below this many events the dict kernel's zero set-up wins.  Windowed
#: replays gate on the *full* trace length and keep one state across
#: chunks, so small windows still ride the arrays.
V2_MIN_EVENTS = 2048


def _as_ndarray(column, dtype):
    """A numpy view of an int column, copy-free for buffer-backed ones.

    ``array.array`` and (sliced) ``memoryview`` columns expose the
    buffer protocol, so ``frombuffer`` wraps them in place; plain
    sequences (tuples from the memoized workload helpers) are copied.
    """
    try:
        return _np.frombuffer(column, dtype=dtype)
    except (TypeError, ValueError):
        return _np.asarray(column, dtype=dtype)


# -- column scans -----------------------------------------------------------


@dataclass(frozen=True)
class ColumnScan:
    """One pass's worth of column statistics.

    ``kind_counts`` is indexed by the fixed columnar kind numbering
    (:data:`repro.traces.columnar.KINDS`); with no kind column every
    event is an OPEN.
    """

    events: int
    unique_files: int
    kind_counts: Tuple[int, ...]

    @property
    def open_events(self) -> int:
        return self.kind_counts[0]

    @property
    def mutation_events(self) -> int:
        """WRITE + CREATE + DELETE events (the invalidation stream)."""
        return self.kind_counts[2] + self.kind_counts[3] + self.kind_counts[4]


def scan_columns(
    file_codes: Sequence[int],
    kind_codes: Optional[Sequence[int]] = None,
    n_file_symbols: Optional[int] = None,
) -> ColumnScan:
    """Scan integer columns for event count, unique files, kind mix.

    The numpy path runs one ``bincount`` per column; the fallback uses
    ``set`` construction and ``bytes.count``, both C loops.  Outputs are
    identical (``tests/test_kernel.py`` forces the fallback and
    compares).
    """
    n = len(file_codes)
    n_kinds = 6
    if n == 0:
        return ColumnScan(events=0, unique_files=0, kind_counts=(0,) * n_kinds)
    if HAVE_NUMPY:
        files = _as_ndarray(file_codes, _np.uint32)
        minlength = n_file_symbols or 0
        unique = int(
            _np.count_nonzero(_np.bincount(files, minlength=minlength))
        )
        if kind_codes is None:
            kinds = (n,) + (0,) * (n_kinds - 1)
        else:
            histogram = _np.bincount(
                _as_ndarray(kind_codes, _np.uint8), minlength=n_kinds
            )
            kinds = tuple(int(count) for count in histogram[:n_kinds])
    else:
        unique = len(set(file_codes))
        if kind_codes is None:
            kinds = (n,) + (0,) * (n_kinds - 1)
        else:
            raw = bytes(kind_codes)
            kinds = tuple(raw.count(code) for code in range(n_kinds))
    return ColumnScan(events=n, unique_files=unique, kind_counts=kinds)


# -- client segmentation ----------------------------------------------------


def client_runs(ctrace) -> List[Tuple[str, int, int]]:
    """Maximal runs of equal client identity: ``[(client, lo, hi), ...]``.

    Events with an empty client id belong to :data:`DEFAULT_CLIENT`,
    matching the engine's generic path.  A constant (elided) client
    column is one run over the whole trace.  Boundary detection is a
    vectorized diff under numpy and a plain scan otherwise — identical
    runs either way.
    """
    n = len(ctrace)
    codes = ctrace.client_codes
    symbols = ctrace.client_symbols
    if n == 0:
        return []
    if codes is None:
        return [(symbols[0] or DEFAULT_CLIENT, 0, n)]
    if HAVE_NUMPY:
        column = _as_ndarray(codes, _np.uint32)
        boundaries = _np.flatnonzero(column[1:] != column[:-1]) + 1
        edges = [0] + boundaries.tolist() + [n]
    else:
        edges = [0]
        previous = codes[0]
        for index in range(1, n):
            code = codes[index]
            if code != previous:
                edges.append(index)
                previous = code
        edges.append(n)
    return [
        (symbols[codes[lo]] or DEFAULT_CLIENT, lo, hi)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


# -- system replay ----------------------------------------------------------


def _map_previous(ctrace, previous):
    """Carry ``tracker._previous`` into this trace's code space.

    A string from an earlier string-keyed replay maps to its code when
    the symbol is known, else to the first unused code (any distinct
    key preserves counts — policies are key-agnostic).  Ints pass
    through, with the same cross-replay caveat ``intern=True`` has
    always had: codes from *different* traces share a namespace.
    """
    if previous is None or isinstance(previous, int):
        return previous
    try:
        return ctrace.code_of(previous)
    except KeyError:
        return len(ctrace.file_symbols)


def replay_columns(system, ctrace):
    """Replay a columnar trace through a qualifying system, batch-wise.

    The caller (:meth:`DistributedFileSystem._replay_trace`) guarantees
    ``system._kernel_ok()``: LRU successor lists, plain LRU caches,
    the stock group builder, no active flight recorder, and no write
    invalidation — the kernels read the file and client columns only,
    never the kind column, so an invalidating system must decode to
    events and take the engine's dict loop instead.  The loop is the
    engine's fused fast loop re-specialized for integer columns: file
    identifiers are ints straight out of the mmap, client segmentation
    is precomputed per run (hoisting the per-event client check), and
    cache keys after the replay are codes — exactly the ``intern=True`` contract, so reserve it for
    metrics-only runs.

    Returns the system's end-of-run :class:`~repro.sim.engine.SystemMetrics`,
    byte-identical to the generic per-event path on the same events.
    """
    runs = client_runs(ctrace)
    codes = ctrace.file_codes
    prev = _map_previous(ctrace, system.tracker._previous)

    tracker = system.tracker
    lists = tracker._lists
    lists_get = lists.get
    successor_capacity = tracker.capacity
    group_size = system.group_size
    cooperative = system.cooperative
    clients = system.clients
    client_capacity = system.client_capacity
    server = system.server_cache
    server_mirror = system._server_stats
    if server is not None:
        server_order = server._order
        server_stats = server.stats
        server_capacity = server.capacity
        server_listener = server.evict_listener
        server_install = server.install_group_at_tail_fast

    record = _obs.ENABLED
    observe_group = observe_chain = None
    singleton_builds = 0
    if record:
        registry = _obs.get_registry()
        observe_group = registry.histogram("engine.group_fetch.size").observe
        observe_chain = registry.histogram("grouping.chain.length").observe
        baseline = system._metrics_baseline()
        prev_was_none = prev is None
        started = time.perf_counter_ns()

    remote_requests = 0
    store_fetches = 0

    for client_id, lo, hi in runs:
        cache = clients.get(client_id)
        if cache is None:
            cache = LRUCache(client_capacity)
            cache.trace_name = f"client.{client_id}"
            clients[client_id] = cache
        cache_listener = cache.evict_listener
        order = cache._order
        cache_stats = cache.stats
        pending_hits = 0

        for file_id in codes[lo:hi]:
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

            if file_id in order:
                order.move_to_end(file_id)
                pending_hits += 1
                continue

            # ---- client miss: demand admit, one group request ----
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

        if pending_hits:
            cache_stats.hits += pending_hits

    if runs:
        tracker._previous = prev
    system.remote_requests += remote_requests
    system.store.fetches += store_fetches
    if record:
        if cooperative:
            transition_sites = len(ctrace)
        else:
            transition_sites = remote_requests
        transitions = (
            transition_sites - 1
            if (prev_was_none and transition_sites)
            else transition_sites
        )
        system._record_replay_metrics(registry, baseline, transitions)
        system._record_policy_counters(registry, baseline)
        if singleton_builds:
            registry.counter("grouping.build.singletons").inc(singleton_builds)
        registry.histogram("engine.replay.kernel.ns").observe(
            time.perf_counter_ns() - started
        )
        registry.counter("engine.replay.path.kernel").inc()
    return system.metrics()


# -- array-backed system replay (v2) ----------------------------------------


def _import_lru(order, capacity: int, universe: int) -> Optional[ArrayLRU]:
    """Share an ``OrderedDict`` LRU's contents into array form.

    One validating pass: every key must be an int code in
    ``[0, universe)`` (anything else — string keys from a prior
    non-columnar replay, codes from a different trace's namespace —
    returns None and the caller falls back to the dict kernel).
    Imported stamps are ``-size .. -1`` in LRU-to-MRU order, matching
    :meth:`ArrayLRU.from_keys`.
    """
    lru = ArrayLRU(capacity, universe)
    stamp = lru.stamp
    in_cache = lru.in_cache
    position = -len(order)
    for key in order:
        if not (type(key) is int and 0 <= key < universe):
            return None
        stamp[key] = position
        in_cache[key] = 1
        position += 1
    lru.size = len(order)
    lru.cold = -len(order) - 1
    return lru


class V2ReplayState:
    """Live array state for one v2 replay (or one windowed session).

    Holds the :class:`ArrayLRU` per client (paired with its cache
    object), the server's, the shared successor slots, the carried
    predecessor, and the monotone event clock that keeps stamps unique
    across successive :func:`replay_columns_v2` calls on the same
    state.  The windowed driver imports once, replays every chunk
    against the same state, and calls :meth:`export` at the end —
    per-chunk import/export is exactly the overhead that would make
    small windows slower than the dict kernel.

    Between ``run`` and ``export`` the cache ``OrderedDict`` contents
    are stale (stats objects, system counters, and tracker lists are
    always current — they are synced or shared per call); nothing in
    the windowed sampling path reads cache contents, but a session
    holder that does must export first.
    """

    __slots__ = (
        "system",
        "universe",
        "prev",
        "clock",
        "succ",
        "client_lrus",
        "server_lru",
    )

    def __init__(self, system, universe: int):
        self.system = system
        self.universe = universe
        self.prev = None
        self.clock = 0
        self.succ: Optional[ArraySuccessorTracker] = None
        #: client id -> (ArrayLRU, LRUCache) pairs.
        self.client_lrus = {}
        self.server_lru: Optional[ArrayLRU] = None

    def export(self) -> None:
        """Write the array orders back into the cache ``OrderedDict``s."""
        for lru, cache in self.client_lrus.values():
            order = cache._order
            order.clear()
            for key in lru.export():
                order[key] = None
        if self.server_lru is not None:
            order = self.system.server_cache._order
            order.clear()
            for key in self.server_lru.export():
                order[key] = None


def v2_import(system, ctrace, min_events: Optional[int] = None):
    """Import a system's live state into array form, or None if it can't.

    The caller must already hold ``system._kernel_ok()`` (LRU
    everything, stock builder, no tracing, no write invalidation) —
    this adds the *array* eligibility on top:

    * the trace is long enough to amortize import/export
      (``min_events``, default :data:`V2_MIN_EVENTS`);
    * no evict listeners (the arrays batch evictions and cannot call
      back per victim);
    * every cache key and successor entry is an int in this trace's
      code space, and every client cache matches the system capacity.

    A fresh system validates at zero cost (nothing to scan); warm state
    costs one pass over cache contents and metadata — trivial next to
    the replay itself.  Returns a :class:`V2ReplayState` ready for
    :func:`replay_columns_v2`.
    """
    floor = V2_MIN_EVENTS if min_events is None else min_events
    if len(ctrace) < floor:
        return None
    universe = len(ctrace.file_symbols)
    server = system.server_cache
    if server is not None and server.evict_listener is not None:
        return None
    client_capacity = system.client_capacity
    for cache in system.clients.values():
        if cache.evict_listener is not None:
            return None
        if cache.capacity != client_capacity:
            return None
    tracker = system.tracker
    previous = tracker._previous
    if previous is not None and type(previous) is int:
        if not 0 <= previous <= universe:
            return None
    succ = ArraySuccessorTracker.from_tracker(tracker, universe)
    if succ is None:
        return None
    state = V2ReplayState(system, universe)
    state.succ = succ
    mapped = _map_previous(ctrace, previous)
    state.prev = succ.dummy if mapped is None else mapped
    for client_id, cache in system.clients.items():
        lru = _import_lru(cache._order, client_capacity, universe)
        if lru is None:
            return None
        state.client_lrus[client_id] = (lru, cache)
    if server is not None:
        server_lru = _import_lru(server._order, server.capacity, universe)
        if server_lru is None:
            return None
        state.server_lru = server_lru
    return state


def replay_columns_v2(system, ctrace, state: Optional[V2ReplayState] = None):
    """Replay a columnar trace through the array-backed eviction core.

    Same contract as :func:`replay_columns` — caller guarantees
    ``system._kernel_ok()``, so no write invalidation — with the dict
    operations of the hot loop replaced by flat-array state: a hit is
    one stamp store, a miss runs the lazy exact-LRU eviction and stamps
    group installs from the cold clock, and successor observations
    mutate slot lists shared with the canonical tracker.  Byte-identical
    :class:`~repro.sim.engine.SystemMetrics`, cache contents, tracker
    state, and observability counter deltas (the kernel parity tests
    hold it to all four).

    With ``state`` omitted, the function imports from the live system
    and exports back before returning (raising ``ValueError`` if
    :func:`v2_import` declines — dispatchers check eligibility first).
    A caller that replays many chunks passes one
    :class:`V2ReplayState` across calls and exports once at the end.
    """
    owned = state is None
    if owned:
        state = v2_import(system, ctrace)
        if state is None:
            raise ValueError(
                "system state is not v2-eligible; use replay_columns"
            )
    runs = client_runs(ctrace)
    codes = ctrace.file_codes

    tracker = system.tracker
    succ = state.succ
    slots = succ.slots
    heads = succ.heads
    new_preds = succ.new_preds
    successor_capacity = succ.capacity
    dummy = succ.dummy
    prev = state.prev
    universe = state.universe
    clock = state.clock

    group_size = system.group_size
    cooperative = system.cooperative
    clients = system.clients
    client_capacity = system.client_capacity
    client_lrus = state.client_lrus
    server = system.server_cache
    server_mirror = system._server_stats
    if server is not None:
        s_lru = state.server_lru
        s_stamp = s_lru.stamp
        s_res = s_lru.in_cache
        s_cold_stack = s_lru.cold_stack
        s_queue = s_lru.queue
        s_size = s_lru.size
        s_cold = s_lru.cold
        server_capacity = server.capacity
        server_stats = server.stats
        s_hits = s_misses = s_evictions = s_installs = 0

    record = _obs.ENABLED
    observe_group = observe_chain = None
    singleton_builds = 0
    if record:
        registry = _obs.get_registry()
        observe_group = registry.histogram("engine.group_fetch.size").observe
        observe_chain = registry.histogram("grouping.chain.length").observe
        baseline = system._metrics_baseline()
        prev_was_none = prev == dummy
        started = time.perf_counter_ns()

    remote_requests = 0
    store_fetches = 0

    for client_id, lo, hi in runs:
        pair = client_lrus.get(client_id)
        if pair is None:
            cache = clients.get(client_id)
            if cache is None:
                cache = LRUCache(client_capacity)
                cache.trace_name = f"client.{client_id}"
                clients[client_id] = cache
                lru = ArrayLRU(client_capacity, universe)
            else:
                # A cache injected after import: share it in, or bail
                # loudly — silently diverging state is worse.
                lru = _import_lru(cache._order, client_capacity, universe)
                if lru is None:
                    raise ValueError(
                        f"client {client_id!r} cache keys left the trace's"
                        " code space mid-session"
                    )
            client_lrus[client_id] = (lru, cache)
        else:
            lru, cache = pair
        stamp = lru.stamp
        resident = lru.in_cache
        cold_stack = lru.cold_stack
        queue = lru.queue
        size = lru.size
        cold = lru.cold
        seg_misses = 0
        seg_evictions = 0
        seg_installs = 0

        for i, f in enumerate(codes[lo:hi], clock + lo):
            if cooperative:
                if heads[prev] != f:
                    items = slots[prev]
                    if items is None:
                        slots[prev] = [f]
                        new_preds.append(prev)
                    else:
                        try:
                            items.remove(f)
                        except ValueError:
                            if len(items) >= successor_capacity:
                                items.pop()
                        items.insert(0, f)
                    heads[prev] = f
                prev = f

            if resident[f]:
                stamp[f] = i
                continue

            # ---- client miss: demand admit, one group request ----
            seg_misses += 1
            while size >= client_capacity:
                while True:
                    if cold_stack:
                        snapshot = cold_stack.pop()
                        victim = cold_stack.pop()
                        if resident[victim] and stamp[victim] == snapshot:
                            resident[victim] = 0
                            break
                    elif queue:
                        snapshot, victim = queue.pop()
                        if resident[victim] and stamp[victim] == snapshot:
                            resident[victim] = 0
                            break
                    else:
                        refill_queue(queue, resident, stamp)
                size -= 1
                seg_evictions += 1
            resident[f] = 1
            stamp[f] = i
            size += 1
            remote_requests += 1

            if not cooperative:
                if heads[prev] != f:
                    items = slots[prev]
                    if items is None:
                        slots[prev] = [f]
                        new_preds.append(prev)
                    else:
                        try:
                            items.remove(f)
                        except ValueError:
                            if len(items) >= successor_capacity:
                                items.pop()
                        items.insert(0, f)
                    heads[prev] = f
                prev = f

            # ---- group build over the shared slots ----
            members = [f]
            frontier = f
            while len(members) < group_size:
                candidate = None
                items = slots[frontier]
                if items is not None:
                    for entry in items:
                        if entry not in members:
                            candidate = entry
                            break
                if candidate is None:
                    for member in members:
                        items = slots[member]
                        if items is None:
                            continue
                        for entry in items:
                            if entry not in members:
                                candidate = entry
                                break
                        if candidate is not None:
                            break
                if candidate is None:
                    break
                members.append(candidate)
                frontier = candidate
            if observe_group is not None:
                observe_group(len(members))
                observe_chain(len(members))
                if len(members) == 1:
                    singleton_builds += 1
            companions = members[1:]

            if server is not None:
                if s_res[f]:
                    s_stamp[f] = i
                    s_hits += 1
                else:
                    s_misses += 1
                    store_fetches += 1
                    while s_size >= server_capacity:
                        while True:
                            if s_cold_stack:
                                snapshot = s_cold_stack.pop()
                                victim = s_cold_stack.pop()
                                if s_res[victim] and s_stamp[victim] == snapshot:
                                    s_res[victim] = 0
                                    break
                            elif s_queue:
                                snapshot, victim = s_queue.pop()
                                if s_res[victim] and s_stamp[victim] == snapshot:
                                    s_res[victim] = 0
                                    break
                            else:
                                refill_queue(s_queue, s_res, s_stamp)
                        s_size -= 1
                        s_evictions += 1
                    s_res[f] = 1
                    s_stamp[f] = i
                    s_size += 1
                newcomers = None
                for k in companions:
                    if not s_res[k]:
                        store_fetches += 1
                        if newcomers is None:
                            newcomers = [k]
                        else:
                            newcomers.append(k)
                if newcomers is not None:
                    limit = server_capacity - 1 if server_capacity > 1 else 0
                    if len(newcomers) > limit:
                        del newcomers[limit:]
                    if newcomers:
                        overflow = s_size + len(newcomers) - server_capacity
                        if overflow > 0:
                            for _ in range(overflow):
                                while True:
                                    if s_cold_stack:
                                        snapshot = s_cold_stack.pop()
                                        victim = s_cold_stack.pop()
                                        if (
                                            s_res[victim]
                                            and s_stamp[victim] == snapshot
                                        ):
                                            s_res[victim] = 0
                                            break
                                    elif s_queue:
                                        snapshot, victim = s_queue.pop()
                                        if (
                                            s_res[victim]
                                            and s_stamp[victim] == snapshot
                                        ):
                                            s_res[victim] = 0
                                            break
                                    else:
                                        refill_queue(s_queue, s_res, s_stamp)
                            s_size -= overflow
                            s_evictions += overflow
                        push = s_cold_stack.append
                        for k in newcomers:
                            s_res[k] = 1
                            s_stamp[k] = s_cold
                            push(k)
                            push(s_cold)
                            s_cold -= 1
                        s_size += len(newcomers)
                        s_installs += len(newcomers)
            else:
                store_fetches += len(members)

            # ---- client tail install ----
            newcomers = None
            for k in companions:
                if not resident[k]:
                    if newcomers is None:
                        newcomers = [k]
                    else:
                        newcomers.append(k)
            if newcomers is not None:
                limit = client_capacity - 1 if client_capacity > 1 else 0
                if len(newcomers) > limit:
                    del newcomers[limit:]
                if newcomers:
                    overflow = size + len(newcomers) - client_capacity
                    if overflow > 0:
                        for _ in range(overflow):
                            while True:
                                if cold_stack:
                                    snapshot = cold_stack.pop()
                                    victim = cold_stack.pop()
                                    if (
                                        resident[victim]
                                        and stamp[victim] == snapshot
                                    ):
                                        resident[victim] = 0
                                        break
                                elif queue:
                                    snapshot, victim = queue.pop()
                                    if (
                                        resident[victim]
                                        and stamp[victim] == snapshot
                                    ):
                                        resident[victim] = 0
                                        break
                                else:
                                    refill_queue(queue, resident, stamp)
                        size -= overflow
                        seg_evictions += overflow
                    push = cold_stack.append
                    for k in newcomers:
                        resident[k] = 1
                        stamp[k] = cold
                        push(k)
                        push(cold)
                        cold -= 1
                    size += len(newcomers)
                    seg_installs += len(newcomers)

        lru.size = size
        lru.cold = cold
        stats = cache.stats
        stats.hits += (hi - lo) - seg_misses
        stats.misses += seg_misses
        stats.evictions += seg_evictions
        stats.installs += seg_installs

    if server is not None:
        s_lru.size = s_size
        s_lru.cold = s_cold
        server_stats.hits += s_hits
        server_stats.misses += s_misses
        server_stats.evictions += s_evictions
        server_stats.installs += s_installs
        server_mirror.hits += s_hits
        server_mirror.misses += s_misses
    if runs:
        state.prev = prev
        tracker._previous = prev if prev != dummy else None
    state.clock = clock + len(ctrace)
    if new_preds:
        succ.fold_into(tracker)
    system.remote_requests += remote_requests
    system.store.fetches += store_fetches
    if record:
        if cooperative:
            transition_sites = len(ctrace)
        else:
            transition_sites = remote_requests
        transitions = (
            transition_sites - 1
            if (prev_was_none and transition_sites)
            else transition_sites
        )
        system._record_replay_metrics(registry, baseline, transitions)
        system._record_policy_counters(registry, baseline)
        if singleton_builds:
            registry.counter("grouping.build.singletons").inc(singleton_builds)
        registry.histogram("engine.replay.kernel.ns").observe(
            time.perf_counter_ns() - started
        )
        registry.counter("engine.replay.path.kernel_v2").inc()
    if owned:
        state.export()
    return system.metrics()
