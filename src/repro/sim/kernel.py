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

Two kernels live here:

* :func:`replay_columns_v2` — the full Figure-2 system replay on an
  array-backed eviction core.  A port of the engine's fused loop that
  iterates zero-copy column slices per client segment, with the dict
  LRU state swapped for the flat arrays of
  :class:`~repro.caching.array_lru.ArrayLRU` (one stamp store per hit,
  lazy exact eviction) and the successor-slot form of
  :class:`~repro.core.successors.ArraySuccessorTracker`.  Under write
  invalidation it reads the kind column and applies the callback
  breaks inline.  State imports from the live system at entry and
  exports back at exit, in the trace's code space or (for a
  column-backed text trace) its file-id strings, so metrics, caches
  and tracker end byte-identical to the per-event path;
  :func:`v2_import` decides eligibility and the engine replays the
  decoded events on its dict loop when it returns None.
* :func:`scan_columns` — the pure-int column scan: event counts, unique
  files, and the kind histogram in one pass.  Vectorized with numpy
  when available, with a count-identical pure-python fallback built on
  C-speed primitives (``set`` construction, ``bytes.count``).  This is
  the 10M+ events/s hot path the strict benchmark gate tracks; the
  windowed telemetry driver and ``repro trace info`` ride it.

Every replay entry point records which loop ran under the
``engine.replay.path.*`` counters (``kernel_v2`` / ``fast`` /
``generic``), so ``repro metrics`` and ``repro report`` can
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
from itertools import compress
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
from ..core.successors import ArraySuccessorTracker, LRUSuccessorList
from ..obs import registry as _obs

#: Default client identity for events that carry none (engine contract).
DEFAULT_CLIENT = "client00"

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

#: Kind codes (:data:`repro.traces.columnar.KINDS`) the replay reads.
_DELETE = 4
#: ``bytes.translate`` table: 1 for WRITE, CREATE and DELETE, else 0.
_MUTATION_MASK = bytes(1 if code in (2, 3, _DELETE) else 0 for code in range(256))


def map_previous(ctrace, previous):
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


def _import_lru(order, capacity: int, universe: int) -> Optional[ArrayLRU]:
    """Array form of an ``OrderedDict`` LRU keyed by codes, else None.

    Every key must be an int code in ``[0, universe)``; string keys
    from a prior string-keyed replay, or codes from a bigger trace's
    namespace, make the caller decline the kernel.
    """
    if not all(type(key) is int and 0 <= key < universe for key in order):
        return None
    return ArrayLRU.from_keys(order, capacity, universe)


class KeyCodec:
    """The string key space: file ids in the system, codes in the arrays.

    Codes ``[0, len(file_symbols))`` are the trace's own; any other key
    the system already holds (a file of an earlier trace, in a cache or
    a successor list) gets the next free code on import, so the arrays
    carry it exactly as the dict loop would.  ``keys[code]`` decodes.
    """

    __slots__ = ("index", "keys", "foreign")

    def __init__(self, ctrace):
        self.keys = list(ctrace.file_symbols)
        self.index = ctrace.code_index()
        self.foreign = {}

    def encode(self, key) -> int:
        code = self.index.get(key)
        if code is None:
            code = self.foreign.get(key)
            if code is None:
                code = self.foreign[key] = len(self.keys)
                self.keys.append(key)
        return code


class V2ReplayState:
    """Live array state for one v2 replay (or one windowed session).

    The :class:`ArrayLRU` per client (paired with its cache object),
    the server's, the successor slots, the carried predecessor, and the
    monotone event clock that keeps stamps unique across successive
    :func:`replay_columns_v2` calls.  Windowed replay imports once,
    replays every chunk against the same state and calls :meth:`export`
    at the end, so small windows pay no per-chunk import/export.  In a
    trace's code space (``codec`` None) the successor slots are the
    tracker's own lists, shared in place; in the string key space they
    are encoded copies that :meth:`sync_tracker` decodes back at the end
    of every call.  Between calls the cache ``OrderedDict`` contents are
    stale (stats, system counters and tracker lists are always
    current); a caller that keeps the state and reads them must export
    first.
    """

    __slots__ = (
        "system",
        "universe",
        "codec",
        "prev",
        "clock",
        "succ",
        "client_lrus",
        "server_lru",
        "imported",
    )

    def __init__(self, system, universe: int, codec: Optional[KeyCodec] = None):
        self.system = system
        self.universe = universe
        self.codec = codec
        self.prev = None
        self.clock = 0
        self.succ: Optional[ArraySuccessorTracker] = None
        #: client id -> (ArrayLRU, LRUCache) pairs.
        self.client_lrus = {}
        self.server_lru: Optional[ArrayLRU] = None
        #: String key space only: (code, LRUSuccessorList) per tracker list.
        self.imported = []

    def sync_tracker(self) -> None:
        """Bring the tracker's lists and ``_previous`` up to date."""
        succ = self.succ
        tracker = self.system.tracker
        prev = None if self.prev == succ.dummy else self.prev
        codec = self.codec
        if codec is None:
            if succ.new_preds:
                succ.fold_into(tracker)
            tracker._previous = prev
            return
        decode = codec.keys.__getitem__
        slots = succ.slots
        for code, slist in self.imported:
            slist._items = list(map(decode, slots[code]))
        lists = tracker._lists
        for code in succ.new_preds:
            if code == succ.dummy:
                continue
            slist = LRUSuccessorList(succ.capacity)
            slist._items = list(map(decode, slots[code]))
            lists[decode(code)] = slist
            self.imported.append((code, slist))
        succ.new_preds = []
        tracker._previous = None if prev is None else decode(prev)

    def export(self) -> None:
        """Write the array orders back into the cache ``OrderedDict``s."""
        decode = None if self.codec is None else self.codec.keys.__getitem__
        pairs = list(self.client_lrus.values())
        if self.server_lru is not None:
            pairs.append((self.server_lru, self.system.server_cache))
        for lru, cache in pairs:
            keys = lru.export()
            order = cache._order
            order.clear()
            for key in keys if decode is None else map(decode, keys):
                order[key] = None


def v2_import(system, ctrace, strings: bool = False):
    """Import a system's live state into array form, or None if it can't.

    The caller must already hold ``system._kernel_ok()``; this adds the
    *array* eligibility: no evict listeners (the arrays batch evictions
    and cannot call back per victim) and every client cache at the
    system capacity.  In the trace's code space (``strings=False``)
    every cache key and successor entry must be an int code of this
    trace.  In the string key space (``strings=True``, a column-backed
    :class:`~repro.traces.events.Trace` replayed without ``intern``)
    every key maps, through a :class:`KeyCodec`.  A fresh system
    imports at zero cost; warm state costs one pass over cache contents
    and metadata.  Returns a :class:`V2ReplayState` ready for
    :func:`replay_columns_v2`.
    """
    server = system.server_cache
    caches = list(system.clients.items())
    if server is not None:
        caches.append((None, server))
    client_capacity = system.client_capacity
    for client_id, cache in caches:
        if cache.evict_listener is not None:
            return None
        if client_id is not None and cache.capacity != client_capacity:
            return None
    tracker = system.tracker
    if strings:
        codec = KeyCodec(ctrace)
        encode = codec.encode
        orders = [[encode(key) for key in cache._order] for _id, cache in caches]
        lists = [
            (encode(key), slist, [encode(entry) for entry in slist._items])
            for key, slist in tracker._lists.items()
        ]
        previous = tracker._previous
        prev = None if previous is None else encode(previous)
        universe = len(codec.keys)
        succ = ArraySuccessorTracker(tracker.capacity, universe)
        for code, _slist, items in lists:
            succ.slots[code] = items
            if items:
                succ.heads[code] = items[0]
    else:
        codec = None
        universe = len(ctrace.file_symbols)
        prev = map_previous(ctrace, tracker._previous)
        if prev is not None and not 0 <= prev <= universe:
            return None
        succ = ArraySuccessorTracker.from_tracker(tracker, universe)
        if succ is None:
            return None
        orders = [cache._order for _id, cache in caches]
    state = V2ReplayState(system, universe, codec)
    state.succ = succ
    state.prev = succ.dummy if prev is None else prev
    if codec is not None:
        state.imported = [(code, slist) for code, slist, _items in lists]
    for (client_id, cache), order in zip(caches, orders):
        lru = (
            _import_lru(order, cache.capacity, universe)
            if codec is None
            else ArrayLRU.from_keys(order, cache.capacity, universe)
        )
        if lru is None:
            return None
        if client_id is None:
            state.server_lru = lru
        else:
            state.client_lrus[client_id] = (lru, cache)
    return state


def replay_columns_v2(system, ctrace, state: Optional[V2ReplayState] = None):
    """Replay a columnar trace through the array-backed eviction core.

    The caller (:meth:`DistributedFileSystem._replay_trace`) guarantees
    ``system._kernel_ok()``.  The loop is the engine's fused loop over
    integer columns and flat-array state: a hit is one stamp store, a
    miss runs the lazy exact-LRU eviction and stamps group installs
    from the cold clock, and successor observations mutate slot lists.
    Under ``invalidate_on_write`` it reads the kind column and applies
    :meth:`DistributedFileSystem._apply_mutation`'s callback breaks
    after the event's access: WRITE and CREATE clear the file from the
    other clients' arrays, DELETE from every client's and the server's,
    touching no stats.  Metrics, cache contents, tracker state and
    observability counter deltas are byte-identical to the per-event
    path (the kernel parity tests hold it to all four).

    With ``state`` omitted, the function imports in the trace's code
    space and exports back before returning (``ValueError`` if
    :func:`v2_import` declines).  A caller that replays many chunks
    passes one :class:`V2ReplayState` across calls and exports once.
    """
    owned = state is None
    if owned:
        state = v2_import(system, ctrace)
        if state is None:
            raise ValueError(
                "system state is not v2-eligible; replay the decoded events"
            )
    runs = client_runs(ctrace)
    codes = ctrace.file_codes
    clock = state.clock

    succ = state.succ
    slots = succ.slots
    heads = succ.heads
    new_preds = succ.new_preds
    successor_capacity = succ.capacity
    prev = state.prev
    universe = state.universe

    group_size = system.group_size
    cooperative = system.cooperative
    clients = system.clients
    client_capacity = system.client_capacity
    client_lrus = state.client_lrus
    if len(client_lrus) != len(clients):
        # Caches injected since the import: every client takes part in
        # invalidation, so share them in now (state kept across calls is
        # always in a trace's code space).
        for client_id, cache in clients.items():
            if client_id not in client_lrus:
                lru = _import_lru(cache._order, client_capacity, universe)
                if lru is None:
                    raise ValueError(
                        f"client {client_id!r} cache keys left the trace's"
                        " code space between calls"
                    )
                client_lrus[client_id] = (lru, cache)
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

    # Indices of the mutations to apply, each after its event's access,
    # then a sentinel past the last event.
    kinds = ctrace.kind_codes
    if system.invalidate_on_write and kinds is not None:
        mask = bytes(kinds).translate(_MUTATION_MASK)
        mutations = list(compress(range(len(mask)), mask))
    else:
        mutations = []
    mutations.append(len(ctrace))
    mutation = 0
    mutate_at = mutations[0]
    invalidations = 0

    record = _obs.ENABLED
    observe_group = observe_chain = None
    singleton_builds = 0
    if record:
        registry = _obs.get_registry()
        observe_group = registry.histogram("engine.group_fetch.size").observe
        observe_chain = registry.histogram("grouping.chain.length").observe
        baseline = system._metrics_baseline()
        prev_was_none = prev == succ.dummy
        started = time.perf_counter_ns()

    remote_requests = 0
    store_fetches = 0

    for client_id, lo, hi in runs:
        pair = client_lrus.get(client_id)
        if pair is None:
            cache = LRUCache(client_capacity)
            cache.trace_name = f"client.{client_id}"
            clients[client_id] = cache
            lru = ArrayLRU(client_capacity, universe)
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

        # The run in pieces, each ending on a mutation or at the run's
        # end, so the event loop itself never checks a kind.
        start = lo
        while start < hi:
            stop = mutate_at + 1 if mutate_at < hi else hi
            for i, f in enumerate(codes[start:stop], clock + start):
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

            start = stop
            if mutate_at >= stop:
                continue
            # ---- write invalidation: per-file callback breaks ----
            if kinds[mutate_at] == _DELETE:
                if resident[f]:
                    resident[f] = 0
                    size -= 1
                    invalidations += 1
                if server is not None and s_res[f]:
                    s_res[f] = 0
                    s_size -= 1
                    invalidations += 1
            for other, _cache in client_lrus.values():
                if other is not lru and other.in_cache[f]:
                    other.in_cache[f] = 0
                    other.size -= 1
                    invalidations += 1
            mutation += 1
            mutate_at = mutations[mutation]

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
    state.clock = clock + len(ctrace)
    state.sync_tracker()
    system.remote_requests += remote_requests
    system.store.fetches += store_fetches
    system.invalidations += invalidations
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
