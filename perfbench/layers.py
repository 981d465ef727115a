"""The traced run's per-layer table.

Each layer is driven from outside, through its public functions, over
the stream it sees inside the full Figure-2 system:

* the client tier over each client's own stream (one LRU per client,
  events in global order, which also yields the client-miss stream --
  the same projection ``repro.traces.filters.cache_filtered`` makes for
  one client, kept in global order across clients);
* the successor tracker over the full stream (cooperative clients
  piggy-back every access);
* the group builder once per client miss;
* the server tier over the resulting group requests.

Their unit costs, scaled to the events and remote requests of one fused
``DistributedFileSystem.replay`` and summed, over that replay's time
are ``sim.fusion_ratio``.  Near 1, the replay's time is its layers' own
work, spread over them as the table shows; well above 1, fusing the
layers into one loop is itself the saving.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Sequence

from measure import Metrics

CLIENT_CAPACITY = 250
SERVER_CAPACITY = 300
GROUP_SIZE = 5
SUCCESSOR_CAPACITY = 8

#: Parse timings repeat over the captured bodies until this much work.
PARSE_MIN_NS = 50_000_000


@contextmanager
def span(buffer, name: str, parent=None, **annotations):
    """A ``repro.span/1`` span around one layer call (no-op untraced)."""
    if buffer is None:
        yield None
        return
    opened = buffer.start_span(
        name,
        trace=parent.trace if parent is not None else None,
        parent=parent.span if parent is not None else None,
        kind="internal" if parent is not None else "client",
    )
    try:
        yield opened
    finally:
        opened.finish()
        for key, value in annotations.items():
            opened.annotate(key, value)


def make_system(invalidate: bool):
    from repro.sim.engine import DistributedFileSystem

    return DistributedFileSystem(
        CLIENT_CAPACITY,
        SERVER_CAPACITY,
        GROUP_SIZE,
        cooperative=True,
        successor_capacity=SUCCESSOR_CAPACITY,
        invalidate_on_write=invalidate,
    )


def replay_layers(
    trace, invalidate: bool, workdir: Path, metrics: Metrics, clock, buffer=None
) -> None:
    """Trace readers, the fused replay, and each replay layer on ``trace``.

    Packing and text writing are timed by the workloads' set-up, where
    users pay them; here the files only feed the readers.
    """
    from repro.caching.array_lru import ArrayLRU
    from repro.caching.lru import LRUCache
    from repro.caching.multilevel import TwoLevelHierarchy
    from repro.core.aggregating_cache import (
        AggregatingClientCache,
        AggregatingServerCache,
    )
    from repro.core.grouping import GroupBuilder
    from repro.core.successors import SuccessorTracker
    from repro.obs import collecting
    from repro.traces.columnar import (
        ColumnarTrace,
        read_columnar,
        validate_columnar,
        write_columnar,
    )
    from repro.traces.reader import read_trace
    from repro.traces.writer import write_trace

    events = len(trace)
    root = buffer.start_span("layers", kind="client") if buffer else None

    # -- trace codecs ------------------------------------------------------
    columnar_path = workdir / "layers.ctrace"
    text_path = workdir / "layers.trace"
    packed = ColumnarTrace.from_trace(trace)
    write_columnar(packed, columnar_path)
    write_trace(trace, text_path)
    with span(buffer, "traces.read_trace", root, events=events):
        clock.start()
        text_trace = read_trace(text_path)
        elapsed = clock.lap() * 1e9
    metrics.add("traces.read_trace.events_per_s", events / (elapsed / 1e9), "1/s")
    with span(buffer, "traces.read_columnar", root, events=events):
        clock.start()
        columnar = read_columnar(columnar_path)
        if not validate_columnar(columnar_path):
            raise RuntimeError("freshly written .ctrace failed validation")
        metrics.add("traces.read_columnar_ms", clock.lap() * 1e3, "ms")

    # -- the fused replay --------------------------------------------------
    # Invalidation needs event kinds from the text reader's events; the
    # other configurations replay the columnar file, as the workloads do.
    source = text_trace if invalidate else columnar
    with span(buffer, "sim.replay", root, events=events):
        clock.start()
        reference = make_system(invalidate).replay(source)
        replay_ns = clock.lap() * 1e9
    metrics.add("sim.replay.events_per_s", events / (replay_ns / 1e9), "1/s")
    with collecting() as registry:
        make_system(invalidate).replay(source)
    counters = registry.snapshot()["counters"]
    for path in ("kernel_v2", "kernel", "fast", "generic"):
        metrics.add(
            f"sim.replay.path.{path}",
            counters.get(f"engine.replay.path.{path}", 0),
            "count",
        )
    v2_taken = counters.get("engine.replay.path.kernel_v2", 0) > 0

    # -- the layers, each over the stream it sees --------------------------
    clients = [event.client_id or "client00" for event in trace]
    files = [event.file_id for event in trace]
    codes = list(packed.file_codes)

    with span(buffer, "caching.client_lru", root, events=events):
        caches: Dict[str, LRUCache] = {}
        misses: List[str] = []
        clock.start()
        for client, file_id in zip(clients, files):
            cache = caches.get(client)
            if cache is None:
                cache = caches[client] = LRUCache(CLIENT_CAPACITY)
            if not cache.access(file_id):
                misses.append(file_id)
        client_ns = clock.lap() * 1e9
    metrics.add("caching.client_lru.ns_per_access", client_ns / events, "ns")
    metrics.add("caching.client_lru.hit_ratio", 1 - len(misses) / events, "ratio")

    universe = len(packed.file_symbols)
    with span(buffer, "caching.array_lru", root, events=events):
        arrays: Dict[str, ArrayLRU] = {}
        clock.start()
        for client, code in zip(clients, codes):
            lru = arrays.get(client)
            if lru is None:
                lru = arrays[client] = ArrayLRU(CLIENT_CAPACITY, universe)
            lru.access(code)
        array_ns = clock.lap() * 1e9
    metrics.add("caching.array_lru.ns_per_access", array_ns / events, "ns")

    tracker = SuccessorTracker(policy="lru", capacity=SUCCESSOR_CAPACITY)
    with span(buffer, "core.successors", root, events=events):
        clock.start()
        tracker.observe_sequence(files)
        successor_ns = clock.lap() * 1e9
    metrics.add("core.successors.ns_per_observe", successor_ns / events, "ns")
    metrics.add(
        "core.successors.metadata_entries", tracker.metadata_entries(), "count"
    )

    builder = GroupBuilder(tracker, GROUP_SIZE)
    with span(buffer, "core.grouping", root, builds=len(misses)):
        build = builder.build
        clock.start()
        groups = [build(file_id).members for file_id in misses]
        grouping_ns = clock.lap() * 1e9
    metrics.add("core.grouping.ns_per_build", grouping_ns / max(len(misses), 1), "ns")
    metrics.add(
        "core.grouping.mean_group_size",
        sum(map(len, groups)) / max(len(groups), 1),
        "files",
    )

    server = LRUCache(SERVER_CAPACITY)
    with span(buffer, "caching.server_lru", root, requests=len(groups)):
        access = server.access
        install = server.install_group_at_tail
        hits = 0
        clock.start()
        for members in groups:
            if access(members[0]):
                hits += 1
            install(members[1:])
        server_ns = clock.lap() * 1e9
    metrics.add(
        "caching.server_lru.ns_per_request", server_ns / max(len(groups), 1), "ns"
    )
    metrics.add(
        "caching.server_lru.hit_ratio", hits / max(len(groups), 1), "ratio"
    )
    # The layers' unit costs, scaled to the work the fused system did: a
    # plain LRU misses more often than a client that prefetches groups.
    client_tier_ns = array_ns if v2_taken else client_ns
    per_request_ns = grouping_ns / max(len(misses), 1) + server_ns / max(len(groups), 1)
    layer_sum_ns = (
        client_tier_ns + successor_ns + per_request_ns * reference.remote_requests
    )
    metrics.add(
        "sim.fusion_ratio",
        layer_sum_ns / replay_ns,
        "ratio",
        f"layer sum / fused replay, {reference.remote_requests} remote requests",
    )

    # -- the figure sweeps' inner loops, one paper point each --------------
    with span(buffer, "core.aggregating_client", root, events=events):
        cache = AggregatingClientCache(
            capacity=SERVER_CAPACITY,
            group_size=GROUP_SIZE,
            successor_capacity=SUCCESSOR_CAPACITY,
        )
        clock.start()
        cache.replay(codes)
        elapsed = clock.lap() * 1e9
    metrics.add(
        "core.aggregating_client.events_per_s", events / (elapsed / 1e9), "1/s"
    )
    with span(buffer, "caching.multilevel", root, events=events):
        hierarchy = TwoLevelHierarchy(
            LRUCache(CLIENT_CAPACITY),
            AggregatingServerCache(
                SERVER_CAPACITY,
                group_size=GROUP_SIZE,
                successor_capacity=SUCCESSOR_CAPACITY,
            ),
        )
        clock.start()
        hierarchy.replay(codes)
        elapsed = clock.lap() * 1e9
    metrics.add("caching.multilevel.ns_per_event", elapsed / events, "ns")
    if root is not None:
        root.finish()
        root.annotate("events", events)
        root.annotate("reference_remote_requests", reference.remote_requests)


def served_layers(
    served_files: Sequence[str],
    bodies: Sequence[bytes],
    metrics: Metrics,
    clock,
    buffer=None,
) -> None:
    """The daemon's in-process layers over exactly what it was sent.

    Times, like the other layers', are reference-host time read from
    ``clock`` (a :class:`measure.HostClock`).
    """
    from repro.core.aggregating_cache import AggregatingServerCache
    from repro.serve.schema import parse_body, parse_fetch

    with span(buffer, "core.aggregating_server", None, events=len(served_files)):
        cache = AggregatingServerCache(
            SERVER_CAPACITY,
            group_size=GROUP_SIZE,
            successor_capacity=SUCCESSOR_CAPACITY,
        )
        access = cache.access
        clock.start()
        for file_id in served_files:
            access(file_id)
        elapsed = clock.lap() * 1e9
    metrics.add(
        "core.aggregating_server.ns_per_access",
        elapsed / max(len(served_files), 1),
        "ns",
    )
    with span(buffer, "serve.schema.parse", None, bodies=len(bodies)):
        parsed = 0
        clock.start()
        began = time.perf_counter_ns()
        while time.perf_counter_ns() - began < PARSE_MIN_NS:
            for raw in bodies:
                parse_fetch(parse_body(raw))
            parsed += len(bodies)
        elapsed = clock.lap() * 1e9
    metrics.add("serve.schema.parse_us", elapsed / parsed / 1e3, "us")


#: Daemon child spans, by the share each reports.
SPAN_SHARES = {
    "lock.wait": "serve.lock_wait.share",
    "cache.fetch": "serve.cache.share",
    "journal.append": "serve.journal.share",
    "response.write": "serve.response_write.share",
}


def span_shares(daemon_spans: Sequence[dict]) -> Dict[str, float]:
    """Shares of daemon ``/fetch`` time by child span; they sum to 1.

    Whatever no child span covers is ``serve.unattributed.share``, its
    own row, so the shares always add up.
    """
    roots = {
        record["span"]: record["duration_ns"]
        for record in daemon_spans
        if record.get("span_kind") == "server"
        and record.get("annotations", {}).get("endpoint") == "/fetch"
    }
    total = sum(roots.values())
    if not total:
        raise RuntimeError("the daemon recorded no /fetch server spans")
    covered = {name: 0 for name in SPAN_SHARES.values()}
    for record in daemon_spans:
        share = SPAN_SHARES.get(record.get("name"))
        if share is not None and record.get("parent") in roots:
            covered[share] += record["duration_ns"]
    shares = {name: value / total for name, value in covered.items()}
    shares["serve.unattributed.share"] = 1.0 - sum(shares.values())
    return shares
