"""Microbenchmarks: throughput of the core data structures.

Unlike the figure benches (single-round replays), these use normal
pytest-benchmark timing so regressions in the hot paths — cache access,
successor tracking, group construction, entropy computation — show up
as ops/sec changes.
"""

import random

from repro.caching.lfu import LFUCache
from repro.caching.lru import LRUCache
from repro.core.aggregating_cache import AggregatingClientCache
from repro.core.entropy import successor_entropy
from repro.core.grouping import GroupBuilder
from repro.core.successors import SuccessorTracker

_RNG = random.Random(99)
KEYS = [f"f{_RNG.randrange(500)}" for _ in range(10_000)]


def test_lru_access_throughput(benchmark):
    cache = LRUCache(250)

    def run():
        for key in KEYS:
            cache.access(key)

    benchmark(run)
    benchmark.extra_info["keys_per_round"] = len(KEYS)


def test_lfu_access_throughput(benchmark):
    cache = LFUCache(250)

    def run():
        for key in KEYS:
            cache.access(key)

    benchmark(run)


def test_successor_tracker_throughput(benchmark):
    def run():
        tracker = SuccessorTracker(policy="lru", capacity=8)
        tracker.observe_sequence(KEYS)
        return tracker

    benchmark(run)


def test_group_build_throughput(benchmark):
    tracker = SuccessorTracker(policy="lru", capacity=8)
    tracker.observe_sequence(KEYS)
    builder = GroupBuilder(tracker, 5)
    seeds = KEYS[:1000]

    def run():
        for seed in seeds:
            builder.build(seed)

    benchmark(run)
    benchmark.extra_info["groups_per_round"] = len(seeds)


def test_aggregating_cache_throughput(benchmark):
    def run():
        cache = AggregatingClientCache(capacity=250, group_size=5)
        cache.replay(KEYS)
        return cache.demand_fetches

    benchmark(run)


def test_successor_entropy_throughput(benchmark):
    benchmark(lambda: successor_entropy(KEYS, 1))


def test_successor_entropy_long_symbols(benchmark):
    benchmark(lambda: successor_entropy(KEYS, 8))


def test_ppm_update_throughput(benchmark):
    from repro.core.context import PPMPredictor

    def run():
        predictor = PPMPredictor(max_order=2, max_contexts=2000)
        for key in KEYS:
            predictor.update(key)
        return predictor

    benchmark(run)


def test_lirs_access_throughput(benchmark):
    from repro.caching.lirs import LIRSCache

    cache = LIRSCache(250)

    def run():
        for key in KEYS:
            cache.access(key)

    benchmark(run)


def test_relationship_graph_build_throughput(benchmark):
    from repro.core.graph import RelationshipGraph

    benchmark(lambda: RelationshipGraph.from_sequence(KEYS))


def test_trace_roundtrip_throughput(benchmark):
    import io

    from repro.traces.events import Trace
    from repro.traces.reader import read_trace
    from repro.traces.writer import write_trace

    trace = Trace.from_file_ids(KEYS)

    def run():
        buffer = io.StringIO()
        write_trace(trace, buffer)
        return read_trace(io.StringIO(buffer.getvalue()))

    benchmark(run)


def test_stack_distance_throughput(benchmark):
    from repro.caching.stack_distance import miss_curve

    capacities = [50, 100, 200, 400, 800]

    def run():
        return miss_curve(KEYS, capacities)

    benchmark(run)
    benchmark.extra_info["capacities"] = len(capacities)


# -- full-system replay throughput -----------------------------------------
#
# These are the headline perf numbers: events/sec of the Figure 2 system
# replay on a real synthetic workload, recorded in extra_info so the
# BENCH_*.json artifact carries throughput, not just wall time.


def _system_trace():
    from repro.experiments.common import FAST_EVENTS, workload_trace

    return workload_trace("server", FAST_EVENTS)


def _record_throughput(benchmark, events):
    benchmark.extra_info["events_per_round"] = events
    # Median, not mean: a single GC / scheduler hiccup in one round
    # would otherwise skew the recorded throughput.
    median = benchmark.stats.stats.median
    if median > 0:
        benchmark.extra_info["events_per_second"] = round(events / median)


def test_system_replay_throughput(benchmark):
    from repro.sim.engine import DistributedFileSystem

    trace = _system_trace()

    def run():
        system = DistributedFileSystem(
            client_capacity=250, server_capacity=300, group_size=5
        )
        return system.replay(trace)

    metrics = benchmark(run)
    assert metrics.total_client_accesses == len(trace)
    _record_throughput(benchmark, len(trace))


def test_system_replay_write_invalidation_throughput(benchmark):
    # The write workload with per-file callback breaks, through the
    # fused loop's mutation branch.
    from repro.experiments.common import FAST_EVENTS, workload_trace
    from repro.sim.engine import DistributedFileSystem

    trace = workload_trace("write", FAST_EVENTS)

    def run():
        system = DistributedFileSystem(
            client_capacity=250,
            server_capacity=300,
            group_size=5,
            invalidate_on_write=True,
        )
        return system.replay(trace)

    metrics = benchmark(run)
    assert metrics.total_client_accesses == len(trace)
    assert metrics.invalidations > 0
    _record_throughput(benchmark, len(trace))


def test_system_replay_interned_throughput(benchmark):
    from repro.sim.engine import DistributedFileSystem

    trace = _system_trace()

    def run():
        system = DistributedFileSystem(
            client_capacity=250, server_capacity=300, group_size=5
        )
        return system.replay(trace, intern=True)

    metrics = benchmark(run)
    assert metrics.total_client_accesses == len(trace)
    _record_throughput(benchmark, len(trace))


def test_system_replay_generic_path_throughput(benchmark):
    # The pre-optimization baseline: per-event access() calls.  Kept as
    # a benchmark so the fast-loop speedup is measurable in one run.
    from repro.sim.engine import DistributedFileSystem

    trace = _system_trace()

    def run():
        system = DistributedFileSystem(
            client_capacity=250, server_capacity=300, group_size=5
        )
        for event in trace:
            system.access(event.client_id or "client00", event.file_id)
        return system.metrics()

    metrics = benchmark(run)
    assert metrics.total_client_accesses == len(trace)
    _record_throughput(benchmark, len(trace))


def test_aggregating_replay_fast_throughput(benchmark):
    from repro.experiments.common import FAST_EVENTS, workload_sequence

    sequence = workload_sequence("server", FAST_EVENTS)

    def run():
        cache = AggregatingClientCache(capacity=250, group_size=5)
        cache.replay(sequence)
        return cache.demand_fetches

    benchmark(run)
    _record_throughput(benchmark, len(sequence))


def test_two_level_hierarchy_replay_throughput(benchmark):
    # One Figure 4 point: an LRU client filter in front of an
    # aggregating server cache, over the integer codes the sweeps
    # replay (level by level: LRU miss pass, then the fused loop).
    from repro.caching.multilevel import TwoLevelHierarchy
    from repro.core.aggregating_cache import AggregatingServerCache
    from repro.experiments.common import FAST_EVENTS, workload_codes

    codes = workload_codes("server", FAST_EVENTS)

    def run():
        hierarchy = TwoLevelHierarchy(
            LRUCache(250), AggregatingServerCache(300, group_size=5)
        )
        return hierarchy.replay(codes)

    result = benchmark(run)
    assert result.client_stats.accesses == len(codes)
    assert result.server_requests == result.client_stats.misses
    _record_throughput(benchmark, len(codes))


# -- columnar kernel -------------------------------------------------------
#
# The batch kernel consumes int columns straight off the (mmap-backed)
# columnar trace.  Two numbers matter: the full-system replay (stateful
# array LRU loop, through the engine's dispatch and called directly)
# and the pure-int column scan — the 10M+ events/s hot path the strict
# gate tracks.


def _columnar_trace():
    from repro.experiments.common import FAST_EVENTS, workload_columnar

    return workload_columnar("server", FAST_EVENTS)


def test_columnar_kernel_replay_throughput(benchmark):
    # The engine's columnar dispatch, `system.replay(columnar)`: the
    # eligibility checks, the array import, the fused replay and the
    # OrderedDict export, as every caller pays them.
    from repro.sim.engine import DistributedFileSystem

    ctrace = _columnar_trace()

    def run():
        system = DistributedFileSystem(
            client_capacity=250, server_capacity=300, group_size=5
        )
        return system.replay(ctrace)

    metrics = benchmark(run)
    assert metrics.total_client_accesses == len(ctrace)
    _record_throughput(benchmark, len(ctrace))


def test_columnar_kernel_v2_replay_throughput(benchmark):
    # The array-backed kernel called directly — import, fused replay,
    # and OrderedDict export all included, without the engine's
    # dispatch in front of it.
    from repro.sim.engine import DistributedFileSystem
    from repro.sim.kernel import replay_columns_v2

    ctrace = _columnar_trace()

    def run():
        system = DistributedFileSystem(
            client_capacity=250, server_capacity=300, group_size=5
        )
        return replay_columns_v2(system, ctrace)

    metrics = benchmark(run)
    assert metrics.total_client_accesses == len(ctrace)
    _record_throughput(benchmark, len(ctrace))


def test_array_lru_throughput(benchmark):
    # The eviction core microbenchmark: same access stream as
    # test_lru_access_throughput but over dense int codes, so the
    # stamp-store hit path is measured against the OrderedDict one.
    from repro.caching.array_lru import ArrayLRU

    int_keys = [int(key[1:]) for key in KEYS]

    def run():
        cache = ArrayLRU(250, 500)
        for key in int_keys:
            cache.access(key)
        return cache

    benchmark(run)
    benchmark.extra_info["keys_per_round"] = len(int_keys)
    _record_throughput(benchmark, len(int_keys))


def test_columnar_scan_pure_int_throughput(benchmark):
    # Strict-gated on the *pure-python* fallback so the recorded number
    # is comparable on machines with and without numpy (the CI gate runs
    # numpy-free).  C-speed primitives (set construction, bytes.count)
    # keep even this path above the 10M events/s bar.
    import repro.sim.kernel as kernel

    ctrace = _columnar_trace()
    file_codes = ctrace.file_codes
    kind_codes = ctrace.kind_codes
    n_symbols = len(ctrace.file_symbols)

    def run():
        return kernel.scan_columns(file_codes, kind_codes, n_symbols)

    saved = kernel.HAVE_NUMPY
    kernel.HAVE_NUMPY = False
    try:
        scan = benchmark(run)
    finally:
        kernel.HAVE_NUMPY = saved
    assert scan.events == len(ctrace)
    _record_throughput(benchmark, len(ctrace))


def test_columnar_scan_numpy_throughput(benchmark):
    # The vectorized path (one bincount per column).  Not in the strict
    # set: it only exists where numpy is installed.
    import pytest

    from repro.sim.kernel import HAVE_NUMPY, scan_columns

    if not HAVE_NUMPY:
        pytest.skip("numpy not installed")
    ctrace = _columnar_trace()
    file_codes = ctrace.file_codes
    kind_codes = ctrace.kind_codes
    n_symbols = len(ctrace.file_symbols)

    def run():
        return scan_columns(file_codes, kind_codes, n_symbols)

    scan = benchmark(run)
    assert scan.events == len(ctrace)
    _record_throughput(benchmark, len(ctrace))


def test_columnar_decode_throughput(benchmark):
    # The interchange decode (columns -> event objects): the cost the
    # kernel path avoids, kept measurable alongside it.
    ctrace = _columnar_trace()

    def run():
        return ctrace.to_trace()

    trace = benchmark(run)
    assert len(trace) == len(ctrace)
    _record_throughput(benchmark, len(ctrace))


def test_trace_read_throughput(benchmark):
    # Text-trace parsing on the write workload's shape (mixed kinds,
    # client= attributes): the reader in front of the write-invalidation
    # replay.
    import io

    from repro.experiments.common import FAST_EVENTS, workload_trace
    from repro.traces.reader import read_trace
    from repro.traces.writer import write_trace

    buffer = io.StringIO()
    write_trace(workload_trace("write", FAST_EVENTS), buffer)
    text = buffer.getvalue()

    def run():
        return read_trace(io.StringIO(text))

    trace = benchmark(run)
    assert len(trace) == FAST_EVENTS
    _record_throughput(benchmark, len(trace))
