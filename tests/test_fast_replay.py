"""Equivalence tests for the inlined replay fast paths.

The engine and the aggregating client cache both carry specialized
replay loops (optionally over interned integer codes).  These tests
lock in the contract: the fast loops — string-keyed and interned — are
count-for-count identical to driving the generic per-event ``access``
path, across all four synthetic workloads.  The engine's loop also
applies write invalidation inline; hypothesis drives it with random
OPEN / WRITE / CREATE / DELETE mixes, plainly, chained, interned, and
from columnar traces (which ride the array kernel), against
the per-event ``access`` + ``process_mutation`` reference.
"""

import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregating_cache import AggregatingClientCache
from repro.experiments.common import workload_sequence, workload_trace
from repro.obs import collecting, windowing
from repro.sim.engine import DistributedFileSystem
from repro.traces.columnar import ColumnarTrace
from repro.traces.events import EventKind, Trace, TraceEvent
from repro.traces.symbols import SymbolTable

WORKLOADS = ("server", "users", "write", "workstation")
EVENTS = 4000


def generic_engine_metrics(system, trace):
    """Reference replay: per-event access() calls, no fast loop."""
    for event in trace:
        client = event.client_id or "client00"
        system.access(client, event.file_id)
    return system.metrics()


def reference_replay(system, trace, intern=False):
    """Reference replay with write invalidation: per-event access(), then
    process_mutation() on mutating events, no fast loop.

    ``intern=True`` first maps file ids to dense codes through one fresh
    :class:`SymbolTable`, as the engine's ``intern`` replay does.
    """
    events = list(trace)
    if intern:
        table = SymbolTable()
        events = [
            dataclasses.replace(event, file_id=table.intern(event.file_id))
            for event in events
        ]
    for event in events:
        client = event.client_id or "client00"
        system.access(client, event.file_id)
        if system.invalidate_on_write and event.is_mutation:
            system.process_mutation(client, event)
    return system.metrics()


def replay_state(system, symbols=None):
    """Post-replay cache and successor state, in order where order matters.

    ``symbols`` decodes the keys of a replay keyed by file codes.
    """
    server = system.server_cache

    def keys(items):
        return list(items) if symbols is None else [symbols[key] for key in items]

    previous = system.tracker._previous
    return (
        [(client_id, keys(cache._order)) for client_id, cache in system.clients.items()],
        None if server is None else keys(server._order),
        [
            (keys([key])[0], keys(slist._items))
            for key, slist in system.tracker._lists.items()
        ],
        previous if previous is None else keys([previous])[0],
    )


def metrics_equal(left, right):
    return (
        {k: v for k, v in left.client_stats.items()}
        == {k: v for k, v in right.client_stats.items()}
        and left.server_stats == right.server_stats
        and left.store_fetches == right.store_fetches
        and left.store_group_fetches == right.store_group_fetches
        and left.remote_requests == right.remote_requests
        and left.metadata_entries == right.metadata_entries
        and left.invalidations == right.invalidations
    )


class TestEngineFastReplay:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_fast_replay_matches_generic(self, workload):
        trace = workload_trace(workload, EVENTS)
        config = dict(client_capacity=250, server_capacity=300, group_size=5)
        reference = generic_engine_metrics(
            DistributedFileSystem(**config), trace
        )
        fast = DistributedFileSystem(**config).replay(trace)
        assert metrics_equal(fast, reference)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_interned_replay_identical_metrics(self, workload):
        trace = workload_trace(workload, EVENTS)
        config = dict(client_capacity=250, server_capacity=300, group_size=5)
        reference = DistributedFileSystem(**config).replay(trace)
        interned = DistributedFileSystem(**config).replay(trace, intern=True)
        assert metrics_equal(interned, reference)

    def test_no_server_and_uncooperative_configs(self):
        trace = workload_trace("server", EVENTS)
        for config in (
            dict(client_capacity=200, server_capacity=0, group_size=5),
            dict(client_capacity=200, server_capacity=150, group_size=3,
                 cooperative=False),
            dict(client_capacity=200, server_capacity=0, group_size=1,
                 cooperative=False),
        ):
            reference = generic_engine_metrics(
                DistributedFileSystem(**config), trace
            )
            fast = DistributedFileSystem(**config).replay(trace)
            interned = DistributedFileSystem(**config).replay(trace, intern=True)
            assert metrics_equal(fast, reference), config
            assert metrics_equal(interned, reference), config

    def test_string_replay_keeps_string_residency(self):
        trace = workload_trace("server", EVENTS)
        system = DistributedFileSystem(client_capacity=50, server_capacity=0)
        system.replay(trace)
        cache = next(iter(system.clients.values()))
        assert all(isinstance(key, str) for key in cache.keys())

    def test_hybrid_policy_takes_generic_path(self):
        # Non-LRU successor lists are outside the fast loop's contract;
        # replay must still work (via the generic path) and count sanely.
        trace = workload_trace("server", EVENTS)
        system = DistributedFileSystem(
            client_capacity=100, successor_policy="hybrid"
        )
        assert not system._fast_replay_ok()
        metrics = system.replay(trace)
        assert metrics.total_client_accesses == EVENTS

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_invalidate_on_write_matches_reference(self, workload):
        # Write invalidation runs in the fused loop; it must count and
        # leave state exactly as access() + process_mutation() per event.
        trace = workload_trace(workload, EVENTS)
        for server_capacity, cooperative, intern in itertools.product(
            (300, 0), (True, False), (False, True)
        ):
            config = dict(
                client_capacity=100,
                server_capacity=server_capacity,
                group_size=5,
                cooperative=cooperative,
                invalidate_on_write=True,
            )
            label = (workload, server_capacity, cooperative, intern)
            system = DistributedFileSystem(**config)
            assert system._fast_replay_ok()
            reference = DistributedFileSystem(**config)
            expected = reference_replay(reference, trace, intern=intern)
            assert system.replay(trace, intern=intern) == expected, label
            assert replay_state(system) == replay_state(reference), label
            if workload == "write":
                assert expected.invalidations > 0, label

    def test_columnar_invalidation_takes_kernel(self):
        # The array kernel reads the kind column: an invalidating system
        # replays a columnar trace on it, windowed (one array state for
        # the whole trace) or not, counting as the per-event reference.
        trace = workload_trace("write", 20000)
        ctrace = ColumnarTrace.from_trace(trace)
        config = dict(
            client_capacity=250,
            server_capacity=300,
            group_size=5,
            invalidate_on_write=True,
        )
        assert DistributedFileSystem(**config)._kernel_ok()
        expected = reference_replay(DistributedFileSystem(**config), trace)
        assert expected.invalidations > 0
        with collecting() as registry:
            assert DistributedFileSystem(**config).replay(ctrace) == expected
        assert {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("engine.replay.path.")
        } == {"engine.replay.path.kernel_v2": 1}
        with windowing(window=4000):
            assert DistributedFileSystem(**config).replay(ctrace) == expected


class TestAggregatingFastReplay:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_fast_replay_matches_generic(self, workload):
        sequence = workload_sequence(workload, EVENTS)
        reference = AggregatingClientCache(capacity=250, group_size=5)
        for file_id in sequence:
            reference.access(file_id)
        fast = AggregatingClientCache(capacity=250, group_size=5)
        fast.replay(sequence)
        interned = AggregatingClientCache(capacity=250, group_size=5)
        interned.replay(sequence, intern=True)
        for candidate in (fast, interned):
            assert candidate.stats == reference.stats
            assert (
                candidate.fetch_log.__dict__ == reference.fetch_log.__dict__
            )
            assert (
                candidate.tracker.metadata_entries()
                == reference.tracker.metadata_entries()
            )
        # The string-keyed fast path also preserves exact residency.
        assert list(fast.resident_files()) == list(reference.resident_files())

    def test_subclass_takes_generic_path(self):
        class Instrumented(AggregatingClientCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.installed_batches = 0

            def _install_companions(self, companions):
                self.installed_batches += 1
                return super()._install_companions(companions)

        sequence = workload_sequence("server", EVENTS)
        cache = Instrumented(capacity=100, group_size=5)
        assert not cache._fast_replay_ok()
        cache.replay(sequence)
        assert cache.installed_batches == cache.stats.misses


# -- write invalidation under hypothesis -------------------------------------

KINDS = (EventKind.OPEN, EventKind.WRITE, EventKind.CREATE, EventKind.DELETE)

#: Short spellings for the hand-written @example traces.
O, W, C, D = KINDS

#: ``(file, kind, client)`` rows over <= 12 files and 1-4 clients.
_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=60,
)

#: Server capacity 0 means no server cache.
_configs = st.fixed_dictionaries(
    {
        "client_capacity": st.integers(min_value=1, max_value=5),
        "server_capacity": st.integers(min_value=0, max_value=5),
        "group_size": st.integers(min_value=1, max_value=5),
        "cooperative": st.booleans(),
        "successor_capacity": st.integers(min_value=1, max_value=4),
    }
)


def _trace(rows):
    """``[(file, kind, client), ...]`` -> Trace over ``f<n>`` / ``c<n>`` ids."""
    trace = Trace()
    for file_index, kind, client_index in rows:
        trace.append(
            TraceEvent(f"f{file_index}", kind, client_id=f"c{client_index}")
        )
    return trace


def _invalidating(config):
    return DistributedFileSystem(invalidate_on_write=True, **config)


def _small_config(**overrides):
    config = dict(
        client_capacity=2,
        server_capacity=2,
        group_size=3,
        cooperative=True,
        successor_capacity=2,
    )
    config.update(overrides)
    return config


class TestInvalidationDifferential:
    @given(rows=_rows, config=_configs, split=st.integers(min_value=0, max_value=60))
    @settings(max_examples=200, deadline=None)
    # A mutation as the very first event (no access history anywhere).
    @example(rows=[(0, W, 0), (0, O, 1), (0, D, 0)], config=_small_config(), split=0)
    # A DELETE of a file nobody holds.
    @example(
        rows=[(0, O, 0), (1, O, 1), (7, D, 1), (0, O, 0)],
        config=_small_config(),
        split=2,
    )
    # A DELETE right after the deleting client's own miss (group
    # installed, then the demanded file leaves every cache, server too).
    @example(
        rows=[(0, O, 0), (1, O, 0), (2, O, 0), (0, O, 1), (0, D, 1), (1, O, 1), (0, O, 0)],
        config=_small_config(client_capacity=4, server_capacity=5),
        split=3,
    )
    # CREATE / WRITE by one client while two others hold the file.
    @example(
        rows=[(3, O, 0), (3, O, 1), (3, O, 2), (3, C, 1), (3, O, 0), (3, W, 2), (3, O, 1)],
        config=_small_config(cooperative=False, server_capacity=0),
        split=4,
    )
    def test_fused_loop_matches_reference(self, rows, config, split):
        trace = _trace(rows)
        # Two chained replays: _previous (and every cache) crosses the
        # boundary between the halves.
        halves = (
            Trace(events=trace.events[:split]),
            Trace(events=trace.events[split:]),
        )
        reference = _invalidating(config)
        fast = _invalidating(config)
        assert fast._fast_replay_ok()
        for half in halves:
            expected = reference_replay(reference, half)
            assert fast.replay(half) == expected
            assert replay_state(fast) == replay_state(reference)

        # Interned in one call only: chained interned replays re-code
        # the previous file differently on the two paths (with or
        # without invalidation), so the string-keyed runs cover chaining.
        reference = _invalidating(config)
        interned = _invalidating(config)
        expected = reference_replay(reference, trace, intern=True)
        assert interned.replay(trace, intern=True) == expected
        assert replay_state(interned) == replay_state(reference)

    @given(rows=_rows, config=_configs, window=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    @example(
        rows=[(0, D, 0), (0, O, 0), (0, O, 1), (0, W, 0), (0, O, 1)],
        config=_small_config(),
        window=2,
    )
    def test_columnar_trace_matches_reference(self, rows, config, window):
        # The array kernel applies invalidation from the kind column, so
        # a columnar trace rides it, windowed (one array state over every
        # chunk) or not.  Its keys are the trace's codes.
        trace = _trace(rows)
        ctrace = ColumnarTrace.from_trace(trace)
        reference = _invalidating(config)
        expected = reference_replay(reference, trace)

        plain = _invalidating(config)
        assert plain._kernel_ok()
        assert plain.replay(ctrace) == expected
        assert replay_state(plain, ctrace.file_symbols) == replay_state(reference)

        windowed = _invalidating(config)
        with windowing(window=window):
            assert windowed.replay(ctrace) == expected
        assert replay_state(windowed, ctrace.file_symbols) == replay_state(reference)
