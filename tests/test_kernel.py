"""Equivalence tests for the columnar batch replay kernel.

The contract mirrors ``test_fast_replay.py`` one rung down: replaying a
:class:`ColumnarTrace` through the engine must produce metrics
byte-identical to the generic per-event path — on all four paper
workloads, with and without numpy, across qualifying and
non-qualifying configurations.
"""

import io

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.caching.array_lru as array_lru
import repro.sim.kernel as kernel
from repro.caching.lru import LRUCache
from repro.obs import collecting
from repro.sim.engine import DistributedFileSystem
from repro.sim.kernel import client_runs, scan_columns
from repro.traces.columnar import ColumnarTrace
from repro.traces.events import EventKind, Trace
from repro.traces.reader import read_trace
from repro.workloads.synthetic import make_workload

WORKLOADS = ("server", "users", "write", "workstation")
EVENTS = 4000
CONFIG = dict(client_capacity=250, server_capacity=300, group_size=5)

NUMPY_MODES = (False, True) if kernel.HAVE_NUMPY else (False,)


@pytest.fixture(params=NUMPY_MODES, ids=lambda v: "numpy" if v else "pure")
def numpy_mode(request, monkeypatch):
    """Run the test body under both kernel implementations.

    The array eviction core keeps its own module flag for the queue
    refill / export scans, so both must be forced together for the
    "pure" leg to actually avoid numpy.
    """
    monkeypatch.setattr(kernel, "HAVE_NUMPY", request.param)
    monkeypatch.setattr(array_lru, "HAVE_NUMPY", request.param)
    return request.param


def generic_engine_metrics(system, trace):
    """Reference replay: per-event access() calls, no fast loop."""
    for event in trace:
        client = event.client_id or "client00"
        system.access(client, event.file_id)
    return system.metrics()


class TestScanColumns:
    def test_counts_match_trace(self, numpy_mode):
        trace = make_workload("write", EVENTS)
        ctrace = ColumnarTrace.from_trace(trace)
        scan = scan_columns(
            ctrace.file_codes, ctrace.kind_codes, len(ctrace.file_symbols)
        )
        assert scan.events == EVENTS
        assert scan.unique_files == trace.unique_files()
        assert sum(scan.kind_counts) == EVENTS
        assert scan.open_events == sum(
            1 for event in trace if event.is_open
        )
        assert scan.mutation_events == sum(
            1 for event in trace if event.is_mutation
        )

    def test_no_kind_column_is_all_opens(self, numpy_mode):
        ctrace = ColumnarTrace.from_trace(
            Trace.from_file_ids(["a", "b", "a", "c"])
        )
        scan = scan_columns(ctrace.file_codes, ctrace.kind_codes)
        assert scan.kind_counts == (4, 0, 0, 0, 0, 0)
        assert scan.unique_files == 3

    def test_empty_columns(self, numpy_mode):
        scan = scan_columns([], None)
        assert scan.events == 0 and scan.unique_files == 0

    @pytest.mark.skipif(not kernel.HAVE_NUMPY, reason="needs numpy")
    def test_numpy_and_fallback_identical(self, monkeypatch):
        ctrace = ColumnarTrace.from_trace(make_workload("users", EVENTS))
        fast = scan_columns(
            ctrace.file_codes, ctrace.kind_codes, len(ctrace.file_symbols)
        )
        monkeypatch.setattr(kernel, "HAVE_NUMPY", False)
        slow = scan_columns(
            ctrace.file_codes, ctrace.kind_codes, len(ctrace.file_symbols)
        )
        assert fast == slow


class TestClientRuns:
    def test_segments_cover_and_label(self, numpy_mode):
        trace = make_workload("write", EVENTS)  # two clients
        ctrace = ColumnarTrace.from_trace(trace)
        runs = client_runs(ctrace)
        assert runs[0][1] == 0 and runs[-1][2] == EVENTS
        flattened = []
        for client, lo, hi in runs:
            assert lo < hi
            flattened.extend([client] * (hi - lo))
        assert flattened == [
            event.client_id or "client00" for event in trace
        ]

    def test_constant_client_single_run(self, numpy_mode):
        ctrace = ColumnarTrace.from_trace(make_workload("server", 500))
        assert len(client_runs(ctrace)) == 1

    def test_unattributed_events_default_client(self, numpy_mode):
        ctrace = ColumnarTrace.from_trace(Trace.from_file_ids(["a", "b"]))
        assert client_runs(ctrace) == [("client00", 0, 2)]

    def test_empty_trace_no_runs(self, numpy_mode):
        assert client_runs(ColumnarTrace.from_trace(Trace())) == []


class TestKernelReplay:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_matches_generic_path(self, workload, numpy_mode):
        trace = make_workload(workload, EVENTS)
        ctrace = ColumnarTrace.from_trace(trace)
        reference = generic_engine_metrics(
            DistributedFileSystem(**CONFIG), trace
        )
        system = DistributedFileSystem(**CONFIG)
        assert system._fast_replay_ok()
        assert system.replay(ctrace) == reference

    def test_no_server_and_uncooperative_configs(self, numpy_mode):
        ctrace = ColumnarTrace.from_trace(make_workload("write", EVENTS))
        trace = ctrace.to_trace()
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
            assert (
                DistributedFileSystem(**config).replay(ctrace) == reference
            ), config

    def test_non_qualifying_config_falls_back(self, numpy_mode):
        # Hybrid successor lists are outside the kernel's contract; the
        # columnar trace must be decoded and replayed generically.
        ctrace = ColumnarTrace.from_trace(make_workload("server", EVENTS))
        system = DistributedFileSystem(
            client_capacity=100, successor_policy="hybrid"
        )
        assert not system._fast_replay_ok()
        metrics = system.replay(ctrace)
        assert metrics.total_client_accesses == EVENTS

    def test_repeated_replay_carries_previous(self, numpy_mode):
        # Two consecutive replays must chain successor state exactly as
        # the string-keyed event path does: tracker._previous crosses
        # the boundary and links the last file to the next replay's
        # first.  (intern=True is the one path that differs here — its
        # fresh per-replay symbol table maps the carried key to an
        # unused code, a long-documented caveat.)
        ctrace = ColumnarTrace.from_trace(make_workload("server", EVENTS))
        trace = ctrace.to_trace()
        reference = DistributedFileSystem(**CONFIG)
        reference.replay(trace)
        reference.replay(trace)
        system = DistributedFileSystem(**CONFIG)
        system.replay(ctrace)
        assert system.replay(ctrace) == reference.metrics()


class TestWindowedColumnarReplay:
    def test_samples_identical_to_event_path(self, numpy_mode):
        from repro.obs.timeseries import WindowedCollector, windowed_replay

        ctrace = ColumnarTrace.from_trace(make_workload("write", EVENTS))
        trace = ctrace.to_trace()
        events_collector = WindowedCollector(window=500)
        columnar_collector = WindowedCollector(window=500)
        event_metrics = windowed_replay(
            DistributedFileSystem(**CONFIG), trace,
            collector=events_collector,
        )
        columnar_metrics = windowed_replay(
            DistributedFileSystem(**CONFIG), ctrace,
            collector=columnar_collector,
        )
        assert columnar_metrics == event_metrics
        assert [
            sample.deterministic_dict() for sample in columnar_collector.samples
        ] == [
            sample.deterministic_dict() for sample in events_collector.samples
        ]


class TestArrayKernelDispatch:
    """The engine's columnar dispatch: array kernel when eligible,
    explicit fallback to the dict loop over the decoded codes
    otherwise, with the chosen path recorded in
    ``engine.replay.path.*``."""

    @staticmethod
    def _path_counters(registry):
        return {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("engine.replay.path.")
        }

    def test_eligible_replay_takes_array_kernel(self, numpy_mode):
        from repro.obs import collecting

        ctrace = ColumnarTrace.from_trace(make_workload("server", EVENTS))
        with collecting() as registry:
            DistributedFileSystem(**CONFIG).replay(ctrace)
        assert self._path_counters(registry) == {
            "engine.replay.path.kernel_v2": 1
        }

    def test_floor_override_admits_small_traces(self, numpy_mode):
        # There is no size floor: a short trace rides the arrays too.
        from repro.obs import collecting

        trace = make_workload("server", 512)
        small = ColumnarTrace.from_trace(trace)
        reference = generic_engine_metrics(
            DistributedFileSystem(**CONFIG), trace
        )
        with collecting() as registry:
            metrics = DistributedFileSystem(**CONFIG).replay(small)
        assert metrics == reference
        assert self._path_counters(registry) == {
            "engine.replay.path.kernel_v2": 1
        }

    def test_evict_listener_falls_back_to_dict_kernel(self, numpy_mode):
        # Declined by the arrays: the dict loop replays the events
        # decoded with their codes as file ids, and fires the hook.
        from repro.obs import collecting

        trace = make_workload("server", EVENTS)
        ctrace = ColumnarTrace.from_trace(trace)
        system = DistributedFileSystem(**CONFIG)
        victims = []
        system.server_cache.evict_listener = victims.append
        with collecting() as registry:
            metrics = system.replay(ctrace)
        assert self._path_counters(registry) == {"engine.replay.path.fast": 1}
        assert victims and all(type(victim) is int for victim in victims)
        assert metrics == generic_engine_metrics(
            DistributedFileSystem(**CONFIG), trace
        )

    def test_string_keyed_state_falls_back_to_dict_kernel(self, numpy_mode):
        from repro.obs import collecting

        ctrace = ColumnarTrace.from_trace(make_workload("server", EVENTS))
        trace = ctrace.to_trace()
        system = DistributedFileSystem(**CONFIG)
        system.replay(trace, intern=False)  # warm state keyed by strings
        with collecting() as registry:
            system.replay(ctrace)
        assert self._path_counters(registry) == {"engine.replay.path.fast": 1}
        # A columnar replay keeps its code space on the dict loop: on
        # warm string state that is intern=True semantics, string keys
        # foreign to the code space, exactly like the interning fast
        # path.
        reference = DistributedFileSystem(**CONFIG)
        reference.replay(trace, intern=False)
        reference.replay(trace, intern=True)
        assert system.metrics() == reference.metrics()

    @staticmethod
    def _full_state(system):
        return (
            {cid: list(cache._order) for cid, cache in system.clients.items()},
            list(system.server_cache._order)
            if system.server_cache is not None
            else None,
            {
                key: list(slist._items)
                for key, slist in system.tracker._lists.items()
            },
            system.tracker._previous,
        )

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_final_state_identical_to_dict_kernel(self, workload, numpy_mode):
        # Beyond metrics equality: the exported cache orders, successor
        # lists, and carried previous must match the dict loop's over
        # the same codes.
        ctrace = ColumnarTrace.from_trace(make_workload(workload, EVENTS))
        array_system = DistributedFileSystem(**CONFIG)
        array_metrics = array_system.replay(ctrace)
        dict_system = DistributedFileSystem(**CONFIG)
        dict_metrics = dict_system.replay(ctrace.to_trace(codes=True))
        assert array_metrics == dict_metrics
        assert self._full_state(array_system) == self._full_state(dict_system)

    def test_windowed_replay_reuses_one_session(self, numpy_mode):
        # The windowed driver imports array state once and replays every
        # chunk through it — one kernel_v2 record per window, and totals
        # identical to the unwindowed replay.
        from repro.obs import collecting
        from repro.obs.timeseries import WindowedCollector, windowed_replay

        ctrace = ColumnarTrace.from_trace(make_workload("write", EVENTS))
        with collecting() as registry:
            metrics = windowed_replay(
                DistributedFileSystem(**CONFIG), ctrace,
                collector=WindowedCollector(window=500),
            )
        assert metrics == DistributedFileSystem(**CONFIG).replay(ctrace)
        assert self._path_counters(registry) == {
            "engine.replay.path.kernel_v2": EVENTS // 500
        }


class TestKernelObservability:
    def test_counters_match_fast_loop(self, numpy_mode):
        from repro.obs import collecting

        ctrace = ColumnarTrace.from_trace(make_workload("write", EVENTS))
        trace = ctrace.to_trace()
        with collecting() as fast_registry:
            DistributedFileSystem(**CONFIG).replay(trace, intern=True)
        with collecting() as kernel_registry:
            DistributedFileSystem(**CONFIG).replay(ctrace)
        fast = fast_registry.snapshot()
        batch = kernel_registry.snapshot()
        for name in (
            "engine.client.hits",
            "engine.client.misses",
            "engine.server.hits",
            "engine.server.misses",
            "engine.store.fetches",
            "engine.remote_requests",
            "successors.transitions",
            "cache.lru.hits",
            "cache.lru.misses",
            "cache.lru.evictions",
            "cache.lru.installs",
        ):
            assert batch["counters"][name] == fast["counters"][name], name
        assert "engine.replay.kernel.ns" in batch["histograms"]


# -- text traces on the array kernel, against the per-event oracle -----------

_KIND_NAMES = tuple(kind.value for kind in EventKind)

#: One event line over <= 12 files and clients c0-c3 (or none).
_event_lines = st.builds(
    lambda kind, file_index, client: (
        f"{kind} f{file_index}" + ("" if client is None else f" client=c{client}")
    ),
    st.sampled_from(_KIND_NAMES),
    st.integers(min_value=0, max_value=11),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
_texts = st.lists(_event_lines, max_size=40).map(lambda lines: "\n".join(lines))

#: Server capacity 0 means no server cache.
_text_configs = st.fixed_dictionaries(
    {
        "client_capacity": st.integers(min_value=1, max_value=8),
        "server_capacity": st.integers(min_value=0, max_value=8),
        "group_size": st.integers(min_value=1, max_value=6),
        "cooperative": st.booleans(),
        "successor_capacity": st.integers(min_value=1, max_value=8),
        "invalidate_on_write": st.booleans(),
    }
)


def _text_trace(text):
    return read_trace(io.StringIO(text))


def _oracle(config):
    system = DistributedFileSystem(**config)
    system.use_fast_replay = False
    return system


def _system_state(system):
    """Cache orders, successor lists and the carried previous file."""
    server = system.server_cache
    return (
        [(client_id, list(cache._order)) for client_id, cache in system.clients.items()],
        None if server is None else list(server._order),
        [(key, list(slist._items)) for key, slist in system.tracker._lists.items()],
        system.tracker._previous,
    )


def _recorded(registry):
    """``(snapshot without wall-clock .ns histograms and path counters,
    path counters)``.

    Histograms that saw no observation are dropped too: the batched
    loops register theirs up front, the per-event path on first use.
    """
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    paths = {
        name: value
        for name, value in counters.items()
        if name.startswith("engine.replay.path.")
    }
    kept = {
        section: (
            {
                name: value
                for name, value in values.items()
                if not name.endswith(".ns")
                and name not in paths
                and not (isinstance(value, dict) and value.get("count") == 0)
            }
            if isinstance(values, dict)
            else values
        )
        for section, values in snapshot.items()
    }
    return kept, paths


class TestTextReplayDifferential:
    """``system.replay(read_trace(text))`` rides the array kernel —
    write invalidation from the kind column, string or interned key
    space — and must leave metrics, state and counters exactly as the
    ``use_fast_replay=False`` per-event oracle does."""

    @given(
        texts=st.lists(_texts, min_size=1, max_size=3),
        config=_text_configs,
        intern=st.booleans(),
    )
    # numpy_mode only pins module flags, the same for every example.
    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    # DELETE of the replaying client's own file, the server holding it.
    @example(
        texts=["open f0 client=c0\nopen f1 client=c0\ndelete f0 client=c0\nopen f0 client=c1"],
        config=dict(client_capacity=2, server_capacity=3, group_size=2,
                    cooperative=True, successor_capacity=2,
                    invalidate_on_write=True),
        intern=False,
    )
    # Chained string replays: the second trace's files are foreign to
    # the first one's caches and successor lists.
    @example(
        texts=["open f0 client=c0\nwrite f1 client=c1\nopen f2", "create f9 client=c1\nopen f0"],
        config=dict(client_capacity=2, server_capacity=2, group_size=3,
                    cooperative=False, successor_capacity=2,
                    invalidate_on_write=True),
        intern=False,
    )
    def test_matches_per_event_oracle(self, texts, config, intern, numpy_mode):
        if intern:
            # Chained interned replays key every trace by its own first-
            # appearance codes; one text keeps them in one namespace.
            texts = [texts[0]] * len(texts)
        oracle = _oracle(config)
        system = DistributedFileSystem(**config)
        for text in texts:
            with collecting() as expected_registry:
                expected = oracle.replay(_text_trace(text), intern=intern)
            with collecting() as registry:
                metrics = system.replay(_text_trace(text), intern=intern)
            assert metrics == expected
            assert _system_state(system) == _system_state(oracle)
            recorded, paths = _recorded(registry)
            assert paths == {"engine.replay.path.kernel_v2": 1}
            assert recorded == _recorded(expected_registry)[0]

    _TEXT = "\n".join(
        f"{kind} f{index % 7} client=c{index % 3}"
        for index, kind in enumerate(
            ["open", "write", "open", "create", "open", "delete", "read"] * 6
        )
    )
    _CONFIG = dict(client_capacity=3, server_capacity=4, group_size=3,
                   invalidate_on_write=True)

    def _declined(self, prepare, intern=False, warm=None):
        """Replay ``_TEXT`` on a prepared system; it must decline the
        arrays and equal the dict loop on the decoded events."""
        system = DistributedFileSystem(**self._CONFIG)
        events = DistributedFileSystem(**self._CONFIG)
        for target in (system, events):
            if warm is not None:
                target.replay(_text_trace(warm[0]), intern=warm[1])
            prepare(target)
        trace = _text_trace(self._TEXT)
        assert trace.columns is not None
        with collecting() as registry:
            metrics = system.replay(trace, intern=intern)
        assert _recorded(registry)[1] == {"engine.replay.path.fast": 1}
        expected = events.replay(Trace(events=list(trace)), intern=intern)
        assert metrics == expected
        assert _system_state(system) == _system_state(events)
        return system

    def test_client_evict_listener_declines(self, numpy_mode):
        victims = []

        def listen(system):
            system._client_cache("c0").evict_listener = victims.append

        system = self._declined(listen)
        assert victims
        oracle = _oracle(self._CONFIG)
        oracle._client_cache("c0").evict_listener = lambda key: None
        assert system.metrics() == oracle.replay(_text_trace(self._TEXT))

    def test_server_evict_listener_declines(self, numpy_mode):
        def listen(system):
            system.server_cache.evict_listener = lambda key: None

        self._declined(listen)

    def test_client_capacity_mismatch_declines(self, numpy_mode):
        def inject(system):
            system.clients["c1"] = LRUCache(self._CONFIG["client_capacity"] + 1)

        self._declined(inject)

    def test_interned_keys_outside_the_code_space_decline(self, numpy_mode):
        # A longer interned trace leaves codes past this trace's symbol
        # table in the caches: the arrays cannot hold them.
        longer = "\n".join(f"open g{index} client=c0" for index in range(20))
        self._declined(lambda system: None, intern=True, warm=(longer, True))

    def test_interned_replay_on_string_state_declines(self, numpy_mode):
        self._declined(lambda system: None, intern=True, warm=(self._TEXT, False))
