"""Unit tests for multi-level cache hierarchies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching import multilevel
from repro.caching.base import NullCache
from repro.caching.lfu import LFUCache
from repro.caching.lru import LRUCache
from repro.caching.multilevel import MultiLevelHierarchy, TwoLevelHierarchy
from repro.caching.random_cache import RandomCache
from repro.core import aggregating_cache
from repro.core.aggregating_cache import AggregatingServerCache
from repro.core.successors import SuccessorTracker
from repro.obs import collecting


class TestTwoLevel:
    def test_server_sees_only_client_misses(self):
        hierarchy = TwoLevelHierarchy(LRUCache(2), LRUCache(10))
        sequence = ["a", "b", "a", "b", "c", "a"]
        hierarchy.replay(sequence)
        # Client hits: a, b (after warm). Server requests = client misses.
        result = hierarchy.result()
        assert result.server_requests == result.client_stats.misses
        assert result.client_stats.accesses == len(sequence)

    def test_null_client_forwards_everything(self):
        hierarchy = TwoLevelHierarchy(None, LRUCache(10))
        hierarchy.replay(["a", "b", "a"])
        assert hierarchy.server.stats.accesses == 3
        assert isinstance(hierarchy.client, NullCache)

    def test_server_hit_rate(self):
        hierarchy = TwoLevelHierarchy(LRUCache(1), LRUCache(10))
        hierarchy.replay(["a", "b", "a", "b", "a", "b"])
        result = hierarchy.result()
        # Client (capacity 1) misses every access; server warms after
        # the first a and b.
        assert result.server_requests == 6
        assert result.server_stats.hits == 4
        assert result.server_hit_rate == pytest.approx(4 / 6)

    def test_end_to_end_hit_rate(self):
        hierarchy = TwoLevelHierarchy(LRUCache(1), LRUCache(10))
        hierarchy.replay(["a", "b", "a", "b"])
        result = hierarchy.result()
        # 2 cold store fetches out of 4 accesses.
        assert result.end_to_end_hit_rate == pytest.approx(0.5)

    def test_access_returns_any_level_hit(self):
        hierarchy = TwoLevelHierarchy(LRUCache(1), LRUCache(10))
        assert hierarchy.access("a") is False
        assert hierarchy.access("a") is True  # client hit
        hierarchy.access("b")
        assert hierarchy.access("a") is False  # client miss, server hit


class TestMultiLevel:
    def test_requires_levels(self):
        with pytest.raises(ValueError):
            MultiLevelHierarchy([])

    def test_hit_level_reporting(self):
        levels = [LRUCache(1), LRUCache(2), LRUCache(4)]
        hierarchy = MultiLevelHierarchy(levels)
        assert hierarchy.access("a") == -1  # all miss
        assert hierarchy.access("a") == 0  # L0 hit
        hierarchy.access("b")
        assert hierarchy.access("a") == 1  # displaced from L0, hits L1

    def test_replay_returns_per_level_stats(self):
        hierarchy = MultiLevelHierarchy([LRUCache(1), LRUCache(2)])
        stats = hierarchy.replay(["a", "b", "a", "b"])
        assert len(stats) == 2
        assert stats[0].accesses == 4
        assert stats[1].accesses == stats[0].misses

    def test_three_levels_filter_progressively(self):
        hierarchy = MultiLevelHierarchy([LRUCache(2), LRUCache(4), LRUCache(8)])
        sequence = [f"f{i % 6}" for i in range(60)]
        stats = hierarchy.replay(sequence)
        assert stats[0].accesses >= stats[1].accesses >= stats[2].accesses


# -- level-by-level replay vs the per-event reference --------------------------
#
# ``replay`` runs one level at a time where that is exact; the oracle is
# the interleaved per-event loop, ``for key in seq: hierarchy.access(key)``.


def _build_level(spec):
    kind = spec[0]
    if kind == "null":
        return NullCache()
    if kind == "lru":
        return LRUCache(spec[1])
    if kind == "lfu":
        return LFUCache(spec[1])
    _kind, group_size, successor_capacity, capacity = spec
    return AggregatingServerCache(
        capacity=capacity,
        group_size=group_size,
        successor_capacity=successor_capacity,
    )


def _level_state(level):
    """Every piece of a level's state the replay paths could disagree on."""
    state = {"type": type(level).__name__, "stats": level.stats.snapshot()}
    if isinstance(level, LRUCache):
        state["order"] = list(level._order)
    elif isinstance(level, LFUCache):
        state["frequency"] = dict(level._frequency)
        state["buckets"] = {f: list(b) for f, b in level._buckets.items()}
        state["min_frequency"] = level._min_frequency
    elif isinstance(level, AggregatingServerCache):
        tracker = level.tracker
        log = level.fetch_log
        state["order"] = list(level._cache._order)
        state["lists"] = [(key, list(s._items)) for key, s in tracker._lists.items()]
        state["previous"] = tracker._previous
        state["fetch_log"] = (
            log.group_fetches,
            log.files_retrieved,
            log.predicted_installed,
        )
    return state


CLIENT_SPECS = st.one_of(
    st.just(("null",)), st.tuples(st.just("lru"), st.integers(1, 8))
)
SERVER_SPECS = st.one_of(
    st.tuples(st.sampled_from(["lru", "lfu"]), st.integers(1, 8)),
    st.tuples(
        st.just("agg"), st.integers(1, 6), st.integers(1, 8), st.integers(1, 8)
    ),
)


@st.composite
def key_chunks(draw):
    """A 0-12 key universe, split into 1-3 replays chained on one hierarchy."""
    universe = draw(st.integers(0, 12))
    keys = st.integers(0, universe - 1) if universe else st.nothing()
    size = 60 if universe else 0
    return draw(st.lists(st.lists(keys, max_size=size), min_size=1, max_size=3))


class TestLevelByLevelReplay:
    @settings(max_examples=300, deadline=None)
    @given(client=CLIENT_SPECS, server=SERVER_SPECS, chunks=key_chunks())
    def test_two_level_matches_per_event(self, client, server, chunks):
        fast = TwoLevelHierarchy(_build_level(client), _build_level(server))
        reference = TwoLevelHierarchy(_build_level(client), _build_level(server))
        for chunk in chunks:
            result = fast.replay(chunk)
            for key in chunk:
                reference.access(key)
            assert result == reference.result()
        for ours, theirs in ((fast.client, reference.client), (fast.server, reference.server)):
            assert _level_state(ours) == _level_state(theirs)

    @settings(max_examples=200, deadline=None)
    @given(
        top=CLIENT_SPECS,
        middle=st.one_of(CLIENT_SPECS, SERVER_SPECS),
        bottom=SERVER_SPECS,
        chunks=key_chunks(),
    )
    def test_three_level_matches_per_event(self, top, middle, bottom, chunks):
        specs = (top, middle, bottom)
        fast = MultiLevelHierarchy([_build_level(spec) for spec in specs])
        reference = MultiLevelHierarchy([_build_level(spec) for spec in specs])
        for chunk in chunks:
            stats = fast.replay(chunk)
            for key in chunk:
                reference.access(key)
            assert stats == [level.stats.snapshot() for level in reference.levels]
        for ours, theirs in zip(fast.levels, reference.levels):
            assert _level_state(ours) == _level_state(theirs)

    def test_generator_input(self):
        keys = [k % 7 for k in range(0, 200, 3)]
        fast = TwoLevelHierarchy(None, AggregatingServerCache(4, group_size=3))
        reference = TwoLevelHierarchy(None, AggregatingServerCache(4, group_size=3))
        result = fast.replay(key for key in keys)
        for key in keys:
            reference.access(key)
        assert result == reference.result()
        assert _level_state(fast.server) == _level_state(reference.server)


class TestLevelByLevelDeclines:
    """Configurations where interleaving could matter keep the per-event loop."""

    SEQUENCE = [k % 9 for k in range(0, 400, 7)] + [k % 5 for k in range(80)]

    @pytest.fixture
    def no_level_pass(self, monkeypatch):
        def refuse(cache, stream):
            raise AssertionError("level-by-level replay taken")

        monkeypatch.setattr(multilevel, "_level_misses", refuse)

    def _assert_matches_reference(self, make):
        fast, reference = make(), make()
        fast_result = fast.replay(self.SEQUENCE)
        for key in self.SEQUENCE:
            reference.access(key)
        if isinstance(fast, TwoLevelHierarchy):
            assert fast_result == reference.result()
            levels = zip((fast.client, fast.server), (reference.client, reference.server))
        else:
            assert fast_result == [level.stats.snapshot() for level in reference.levels]
            levels = zip(fast.levels, reference.levels)
        for ours, theirs in levels:
            assert _level_state(ours) == _level_state(theirs)

    def test_evict_listener(self, no_level_pass):
        def make():
            log = []
            client = LRUCache(3)
            client.evict_listener = lambda key: log.append(("client", key))
            server = AggregatingServerCache(5, group_size=3)
            server._cache.evict_listener = lambda key: log.append(("server", key))
            hierarchy = TwoLevelHierarchy(client, server)
            hierarchy.log = log
            return hierarchy

        fast, reference = make(), make()
        fast.replay(self.SEQUENCE)
        for key in self.SEQUENCE:
            reference.access(key)
        assert fast.log and fast.log == reference.log

    def test_server_listener_alone_declines(self, no_level_pass):
        def make():
            server = AggregatingServerCache(5, group_size=3)
            server._cache.evict_listener = lambda key: None
            return TwoLevelHierarchy(LRUCache(3), server)

        self._assert_matches_reference(make)

    def test_shared_tracker(self, no_level_pass):
        def make():
            tracker = SuccessorTracker(capacity=4)
            return MultiLevelHierarchy(
                [
                    LRUCache(2),
                    AggregatingServerCache(3, group_size=3, shared_tracker=tracker),
                    AggregatingServerCache(6, group_size=3, shared_tracker=tracker),
                ]
            )

        self._assert_matches_reference(make)

    def test_same_cache_twice(self, no_level_pass):
        def make():
            shared = LRUCache(3)
            return MultiLevelHierarchy([shared, LRUCache(4), shared])

        self._assert_matches_reference(make)

    def test_shared_random_generator(self, no_level_pass):
        def make():
            rng = random.Random(7)
            return TwoLevelHierarchy(RandomCache(3, rng=rng), RandomCache(4, rng=rng))

        self._assert_matches_reference(make)

    def test_unknown_level_type(self, no_level_pass):
        class CountingLRU(LRUCache):
            def access(self, key):
                return super().access(key)

        self._assert_matches_reference(
            lambda: TwoLevelHierarchy(CountingLRU(3), LRUCache(6))
        )

    def test_collection_on_matches_per_event_registry(self, no_level_pass):
        def make():
            return TwoLevelHierarchy(LRUCache(3), AggregatingServerCache(5, group_size=3))

        with collecting() as fast_registry:
            fast = make()
            fast_result = fast.replay(self.SEQUENCE)
        with collecting() as reference_registry:
            reference = make()
            for key in self.SEQUENCE:
                reference.access(key)
        assert fast_result == reference.result()
        ours, theirs = fast_registry.snapshot(), reference_registry.snapshot()
        assert ours["counters"]["server_cache.misses"] > 0
        # Everything but wall-clock timings must be equal.
        for snapshot in (ours, theirs):
            for name, histogram in snapshot["histograms"].items():
                if name.endswith(".ns"):
                    snapshot["histograms"][name] = histogram["count"]
        assert ours == theirs

    def test_observe_requests_off_serves_per_event(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fused loop taken")

        monkeypatch.setattr(aggregating_cache, "replay_groups", refuse)

        def make():
            tracker = SuccessorTracker(capacity=4)
            tracker.observe_sequence([1, 2, 3, 1, 2, 4, 5, 6])
            server = AggregatingServerCache(
                5, group_size=3, shared_tracker=tracker, observe_requests=False
            )
            return TwoLevelHierarchy(LRUCache(2), server)

        self._assert_matches_reference(make)


class TestAggregatingServerReplay:
    @settings(max_examples=200, deadline=None)
    @given(
        group_size=st.integers(1, 6),
        successor_capacity=st.integers(1, 8),
        capacity=st.integers(1, 8),
        chunks=key_chunks(),
    )
    def test_replay_matches_access_loop(
        self, group_size, successor_capacity, capacity, chunks
    ):
        def make():
            return AggregatingServerCache(
                capacity, group_size=group_size, successor_capacity=successor_capacity
            )

        fast, reference = make(), make()
        for chunk in chunks:
            misses = fast.replay_misses(chunk)
            assert misses == [key for key in chunk if not reference.access(key)]
        assert fast.replay([]) == reference.stats
        assert _level_state(fast) == _level_state(reference)

    def test_replay_returns_stats_and_takes_fused_loop(self, monkeypatch):
        calls = []
        original = aggregating_cache.replay_groups

        def spy(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(aggregating_cache, "replay_groups", spy)
        cache = AggregatingServerCache(4, group_size=3)
        stats = cache.replay([1, 2, 3, 1, 2, 3, 4, 5, 1])
        assert calls == [cache]
        assert stats == cache.stats and stats is not cache.stats
        assert stats.accesses == 9

    def test_collection_on_takes_access_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fused loop taken")

        monkeypatch.setattr(aggregating_cache, "replay_groups", refuse)
        cache = AggregatingServerCache(4, group_size=3)
        with collecting() as registry:
            cache.replay([1, 2, 3, 1, 2, 3, 4, 5, 1])
        counters = registry.snapshot()["counters"]
        assert counters["server_cache.hits"] + counters["server_cache.misses"] == 9


class TestLRUReplayMisses:
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 8), chunks=key_chunks())
    def test_matches_access_loop(self, capacity, chunks):
        fast, reference = LRUCache(capacity), LRUCache(capacity)
        fast_evicted, reference_evicted = [], []
        fast.evict_listener = fast_evicted.append
        reference.evict_listener = reference_evicted.append
        for chunk in chunks:
            misses = fast.replay_misses(chunk)
            assert misses == [key for key in chunk if not reference.access(key)]
        assert fast.stats == reference.stats
        assert list(fast._order) == list(reference._order)
        assert fast_evicted == reference_evicted
