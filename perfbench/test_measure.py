"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from layers import span_shares
from measure import (
    ErrorTally,
    Metrics,
    check_name,
    connection_count,
    latency_summary,
    percentile,
    quartiles,
    tail_supported,
)

ROOT = Path(__file__).resolve().parent.parent


class TestPercentile:
    def test_interpolates_between_ranks(self):
        assert percentile([4, 1, 3, 2], 0.5) == 2.5
        assert percentile(range(101), 0.99) == pytest.approx(99.0)

    def test_single_sample_is_every_percentile(self):
        assert percentile([7.0], 0.0) == percentile([7.0], 0.99) == 7.0

    @pytest.mark.parametrize("q", [-0.1, 1.5])
    def test_rejects_q_outside_unit_interval(self, q):
        with pytest.raises(ValueError):
            percentile([1, 2], q)

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestTailRule:
    @pytest.mark.parametrize(
        "count, supported", [(999, False), (1000, True), (5000, True), (104, False)]
    )
    def test_p99_needs_ten_samples_beyond(self, count, supported):
        assert tail_supported(count, 0.99) is supported

    def test_p50_of_twenty(self):
        assert tail_supported(20, 0.5)
        assert not tail_supported(19, 0.5)

    def test_summary_states_count_and_support(self):
        summary = latency_summary([float(i) for i in range(1, 101)])
        assert summary["samples"] == 100
        assert summary["p50_ms"] == pytest.approx(50.5)
        assert summary["p99_supported"] is False


class TestErrorTally:
    def test_rate_is_failed_over_attempted(self):
        tally = ErrorTally()
        tally.record(300, ok=True)
        tally.record(100, ok=False)
        assert (tally.attempted, tally.failed) == (400, 100)
        assert tally.rate == 0.25

    def test_all_passing_is_zero(self):
        tally = ErrorTally()
        tally.record(5, ok=True)
        assert tally.rate == 0.0

    def test_nothing_attempted_has_no_rate(self):
        with pytest.raises(ValueError):
            ErrorTally().rate

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ErrorTally().record(-1, ok=True)


class TestNames:
    @pytest.mark.parametrize(
        "name",
        ["events_per_s", "setup_s", "caching.client_lru.hit_ratio", "serve.lock_wait.share", "p99_ms"],
    )
    def test_accepts(self, name):
        assert check_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "_leading", ".dot", "has space", "slash/name", "x" * 65, "tab\t"]
    )
    def test_rejects(self, name):
        with pytest.raises(ValueError):
            check_name(name)

    def test_metrics_reject_duplicates_and_report_missing(self):
        metrics = Metrics()
        metrics.add("a.b", 1, "s")
        with pytest.raises(ValueError):
            metrics.add("a.b", 2, "s")
        with pytest.raises(KeyError):
            metrics.select(["a.b", "c"])
        assert metrics.select(["a.b"]) == {"a.b": {"value": 1.0, "unit": "s"}}


class TestConnections:
    def test_capped_at_cores(self):
        assert connection_count(2, 2) == 2
        assert connection_count(8, 2) == 2
        assert connection_count(1, 4) == 1

    @pytest.mark.parametrize("requested, cores", [(0, 2), (2, 0), (-1, 1)])
    def test_refuses_none(self, requested, cores):
        with pytest.raises(ValueError):
            connection_count(requested, cores)


def test_quartiles_spread_matches_statistics():
    stats = quartiles([10, 11, 12, 13, 14, 15, 16, 17, 18, 19])
    assert stats["median"] == 14.5
    assert stats["spread"] == pytest.approx((stats["q3"] - stats["q1"]) / 14.5)


def test_span_shares_sum_to_one_with_unattributed_row():
    root = {"span": "r", "span_kind": "server", "duration_ns": 1000,
            "annotations": {"endpoint": "/fetch"}}
    other = {"span": "o", "span_kind": "server", "duration_ns": 500,
             "annotations": {"endpoint": "/stats"}}
    children = [
        {"name": "lock.wait", "parent": "r", "duration_ns": 100},
        {"name": "cache.fetch", "parent": "r", "duration_ns": 300},
        {"name": "response.write", "parent": "r", "duration_ns": 200},
        {"name": "response.write", "parent": "o", "duration_ns": 400},
    ]
    shares = span_shares([root, other] + children)
    assert shares["serve.cache.share"] == pytest.approx(0.3)
    assert shares["serve.journal.share"] == 0.0
    assert shares["serve.unattributed.share"] == pytest.approx(0.4)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_contract_file_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        check_name(name)
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert unit.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    for entry in spec["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = [entry for entry in spec["end_to_end"] if entry["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in spec["end_to_end"])}]
    assert {w["name"] for w in spec["workloads"]} == {
        "figures", "replay-server", "replay-write", "serve-fetch"
    }
