"""Tests for end-to-end request tracing (``repro.obs.spans``).

Covers the buffer semantics (bounding, sampling, honest counters), the
zero-cost-when-disabled contract, the ``X-Repro-Trace`` header round
trip through a live daemon, client/server merging on trace id, the
Chrome trace-event export, and the slam-driver integration.  Daemons
bind port 0 and are closed via context managers, matching
``test_serve.py``'s no-leaked-sockets discipline.
"""

import http.client
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import spans as spans_mod
from repro.obs.quantiles import latency_summary_ns, percentile
from repro.obs.registry import ObservabilityError
from repro.obs.spans import (
    NULL_SPAN,
    SPAN_SCHEMA,
    TRACE_HEADER,
    SpanBuffer,
    endpoint_breakdown,
    format_header,
    format_span_tree,
    load_spans_jsonl,
    maybe_span,
    merge_spans,
    parse_header,
    slowest_traces,
    span_collection,
    spans_chrome_trace,
    write_spans_chrome_trace,
    write_spans_jsonl,
)
from repro.serve import CacheDaemon, ServeConnection, run_slam
from repro.serve.scenario import Scenario
from repro.workloads.synthetic import make_workload


def tiny_scenario(**overrides) -> Scenario:
    scenario = Scenario(capacity=100, group_size=4, events=500, seed=3)
    for key, value in overrides.items():
        setattr(scenario, key, value)
    return scenario


def post_fetch(daemon, files, headers=None):
    """One raw /fetch POST; returns (status, echo_header, payload)."""
    conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
    try:
        body = json.dumps({"files": files}).encode("utf-8")
        all_headers = {"Content-Type": "application/json"}
        if headers:
            all_headers.update(headers)
        conn.request("POST", "/fetch", body=body, headers=all_headers)
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, response.getheader(TRACE_HEADER), payload
    finally:
        conn.close()


# -- quantile helper ---------------------------------------------------------


class TestQuantiles:
    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0
        assert percentile(list(range(101)), 0.99) == 99.0

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 1.01)

    def test_latency_summary_keys(self):
        summary = latency_summary_ns(sorted(range(1000)))
        assert set(summary) == {"p50_ns", "p95_ns", "p99_ns"}
        assert summary["p50_ns"] <= summary["p95_ns"] <= summary["p99_ns"]


# -- span buffer semantics ---------------------------------------------------


class TestSpanBuffer:
    def test_span_ids_unique_and_trace_minted(self):
        buffer = SpanBuffer(process="test")
        one = buffer.start_span("a")
        two = buffer.start_span("b")
        assert one.span != two.span
        assert one.trace != two.trace
        one.finish()
        two.finish()
        assert all(span.finished for span in buffer.spans())

    def test_children_share_trace(self):
        buffer = SpanBuffer(process="test")
        root = buffer.start_span("root", kind="server")
        child = buffer.start_span("child", trace=root.trace, parent=root.span)
        assert child.trace == root.trace
        assert child.parent == root.span

    def test_ring_bounds_and_counts_drops(self):
        buffer = SpanBuffer(process="test", capacity=4)
        started = [buffer.start_span(f"s{i}") for i in range(10)]
        for span in started:
            span.finish()
        summary = buffer.summary()
        assert len(buffer) == 4
        assert summary["started"] == 10
        assert summary["dropped"] == 6
        assert summary["retained"] == 4
        # The ring keeps the newest spans.
        assert [span.name for span in buffer.spans()] == ["s6", "s7", "s8", "s9"]

    def test_finish_idempotent_and_duration_non_negative(self):
        buffer = SpanBuffer(process="test")
        span = buffer.start_span("once")
        span.finish()
        first = span.duration_ns
        span.finish()
        assert span.duration_ns == first
        assert span.to_dict()["duration_ns"] >= 0

    def test_annotate_chains(self):
        buffer = SpanBuffer(process="test")
        span = buffer.start_span("a").annotate("k", 1).annotate("k2", "v")
        span.finish()
        assert span.to_dict()["annotations"] == {"k": 1, "k2": "v"}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ObservabilityError):
            SpanBuffer(process="test", capacity=0)
        with pytest.raises(ObservabilityError):
            SpanBuffer(process="test", sample=0)
        buffer = SpanBuffer(process="test")
        with pytest.raises(ObservabilityError):
            buffer.start_span("x", kind="database")

    def test_summary_is_honest_about_sampling(self):
        buffer = SpanBuffer(process="test", sample=2)
        decisions = [buffer.should_sample() for _ in range(7)]
        summary = buffer.summary()
        assert summary["requests"] == 7
        assert summary["sampled_out"] == decisions.count(False)


class TestSamplingDeterminism:
    def test_every_nth_pattern(self):
        buffer = SpanBuffer(process="test", sample=3)
        decisions = [buffer.should_sample() for _ in range(9)]
        assert decisions == [True, False, False] * 3

    def test_request_zero_always_sampled(self):
        for sample in (1, 2, 10, 1000):
            buffer = SpanBuffer(process="test", sample=sample)
            assert buffer.should_sample() is True

    def test_two_buffers_agree(self):
        one = SpanBuffer(process="a", sample=5)
        two = SpanBuffer(process="b", sample=5)
        assert [one.should_sample() for _ in range(20)] == [
            two.should_sample() for _ in range(20)
        ]


# -- zero cost when disabled -------------------------------------------------


class TestDisabledMode:
    def test_maybe_span_returns_shared_null(self):
        assert spans_mod.ACTIVE is None
        assert maybe_span("anything") is NULL_SPAN
        assert maybe_span("other") is NULL_SPAN

    def test_null_span_absorbs_the_full_protocol(self):
        with maybe_span("x") as span:
            assert span is NULL_SPAN
            span.annotate("k", 1).annotate("k2", 2)
        span.finish()  # idempotent no-op

    def test_disabled_mode_allocates_nothing(self):
        # Same discipline as MetricsRegistry.ENABLED: with no active
        # buffer, the instrumentation path must not allocate in the
        # spans module at all.
        for _ in range(10):  # warm any caches
            maybe_span("warm").annotate("k", 1).finish()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(1000):
                with maybe_span("hot") as span:
                    span.annotate("k", 1)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        spans_file = tracemalloc.Filter(True, spans_mod.__file__)
        delta = after.filter_traces([spans_file]).compare_to(
            before.filter_traces([spans_file]), "lineno"
        )
        allocated = sum(stat.size_diff for stat in delta if stat.size_diff > 0)
        assert allocated == 0, f"disabled tracing allocated {allocated} bytes"

    def test_span_collection_restores_previous(self):
        assert spans_mod.ACTIVE is None
        with span_collection(process="test") as buffer:
            assert spans_mod.ACTIVE is buffer
            with maybe_span("inside") as span:
                assert span is not NULL_SPAN
        assert spans_mod.ACTIVE is None
        assert [span.name for span in buffer.spans()] == ["inside"]


# -- header contract ---------------------------------------------------------


class TestHeader:
    def test_round_trip(self):
        assert parse_header(format_header("t1", "s1")) == ("t1", "s1")

    def test_malformed_is_ignored(self):
        for bad in (None, "", "nocolon", ":", "a:", ":b", "a:b:c", 42, "x" * 300):
            assert parse_header(bad) is None, bad


# -- live daemon round trip --------------------------------------------------


class TestDaemonTracing:
    def test_header_round_trip_and_child_spans(self):
        buffer = SpanBuffer(process="serve")
        with CacheDaemon(tiny_scenario(), spans=buffer) as daemon:
            status, echo, _ = post_fetch(
                daemon, ["f1", "f2"],
                headers={TRACE_HEADER: format_header("cafe01", "beef02")},
            )
        assert status == 200
        trace, parent = parse_header(echo)
        assert trace == "cafe01"
        roots = [span for span in buffer.spans() if span.kind == "server"]
        assert len(roots) == 1
        root = roots[0]
        assert root.trace == "cafe01"
        assert root.parent == "beef02"
        assert parent == root.span  # echo carries the server span id
        children = {
            span.name: span for span in buffer.spans() if span.parent == root.span
        }
        assert set(children) == {
            "request.parse", "lock.wait", "cache.fetch", "journal.append",
            "response.write",
        }
        fetch = children["cache.fetch"].to_dict()["annotations"]
        assert fetch["events"] == 2
        assert fetch["hits"] + fetch["misses"] == 2
        assert children["journal.append"].to_dict()["annotations"]["entries"] == 2
        assert children["response.write"].to_dict()["annotations"]["bytes"] > 0
        notes = root.to_dict()["annotations"]
        assert notes["endpoint"] == "/fetch"
        assert notes["status"] == 200
        assert notes["request_id"] >= 1

    @pytest.mark.parametrize(
        "body, status", [(b'{"files": ["f1", "f2"]}', 200), (b"{not json", 400)]
    )
    def test_spans_annotated_before_the_reply_is_sent(self, body, status):
        # A client may read the spans the moment it has its reply, so
        # every annotation must already be in the buffer when the reply
        # is sent; only the durations are stamped after.
        import io

        buffer = SpanBuffer(process="serve")
        daemon = CacheDaemon(tiny_scenario(), spans=buffer)
        seen = []

        def send(data):
            spans = buffer.spans()
            root = [span for span in spans if span.kind == "server"][-1]
            writes = [span for span in spans if span.name == "response.write"]
            seen.append(
                (
                    dict(root.annotations),
                    dict(writes[-1].annotations) if writes else None,
                )
            )

        request = (
            b"POST /fetch HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        try:
            daemon._serve_connection(io.BytesIO(request), send)
        finally:
            daemon.close()
        assert len(seen) == 1
        root_notes, write_notes = seen[0]
        assert root_notes["endpoint"] == "/fetch"
        assert root_notes["status"] == status
        assert root_notes["request_id"] >= 1
        assert root_notes["events"] == (2 if status == 200 else 0)
        if status == 200:
            assert write_notes["bytes"] > 0
        roots = [span for span in buffer.spans() if span.kind == "server"]
        assert all(span.finished for span in buffer.spans())
        assert len(roots) == 1

    def test_malformed_header_does_not_fail_the_request(self):
        buffer = SpanBuffer(process="serve")
        with CacheDaemon(tiny_scenario(), spans=buffer) as daemon:
            status, echo, payload = post_fetch(
                daemon, ["f1"], headers={TRACE_HEADER: "not-a-trace"}
            )
        assert status == 200
        assert payload["count"] == 1
        # The daemon self-minted instead of joining the malformed trace.
        roots = [span for span in buffer.spans() if span.kind == "server"]
        assert roots and roots[0].parent is None
        assert parse_header(echo) is not None

    def test_headerless_requests_self_sample(self):
        buffer = SpanBuffer(process="serve", sample=2)
        with CacheDaemon(tiny_scenario(), spans=buffer) as daemon:
            for _ in range(4):
                post_fetch(daemon, ["f1"])
        roots = [span for span in buffer.spans() if span.kind == "server"]
        assert len(roots) == 2  # requests 0 and 2 of 0..3

    def test_untraced_daemon_sends_no_echo(self):
        with CacheDaemon(tiny_scenario()) as daemon:
            status, echo, _ = post_fetch(
                daemon, ["f1"],
                headers={TRACE_HEADER: format_header("t", "s")},
            )
        assert status == 200
        assert echo is None

    def test_stats_exposes_span_summary(self):
        buffer = SpanBuffer(process="serve")
        with CacheDaemon(tiny_scenario(), spans=buffer) as daemon:
            post_fetch(daemon, ["f1"])
            with ServeConnection(daemon.url) as conn:
                stats = conn.stats()
        assert stats["spans"]["schema"] == SPAN_SCHEMA
        assert stats["spans"]["started"] > 0

    def test_access_log_carries_the_trace_id(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        buffer = SpanBuffer(process="serve")
        with CacheDaemon(
            tiny_scenario(), spans=buffer, access_log=log_path
        ) as daemon:
            post_fetch(
                daemon, ["f1"],
                headers={TRACE_HEADER: format_header("feed05", "beef06")},
            )
        lines = [
            json.loads(line)
            for line in log_path.read_text(encoding="utf-8").splitlines()
        ]
        traced = [line for line in lines if line["endpoint"] == "/fetch"]
        assert traced and traced[0]["trace"] == "feed05"
        assert isinstance(traced[0]["id"], int)

    def test_access_log_trace_is_null_when_untraced(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        with CacheDaemon(tiny_scenario(), access_log=log_path) as daemon:
            post_fetch(daemon, ["f1"])
        lines = [
            json.loads(line)
            for line in log_path.read_text(encoding="utf-8").splitlines()
        ]
        assert lines and all(line["trace"] is None for line in lines)

    def test_span_log_written_on_close(self, tmp_path):
        span_log = tmp_path / "server-spans.jsonl"
        scenario = tiny_scenario()
        daemon = CacheDaemon(scenario, span_log=span_log, span_capacity=128)
        daemon.start()
        try:
            post_fetch(daemon, ["f1", "f2"])
        finally:
            daemon.close()
        loaded = load_spans_jsonl(span_log)
        assert loaded["meta"]["role"] == "server"
        assert loaded["meta"]["capacity"] == 128
        assert any(span["name"] == "cache.fetch" for span in loaded["spans"])


# -- JSONL export ------------------------------------------------------------


class TestExport:
    def test_round_trip(self, tmp_path):
        buffer = SpanBuffer(process="exporter")
        with buffer.start_span("root", kind="client") as root:
            root.annotate("endpoint", "/fetch")
        path = tmp_path / "spans.jsonl"
        count = write_spans_jsonl(buffer, path, meta={"role": "client"})
        assert count == 2  # meta line + one span
        loaded = load_spans_jsonl(path)
        assert loaded["meta"]["role"] == "client"
        assert loaded["spans"][0]["name"] == "root"
        assert loaded["spans"][0]["span_kind"] == "client"

    def test_load_rejects_missing_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span"}\n', encoding="utf-8")
        with pytest.raises(ObservabilityError):
            load_spans_jsonl(path)


# -- merging and analysis ----------------------------------------------------


def synthetic_spans():
    """A hand-built two-trace client/server span set (times in ns)."""
    def span(trace, span_id, parent, name, kind, process, start, dur, **notes):
        return {
            "kind": "span", "trace": trace, "span": span_id,
            "parent": parent, "name": name, "span_kind": kind,
            "process": process, "tid": 1, "start_ns": start,
            "duration_ns": dur, "annotations": notes,
        }

    client = [
        span("t1", "c1", None, "client /fetch", "client", "worker00",
             1_000, 5_000_000, endpoint="/fetch"),
        span("t2", "c2", None, "client /fetch", "client", "worker00",
             6_000_000, 2_000_000, endpoint="/fetch"),
        span("t9", "c9", None, "client /fetch", "client", "worker00",
             9_000_000, 1_000_000, endpoint="/fetch"),  # unpaired
    ]
    server = [
        span("t1", "s1", "c1", "POST /fetch", "server", "serve",
             2_000_000, 3_000_000, endpoint="/fetch"),
        span("t1", "s1a", "s1", "lock.wait", "internal", "serve",
             2_100_000, 500_000),
        span("t1", "s1b", "s1", "cache.fetch", "internal", "serve",
             2_700_000, 1_000_000, hits=3, misses=1),
        span("t2", "s2", "c2", "POST /fetch", "server", "serve",
             6_500_000, 1_000_000, endpoint="/fetch"),
        span("t3", "s3", None, "GET /stats", "server", "serve",
             8_000_000, 200_000, endpoint="/stats"),  # server-only
    ]
    return client, server


class TestMergeAndAnalysis:
    def test_merge_pairs_on_trace_id(self):
        client, server = synthetic_spans()
        merged = merge_spans(client, server)
        assert merged["paired"] == 2
        assert merged["client_only"] == 1
        assert merged["server_only"] == 1
        t1 = next(t for t in merged["traces"] if t["trace"] == "t1")
        assert t1["paired"] is True
        assert t1["client"]["span"] == "c1"
        assert t1["server"]["span"] == "s1"
        assert [child["name"] for child in t1["children"]] == [
            "lock.wait", "cache.fetch",
        ]

    def test_pairing_requires_parent_link(self):
        client, server = synthetic_spans()
        for span in server:
            if span["span"] == "s1":
                span["parent"] = "someone-else"
        merged = merge_spans(client, server)
        t1 = next(t for t in merged["traces"] if t["trace"] == "t1")
        assert t1["paired"] is False

    def test_endpoint_breakdown_rows(self):
        client, server = synthetic_spans()
        rows = endpoint_breakdown(merge_spans(client, server))
        fetch = next(row for row in rows if row["endpoint"] == "/fetch")
        assert fetch["requests"] == 3
        assert fetch["paired"] == 2
        # client t1 = 5ms, server t1 = 3ms -> net+queue 2ms at the top end.
        assert fetch["client_p99_ms"] == pytest.approx(5.0, rel=0.05)
        assert fetch["net_queue_p99_ms"] == pytest.approx(2.0, rel=0.05)
        shares = (
            fetch["lock_share"] + fetch["cache_share"]
            + fetch["journal_share"] + fetch["write_share"]
            + fetch["other_share"]
        )
        assert 0.0 <= shares <= 1.0 + 1e-9

    def test_slowest_traces_ordered_by_duration(self):
        client, server = synthetic_spans()
        slowest = slowest_traces(merge_spans(client, server), top=2)
        assert [t["trace"] for t in slowest] == ["t1", "t2"]

    def test_format_span_tree_mentions_everything(self):
        client, server = synthetic_spans()
        merged = merge_spans(client, server)
        t1 = next(t for t in merged["traces"] if t["trace"] == "t1")
        text = "\n".join(format_span_tree(t1))
        for needle in ("t1", "client /fetch", "POST /fetch", "lock.wait",
                       "cache.fetch", "net+queue", "hits=3"):
            assert needle in text


# -- Chrome trace export -----------------------------------------------------


class TestChromeExport:
    def test_payload_shape(self):
        client, server = synthetic_spans()
        payload = spans_chrome_trace(client + server, meta={"run": "test"})
        events = payload["traceEvents"]
        names = {
            event["args"]["name"]
            for event in events
            if event.get("ph") == "M" and event["name"] == "process_name"
        }
        assert names == {"worker00", "serve"}
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == len(client) + len(server)
        for event in complete:
            assert event["dur"] > 0
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
        assert payload["otherData"]["schema"] == SPAN_SCHEMA
        assert payload["otherData"]["run"] == "test"

    def test_write_is_valid_json(self, tmp_path):
        client, server = synthetic_spans()
        out = tmp_path / "chrome.json"
        count = write_spans_chrome_trace(client + server, out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["traceEvents"]) == count
        assert payload["displayTimeUnit"] == "ms"


# -- slam integration --------------------------------------------------------


class TestSlamTracing:
    def run_traced_slam(self, tmp_path, **kwargs):
        source = list(make_workload("server", 600, 11).file_ids())
        server_buffer = SpanBuffer(process="serve")
        with CacheDaemon(tiny_scenario(), spans=server_buffer) as daemon:
            report = run_slam(
                daemon.url, source, workers=1, batch=16,
                span_dir=tmp_path, **kwargs,
            )
        return report, server_buffer

    def test_client_and_server_spans_pair(self, tmp_path):
        report, server_buffer = self.run_traced_slam(tmp_path)
        assert report.retries == 0
        span_files = sorted(Path(tmp_path).glob("spans-worker*.jsonl"))
        assert len(span_files) == 1
        client_spans = load_spans_jsonl(span_files[0])["spans"]
        assert len(client_spans) == report.requests
        server_spans = [span.to_dict() for span in server_buffer.spans()]
        merged = merge_spans(client_spans, server_spans)
        assert merged["paired"] == report.requests
        assert merged["client_only"] == 0
        assert report.spans["client_spans"] == report.requests
        assert report.spans["files"] == [str(span_files[0])]

    def test_span_sampling_reduces_client_spans(self, tmp_path):
        report, _ = self.run_traced_slam(tmp_path, span_sample=5)
        client_spans = load_spans_jsonl(
            next(Path(tmp_path).glob("spans-worker*.jsonl"))
        )["spans"]
        expected = (report.requests + 4) // 5  # every 5th, request 0 included
        assert len(client_spans) == expected
        assert report.spans["sampled_out"] == report.requests - expected

    def test_buffer_bounds_under_load(self, tmp_path):
        report, _ = self.run_traced_slam(tmp_path, span_capacity=16)
        loaded = load_spans_jsonl(
            next(Path(tmp_path).glob("spans-worker*.jsonl"))
        )
        assert loaded["meta"]["dropped"] == report.requests - 16
        assert len(loaded["spans"]) == 16

    def test_report_carries_worker_spread(self, tmp_path):
        report, _ = self.run_traced_slam(tmp_path)
        assert len(report.worker_latency) == 1
        worker = report.worker_latency[0]
        assert worker["requests"] == report.requests
        assert 0 < worker["p50_ms"] <= worker["p99_ms"]
        spread = report.worker_p99_spread_ms
        assert spread["min"] == spread["median"] == spread["max"]
        payload = report.to_dict()
        assert payload["workers_latency"]["per_worker"] == report.worker_latency
        assert payload["spans"]["client_spans"] == report.requests
        rows = dict(report.rows())
        assert "worker p99 min/med/max" in rows


# -- CLI ---------------------------------------------------------------------


class TestSpansCli:
    def test_spans_subcommand_end_to_end(self, tmp_path, capsys):
        client, server = synthetic_spans()
        client_buffer = SpanBuffer(process="worker00")
        client_path = tmp_path / "client.jsonl"
        server_path = tmp_path / "server.jsonl"
        chrome_path = tmp_path / "chrome.json"
        # Write the synthetic sets as repro.span/1 files by hand.
        meta = dict(client_buffer.summary())
        for path, spans in ((client_path, client), (server_path, server)):
            lines = [json.dumps({"kind": "meta", **meta})]
            lines.extend(json.dumps(span) for span in spans)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([
            "spans",
            "--client", str(client_path),
            "--server", str(server_path),
            "--chrome", str(chrome_path),
            "--top", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 paired" in out
        assert "/fetch" in out
        assert "slowest 2 trace(s)" in out
        payload = json.loads(chrome_path.read_text(encoding="utf-8"))
        assert payload["traceEvents"]
