"""Unit tests for the trace text format reader and writer."""

import io

import pytest

from repro.errors import TraceFormatError
from repro.traces.events import EventKind, Trace, TraceEvent
from repro.traces.reader import (
    FORMAT_VERSION,
    iter_events,
    parse_event_line,
    read_file_ids,
    read_trace,
)
from repro.traces.writer import format_event, write_trace


class TestParseEventLine:
    def test_minimal(self):
        event = parse_event_line("open /usr/bin/vi")
        assert event.file_id == "/usr/bin/vi"
        assert event.kind is EventKind.OPEN

    def test_attributes(self):
        event = parse_event_line("write data.db client=c1 user=alice process=p7")
        assert event.kind is EventKind.WRITE
        assert event.client_id == "c1"
        assert event.user_id == "alice"
        assert event.process_id == "p7"

    def test_rejects_short_line(self):
        with pytest.raises(TraceFormatError, match="at least"):
            parse_event_line("open")

    def test_rejects_unknown_kind(self):
        with pytest.raises(TraceFormatError, match="unknown event kind"):
            parse_event_line("frobnicate x")

    def test_rejects_unknown_attribute(self):
        with pytest.raises(TraceFormatError, match="unknown event attribute"):
            parse_event_line("open x flavor=vanilla")

    def test_rejects_empty_attribute_value(self):
        with pytest.raises(TraceFormatError):
            parse_event_line("open x client=")

    def test_error_carries_line_number(self):
        with pytest.raises(TraceFormatError) as excinfo:
            parse_event_line("bogus x", line_number=17)
        assert excinfo.value.line_number == 17
        assert "line 17" in str(excinfo.value)


class TestIterEvents:
    def test_skips_comments_and_blanks(self):
        stream = io.StringIO("# comment\n\nopen a\n  \nopen b\n")
        assert [e.file_id for e in iter_events(stream)] == ["a", "b"]

    def test_accepts_current_version(self):
        stream = io.StringIO(f"#! repro-trace {FORMAT_VERSION}\nopen a\n")
        assert len(list(iter_events(stream))) == 1

    def test_rejects_future_version(self):
        stream = io.StringIO(f"#! repro-trace {FORMAT_VERSION + 1}\nopen a\n")
        with pytest.raises(TraceFormatError, match="newer than supported"):
            list(iter_events(stream))

    def test_rejects_unknown_directive(self):
        stream = io.StringIO("#! quantum 3\n")
        with pytest.raises(TraceFormatError, match="unknown directive"):
            list(iter_events(stream))

    def test_rejects_empty_directive(self):
        stream = io.StringIO("#!\n")
        with pytest.raises(TraceFormatError, match="empty"):
            list(iter_events(stream))

    def test_rejects_nonnumeric_version(self):
        stream = io.StringIO("#! repro-trace one\n")
        with pytest.raises(TraceFormatError, match="numeric version"):
            list(iter_events(stream))

    def test_numbers_events_in_line_order(self):
        stream = io.StringIO("# c\nopen a\n\nOPEN b\nwrite c user=u\n")
        assert [e.sequence for e in iter_events(stream)] == [0, 1, 2]


class TestRoundTrip:
    def test_memory_round_trip(self, mixed_trace):
        buffer = io.StringIO()
        write_trace(mixed_trace, buffer)
        recovered = read_trace(io.StringIO(buffer.getvalue()))
        assert recovered.name == mixed_trace.name
        assert len(recovered) == len(mixed_trace)
        for original, parsed in zip(mixed_trace, recovered):
            assert parsed.file_id == original.file_id
            assert parsed.kind == original.kind
            assert parsed.client_id == original.client_id
            assert parsed.user_id == original.user_id
            assert parsed.process_id == original.process_id

    def test_file_round_trip(self, tmp_path, mixed_trace):
        path = tmp_path / "trace.txt"
        write_trace(mixed_trace, path)
        recovered = read_trace(path)
        assert recovered.file_ids() == mixed_trace.file_ids()
        assert recovered.name == "mixed"

    @pytest.mark.parametrize(
        "workload", ["server", "users", "write", "workstation"]
    )
    def test_paper_workloads_round_trip(self, tmp_path, workload):
        from repro.workloads.synthetic import make_workload

        original = make_workload(workload, 2000)
        path = tmp_path / "trace.txt"
        write_trace(original, path)
        recovered = read_trace(path)
        assert recovered.events == original.events
        assert recovered.name == original.name

    def test_name_with_whitespace_round_trips(self, tmp_path, mixed_trace):
        mixed_trace.name = "my  trace\tv2"
        path = tmp_path / "trace.txt"
        write_trace(mixed_trace, path)
        recovered = read_trace(path)
        assert recovered.name == "my  trace\tv2"
        assert recovered.events == mixed_trace.events

    def test_name_only_from_leading_block(self):
        text = "#! name first\nopen a\n#! name late\n"
        assert read_trace(io.StringIO(text)).name == "first"

    def test_name_falls_back_to_stem(self, tmp_path):
        path = tmp_path / "mytrace.txt"
        path.write_text("open a\n", encoding="utf-8")
        assert read_trace(path).name == "mytrace"

    def test_explicit_name_overrides(self, tmp_path, mixed_trace):
        path = tmp_path / "whatever.txt"
        write_trace(mixed_trace, path)
        assert read_trace(path, name="override").name == "override"

    def test_read_file_ids(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(Trace.from_file_ids(["x", "y", "x"]), path)
        assert list(read_file_ids(path)) == ["x", "y", "x"]


class TestFormatEvent:
    def test_plain(self):
        assert format_event(TraceEvent("a")) == "open a"

    def test_full(self):
        event = TraceEvent(
            "a", EventKind.CREATE, client_id="c", user_id="u", process_id="p"
        )
        assert format_event(event) == "create a client=c user=u process=p"


class TestGzipSupport:
    def test_gzip_round_trip(self, tmp_path, mixed_trace):
        path = tmp_path / "trace.txt.gz"
        write_trace(mixed_trace, path)
        recovered = read_trace(path)
        assert recovered.file_ids() == mixed_trace.file_ids()
        # The .txt.gz double suffix strips to the bare stem.
        assert recovered.name == "mixed"

    def test_gzip_actually_compressed(self, tmp_path):
        trace = Trace.from_file_ids(["same/file"] * 2000)
        plain = tmp_path / "t.trace"
        packed = tmp_path / "t.trace.gz"
        write_trace(trace, plain)
        write_trace(trace, packed)
        assert packed.stat().st_size < plain.stat().st_size / 5

    def test_gzip_name_from_stem(self, tmp_path):
        import gzip

        path = tmp_path / "mytrace.trace.gz"
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            stream.write("open a\n")
        assert read_trace(path).name == "mytrace"
