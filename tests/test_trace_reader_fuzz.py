"""Differential fuzz test: the trace reader against a per-line reference.

The reader parses common event lines without calling
:func:`parse_event_line`.  The reference here reads the same text the
plain way: split on ``\\n`` (after universal newlines, for streams that
translate them), strip, skip blanks and comments, check directives,
and parse every event line with :func:`parse_event_line`.  Both must
agree on events, sequence numbers and the trace name, or raise the same
:class:`TraceFormatError` at the same line.
"""

import gc
import gzip
import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.traces import reader
from repro.traces.columnar import ColumnarTrace, dump_columnar
from repro.traces.events import EventKind, Trace, TraceEvent
from repro.traces.reader import (
    _validate_directive,
    iter_events,
    parse_event_line,
    read_trace,
)

# Token separators: ASCII and Unicode whitespace that str.split() breaks
# on but stream iteration does not treat as a line end.
SEPARATORS = [
    " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"
]

tokens = st.text(alphabet="abcXYZ019/._-=#", min_size=1, max_size=6)
kinds = st.sampled_from([kind.value for kind in EventKind])
kind_names = kinds.flatmap(
    lambda value: st.sampled_from([value, value.upper(), value.capitalize()])
) | st.sampled_from(["mmap", "opened", "#open", "=", "client=c1"])
attributes = st.one_of(
    st.builds(
        lambda key, value: f"{key}={value}",
        st.sampled_from(["client", "user", "process", "flavor", "Client", ""]),
        st.sampled_from(["", "c1", "u=2", "p#3"]),
    ),
    st.sampled_from(["client", "noequals"]),
)
# The shape the writer emits for attributed traces, drawn on its own so
# it is common.
client_lines = st.builds(
    lambda kind, file_id, client: [kind, file_id, f"client={client}"],
    kinds,
    tokens,
    tokens,
)
event_lines = st.builds(
    lambda kind, file_id, attrs: [kind] + file_id + attrs,
    kind_names,
    st.lists(tokens, max_size=1),
    st.lists(attributes, max_size=4),
)
directive_lines = st.sampled_from(
    [
        ["#!", "repro-trace", "1"],
        ["#!repro-trace", "1"],
        ["#!", "repro-trace", "2"],
        ["#!", "repro-trace", "one"],
        ["#!", "repro-trace"],
        ["#!"],
        ["#!", "quantum", "3"],
        ["#!", "name"],
        ["#!", "name", "write"],
        ["#!", "name", "my", "trace"],
        ["#!name", "x"],
    ]
)
comment_lines = st.lists(tokens, max_size=3).map(lambda words: ["#"] + words)
blank_lines = st.just([])


@st.composite
def lines(draw):
    parts = draw(
        st.one_of(
            client_lines,
            event_lines,
            event_lines,
            directive_lines,
            comment_lines,
            blank_lines,
        )
    )
    gaps = draw(
        st.lists(
            st.sampled_from(SEPARATORS), min_size=len(parts), max_size=len(parts)
        )
    )
    lead = draw(st.sampled_from(["", "", " ", "\t", "\x85"]))
    trail = draw(st.sampled_from(["", "", " ", "\x1c", "\u2028"]))
    body = "".join(gap + part for gap, part in zip(gaps, parts))
    return lead + body + trail


@st.composite
def trace_texts(draw):
    body = draw(st.lists(lines(), max_size=25))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.sampled_from(["", newline]))
    return newline.join(body) + final


def reference_read(text):
    """Per-line reference: ``(events, header_name)`` or a raised error."""
    events = []
    name = ""
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#!"):
            _validate_directive(line, number)
            directive = line[2:].split(None, 1)
            if not events and directive[0] == "name" and len(directive) > 1:
                name = directive[1]
            continue
        if line.startswith("#"):
            continue
        events.append(parse_event_line(line, number).with_sequence(len(events)))
    return events, name


def outcome(read, text):
    try:
        return "ok", read(text)
    except TraceFormatError as exc:
        return "error", (exc.line_number, str(exc), exc.text)


def via_string_io(text):
    trace = read_trace(io.StringIO(text))
    return trace.events, trace.name


def via_text_wrapper(text):
    # Universal newlines, as for a file opened in text mode.
    stream = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    trace = read_trace(stream)
    return trace.events, trace.name


def via_iter_events(text):
    return list(iter_events(io.StringIO(text))), None


def expected(text):
    kind, value = outcome(reference_read, text)
    if kind == "ok":
        events, name = value
        return kind, (events, name or "trace")
    return kind, value


class TestReaderMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(trace_texts())
    def test_string_io(self, text):
        assert outcome(via_string_io, text) == expected(text)

    @settings(max_examples=150, deadline=None)
    @given(trace_texts())
    def test_universal_newlines(self, text):
        translated = text.replace("\r\n", "\n")
        assert outcome(via_text_wrapper, text) == expected(translated)

    @settings(max_examples=150, deadline=None)
    @given(trace_texts())
    def test_iter_events(self, text):
        kind, value = expected(text)
        if kind == "ok":
            value = (value[0], None)
        assert outcome(via_iter_events, text) == (kind, value)

    @settings(max_examples=150, deadline=None)
    @given(trace_texts(), st.integers(min_value=1, max_value=4))
    def test_iter_events_in_small_chunks(self, text, chunk_lines):
        # The same loop over many chunks: numbering, sequence numbers and
        # errors carry across chunk boundaries.
        kind, value = expected(text)
        if kind == "ok":
            value = (value[0], None)
        with mock.patch.object(reader, "CHUNK_LINES", chunk_lines):
            assert outcome(via_iter_events, text) == (kind, value)

    def test_line_numbers_do_not_follow_splitlines(self):
        # str.splitlines() would break on \x1c and \x85 and renumber.
        text = "open a\x1cclient=c1\nopen b\x85client=c2\nopen c flavor=x\n"
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(io.StringIO(text))
        assert excinfo.value.line_number == 3


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "text", ["open a\nopen b\nbogus c\n", "open a client=c1\n"]
    )
    def test_restored_after_read(self, enabled, text):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                read_trace(io.StringIO(text))
            except TraceFormatError:
                pass
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


# -- the column-backed read ----------------------------------------------------


def packed(trace):
    stream = io.BytesIO()
    dump_columnar(trace, stream)
    return stream.getvalue()


def via_gzip_file(text):
    # A path read: gzip stream, universal newlines, name from the stem
    # when the text names none.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "fuzzed.trace.gz"
        with gzip.open(path, "wt", encoding="utf-8", newline="") as stream:
            stream.write(text)
        trace = read_trace(path)
    return trace.events, trace.name


def via_untranslated_newlines(text):
    # newline="": lines end where universal newlines end them, with the
    # line ending kept in the text the parser sees.
    stream = io.TextIOWrapper(
        io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline=""
    )
    trace = read_trace(stream)
    return trace.events, trace.name


class TestColumnBackedRead:
    """``read_trace`` parses straight into columns.  The columns must be
    what packing the reference events builds, and the lazily decoded
    trace must be the reference trace, before and after mutation."""

    @settings(max_examples=300, deadline=None)
    @given(trace_texts())
    def test_columns_pack_like_the_reference_events(self, text):
        kind, value = expected(text)
        if kind != "ok":
            return
        events, name = value
        trace = read_trace(io.StringIO(text))
        assert trace.columns is not None
        assert packed(trace) == packed(Trace(events=events, name=name))
        # Packing handed the columns over without decoding events.
        assert trace._events is None
        assert ColumnarTrace.from_trace(trace) is trace.columns

    @settings(max_examples=200, deadline=None)
    @given(trace_texts())
    def test_lazy_events_equal_the_event_built_trace(self, text):
        kind, value = expected(text)
        if kind != "ok":
            return
        events, name = value
        trace = read_trace(io.StringIO(text))
        reference = Trace(events=list(events), name=name)
        assert len(trace) == len(reference)
        assert trace == reference and reference == trace
        assert trace.events == events
        assert list(trace) == events
        assert trace.file_ids() == reference.file_ids()
        assert trace.unique_files() == reference.unique_files()
        assert trace.columns is not None

        extra = TraceEvent("extra", EventKind.WRITE, client_id="c9")
        trace.append(extra)
        reference.append(extra)
        assert trace.columns is None
        assert trace == reference
        assert packed(trace) == packed(reference)
        trace.extend([TraceEvent("more", user_id="u1")])
        reference.extend([TraceEvent("more", user_id="u1")])
        assert trace == reference

    @settings(max_examples=100, deadline=None)
    @given(trace_texts())
    def test_gzip_path(self, text):
        kind, value = expected(text.replace("\r\n", "\n"))
        if kind == "ok" and value[1] == "trace":
            value = (value[0], "fuzzed")
        assert outcome(via_gzip_file, text) == (kind, value)

    @settings(max_examples=150, deadline=None)
    @given(trace_texts())
    def test_untranslated_newlines(self, text):
        assert outcome(via_untranslated_newlines, text) == expected(text)

    def test_attributes_and_renames_pack_like_the_reference(self):
        text = (
            "#! name first\n"
            "open a client=c1\n"
            "write b user=u1 process=p1\n"
            "open a process=p2 client=c2\n"
            "#! name ignored\n"
            "DELETE b\n"
        )
        trace = read_trace(io.StringIO(text))
        reference = Trace(events=reference_read(text)[0], name="first")
        assert packed(trace) == packed(reference)
        trace.name = "renamed"
        reference.name = "renamed"
        assert packed(trace) == packed(reference)
        assert trace._events is None
