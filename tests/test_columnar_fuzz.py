"""Corruption fuzz for the columnar trace reader and validator.

``.ctrace`` files are untrusted input (artifact caches, ``repro slam``
traces, ``repro trace info``).  Every truncation, bit flip, or lying
header must end in either a trace or :class:`ColumnarFormatError` —
never another exception — and whenever :func:`validate_columnar` says
True, decoding every event of the file must succeed.
"""

import io
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.columnar import (
    _HEADER,
    ColumnarFormatError,
    dump_columnar,
    read_columnar,
    validate_columnar,
)
from repro.traces.events import EventKind, Trace, TraceEvent
from repro.workloads.synthetic import make_workload


def _packed(trace: Trace) -> bytes:
    buffer = io.BytesIO()
    dump_columnar(trace, buffer)
    return buffer.getvalue()


def _mixed_trace() -> Trace:
    """Every optional column present, kinds included, non-ASCII symbols."""
    kinds = list(EventKind)
    return Trace(
        events=[
            TraceEvent(
                f"f{i % 7}é",
                kinds[i % len(kinds)],
                client_id=f"c{i % 3}",
                user_id=f"ü{i % 2}",
                process_id=f"p{i % 4}",
            )
            for i in range(40)
        ],
        name="mixedñ",
    )


BASES = (
    _packed(make_workload("users", 300)),
    _packed(make_workload("write", 120)),
    _packed(_mixed_trace()),
)

#: (offset, struct format) of every header field after the magic.
HEADER_FIELDS = (
    (8, "<H"),
    (10, "<H"),
    (12, "<I"),
    (16, "<Q"),
    (24, "<I"),
    (28, "<I"),
    (32, "<I"),
    (36, "<I"),
    (40, "<Q"),
    (48, "<Q"),
    (56, "<Q"),
)


def _check(raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ctrace"
        path.write_bytes(raw)
        try:
            trace = read_columnar(path)
        except ColumnarFormatError:
            trace = None
        valid = validate_columnar(path)
        if trace is None:
            assert not valid
            return
        if valid:
            trace.to_trace()
            trace.file_ids()
        del trace


@st.composite
def truncations(draw):
    base = draw(st.sampled_from(BASES))
    return base[: draw(st.integers(0, len(base) - 1))]


@st.composite
def bit_flips(draw):
    raw = bytearray(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 8))):
        position = draw(st.integers(0, len(raw) - 1))
        raw[position] ^= 1 << draw(st.integers(0, 7))
    return bytes(raw)


@st.composite
def lying_headers(draw):
    raw = bytearray(draw(st.sampled_from(BASES)))
    offset, fmt = draw(st.sampled_from(HEADER_FIELDS))
    width = struct.calcsize(fmt)
    current = struct.unpack_from(fmt, raw, offset)[0]
    limit = (1 << (8 * width)) - 1
    value = draw(
        st.one_of(
            st.sampled_from([0, 1, 8, 64, limit, len(raw), len(raw) - 8]),
            st.integers(max(current - 16, 0), min(current + 16, limit)),
            st.integers(0, limit),
        )
    )
    struct.pack_into(fmt, raw, offset, value)
    return bytes(raw)


class TestCorruptionFuzz:
    @settings(max_examples=150, deadline=None)
    @given(raw=truncations())
    def test_truncations(self, raw):
        _check(raw)

    @settings(max_examples=400, deadline=None)
    @given(raw=bit_flips())
    def test_bit_flips(self, raw):
        _check(raw)

    @settings(max_examples=300, deadline=None)
    @given(raw=lying_headers())
    def test_lying_headers(self, raw):
        _check(raw)

    @pytest.mark.parametrize("base", range(len(BASES)))
    def test_pristine_bases_validate(self, base, tmp_path):
        path = tmp_path / "ok.ctrace"
        path.write_bytes(BASES[base])
        assert validate_columnar(path)
        assert len(read_columnar(path).to_trace()) > 0


class TestFoundCorruptions:
    """The two failure shapes the fuzz first found, pinned as examples."""

    def test_code_past_symbol_table_fails_validation(self, tmp_path):
        raw = bytearray(BASES[0])
        columns_offset = struct.unpack_from("<Q", raw, 40)[0]
        n_files = struct.unpack_from("<I", raw, 24)[0]
        struct.pack_into("<I", raw, columns_offset, n_files)
        path = tmp_path / "code.ctrace"
        path.write_bytes(bytes(raw))
        trace = read_columnar(path)  # zero-copy read does not scan codes
        assert validate_columnar(path) is False
        with pytest.raises(IndexError):
            trace.to_trace()

    def test_bad_kind_byte_fails_validation(self, tmp_path):
        raw = bytearray(BASES[2])
        columns_offset = struct.unpack_from("<Q", raw, 40)[0]
        n_events = struct.unpack_from("<Q", raw, 16)[0]
        kind_offset = columns_offset + 4 * n_events
        raw[kind_offset] = len(EventKind)
        path = tmp_path / "kind.ctrace"
        path.write_bytes(bytes(raw))
        assert validate_columnar(path) is False

    def test_non_utf8_symbol_raises_format_error(self, tmp_path):
        raw = bytearray(BASES[2])
        footer_offset = struct.unpack_from("<Q", raw, 48)[0]
        count = struct.unpack_from("<I", raw, footer_offset)[0]
        blob_offset = footer_offset + 8 + 4 * count
        raw[blob_offset] = 0xFF
        path = tmp_path / "utf8.ctrace"
        path.write_bytes(bytes(raw))
        with pytest.raises(ColumnarFormatError, match="UTF-8"):
            read_columnar(path)
        assert validate_columnar(path) is False

    def test_header_only_file_raises_format_error(self, tmp_path):
        raw = bytearray(BASES[0][: _HEADER.size])
        struct.pack_into("<Q", raw, 56, len(raw))
        path = tmp_path / "header.ctrace"
        path.write_bytes(bytes(raw))
        with pytest.raises(ColumnarFormatError):
            read_columnar(path)
