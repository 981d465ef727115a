"""Columnar binary trace format: ``repro-ctrace`` version 1.

The text format (``reader.py``/``writer.py``) stays the interchange
format — human-readable, diffable, greppable — but parsing it costs a
string split and an object allocation per event, which caps replay
pipelines long before the simulation loops do.  This module stores the
same information *columnarly*: every event attribute becomes one dense
integer array, with the strings interned once into a symbol-table
footer.  Readers map the file and cast column slices straight out of
the page cache — zero copies, zero per-event objects — so sweeps that
fan out over worker processes share one physical copy of the trace.

On-disk layout (all integers little-endian)
-------------------------------------------

::

    header   (64 bytes)
      0   8s   magic            b"RCTRACE\\0"
      8   u16  version          1
      10  u16  flags            bit0 kind column present
                                bit1 client column present
                                bit2 user column present
                                bit3 process column present
      12  u32  reserved         0
      16  u64  n_events
      24  u32  n_file_symbols
      28  u32  n_client_symbols
      32  u32  n_user_symbols
      36  u32  n_process_symbols
      40  u64  columns_offset   (8-byte aligned)
      48  u64  footer_offset    (8-byte aligned)
      56  u64  file_size        (total bytes; truncation check)
    name     u16 length + UTF-8 bytes, zero-padded to 8
    columns  each padded to an 8-byte boundary, in order:
      file     n_events x u32   (always present)
      kind     n_events x u8    (flag bit0; absent => every event OPEN)
      client   n_events x u32   (flag bit1; absent => constant column)
      user     n_events x u32   (flag bit2; absent => constant column)
      process  n_events x u32   (flag bit3; absent => constant column)
    footer   four symbol blocks (file, client, user, process), each:
      u32 count, u32 blob_len, count x u32 string lengths,
      UTF-8 blob, zero-padded to 8

Codes are assigned in first-appearance order (the
:class:`~repro.traces.symbols.SymbolTable` discipline), so packing is
deterministic for a given event sequence.  An *absent* optional column
means the attribute is constant across the trace: its symbol block
holds exactly one entry (possibly the empty string), and every event
carries code 0.  Kind codes are fixed by the format — the
:class:`~repro.traces.events.EventKind` declaration order — and need no
symbol block.

Alignment matters: because every u32 column starts on an 8-byte
boundary, a reader can ``memoryview(mmap).cast("I")`` the column in
place.  On big-endian hosts (rare) the zero-copy cast is unsound, so
columns are copied through :class:`array.array` and byteswapped — same
values, one copy.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import sys
import tempfile
from array import array
from itertools import repeat
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import TraceFormatError
from .events import EventKind, Trace, TraceEvent
from .symbols import SymbolTable

MAGIC = b"RCTRACE\x00"
FORMAT_NAME = "repro-ctrace"
FORMAT_VERSION = 1

#: Conventional file suffix for columnar trace artifacts.
SUFFIX = ".ctrace"

_HEADER = struct.Struct("<8sHHIQIIIIQQQ")
_FLAG_KIND = 1
_FLAG_CLIENT = 2
_FLAG_USER = 4
_FLAG_PROCESS = 8
_FLAG_MASK = _FLAG_KIND | _FLAG_CLIENT | _FLAG_USER | _FLAG_PROCESS

#: Fixed kind numbering: EventKind declaration order.
KINDS: Tuple[EventKind, ...] = tuple(EventKind)
_KIND_CODES: Dict[EventKind, int] = {kind: code for code, kind in enumerate(KINDS)}

_LITTLE_ENDIAN = sys.byteorder == "little"


class ColumnarFormatError(TraceFormatError):
    """A columnar trace file that cannot be interpreted."""


def _pad8(size: int) -> int:
    return (8 - size % 8) % 8


def _column_u32(values: Sequence[int]) -> array:
    column = array("I", values)
    assert column.itemsize == 4
    return column


class ColumnarTrace:
    """A trace held as dense integer columns plus symbol tables.

    ``file_codes`` (and the optional ``kind_codes`` / ``client_codes`` /
    ``user_codes`` / ``process_codes``) are flat integer sequences —
    ``array.array`` when built in memory, zero-copy ``memoryview`` casts
    when mapped from disk.  The ``*_symbols`` tuples decode each code
    back to its string; an optional column set to ``None`` means the
    attribute is constant (``*_symbols[0]``) across every event.

    Instances are deliberately *not* picklable when mmap-backed: sweep
    workers are expected to re-open the artifact (sharing pages through
    the OS cache), never to serialize events over a pipe.
    """

    __slots__ = (
        "name",
        "file_codes",
        "kind_codes",
        "client_codes",
        "user_codes",
        "process_codes",
        "file_symbols",
        "client_symbols",
        "user_symbols",
        "process_symbols",
        "version",
        "_mmap",
        "_code_index",
    )

    def __init__(
        self,
        name: str,
        file_codes: Sequence[int],
        file_symbols: Sequence[str],
        kind_codes: Optional[Sequence[int]] = None,
        client_codes: Optional[Sequence[int]] = None,
        client_symbols: Sequence[str] = ("",),
        user_codes: Optional[Sequence[int]] = None,
        user_symbols: Sequence[str] = ("",),
        process_codes: Optional[Sequence[int]] = None,
        process_symbols: Sequence[str] = ("",),
        version: int = FORMAT_VERSION,
        _mmap: Optional[mmap.mmap] = None,
    ):
        self.name = name
        self.file_codes = file_codes
        self.kind_codes = kind_codes
        self.client_codes = client_codes
        self.user_codes = user_codes
        self.process_codes = process_codes
        self.file_symbols = tuple(file_symbols)
        self.client_symbols = tuple(client_symbols) or ("",)
        self.user_symbols = tuple(user_symbols) or ("",)
        self.process_symbols = tuple(process_symbols) or ("",)
        self.version = version
        self._mmap = _mmap
        self._code_index: Optional[Dict[str, int]] = None

    # -- construction -----------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Pack an event-object trace into in-memory columns.

        A column-backed trace (:attr:`Trace.columns`, as
        :func:`~repro.traces.reader.read_trace` returns) hands over its
        columns as they are: they are what packing its events builds.
        """
        columns = trace.columns
        if columns is not None:
            if columns.name != trace.name:
                columns = columns.renamed(trace.name)
            return columns
        events = trace.events
        files = SymbolTable()
        file_codes = _column_u32(
            files.encode(event.file_id for event in events)
        )
        kind_codes: Optional[array] = None
        if any(event.kind is not EventKind.OPEN for event in events):
            kind_codes = array(
                "B", (_KIND_CODES[event.kind] for event in events)
            )
        client_codes, client_symbols = _pack_attribute(
            [event.client_id for event in events]
        )
        user_codes, user_symbols = _pack_attribute(
            [event.user_id for event in events]
        )
        process_codes, process_symbols = _pack_attribute(
            [event.process_id for event in events]
        )
        return cls(
            name=trace.name,
            file_codes=file_codes,
            file_symbols=files.decode_sequence(range(len(files))),
            kind_codes=kind_codes,
            client_codes=client_codes,
            client_symbols=client_symbols,
            user_codes=user_codes,
            user_symbols=user_symbols,
            process_codes=process_codes,
            process_symbols=process_symbols,
        )

    # -- sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.file_codes)

    def __reduce__(self):
        raise TypeError(
            "ColumnarTrace is not picklable; workers should re-open the "
            "artifact (mmap pages are shared through the OS cache)"
        )

    # -- decoding ----------------------------------------------------------
    def kind_at(self, index: int) -> EventKind:
        """The :class:`EventKind` of one event."""
        if self.kind_codes is None:
            return EventKind.OPEN
        return KINDS[self.kind_codes[index]]

    def _attribute_at(self, codes, symbols: Tuple[str, ...], index: int) -> str:
        return symbols[0] if codes is None else symbols[codes[index]]

    def event_at(self, index: int) -> TraceEvent:
        """Decode one event (bounds follow the columns' own indexing)."""
        return TraceEvent(
            file_id=self.file_symbols[self.file_codes[index]],
            kind=self.kind_at(index),
            sequence=index,
            client_id=self._attribute_at(
                self.client_codes, self.client_symbols, index
            ),
            user_id=self._attribute_at(self.user_codes, self.user_symbols, index),
            process_id=self._attribute_at(
                self.process_codes, self.process_symbols, index
            ),
        )

    def iter_events(
        self, start: int = 0, codes: bool = False
    ) -> Iterator[TraceEvent]:
        """Decode every event, in order, column by column.

        Sequence numbers count from ``start``.  ``codes=True`` keeps the
        file codes as the events' file ids instead of their strings.
        """
        count = len(self)

        def column(values, symbols: Sequence) -> Iterator:
            # An absent column means code 0 everywhere (for kinds, OPEN).
            if values is None:
                return repeat(symbols[0], count)
            return map(symbols.__getitem__, values)

        return map(
            TraceEvent,
            (
                iter(self.file_codes)
                if codes
                else column(self.file_codes, self.file_symbols)
            ),
            column(self.kind_codes, KINDS),
            range(start, start + count),
            column(self.client_codes, self.client_symbols),
            column(self.user_codes, self.user_symbols),
            column(self.process_codes, self.process_symbols),
        )

    def to_trace(self, codes: bool = False) -> Trace:
        """Decode the full trace back to event objects (interchange).

        ``codes=True`` keys the events by file code, the key space every
        columnar replay uses.
        """
        return Trace(events=list(self.iter_events(codes=codes)), name=self.name)

    def file_ids(self) -> List[str]:
        """The access sequence decoded to file-identifier strings."""
        symbols = self.file_symbols
        return [symbols[code] for code in self.file_codes]

    def unique_files(self) -> int:
        """Number of distinct files appearing in the columns.

        Exact for slices too (a slice shares the parent's symbol table
        but need not touch every symbol), via the batch scan kernel.
        """
        from ..sim.kernel import scan_columns

        return scan_columns(
            self.file_codes, self.kind_codes, len(self.file_symbols)
        ).unique_files

    def code_of(self, file_id: str) -> int:
        """The code for a file-id string (KeyError when never interned)."""
        return self.code_index()[file_id]

    def code_index(self) -> Dict[str, int]:
        """File-id string -> code, built once (read-only by convention)."""
        if self._code_index is None:
            self._code_index = {
                name: code for code, name in enumerate(self.file_symbols)
            }
        return self._code_index

    # -- zero-copy views ---------------------------------------------------
    def renamed(self, name: str) -> "ColumnarTrace":
        """The same columns and symbol tables under another name."""
        return ColumnarTrace(
            name=name,
            file_codes=self.file_codes,
            file_symbols=self.file_symbols,
            kind_codes=self.kind_codes,
            client_codes=self.client_codes,
            client_symbols=self.client_symbols,
            user_codes=self.user_codes,
            user_symbols=self.user_symbols,
            process_codes=self.process_codes,
            process_symbols=self.process_symbols,
            version=self.version,
            _mmap=self._mmap,
        )

    def slice(self, start: int, stop: Optional[int] = None) -> "ColumnarTrace":
        """A zero-copy sub-trace over ``[start:stop)``.

        Columns are sliced views into the same backing buffer; symbol
        tables are shared.  Used by the windowed replay driver to chunk
        a replay without materializing events.
        """
        stop = len(self) if stop is None else stop
        return ColumnarTrace(
            name=f"{self.name}[{start}:{stop}]",
            file_codes=self.file_codes[start:stop],
            file_symbols=self.file_symbols,
            kind_codes=(
                None if self.kind_codes is None else self.kind_codes[start:stop]
            ),
            client_codes=(
                None
                if self.client_codes is None
                else self.client_codes[start:stop]
            ),
            client_symbols=self.client_symbols,
            user_codes=(
                None if self.user_codes is None else self.user_codes[start:stop]
            ),
            user_symbols=self.user_symbols,
            process_codes=(
                None
                if self.process_codes is None
                else self.process_codes[start:stop]
            ),
            process_symbols=self.process_symbols,
            version=self.version,
            _mmap=self._mmap,
        )

    def chunks(self, size: int) -> Iterator["ColumnarTrace"]:
        """Stream the trace as consecutive zero-copy slices of ``size``."""
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        for start in range(0, len(self), size):
            yield self.slice(start, min(start + size, len(self)))

    def column_nbytes(self) -> Dict[str, int]:
        """Per-column payload sizes in bytes (informational)."""
        sizes = {"file": 4 * len(self)}
        if self.kind_codes is not None:
            sizes["kind"] = len(self)
        for label, codes in (
            ("client", self.client_codes),
            ("user", self.user_codes),
            ("process", self.process_codes),
        ):
            if codes is not None:
                sizes[label] = 4 * len(self)
        return sizes


def _pack_attribute(
    values: List[str],
) -> Tuple[Optional[array], Tuple[str, ...]]:
    """Intern one optional string column, eliding it when constant."""
    if not values:
        return None, ("",)
    first = values[0]
    if all(value == first for value in values):
        return None, (first,)
    table = SymbolTable()
    codes = _column_u32(table.encode(values))
    return codes, tuple(table.decode_sequence(range(len(table))))


# -- writing ----------------------------------------------------------------


def _swapped_bytes(column: array) -> bytes:
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped.tobytes()


def _encode_symbol_block(symbols: Sequence[str]) -> bytes:
    blobs = [name.encode("utf-8") for name in symbols]
    blob = b"".join(blobs)
    lengths = array("I", [len(piece) for piece in blobs])
    out = struct.pack("<II", len(blobs), len(blob))
    out += lengths.tobytes() if _LITTLE_ENDIAN else _swapped_bytes(lengths)
    out += blob
    return out + b"\x00" * _pad8(len(out))


def _column_bytes(column) -> bytes:
    """Serialize one column little-endian, whatever it is backed by."""
    if isinstance(column, memoryview):
        # Zero-copy views read from a little-endian file: already LE.
        return column.tobytes()
    if _LITTLE_ENDIAN or column.itemsize == 1:
        return column.tobytes()
    return _swapped_bytes(column)


def dump_columnar(trace: Union[Trace, ColumnarTrace], stream) -> int:
    """Serialize a trace to an open binary stream; returns bytes written.

    Accepts event-object traces (packed first) or already-columnar ones
    (re-serialized as-is, so ``pack`` round-trips are cheap).
    """
    columnar = (
        trace if isinstance(trace, ColumnarTrace) else ColumnarTrace.from_trace(trace)
    )
    n_events = len(columnar)
    flags = 0
    if columnar.kind_codes is not None:
        flags |= _FLAG_KIND
    if columnar.client_codes is not None:
        flags |= _FLAG_CLIENT
    if columnar.user_codes is not None:
        flags |= _FLAG_USER
    if columnar.process_codes is not None:
        flags |= _FLAG_PROCESS

    name_bytes = columnar.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ColumnarFormatError("trace name longer than 65535 UTF-8 bytes")
    name_section = struct.pack("<H", len(name_bytes)) + name_bytes
    name_section += b"\x00" * _pad8(len(name_section))

    columns = io.BytesIO()
    for column in (
        columnar.file_codes,
        columnar.kind_codes,
        columnar.client_codes,
        columnar.user_codes,
        columnar.process_codes,
    ):
        if column is None:
            continue
        payload = _column_bytes(column)
        columns.write(payload)
        columns.write(b"\x00" * _pad8(len(payload)))
    columns_blob = columns.getvalue()

    footer = b"".join(
        _encode_symbol_block(symbols)
        for symbols in (
            columnar.file_symbols,
            columnar.client_symbols,
            columnar.user_symbols,
            columnar.process_symbols,
        )
    )

    columns_offset = _HEADER.size + len(name_section)
    footer_offset = columns_offset + len(columns_blob)
    file_size = footer_offset + len(footer)
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        flags,
        0,
        n_events,
        len(columnar.file_symbols),
        len(columnar.client_symbols),
        len(columnar.user_symbols),
        len(columnar.process_symbols),
        columns_offset,
        footer_offset,
        file_size,
    )
    stream.write(header)
    stream.write(name_section)
    stream.write(columns_blob)
    stream.write(footer)
    return file_size


def write_columnar(
    trace: Union[Trace, ColumnarTrace], path: Union[str, Path]
) -> int:
    """Write a columnar trace file atomically; returns bytes written.

    The write goes through a same-directory temp file and an atomic
    rename, so concurrent readers (sweep workers mapping the artifact
    cache) never observe a torn file.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        prefix=target.stem, suffix=".tmp.ctrace", dir=target.parent
    )
    temp_path = Path(temp_name)
    try:
        with os.fdopen(handle, "wb") as stream:
            written = dump_columnar(trace, stream)
        temp_path.replace(target)
    finally:
        if temp_path.exists() and temp_path != target:
            temp_path.unlink(missing_ok=True)
    return written


# -- reading ----------------------------------------------------------------


def _parse_header(buffer: bytes, source: str) -> Tuple:
    if len(buffer) < _HEADER.size:
        raise ColumnarFormatError(
            f"{source}: too short for a {FORMAT_NAME} header "
            f"({len(buffer)} bytes)"
        )
    fields = _HEADER.unpack_from(buffer, 0)
    magic, version = fields[0], fields[1]
    if magic != MAGIC:
        raise ColumnarFormatError(
            f"{source}: bad magic {magic!r} (expected {MAGIC!r})"
        )
    if version > FORMAT_VERSION:
        raise ColumnarFormatError(
            f"{source}: format version {version} is newer than supported "
            f"version {FORMAT_VERSION}"
        )
    return fields


def _u32_view(view: memoryview, offset: int, count: int):
    """A u32 sequence over ``view[offset:offset + 4 * count]``.

    Zero-copy cast on little-endian hosts; copy-and-byteswap elsewhere.
    """
    raw = view[offset : offset + 4 * count]
    if _LITTLE_ENDIAN:
        return raw.cast("I")
    column = array("I")
    column.frombytes(raw.tobytes())
    column.byteswap()
    return column


def _decode_symbol_block(
    view: memoryview, offset: int, source: str
) -> Tuple[Tuple[str, ...], int]:
    if offset + 8 > len(view):
        raise ColumnarFormatError(f"{source}: truncated symbol block")
    count, blob_len = struct.unpack_from("<II", view, offset)
    lengths_off = offset + 8
    blob_off = lengths_off + 4 * count
    end = blob_off + blob_len
    if end > len(view):
        raise ColumnarFormatError(f"{source}: truncated symbol block")
    lengths = _u32_view(view, lengths_off, count)
    if sum(lengths) != blob_len:
        raise ColumnarFormatError(
            f"{source}: symbol blob length disagrees with string lengths"
        )
    symbols: List[str] = []
    cursor = blob_off
    try:
        for length in lengths:
            symbols.append(bytes(view[cursor : cursor + length]).decode("utf-8"))
            cursor += length
    except UnicodeDecodeError as exc:
        raise ColumnarFormatError(f"{source}: symbol is not UTF-8 ({exc})") from exc
    size = end - offset
    return tuple(symbols), size + _pad8(size)


def read_columnar(
    source: Union[str, Path], use_mmap: bool = True
) -> ColumnarTrace:
    """Read a columnar trace, zero-copy when possible.

    With ``use_mmap=True`` (the default) the file is mapped read-only
    and every column is a ``memoryview`` cast into the mapping — opening
    a multi-gigabyte trace costs a page table, not a read.  With
    ``use_mmap=False`` the file is read into one bytes object (still a
    single allocation; columns are views into it).

    Raises :class:`ColumnarFormatError` on any structural problem:
    wrong magic, unsupported version, a size/offset that disagrees with
    the actual file or with the other sections, a symbol count that
    disagrees with the header, or undecodable text.  Codes inside the
    columns are *not* scanned (that would cost a pass per read); use
    :func:`validate_columnar` on untrusted files.
    """
    path = Path(source)
    label = str(path)
    with path.open("rb") as handle:
        mapped: Optional[mmap.mmap] = None
        if use_mmap:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                mapped = None  # empty or unmappable file: fall through
        buffer = mapped if mapped is not None else handle.read()

    try:
        fields = _parse_header(
            bytes(buffer[: _HEADER.size]) if mapped is not None else buffer,
            label,
        )
    except ColumnarFormatError:
        if mapped is not None:
            mapped.close()
        raise
    (
        _magic,
        version,
        flags,
        _reserved,
        n_events,
        *symbol_counts,
        columns_offset,
        footer_offset,
        file_size,
    ) = fields

    # On parse errors past this point the mapping is left to the garbage
    # collector: column views may already reference it, and closing a
    # mmap with exported buffers raises.  Refcounting reclaims both as
    # soon as the exception is handled.
    view = memoryview(buffer)
    if file_size != len(view):
        raise ColumnarFormatError(
            f"{label}: header says {file_size} bytes but file has "
            f"{len(view)} (truncated or overwritten)"
        )

    # Check the whole layout against the header before slicing, so a
    # lying offset or count can never yield a short or misaligned view.
    if flags & ~_FLAG_MASK:
        raise ColumnarFormatError(f"{label}: unknown flag bits {flags:#x}")
    if columns_offset % 8 or footer_offset % 8:
        raise ColumnarFormatError(f"{label}: section offsets are not 8-byte aligned")
    name_off = _HEADER.size + 2
    if name_off > file_size:
        raise ColumnarFormatError(f"{label}: truncated trace name")
    name_len = struct.unpack_from("<H", view, _HEADER.size)[0]
    columns_end = columns_offset + 4 * n_events + _pad8(4 * n_events)
    if flags & _FLAG_KIND:
        columns_end += n_events + _pad8(n_events)
    for flag in (_FLAG_CLIENT, _FLAG_USER, _FLAG_PROCESS):
        if flags & flag:
            columns_end += 4 * n_events + _pad8(4 * n_events)
    if not name_off + name_len <= columns_offset <= columns_end <= footer_offset:
        raise ColumnarFormatError(
            f"{label}: name, columns and footer overlap or overrun "
            f"(columns at {columns_offset}-{columns_end}, footer at "
            f"{footer_offset})"
        )
    try:
        name = bytes(view[name_off : name_off + name_len]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ColumnarFormatError(f"{label}: trace name is not UTF-8") from exc

    cursor = columns_offset
    file_codes = _u32_view(view, cursor, n_events)
    cursor += 4 * n_events + _pad8(4 * n_events)
    kind_codes = None
    if flags & _FLAG_KIND:
        kind_codes = view[cursor : cursor + n_events]
        cursor += n_events + _pad8(n_events)
    optional: Dict[int, Optional[memoryview]] = {}
    for flag in (_FLAG_CLIENT, _FLAG_USER, _FLAG_PROCESS):
        if flags & flag:
            optional[flag] = _u32_view(view, cursor, n_events)
            cursor += 4 * n_events + _pad8(4 * n_events)
        else:
            optional[flag] = None

    cursor = footer_offset
    blocks: List[Tuple[str, ...]] = []
    for expected, role in zip(symbol_counts, ("file", "client", "user", "process")):
        symbols, advance = _decode_symbol_block(view, cursor, label)
        if len(symbols) != expected:
            raise ColumnarFormatError(
                f"{label}: footer has {len(symbols)} {role} symbols, "
                f"header says {expected}"
            )
        blocks.append(symbols)
        cursor += advance
    if cursor != file_size:
        raise ColumnarFormatError(
            f"{label}: footer ends at {cursor}, file has {file_size} bytes"
        )
    file_symbols, client_symbols, user_symbols, process_symbols = blocks

    return ColumnarTrace(
        name=name,
        file_codes=file_codes,
        file_symbols=file_symbols,
        kind_codes=kind_codes,
        client_codes=optional[_FLAG_CLIENT],
        client_symbols=client_symbols,
        user_codes=optional[_FLAG_USER],
        user_symbols=user_symbols,
        process_codes=optional[_FLAG_PROCESS],
        process_symbols=process_symbols,
        version=version,
        _mmap=mapped,
    )


def describe_columnar(source: Union[str, Path]) -> Dict[str, object]:
    """Header-level facts about a columnar file, without decoding events.

    Returns format version, event count, symbol counts, per-column byte
    sizes, footer size, and total size — the ``repro trace info``
    payload.  Raises :class:`ColumnarFormatError` on malformed files.
    """
    path = Path(source)
    with path.open("rb") as handle:
        header = handle.read(_HEADER.size)
    fields = _parse_header(header, str(path))
    (
        _magic,
        version,
        flags,
        _reserved,
        n_events,
        n_files,
        n_clients,
        n_users,
        n_processes,
        columns_offset,
        footer_offset,
        file_size,
    ) = fields
    actual = path.stat().st_size
    if file_size != actual:
        raise ColumnarFormatError(
            f"{path}: header says {file_size} bytes but file has {actual}"
        )
    columns = {"file": 4 * n_events}
    if flags & _FLAG_KIND:
        columns["kind"] = n_events
    if flags & _FLAG_CLIENT:
        columns["client"] = 4 * n_events
    if flags & _FLAG_USER:
        columns["user"] = 4 * n_events
    if flags & _FLAG_PROCESS:
        columns["process"] = 4 * n_events
    return {
        "format": FORMAT_NAME,
        "version": version,
        "events": n_events,
        "unique_files": n_files,
        "client_symbols": n_clients,
        "user_symbols": n_users,
        "process_symbols": n_processes,
        "columns": columns,
        "columns_bytes": footer_offset - columns_offset,
        "footer_bytes": file_size - footer_offset,
        "file_bytes": file_size,
    }


def validate_columnar(source: Union[str, Path]) -> bool:
    """Whether a file is a well-formed columnar trace whose events all decode.

    The full structural check for untrusted files: everything
    :func:`read_columnar` checks, plus one pass over each code column
    confirming every code is below its symbol count and every kind byte
    is an :class:`~repro.traces.events.EventKind` code.  When this
    returns True, decoding any event of the file succeeds.
    """
    try:
        trace = read_columnar(source)
    except (OSError, ColumnarFormatError):
        return False
    limits = (
        (trace.file_codes, len(trace.file_symbols)),
        (trace.kind_codes, len(KINDS)),
        (trace.client_codes, len(trace.client_symbols)),
        (trace.user_codes, len(trace.user_symbols)),
        (trace.process_codes, len(trace.process_symbols)),
    )
    return all(
        codes is None or not len(codes) or max(codes) < limit
        for codes, limit in limits
    )
