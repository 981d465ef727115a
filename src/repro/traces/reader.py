"""Readers for the on-disk trace format.

The CMU DFSTrace binary format is not publicly redistributable, so this
library defines a minimal line-oriented text format able to carry the
same information the paper consumes (see ``writer.py`` for the emitting
side).  The format, version ``repro-trace 1``:

* Lines starting with ``#`` are comments; ``#!`` lines are header
  directives (currently ``#! repro-trace <version>`` and
  ``#! name <trace-name>``, where the name is the rest of the line and
  counts only before the first event).
* Every other non-blank line is one event::

      <kind> <file-id> [client=<id>] [user=<id>] [process=<id>]

  ``kind`` is one of the :class:`~repro.traces.events.EventKind` names
  (``open``, ``read``, ``write``, ``create``, ``delete``, ``close``).
  ``file-id`` is a non-empty token without whitespace.

Sequence numbers are implicit in line order, which matches the paper's
position that only the order of events, not their timing, is
significant.
"""

from __future__ import annotations

from array import array
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, TextIO, Union

from ..errors import TraceFormatError
from .columnar import KINDS, ColumnarTrace, _pack_attribute
from .events import EventKind, Trace, TraceEvent

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1

#: Wire name -> columnar kind code, for the exact lowercase spellings.
_KIND_CODES: Dict[str, int] = {kind.value: code for code, kind in enumerate(KINDS)}

_ATTRIBUTE_FIELDS = {
    "client": "client_id",
    "user": "user_id",
    "process": "process_id",
}


def parse_event_line(text: str, line_number: int = 0) -> TraceEvent:
    """Parse a single event line into a :class:`TraceEvent`.

    Raises :class:`TraceFormatError` on malformed input, carrying the
    line number for error reporting.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise TraceFormatError(
            "event lines need at least '<kind> <file-id>'",
            line_number=line_number,
            text=text,
        )
    try:
        kind = EventKind.from_string(tokens[0])
    except ValueError as exc:
        raise TraceFormatError(str(exc), line_number=line_number, text=text) from exc

    file_id = tokens[1]
    attributes = {}
    for token in tokens[2:]:
        key, separator, value = token.partition("=")
        if not separator or key not in _ATTRIBUTE_FIELDS or not value:
            raise TraceFormatError(
                f"unknown event attribute {token!r} "
                f"(expected client=/user=/process=)",
                line_number=line_number,
                text=text,
            )
        attributes[_ATTRIBUTE_FIELDS[key]] = value

    return TraceEvent(file_id=file_id, kind=kind, **attributes)


def iter_events(stream: TextIO) -> Iterator[TraceEvent]:
    """Yield events from an open text stream, validating the header.

    The header is optional: a bare stream of event lines is accepted so
    hand-written fixtures stay convenient.  A ``#!`` directive naming a
    different format or a newer version is rejected.  Events carry
    their sequence numbers (0, 1, ... in line order).  The stream is
    parsed :data:`CHUNK_LINES` lines at a time, so an error surfaces
    once the events of the lines before it in its chunk are parsed,
    not yielded.
    """
    lines = _TraceLines()
    while True:
        chunk = list(islice(stream, CHUNK_LINES))
        if not chunk:
            return
        start = lines.events
        yield from lines.columns(chunk).iter_events(start=start)


#: Lines :func:`iter_events` parses per step.
CHUNK_LINES = 4096


class _TraceLines:
    """The one parsing loop: text lines straight into trace columns.

    Each :meth:`columns` call parses its lines into fresh columns, coded
    exactly as :meth:`ColumnarTrace.from_trace` packs the same events,
    building no :class:`TraceEvent` for the common shapes (``<kind>
    <file-id>``, maybe one ``client=``, lowercase kind).  Other lines
    go the format's long way -- blanks and comments skipped, directives
    checked, events through :func:`parse_event_line` -- so errors and
    line numbers do not depend on the shortcut.  Lines are split as the
    stream splits them.  Line numbers, the event count and the header
    ``name`` (the last ``#! name`` before the first event) carry over
    between calls.
    """

    def __init__(self):
        self.name = ""
        self.line_number = 0
        #: Events parsed by earlier calls.
        self.events = 0

    def columns(self, lines: Iterable[str]) -> ColumnarTrace:
        files: Dict[str, int] = {}
        # Keyed by the whole ``client=<id>`` token; "" for no client.
        clients: Dict[str, int] = {}
        file_codes: List[int] = []
        kinds = bytearray()
        client_codes: List[int] = []
        # Events carrying user= or process=, by index: rare enough to
        # keep out of the hot loop and pack at the end.
        attributed: Dict[int, TraceEvent] = {}
        file_code = files.setdefault
        client_code = clients.setdefault
        kind_of = _KIND_CODES.get
        add_file = file_codes.append
        add_kind = kinds.append
        add_client = client_codes.append
        line_number = self.line_number
        for line_number, raw_line in enumerate(lines, line_number + 1):
            tokens = raw_line.split()
            if len(tokens) == 3:
                kind = kind_of(tokens[0])
                client = tokens[2]
                if kind is not None and client[:7] == "client=" and len(client) > 7:
                    add_file(file_code(tokens[1], len(files)))
                    add_kind(kind)
                    add_client(client_code(client, len(clients)))
                    continue
            elif len(tokens) == 2:
                kind = kind_of(tokens[0])
                if kind is not None:
                    add_file(file_code(tokens[1], len(files)))
                    add_kind(kind)
                    add_client(client_code("", len(clients)))
                    continue
            line = raw_line.strip()
            if not line:
                continue
            if line.startswith("#!"):
                _validate_directive(line, line_number)
                # No event yet: still in the leading comment block.
                if not file_codes and not self.events:
                    directive = line[2:].split(None, 1)
                    if directive[0] == "name" and len(directive) > 1:
                        self.name = directive[1]
                continue
            if line.startswith("#"):
                continue
            event = parse_event_line(line, line_number)
            if event.user_id or event.process_id:
                attributed[len(file_codes)] = event
            add_file(file_code(event.file_id, len(files)))
            add_kind(_KIND_CODES[event.kind.value])
            client = "client=" + event.client_id if event.client_id else ""
            add_client(client_code(client, len(clients)))
        self.line_number = line_number
        count = len(file_codes)
        self.events += count

        kind_column = None
        if kinds.count(0) < count:
            kind_column = array("B")
            kind_column.frombytes(kinds)
        client_symbols = tuple(key[7:] for key in clients) or ("",)
        client_column = None
        if len(client_symbols) > 1:
            client_column = array("I", client_codes)
        users = processes = (None, ("",))
        if attributed:
            users, processes = [""] * count, [""] * count
            for index, event in attributed.items():
                users[index] = event.user_id
                processes[index] = event.process_id
            users, processes = _pack_attribute(users), _pack_attribute(processes)
        columns = ColumnarTrace(
            name="",
            file_codes=array("I", file_codes),
            file_symbols=tuple(files),
            kind_codes=kind_column,
            client_codes=client_column,
            client_symbols=client_symbols,
            user_codes=users[0],
            user_symbols=users[1],
            process_codes=processes[0],
            process_symbols=processes[1],
        )
        # The interning dict is the columns' code index already.
        columns._code_index = files
        return columns


def _validate_directive(line: str, line_number: int) -> None:
    """Check a ``#!`` header directive, raising on incompatibility."""
    tokens = line[2:].split()
    if not tokens:
        raise TraceFormatError("empty #! directive", line_number=line_number, text=line)
    if tokens[0] == FORMAT_NAME:
        if len(tokens) < 2 or not tokens[1].isdigit():
            raise TraceFormatError(
                "format directive needs a numeric version",
                line_number=line_number,
                text=line,
            )
        version = int(tokens[1])
        if version > FORMAT_VERSION:
            raise TraceFormatError(
                f"trace format version {version} is newer than supported "
                f"version {FORMAT_VERSION}",
                line_number=line_number,
                text=line,
            )
    elif tokens[0] == "name":
        # Any text is a valid name; the parsing loop records it.
        pass
    else:
        raise TraceFormatError(
            f"unknown directive {tokens[0]!r}", line_number=line_number, text=line
        )


def read_trace(source: Union[str, Path, TextIO], name: str = "") -> Trace:
    """Read a complete trace from a path or open text stream.

    Parameters
    ----------
    source:
        A filesystem path or a readable text stream.
    name:
        Overrides the trace name.  When empty, the name comes from the
        file's ``#! name`` directive, then from the file stem, then
        falls back to ``"trace"``.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".gz":
            import gzip

            with gzip.open(path, "rt", encoding="utf-8") as stream:
                trace = read_trace(stream, name=name)
            stem = Path(path.stem).stem or path.stem
        else:
            with path.open("r", encoding="utf-8") as stream:
                trace = read_trace(stream, name=name)
            stem = path.stem
        if not trace.name or trace.name == "trace":
            trace.name = name or stem
        return trace

    lines = _TraceLines()
    columns = lines.columns(source)
    columns.name = name or lines.name or "trace"
    return Trace.from_columns(columns)


def read_file_ids(source: Union[str, Path, TextIO]) -> Iterable[str]:
    """Convenience projection: the access sequence of a stored trace."""
    return read_trace(source).file_ids()
