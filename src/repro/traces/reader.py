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

import gc
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

from ..errors import TraceFormatError
from .events import KINDS_BY_VALUE, EventKind, Trace, TraceEvent

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1

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
    their sequence numbers (0, 1, ... in line order).
    """
    return iter(_TraceLines(stream))


class _TraceLines:
    """One pass over a text stream: the header's name, then every event.

    The single parsing loop behind :func:`iter_events` and
    :func:`read_trace`.  Lines are taken as the stream splits them
    (``\\n`` after the stream's own newline translation).  Event lines
    of the common shapes -- ``<kind> <file-id>``, optionally followed by
    one ``client=`` attribute, with ``kind`` in lowercase -- build
    their :class:`TraceEvent` directly.  Every other line is handled as
    the format defines it: blanks and comments are skipped, directives
    checked, and events parsed by :func:`parse_event_line`, so errors
    and their line numbers do not depend on the shortcut.  ``name``
    takes the rest of the last ``#! name`` line of the leading comment
    block.
    """

    def __init__(self, stream: TextIO):
        self.stream = stream
        self.name = ""

    def __iter__(self) -> Iterator[TraceEvent]:
        kind_of = KINDS_BY_VALUE.get
        sequence = 0
        for line_number, raw_line in enumerate(self.stream, start=1):
            tokens = raw_line.split()
            if len(tokens) == 3:
                kind = kind_of(tokens[0])
                client = tokens[2]
                if kind is not None and client[:7] == "client=" and len(client) > 7:
                    yield TraceEvent(tokens[1], kind, sequence, client[7:])
                    sequence += 1
                    continue
            elif len(tokens) == 2:
                kind = kind_of(tokens[0])
                if kind is not None:
                    yield TraceEvent(tokens[1], kind, sequence)
                    sequence += 1
                    continue
            line = raw_line.strip()
            if not line:
                continue
            if line.startswith("#!"):
                _validate_directive(line, line_number)
                # No event yet: still in the leading comment block.
                if not sequence:
                    directive = line[2:].split(None, 1)
                    if directive[0] == "name" and len(directive) > 1:
                        self.name = directive[1]
                continue
            if line.startswith("#"):
                continue
            yield parse_event_line(line, line_number).with_sequence(sequence)
            sequence += 1


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

    lines = _TraceLines(source)
    # The events hold no reference cycles, so the cyclic collector's
    # passes over the growing list are pure cost; pause it for the bulk.
    collecting = gc.isenabled()
    gc.disable()
    try:
        events = list(lines)
    finally:
        if collecting:
            gc.enable()
    return Trace(events=events, name=name or lines.name or "trace")


def read_file_ids(source: Union[str, Path, TextIO]) -> Iterable[str]:
    """Convenience projection: the access sequence of a stored trace."""
    return read_trace(source).file_ids()
