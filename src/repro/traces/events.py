"""Trace event model.

The paper's evaluation is driven by CMU DFSTrace system-call traces,
reduced to the *sequence of file open events*.  This module defines the
in-memory representation of such events.

Design notes
------------
The paper is explicit (Section 2.2) that precise timing is deliberately
excluded from the model: "we base our groupings on the observed sequence
of files accessed and make no attempt to include precise timing
information".  Events therefore carry a *sequence number* as their
primary ordering, plus optional metadata (client, user, process,
operation kind) that richer analyses can use for conditioning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .columnar import ColumnarTrace


class EventKind(enum.Enum):
    """The kind of file-system operation an event represents.

    The grouping model only consumes ``OPEN`` events (whole-file caching
    keyed on opens, Section 4.1), but traces commonly record more, and
    the ``write`` workload's character comes from its mutation mix, so
    the substrate keeps the distinction.
    """

    OPEN = "open"
    READ = "read"
    WRITE = "write"
    CREATE = "create"
    DELETE = "delete"
    CLOSE = "close"

    @classmethod
    def from_string(cls, value: str) -> "EventKind":
        """Parse an :class:`EventKind` from its wire name.

        Raises :class:`ValueError` with the complete list of accepted
        names when the value is unknown.
        """
        kind = KINDS_BY_VALUE.get(value.strip().lower())
        if kind is None:
            names = ", ".join(member.value for member in cls)
            raise ValueError(f"unknown event kind {value!r} (expected one of: {names})")
        return kind


#: Wire name -> kind, for the exact lowercase spellings (no stripping).
KINDS_BY_VALUE: Dict[str, EventKind] = {kind.value: kind for kind in EventKind}


@dataclass(frozen=True)
class TraceEvent:
    """One file-system access event.

    Attributes
    ----------
    file_id:
        Identity of the accessed file.  Any hashable string: a path, an
        inode number rendered as text, or a synthetic identifier.
    kind:
        The operation performed; defaults to :attr:`EventKind.OPEN`.
    sequence:
        Position of the event in the originating stream.  ``-1`` means
        "unassigned"; readers and generators assign it on production.
    client_id:
        Identity of the machine that issued the request, when known.
    user_id / process_id:
        Finer-grained attribution, when the trace records it.
    """

    file_id: str
    kind: EventKind = EventKind.OPEN
    sequence: int = -1
    client_id: str = ""
    user_id: str = ""
    process_id: str = ""

    def with_sequence(self, sequence: int) -> "TraceEvent":
        """Return a copy of this event carrying the given sequence number."""
        return TraceEvent(
            file_id=self.file_id,
            kind=self.kind,
            sequence=sequence,
            client_id=self.client_id,
            user_id=self.user_id,
            process_id=self.process_id,
        )

    @property
    def is_open(self) -> bool:
        """Whether this event is a file open (the grouping model's input)."""
        return self.kind is EventKind.OPEN

    @property
    def is_mutation(self) -> bool:
        """Whether this event mutates the file (write/create/delete)."""
        return self.kind in (EventKind.WRITE, EventKind.CREATE, EventKind.DELETE)


class Trace:
    """An ordered collection of :class:`TraceEvent` objects.

    A thin sequence wrapper that also remembers a human-readable name
    (used in reports) and offers the projections the rest of the library
    needs most often.

    A trace may also be *column-backed* (:meth:`from_columns`, which is
    how :func:`~repro.traces.reader.read_trace` builds one): it then
    holds a :class:`~repro.traces.columnar.ColumnarTrace` and decodes
    :attr:`events` only on first touch.  :attr:`columns` hands those
    columns to the code that can use them directly (the replay kernel,
    the columnar packer) while they still describe the events; any
    mutation through :meth:`append`, :meth:`extend` or assigning
    :attr:`events` drops them.  Edit a column-backed trace through those
    methods, not by mutating the decoded list in place.
    """

    __slots__ = ("_events", "_columns", "name")

    def __init__(
        self, events: Optional[List[TraceEvent]] = None, name: str = "trace"
    ):
        self._events: Optional[List[TraceEvent]] = [] if events is None else events
        self._columns: Optional["ColumnarTrace"] = None
        self.name = name

    @classmethod
    def from_columns(cls, columns: "ColumnarTrace", name: str = "") -> "Trace":
        """A trace backed by ``columns``; events decode on first touch."""
        trace = cls(name=name or columns.name)
        trace._events = None
        trace._columns = columns
        return trace

    @property
    def events(self) -> List[TraceEvent]:
        """The events, decoded from the columns on first touch."""
        if self._events is None:
            self._events = list(self._columns.iter_events())
        return self._events

    @events.setter
    def events(self, events: List[TraceEvent]) -> None:
        self._events = events
        self._columns = None

    @property
    def columns(self) -> Optional["ColumnarTrace"]:
        """The backing columns while they describe the events, else None."""
        return self._columns

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.name == other.name and self.events == other.events

    __hash__ = None

    def __repr__(self) -> str:
        return f"Trace(events={self.events!r}, name={self.name!r})"

    def __reduce__(self):
        return (type(self), (self.events, self.name))

    def __len__(self) -> int:
        if self._events is None:
            return len(self._columns)
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, index):
        return self.events[index]

    def append(self, event: TraceEvent) -> None:
        """Append an event, assigning its sequence number if unset."""
        events = self.events
        self._columns = None
        if event.sequence < 0:
            event = event.with_sequence(len(events))
        events.append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append many events, assigning sequence numbers as needed."""
        for event in events:
            self.append(event)

    def file_ids(self) -> List[str]:
        """The access sequence as a plain list of file identifiers."""
        if self._columns is not None:
            return self._columns.file_ids()
        return [event.file_id for event in self.events]

    def open_events(self) -> "Trace":
        """A new trace containing only the OPEN events, renumbered."""
        projected = Trace(name=f"{self.name}/opens")
        projected.extend(
            event.with_sequence(-1) for event in self.events if event.is_open
        )
        return projected

    def unique_files(self) -> int:
        """Number of distinct files appearing in the trace."""
        if self._columns is not None:
            return self._columns.unique_files()
        return len({event.file_id for event in self.events})

    @classmethod
    def from_file_ids(
        cls, file_ids: Sequence[str], name: str = "trace", kind: EventKind = EventKind.OPEN
    ) -> "Trace":
        """Build a trace of same-kind events from bare file identifiers.

        This is the most common construction in tests and analyses,
        where only the access sequence matters.
        """
        trace = cls(name=name)
        trace.extend(TraceEvent(file_id=file_id, kind=kind) for file_id in file_ids)
        return trace

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        """Return a renumbered sub-trace covering ``events[start:stop]``."""
        sliced = Trace(name=f"{self.name}[{start}:{'' if stop is None else stop}]")
        sliced.extend(event.with_sequence(-1) for event in self.events[start:stop])
        return sliced
