"""The HTTP/1.1 subset ``repro serve`` speaks, shared by daemon and client.

Both ends of the served path frame messages here: the daemon reads
requests and writes responses, :class:`~repro.serve.client.ServeConnection`
writes requests and reads responses.  The subset is small on purpose:

* **Heads.**  A start line plus header fields, each line at most
  :data:`MAX_LINE` bytes and at most :data:`MAX_HEADERS` fields, ended
  by ``\\r\\n`` (a bare ``\\n`` is accepted).  Field names must be
  tokens and are returned lowercased; repeated fields are joined with
  ``", "``.  Obsolete line folding, a field value with a bare CR or
  NUL, and anything else malformed raise :class:`FramingError`.
* **Bodies.**  Delimited by ``Content-Length`` only.  Conflicting
  duplicate lengths and non-decimal lengths are framing errors;
  ``Transfer-Encoding`` is answered with 501, never guessed at.
* **One write per message.**  :func:`encode` returns start line,
  fields, ``Content-Length`` and body as one ``bytes``, so a caller
  sends each message with a single ``sendall`` — no second packet, no
  extra wake-up of the peer.

The readers never consume a byte past the head: the caller reads the
body (``rfile.read(length)``) and the stream is positioned at the next
message.  Every error carries the HTTP status the daemon answers it
with.
"""

from __future__ import annotations

import re
from http import HTTPStatus
from typing import BinaryIO, Dict, Iterable, Optional, Tuple

from ..errors import ReproError

__all__ = [
    "MAX_HEADERS",
    "MAX_LINE",
    "CONTINUE",
    "FramingError",
    "body_length",
    "encode",
    "keep_alive",
    "read_request",
    "read_response",
    "status_line",
]

#: Longest accepted start or header line, terminator included.
MAX_LINE = 65536

#: Most header fields accepted in one head.
MAX_HEADERS = 100

#: The interim reply to ``Expect: 100-continue`` (curl sends it for
#: bodies over 1 KiB and waits a second for it before sending anyway).
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

#: Content-Length values longer than this are out of range for any
#: body the daemon accepts (and ``int()`` of a huge digit string is
#: itself refused by the interpreter).
_MAX_LENGTH_DIGITS = 18

_TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+").fullmatch
_VERSION = re.compile(r"HTTP/\d\.\d").fullmatch
_REASONS = {status.value: status.phrase for status in HTTPStatus}


class FramingError(ReproError):
    """A message broke the HTTP/1.1 subset; carries the HTTP status."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _start_line(rfile: BinaryIO) -> Optional[str]:
    """The start line without its terminator; None on a clean EOF."""
    line = rfile.readline(MAX_LINE + 1)
    if line in (b"\r\n", b"\n"):
        # One stray CRLF after the previous message is tolerated.
        line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise FramingError(f"start line longer than {MAX_LINE} bytes", 414)
    if line[-1:] != b"\n":
        raise FramingError("connection closed in the middle of a head")
    return line.rstrip(b"\r\n").decode("latin-1")


def _fields(rfile: BinaryIO) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    count = 0
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if line == b"\r\n" or line == b"\n":
            return fields
        if len(line) > MAX_LINE:
            raise FramingError(f"header line longer than {MAX_LINE} bytes", 431)
        if line[-1:] != b"\n":
            raise FramingError("connection closed in the middle of a head")
        count += 1
        if count > MAX_HEADERS:
            raise FramingError(f"more than {MAX_HEADERS} header fields", 431)
        name, colon, value = line.partition(b":")
        if not colon or not _TOKEN(name):
            if line[:1] in (b" ", b"\t"):
                raise FramingError("obsolete line folding is not accepted")
            raise FramingError(f"malformed header line {line[:64]!r}")
        value = value.strip(b" \t\r\n")
        if b"\r" in value or b"\0" in value:
            raise FramingError(f"header {name[:64]!r} holds a CR or NUL byte")
        key = name.decode("ascii").lower()
        text = value.decode("latin-1")
        previous = fields.get(key)
        fields[key] = text if previous is None else f"{previous}, {text}"


def read_request(
    rfile: BinaryIO,
) -> Optional[Tuple[str, str, str, Dict[str, str]]]:
    """Read one request head: ``(method, target, version, fields)``.

    Returns None when the peer closed the connection cleanly before a
    new request began (the end of a keep-alive conversation).
    """
    line = _start_line(rfile)
    if line is None:
        return None
    parts = line.split(" ")
    if len(parts) != 3:
        raise FramingError(f"malformed request line {line[:64]!r}")
    method, target, version = parts
    if not _TOKEN(method.encode("latin-1")) or not target:
        raise FramingError(f"malformed request line {line[:64]!r}")
    if version != "HTTP/1.1" and version != "HTTP/1.0":
        if _VERSION(version):
            raise FramingError(f"{version} is not supported", 505)
        raise FramingError(f"malformed HTTP version {version[:16]!r}")
    return method, target, version, _fields(rfile)


def read_response(
    rfile: BinaryIO,
) -> Optional[Tuple[str, int, Dict[str, str]]]:
    """Read one response head: ``(version, status, fields)``.

    Returns None when the peer closed the connection before sending a
    byte of the response.
    """
    line = _start_line(rfile)
    if line is None:
        return None
    version, _, rest = line.partition(" ")
    code = rest[:3]
    if (
        version not in ("HTTP/1.1", "HTTP/1.0")
        or not (code.isdigit() and code.isascii())
        or rest[3:4] not in ("", " ")
    ):
        raise FramingError(f"malformed status line {line[:64]!r}")
    return version, int(code), _fields(rfile)


def body_length(fields: Dict[str, str]) -> Optional[int]:
    """The body length ``fields`` declare; None when they declare none.

    Raises :class:`FramingError` for ``Transfer-Encoding`` (501), for a
    length that is not a decimal number, and for duplicate
    ``Content-Length`` fields that disagree (400).
    """
    if "transfer-encoding" in fields:
        raise FramingError(
            "Transfer-Encoding is not supported; send Content-Length", 501
        )
    value = fields.get("content-length")
    if value is None:
        return None
    if not (value.isdigit() and value.isascii()):
        copies = {part.strip() for part in value.split(",")}
        if len(copies) != 1:
            raise FramingError(f"conflicting Content-Length values {value[:64]!r}")
        value = copies.pop()
        if not (value.isdigit() and value.isascii()):
            raise FramingError(f"invalid Content-Length {value[:64]!r}")
    if len(value) > _MAX_LENGTH_DIGITS:
        raise FramingError(f"Content-Length {value[:64]} is out of range", 413)
    return int(value)


def keep_alive(version: str, fields: Dict[str, str]) -> bool:
    """May the connection carry another message after this one?"""
    connection = fields.get("connection")
    if connection is None:
        return version == "HTTP/1.1"
    tokens = {token.strip() for token in connection.lower().split(",")}
    if "close" in tokens:
        return False
    return version == "HTTP/1.1" or "keep-alive" in tokens


def status_line(status: int) -> str:
    return f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"


def encode(
    start: str, fields: Iterable[Tuple[str, str]], body: bytes = b""
) -> bytes:
    """One whole message: ``start``, ``fields``, ``Content-Length``, body.

    Raises :class:`FramingError` when the start line or a field would
    smuggle a line break into the head.
    """
    lines = [start]
    lines.extend(f"{name}: {value}" for name, value in fields)
    lines.append(f"Content-Length: {len(body)}")
    head = "\r\n".join(lines)
    breaks = len(lines) - 1
    if head.count("\n") != breaks or head.count("\r") != breaks:
        raise FramingError(f"line break inside a head line: {head[:64]!r}")
    try:
        return (head + "\r\n\r\n").encode("latin-1") + body
    except UnicodeEncodeError as error:
        raise FramingError(f"head is not Latin-1 text: {error}") from None
