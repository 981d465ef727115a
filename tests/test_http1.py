"""Tests for the HTTP/1.1 framing shared by ``repro serve`` and its client.

The head readers face bytes from the network, so besides the examples
they are fuzzed: whatever arrives, a reader returns a head (or None on
a clean end of stream) or raises :class:`FramingError` with the status
the daemon answers — never any other exception — and it never consumes
a byte past the blank line that ends the head.  On well-formed heads
the field parser agrees with the standard library's
``http.client.parse_headers``.
"""

import http.client
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.serve import http1
from repro.serve.http1 import FramingError

FRAMING_STATUSES = {400, 413, 414, 431, 501, 505}


def request(data: bytes):
    return http1.read_request(io.BytesIO(data))


class TestReadRequest:
    def test_parses_start_line_and_lowercases_names(self):
        head = request(
            b"POST /fetch?x=1 HTTP/1.1\r\nHost: a:1\r\nContent-Length: 2\r\n"
            b"X-Repro-Trace: t:s\r\n\r\n{}"
        )
        assert head == (
            "POST",
            "/fetch?x=1",
            "HTTP/1.1",
            {"host": "a:1", "content-length": "2", "x-repro-trace": "t:s"},
        )

    def test_stops_at_the_end_of_the_head(self):
        stream = io.BytesIO(b"GET / HTTP/1.1\r\n\r\nGET /next HTTP/1.1\r\n\r\n")
        assert http1.read_request(stream)[1] == "/"
        assert http1.read_request(stream)[1] == "/next"
        assert http1.read_request(stream) is None

    def test_bare_newlines_and_one_stray_crlf_are_accepted(self):
        assert request(b"\r\nGET / HTTP/1.0\nA: b\n\n")[2:] == (
            "HTTP/1.0",
            {"a": "b"},
        )

    def test_repeated_fields_are_joined(self):
        fields = request(b"GET / HTTP/1.1\r\nA: 1\r\na: 2\r\n\r\n")[3]
        assert fields == {"a": "1, 2"}

    def test_clean_eof_is_none(self):
        assert request(b"") is None

    @pytest.mark.parametrize(
        "data, status",
        [
            (b"GET / HTTP/1.1\r\nHost: x\r\n", 400),  # truncated head
            (b"GET / HTTP/1.1", 400),  # truncated start line
            (b"GET /\r\n\r\n", 400),  # HTTP/0.9 shape
            (b"GET  / HTTP/1.1\r\n\r\n", 400),
            (b"G(T / HTTP/1.1\r\n\r\n", 400),
            (b"GET / HTTP/2.0\r\n\r\n", 505),
            (b"GET / HTTX/1.1\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nNo colon here\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nA: b\r\n  folded\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nA: b\rc\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nA: b\0c\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nN\xe4me: v\r\n\r\n", 400),
            (b"GET /" + b"a" * http1.MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET / HTTP/1.1\r\nA: " + b"a" * http1.MAX_LINE + b"\r\n\r\n", 431),
            (
                b"GET / HTTP/1.1\r\n"
                + b"".join(b"H%d: v\r\n" % i for i in range(http1.MAX_HEADERS + 1))
                + b"\r\n",
                431,
            ),
        ],
    )
    def test_malformed_heads_raise_with_status(self, data, status):
        with pytest.raises(FramingError) as caught:
            request(data)
        assert caught.value.status == status

    def test_limits_are_inclusive(self):
        fields = b"".join(b"H%d: v\r\n" % i for i in range(http1.MAX_HEADERS))
        assert len(request(b"GET / HTTP/1.1\r\n" + fields + b"\r\n")[3]) == 100
        target = b"/" + b"a" * (http1.MAX_LINE - len(b"GET  HTTP/1.1\r\n") - 1)
        line = b"GET " + target + b" HTTP/1.1\r\n"
        assert len(line) == http1.MAX_LINE
        assert request(line + b"\r\n")[1] == target.decode()

    def test_non_latin1_values_decode_as_latin1(self):
        fields = request("GET / HTTP/1.1\r\nA: é€\r\n\r\n".encode("utf-8"))[3]
        assert fields["a"] == "é€".encode("utf-8").decode("latin-1")

    def test_framing_error_is_a_repro_error(self):
        assert issubclass(FramingError, ReproError)


class TestReadResponse:
    def test_parses_status_and_fields(self):
        stream = io.BytesIO(b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}")
        assert http1.read_response(stream) == (
            "HTTP/1.1",
            404,
            {"content-length": "2"},
        )
        assert stream.read() == b"{}"

    def test_reason_phrase_is_optional(self):
        assert http1.read_response(io.BytesIO(b"HTTP/1.0 200\r\n\r\n"))[1] == 200

    @pytest.mark.parametrize(
        "line",
        [b"HTTP/1.1 20 OK", b"HTTP/1.1 2000 OK", b"HTTP/2 200 OK", b"SPDY 200 OK",
         b"HTTP/1.1 ok OK"],
    )
    def test_malformed_status_lines_raise(self, line):
        with pytest.raises(FramingError):
            http1.read_response(io.BytesIO(line + b"\r\n\r\n"))


class TestBodyLength:
    @pytest.mark.parametrize(
        "fields, length",
        [({}, None), ({"content-length": "0"}, 0), ({"content-length": "17"}, 17),
         ({"content-length": "5, 5"}, 5), ({"content-length": "5,5 , 5"}, 5)],
    )
    def test_valid_lengths(self, fields, length):
        assert http1.body_length(fields) == length

    @pytest.mark.parametrize(
        "value, status",
        [("abc", 400), ("-1", 400), ("+5", 400), ("", 400), ("5, 6", 400),
         ("1.5", 400), ("\xb2", 400), ("9" * 19, 413)],
    )
    def test_invalid_lengths(self, value, status):
        with pytest.raises(FramingError) as caught:
            http1.body_length({"content-length": value})
        assert caught.value.status == status

    def test_transfer_encoding_is_501(self):
        with pytest.raises(FramingError) as caught:
            http1.body_length({"transfer-encoding": "chunked", "content-length": "3"})
        assert caught.value.status == 501


class TestKeepAliveAndEncode:
    @pytest.mark.parametrize(
        "version, connection, expected",
        [("HTTP/1.1", None, True), ("HTTP/1.1", "close", False),
         ("HTTP/1.1", "Keep-Alive, Close", False), ("HTTP/1.0", None, False),
         ("HTTP/1.0", "keep-alive", True), ("HTTP/1.1", "closed", True)],
    )
    def test_keep_alive(self, version, connection, expected):
        fields = {} if connection is None else {"connection": connection}
        assert http1.keep_alive(version, fields) is expected

    def test_encode_is_one_message_the_reader_reads_back(self):
        data = http1.encode(
            http1.status_line(413), [("Content-Type", "application/json")], b"{}"
        )
        assert data == (
            b"HTTP/1.1 413 Request Entity Too Large\r\n"
            b"Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
        )
        stream = io.BytesIO(data)
        _version, status, fields = http1.read_response(stream)
        assert status == 413
        assert stream.read(http1.body_length(fields)) == b"{}"

    @pytest.mark.parametrize(
        "start, fields",
        [("GET /a\r\nX: y HTTP/1.1", []), ("GET / HTTP/1.1", [("A", "b\r\nC: d")]),
         ("GET / HTTP/1.1", [("A", "b\nc")]), ("GET / HTTP/1.1", [("A", "b\rc")]),
         ("GET /€ HTTP/1.1", [])],
    )
    def test_encode_refuses_to_smuggle_lines(self, start, fields):
        with pytest.raises(FramingError):
            http1.encode(start, fields)


# -- fuzzing -----------------------------------------------------------------

TOKEN = st.from_regex(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]{1,12}", fullmatch=True)
VALUE = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF,
                           blacklist_categories=("Cc",)),
    max_size=20,
).map(str.strip)
EOL = st.sampled_from([b"\r\n", b"\n"])


@st.composite
def heads(draw, response=False):
    """A request or response head, sometimes damaged, plus trailing bytes."""
    eol = draw(EOL)
    if response:
        start = draw(st.sampled_from([b"HTTP/1.1 200 OK", b"HTTP/1.0 404", b"HTTP/1.1 501 Nope"]))
    else:
        method = draw(st.sampled_from([b"GET", b"POST", b"PUT", b"DELETE"]))
        target = draw(st.sampled_from([b"/fetch", b"/stats?since=3", b"/", b"*"]))
        version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]))
        start = method + b" " + target + b" " + version
    lines = [start]
    for name, value in draw(st.lists(st.tuples(TOKEN, VALUE), max_size=6)):
        lines.append(name.encode() + b": " + value.encode("latin-1"))
    damage = draw(
        st.sampled_from(
            ["none", "fold", "utf8", "long", "many", "bare-cr", "no-colon", "truncate"]
        )
    )
    if damage == "fold":
        lines.append(b" folded continuation")
    elif damage == "utf8":
        lines.append("Naïve-€: ☃".encode("utf-8"))
    elif damage == "long":
        lines.append(b"Long: " + b"x" * draw(st.integers(http1.MAX_LINE - 16, http1.MAX_LINE + 8)))
    elif damage == "many":
        count = draw(st.integers(http1.MAX_HEADERS - 2, http1.MAX_HEADERS + 2))
        lines.extend(b"H%d: v" % i for i in range(count))
    elif damage == "bare-cr":
        lines.append(b"A: b\rc")
    elif damage == "no-colon":
        lines.append(b"no colon")
    head = eol.join(lines) + eol + eol
    if damage == "truncate":
        head = head[: draw(st.integers(0, len(head) - 1))]
    trailing = draw(st.binary(max_size=40))
    return head, trailing


def _check_reader(reader, data: bytes, head_length=None):
    stream = io.BytesIO(data)
    try:
        result = reader(stream)
    except FramingError as error:
        assert error.status in FRAMING_STATUSES
        return None
    consumed = data[: stream.tell()]
    if result is None:
        assert consumed.strip(b"\r\n") == b""
        return None
    assert consumed.endswith(b"\n\r\n") or consumed.endswith(b"\n\n")
    if head_length is not None:
        assert stream.tell() == head_length
    fields = result[-1]
    try:
        length = http1.body_length(fields)
    except FramingError as error:
        assert error.status in FRAMING_STATUSES
        return result
    if length is not None:
        assert stream.read(length) == data[len(consumed) : len(consumed) + length]
    return result


class TestHeadReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=300))
    @example(b"\r\n\r\n")
    @example(b"GET / HTTP/1.1\r\n\r")
    @example(b"GET / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n")
    def test_random_bytes_request(self, data):
        _check_reader(http1.read_request, data)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=300))
    def test_random_bytes_response(self, data):
        _check_reader(http1.read_response, data)

    @settings(max_examples=200, deadline=None)
    @given(heads())
    def test_damaged_request_heads(self, case):
        head, trailing = case
        complete = head.endswith(b"\n\n") or head.endswith(b"\n\r\n")
        _check_reader(http1.read_request, head + trailing, len(head) if complete else None)

    @settings(max_examples=200, deadline=None)
    @given(heads(response=True))
    def test_damaged_response_heads(self, case):
        head, trailing = case
        complete = head.endswith(b"\n\n") or head.endswith(b"\n\r\n")
        _check_reader(http1.read_response, head + trailing, len(head) if complete else None)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["content-length", "transfer-encoding", "host"]),
        st.text(max_size=24),
    ))
    def test_body_length_never_raises_anything_else(self, fields):
        try:
            length = http1.body_length(fields)
        except FramingError as error:
            assert error.status in FRAMING_STATUSES
        else:
            assert length is None or length >= 0


class TestAgreesWithStdlib:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(TOKEN, VALUE.filter(bool)), max_size=12), EOL)
    def test_fields_match_http_client_parse_headers(self, pairs, eol):
        block = b"".join(
            name.encode() + b": " + value.encode("latin-1") + eol
            for name, value in pairs
        ) + eol
        ours = http1.read_request(io.BytesIO(b"GET / HTTP/1.1" + eol + block))[3]
        message = http.client.parse_headers(io.BytesIO(block))
        theirs = {
            name.lower(): ", ".join(
                value.rstrip("\r\n") for value in message.get_all(name)
            )
            for name in message.keys()
        }
        assert ours == theirs
