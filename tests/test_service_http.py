"""Unit tests for the service's HTTP framing layer.

Everything here exercises the pure functions in
:mod:`repro.service.http` (plus the client's response splitter) without
opening a socket: request-head parsing, response formatting, the
stream reader/writer over in-memory streams, and addressing.
"""

import asyncio
import json

import pytest

from repro import faults
from repro.errors import ServiceError
from repro.service.client import ServiceClient, TransportError, _parse_address
from repro.service.http import (
    _REASONS,
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    ProtocolError,
    format_response_head,
    json_response,
    parse_request_head,
    read_request,
    write_response,
)


# ----------------------------------------------------------------------
# Request-head parsing
# ----------------------------------------------------------------------


def test_parse_request_head_basic():
    request = parse_request_head(
        b"POST /compile HTTP/1.1\r\nHost: x\r\nContent-Length: 12"
    )
    assert request.method == "POST"
    assert request.path == "/compile"
    assert request.headers["host"] == "x"
    assert request.headers["content-length"] == "12"


def test_parse_request_head_lowercases_method_and_headers():
    request = parse_request_head(b"get /healthz HTTP/1.0\r\nX-Thing:  v  ")
    assert request.method == "GET"
    assert request.headers["x-thing"] == "v"


@pytest.mark.parametrize(
    "head",
    [
        b"GET /x",  # too few request-line tokens
        b"GET /x HTTP/1.1 extra",  # too many
        b"GET /x SPDY/3",  # wrong protocol
        b"GET /x HTTP/1.1\r\nbadheader",  # header without colon
        b"GET /x HTTP/1.1\r\n: novalue",  # empty header name
    ],
)
def test_parse_request_head_rejects_malformed(head):
    with pytest.raises(ProtocolError):
        parse_request_head(head)


def test_protocol_error_maps_to_400():
    err = ProtocolError("nope")
    assert isinstance(err, ServiceError)
    assert err.status == 400


def test_route_and_query_parsing():
    request = parse_request_head(b"GET /sweeps/3/results?wait=1&x= HTTP/1.1")
    assert request.route == ("sweeps", "3", "results")
    assert request.query == {"wait": "1", "x": ""}
    bare = parse_request_head(b"GET / HTTP/1.1")
    assert bare.route == ()
    assert bare.query == {}


def test_request_body_json():
    request = parse_request_head(b"POST /compile HTTP/1.1")
    request.body = json.dumps({"kernel": "daxpy"}).encode()
    assert request.json() == {"kernel": "daxpy"}
    request.body = b""
    assert request.json() == {}
    request.body = b"{nope"
    with pytest.raises(ProtocolError):
        request.json()


def test_head_size_limit_is_sane():
    assert MAX_HEAD_BYTES >= 4096


# ----------------------------------------------------------------------
# Response formatting
# ----------------------------------------------------------------------


def test_format_response_head_content_length():
    head = format_response_head(200, content_length=5).decode()
    assert head.startswith("HTTP/1.1 200 OK\r\n")
    assert "Content-Length: 5\r\n" in head
    assert "Connection: close\r\n" in head
    assert head.endswith("\r\n\r\n")


def test_format_response_head_unknown_status_and_extras():
    head = format_response_head(599, content_length=0, extra_headers={"X-A": "1"})
    assert b"HTTP/1.1 599 Unknown" in head
    assert b"X-A: 1" in head


def test_json_response_roundtrip():
    raw = json_response(422, {"error": "bad"})
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"422 Unprocessable Entity" in head
    assert json.loads(body) == {"error": "bad"}
    assert f"Content-Length: {len(body)}".encode() in head


def test_json_response_non_ascii_roundtrips_at_its_byte_length():
    document = {"loop": "\u00e9t\u00e9 \u2192 II"}
    raw = json_response(200, document)
    head, _, body = raw.partition(b"\r\n\r\n")
    # Content-Length counts bytes; the body must carry the whole of a
    # non-ASCII document and decode back to it.
    assert f"Content-Length: {len(body)}".encode() in head
    assert json.loads(body.decode("utf-8")) == document


def test_every_status_is_a_fixed_length_response():
    for status in sorted(_REASONS):
        raw = json_response(status, {"status": status})
        code, headers, body = ServiceClient._split_head(raw)
        assert code == status
        assert "transfer-encoding" not in headers
        assert int(headers["content-length"]) == len(body)
        assert json.loads(body) == {"status": status}


# ----------------------------------------------------------------------
# Async stream I/O over in-memory streams
# ----------------------------------------------------------------------


def _read(data: bytes):
    """Run :func:`read_request` over a reader that holds *data*, then EOF."""

    async def go():
        reader = asyncio.StreamReader(limit=MAX_HEAD_BYTES)
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class _Transport:
    def __init__(self):
        self.aborted = False

    def abort(self):
        self.aborted = True


class _Writer:
    """The slice of ``asyncio.StreamWriter`` that :func:`write_response` uses."""

    def __init__(self):
        self.transport = _Transport()
        self.written = b""
        self.drains = 0

    def write(self, data):
        self.written += data

    async def drain(self):
        self.drains += 1


def test_read_request_reads_head_and_body():
    body = json.dumps({"kernel": "daxpy", "clusters": 2}).encode()
    request = _read(
        b"POST /compile?wait=false HTTP/1.1\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    assert request.method == "POST"
    assert request.route == ("compile",)
    assert request.query == {"wait": "false"}
    assert request.json() == {"kernel": "daxpy", "clusters": 2}


def test_read_request_without_content_length_has_no_body():
    request = _read(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    assert request.route == ("healthz",)
    assert request.body == b""


def test_read_request_returns_none_on_a_bare_probe():
    # A port probe connects and hangs up without a byte: nothing to answer.
    assert _read(b"") is None


def test_read_request_rejects_a_head_cut_off_midway():
    with pytest.raises(ProtocolError, match="mid-request"):
        _read(b"GET /healthz HTTP/1.1\r\nHost: x")


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_read_request_rejects_bad_content_length(length):
    with pytest.raises(ProtocolError, match="Content-Length"):
        _read(f"POST /compile HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode())


def test_read_request_refuses_a_body_over_the_limit():
    # Refused on the header alone: the body is never buffered.
    head = f"POST /compile HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
    with pytest.raises(ServiceError) as refused:
        _read(head.encode())
    assert refused.value.status == 413


def test_read_request_rejects_an_oversized_head():
    padding = b"X-Pad: " + b"a" * MAX_HEAD_BYTES + b"\r\n"
    with pytest.raises(ProtocolError, match="exceeds"):
        _read(b"GET /healthz HTTP/1.1\r\n" + padding + b"\r\n")


def test_read_request_body_cut_short_is_a_transport_failure():
    # The peer hung up inside the body: that is the connection's failure
    # (the daemon drops it quietly), not a malformed request to answer.
    with pytest.raises(asyncio.IncompleteReadError):
        _read(b"POST /compile HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}")


def test_write_response_writes_and_drains():
    writer = _Writer()
    raw = json_response(200, {"status": "ok"})
    asyncio.run(write_response(writer, raw))
    assert writer.written == raw
    assert writer.drains == 1
    assert not writer.transport.aborted


def test_write_response_conn_reset_aborts_instead_of_answering():
    writer = _Writer()
    faults.install(faults.FaultPlan.from_spec("conn-reset:times=1"))
    try:
        asyncio.run(write_response(writer, json_response(200, {})))
        assert writer.transport.aborted
        assert writer.written == b""
        # The fault fired once; the next response goes out whole.
        retry = _Writer()
        asyncio.run(write_response(retry, json_response(200, {})))
        assert not retry.transport.aborted
        assert retry.written == json_response(200, {})
    finally:
        faults.disarm()


# ----------------------------------------------------------------------
# Client-side response splitting / addressing
# ----------------------------------------------------------------------


def test_client_split_head():
    raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}"
    status, headers, body = ServiceClient._split_head(raw)
    assert status == 200
    assert headers["content-type"] == "application/json"
    assert body == b"{}"


def test_client_split_head_rejects_garbage():
    with pytest.raises(ProtocolError):
        ServiceClient._split_head(b"NOTHTTP nope\r\n\r\n")
    with pytest.raises(ProtocolError):
        ServiceClient._split_head(b"HTTP/1.1 abc Bad\r\n\r\n")
    # A head that never terminates is a truncated *transport* read (the
    # peer hung up mid-response), not a malformed-but-complete reply —
    # it must raise the retryable error so the client resubmits.
    with pytest.raises(TransportError):
        ServiceClient._split_head(b"no blank line at all")


def test_parse_address_forms():
    assert _parse_address("127.0.0.1:8731") == ("127.0.0.1", 8731)
    assert _parse_address(("localhost", 9)) == ("localhost", 9)
    assert _parse_address(":123") == ("127.0.0.1", 123)
    with pytest.raises(ServiceError):
        _parse_address("nakedhost")
    with pytest.raises(ServiceError):
        _parse_address("host:notaport")
