"""Minimal HTTP/1.1 framing for the compilation service.

The daemon speaks plain HTTP so any client (curl, a browser, the bundled
:mod:`repro.service.client`) can drive it, but it only needs a sliver of
the protocol: request-line + headers + ``Content-Length`` bodies in, and
fixed-length ``Content-Length`` responses out.  This module implements
that sliver over ``asyncio`` streams with the parsing kept in pure functions
(:func:`parse_request_head`, :func:`format_response_head`) so the
framing has direct unit tests without a socket in sight.

Connections are one-shot: every response carries ``Connection: close``
and the server closes the stream after writing it.  That forgoes
keep-alive but makes the framing trivially robust — a client can read to
EOF — and compile requests are seconds-scale, so per-request connection
cost is noise.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from .. import faults
from ..errors import ServiceError

#: Largest request body the daemon will buffer (serialized DDGs for the
#: biggest unrolled loops are ~100 KiB; 16 MiB leaves lots of headroom).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Largest request head (request line + headers) accepted.
MAX_HEAD_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ServiceError):
    """Malformed HTTP traffic (maps to a 400 when possible)."""

    def __init__(self, message: str):
        super().__init__(message, status=400)


@dataclass
class HTTPRequest:
    """One parsed request: the head plus the (possibly empty) body."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def route(self) -> Tuple[str, ...]:
        """Path segments, query string stripped: ``/sweeps/3/results``
        -> ``("sweeps", "3", "results")``."""
        path = self.path.split("?", 1)[0]
        return tuple(seg for seg in path.split("/") if seg)

    @property
    def query(self) -> Dict[str, str]:
        """Decoded query parameters (no repeated keys, no URL escapes —
        the service API uses only simple tokens)."""
        if "?" not in self.path:
            return {}
        params: Dict[str, str] = {}
        for pair in self.path.split("?", 1)[1].split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            params[key] = value
        return params

    def json(self) -> object:
        """The body decoded as JSON (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ProtocolError(f"request body is not valid JSON: {err}")


# ----------------------------------------------------------------------
# Pure parsing / formatting
# ----------------------------------------------------------------------


def parse_request_head(head: bytes) -> HTTPRequest:
    """Parse the request line and headers (everything before the body).

    *head* must not include the terminating blank line.  Header names are
    lower-cased; duplicate headers keep the last value (none of the
    service's headers are list-valued).
    """
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as err:  # pragma: no cover - latin-1 total
        raise ProtocolError(f"undecodable request head: {err}")
    lines = text.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, path, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version {version!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return HTTPRequest(method=method.upper(), path=path, headers=headers)


def format_response_head(
    status: int,
    content_length: int,
    extra_headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """The status line + headers + blank line for one response."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        "Connection: close",
        f"Content-Length: {content_length}",
    ]
    if extra_headers:
        for name, value in extra_headers.items():
            lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def json_response(
    status: int,
    payload: object,
    extra_headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """A complete fixed-length JSON response."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return (
        format_response_head(
            status, content_length=len(body), extra_headers=extra_headers
        )
        + body
    )


# ----------------------------------------------------------------------
# Async stream I/O
# ----------------------------------------------------------------------


async def read_request(reader) -> Optional[HTTPRequest]:
    """Read one request from an ``asyncio.StreamReader``.

    Returns ``None`` when the peer closed the connection before sending
    a request line (a health-checker port probe, for example).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            return None
        raise ProtocolError("connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise ProtocolError(f"request head exceeds {MAX_HEAD_BYTES} bytes")
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError(f"request head exceeds {MAX_HEAD_BYTES} bytes")
    request = parse_request_head(head[:-4])
    length_header = request.headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {length_header!r}")
    if length < 0:
        raise ProtocolError(f"bad Content-Length {length_header!r}")
    if length > MAX_BODY_BYTES:
        raise ServiceError(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit",
            status=413,
        )
    if length:
        request.body = await reader.readexactly(length)
    return request


async def write_response(writer, data: bytes) -> None:
    """Write a complete pre-formatted response and flush it.

    The ``conn-reset`` fault point lives here: when armed, the daemon
    aborts the transport instead of answering — the client sees the
    reset-by-peer every load balancer eventually delivers for real, and
    its retry path gets exercised on demand.
    """
    if faults.fire("conn-reset"):
        transport = writer.transport
        if transport is not None:
            transport.abort()
        return
    writer.write(data)
    await writer.drain()
