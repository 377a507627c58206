"""Synchronous client for the compilation service.

:class:`ServiceClient` is a small blocking wrapper over the daemon's
HTTP surface — plain ``socket`` + the framing helpers from
:mod:`repro.service.http`, no third-party dependencies and no asyncio on
the client side.  It backs ``repro schedule --remote host:port`` and is
the natural handle for driving a shared daemon from scripts::

    from repro.service import ServiceClient

    with ServiceClient("127.0.0.1:8731") as client:
        result = client.compile({"kernel": "fir_filter", "clusters": 4})
        print(result["report"]["ii"], result["served_from"])

Every call opens one connection (the server is ``Connection: close``);
open sockets are tracked on the client and released by :meth:`close`
(or the ``with`` block), so an exception mid-exchange never leaks a
handle.

Transient failures are retried under a :class:`RetryPolicy`:

* **transport errors** — connection refused/reset, read timeouts,
  truncated responses — are retried with exponential backoff plus
  deterministic *seeded* jitter (no unseeded RNG anywhere, per the
  project determinism rule: two clients built with the same
  ``jitter_seed`` back off identically);
* **backpressure** — a 429/503 carrying a ``Retry-After`` header — is
  retried after the server-suggested delay (except on ``/healthz`` and
  heartbeats, where a busy answer is the answer).

One exchange's retries and sleeps together never outlast
:data:`TOTAL_DEADLINE`: past it the client raises
:class:`~repro.errors.ServiceUnavailable` instead of sleeping again.

Re-submission is safe because every compile is keyed on its content
hash server-side: a retried POST either attaches to the live ledger
entry or is served from cache — it never runs twice.
"""

from __future__ import annotations

import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..errors import ServiceError, ServiceUnavailable
from .http import ProtocolError
from .jobs import request_to_payload

#: Default connect timeout: establishing a TCP connection to a live
#: daemon is milliseconds-scale; ten seconds means "it is not there".
DEFAULT_CONNECT_TIMEOUT = 10.0

#: Default read timeout: compiles are seconds-scale; leave margin for a
#: queued job behind a deep backlog.
DEFAULT_READ_TIMEOUT = 300.0

#: Backoff before retry attempt *n* (2-based) is
#: ``min(BACKOFF_CAP, BACKOFF_BASE * BACKOFF_FACTOR**(n-2)) * (1 + JITTER * u)``
#: with *u* drawn from the client's seeded RNG.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 2.0
JITTER = 0.5

#: Bound on one exchange's total wall clock (monotonic), retries and
#: backoff sleeps included: a daemon that keeps answering 503 +
#: ``Retry-After`` cannot pin a caller forever.
TOTAL_DEADLINE = 600.0


class TransportError(ServiceError):
    """Connection-level failure (refused, reset, timed out, truncated).

    Distinct from a server-sent error status: the request may never
    have reached the daemon, so the retry loop treats these as always
    safe to retry (service requests are idempotent, see module doc).
    """

    def __init__(self, message: str):
        super().__init__(message, status=503)


@dataclass(frozen=True)
class RetryPolicy:
    """How often a :class:`ServiceClient` tries, and how long it waits.

    ``max_attempts=1`` disables retrying entirely.  ``jitter_seed``
    seeds the client's backoff jitter: deterministic per client,
    decorrelated across differently-seeded clients.
    """

    max_attempts: int = 4
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT
    read_timeout: float = DEFAULT_READ_TIMEOUT
    jitter_seed: int = 0


def _backoff(attempt: int, rng: random.Random) -> float:
    """Sleep before *attempt* (the first retry is attempt 2)."""
    step = min(BACKOFF_CAP, BACKOFF_BASE * BACKOFF_FACTOR ** max(0, attempt - 2))
    return step * (1.0 + JITTER * rng.random())


#: A policy that never retries (probing exact admission behavior).
NO_RETRY = RetryPolicy(max_attempts=1)


def _parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    text = str(address)
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ServiceError(
            f"service address {text!r} must look like 'host:port'", status=400
        )
    try:
        return (host or "127.0.0.1"), int(port)
    except ValueError:
        raise ServiceError(f"bad port in service address {text!r}", status=400)


class ServiceClient:
    """Blocking, retrying client for one ``repro serve`` daemon.

    A client is cheap to construct; build one per thread when the
    deterministic backoff sequence matters (the jitter RNG is
    per-client state).
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        policy: Optional[RetryPolicy] = None,
    ):
        """
        Args:
            address: ``"host:port"`` or a ``(host, port)`` tuple.
            policy: retry/timeout policy (default :class:`RetryPolicy`).
        """
        self.host, self.port = _parse_address(address)
        self.policy = policy or RetryPolicy()
        self._rng = random.Random(self.policy.jitter_seed)
        self._sockets: set = set()
        self.retries: Dict[str, int] = {"transport": 0, "busy": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every socket this client still has open."""
        while self._sockets:
            self._release(self._sockets.pop())

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------

    def _connect(self) -> socket.socket:
        """One tracked connection; release with :meth:`_release`."""
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.policy.connect_timeout
            )
        except OSError as err:
            raise TransportError(
                f"cannot reach service at {self.host}:{self.port}: {err}"
            )
        sock.settimeout(self.policy.read_timeout)
        self._sockets.add(sock)
        return sock

    def _release(self, sock: socket.socket) -> None:
        self._sockets.discard(sock)
        try:
            sock.close()
        except OSError:  # pragma: no cover - close on a dead socket
            pass

    def _send_request(
        self, sock: socket.socket, method: str, path: str, payload: Optional[object]
    ) -> None:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        sock.sendall(head + body)

    @staticmethod
    def _split_head(raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        if not sep:
            raise TransportError("truncated response from service")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ProtocolError(f"malformed status line {lines[0]!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise ProtocolError(f"malformed status code in {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, rest

    def _roundtrip_once(
        self, method: str, path: str, payload: Optional[object]
    ) -> Tuple[int, Dict[str, str], object]:
        """One request/response exchange (fixed-length responses)."""
        sock = self._connect()
        try:
            self._send_request(sock, method, path, payload)
            raw = b""
            while True:
                try:
                    piece = sock.recv(65536)
                except OSError as err:
                    raise TransportError(f"read from service failed: {err}")
                if not piece:
                    break
                raw += piece
        finally:
            self._release(sock)
        status, headers, body = self._split_head(raw)
        try:
            document = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ProtocolError(f"service sent invalid JSON: {err}")
        return status, headers, document

    def _roundtrip(
        self,
        method: str,
        path: str,
        payload: Optional[object] = None,
        retry_busy: bool = True,
    ) -> Tuple[int, Dict[str, str], object]:
        """The retrying exchange (see the module doc for the policy)."""
        policy = self.policy
        deadline = time.monotonic() + TOTAL_DEADLINE
        attempt = 0
        while True:
            attempt += 1
            try:
                status, headers, document = self._roundtrip_once(
                    method, path, payload
                )
            except TransportError:
                if attempt >= policy.max_attempts:
                    raise
                self.retries["transport"] += 1
                self._backoff_sleep(_backoff(attempt + 1, self._rng), deadline, path)
                continue
            if (
                retry_busy
                and status in (429, 503)
                and "retry-after" in headers
                and attempt < policy.max_attempts
            ):
                self.retries["busy"] += 1
                try:
                    delay = float(headers["retry-after"])
                except ValueError:
                    delay = _backoff(attempt + 1, self._rng)
                self._backoff_sleep(delay, deadline, path)
                continue
            return status, headers, document

    def _backoff_sleep(self, delay: float, deadline: float, path: str) -> None:
        """Sleep before a retry — unless that would bust the deadline."""
        if time.monotonic() + delay > deadline:
            raise ServiceUnavailable(
                f"service at {self.host}:{self.port} still unavailable for "
                f"{path} after {TOTAL_DEADLINE:g}s; giving up"
            )
        time.sleep(delay)

    def _expect_ok(
        self, status: int, document: object, headers: Optional[Dict[str, str]] = None
    ) -> object:
        if status >= 400:
            message = (
                document.get("error", f"service error {status}")
                if isinstance(document, dict)
                else f"service error {status}"
            )
            retry_after = None
            if headers and "retry-after" in headers:
                try:
                    retry_after = float(headers["retry-after"])
                except ValueError:
                    retry_after = None
            raise ServiceError(
                str(message), status=status, retry_after=retry_after
            )
        return document

    def _request(self, method: str, path: str, payload=None, retry_busy: bool = True):
        """:meth:`_roundtrip`, raising :class:`ServiceError` on 4xx/5xx."""
        status, headers, document = self._roundtrip(
            method, path, payload, retry_busy
        )
        return self._expect_ok(status, document, headers)

    # ------------------------------------------------------------------
    # API calls
    # ------------------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        """Daemon liveness: ``{"status": "ok" | "draining", ...}``.

        Never busy-retried: a draining daemon's 503 *is* the answer.
        """
        _, _, document = self._roundtrip("GET", "/healthz", retry_busy=False)
        return document  # 503-when-draining still carries the body

    def metrics(self) -> Dict[str, object]:
        """The full ``/metrics`` snapshot."""
        return self._request("GET", "/metrics")

    def compile(self, payload: Dict[str, object], wait: bool = True) -> Dict[str, object]:
        """Submit one compile payload (see :mod:`repro.service.jobs`).

        With ``wait=True`` (default) blocks until the result document;
        with ``wait=False`` returns the 202 admission receipt
        (``{"job": id, ...}``) immediately.
        """
        body = dict(payload)
        if not wait:
            body["wait"] = False
        return self._request("POST", "/compile", body)

    def compile_request(self, request, **extra) -> Dict[str, object]:
        """Compile a local :class:`~repro.api.request.CompilationRequest`
        remotely (serializes the loop + machine + config over the wire)."""
        return self.compile(request_to_payload(request, **extra))

    def job(self, job_id: int) -> Dict[str, object]:
        """Status document for one job id: how a ``wait=False`` submitter
        follows its job and reads the result."""
        return self._request("GET", f"/jobs/{job_id}")

    # ------------------------------------------------------------------
    # Sweep API (coordinator + worker verbs, see repro.service.sweep)
    # ------------------------------------------------------------------

    def sweeps(self) -> Dict[str, object]:
        """Every sweep the coordinator remembers: ``{"sweeps": [...]}``."""
        return self._request("GET", "/sweeps")

    def submit_sweep(self, spec: Dict[str, object]) -> Dict[str, object]:
        """Submit one sweep spec; idempotent on the spec's content hash."""
        return self._request("POST", "/sweeps", spec)

    def sweep(self, sweep_id: str) -> Dict[str, object]:
        """One sweep's status; :meth:`sweep_results` has the per-job rows."""
        return self._request("GET", f"/sweeps/{sweep_id}")

    def sweep_results(
        self,
        sweep_id: str,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        pickle: bool = False,
    ) -> Dict[str, object]:
        """A page of per-job results (``pickle=True`` ships reports)."""
        params = []
        if start is not None:
            params.append(f"start={int(start)}")
        if stop is not None:
            params.append(f"stop={int(stop)}")
        if pickle:
            params.append("pickle=1")
        path = f"/sweeps/{sweep_id}/results"
        if params:
            path += "?" + "&".join(params)
        return self._request("GET", path)

    def sweep_claim(
        self, sweep_id: str, worker: str, count: int = 1
    ) -> Dict[str, object]:
        """Claim up to *count* jobs under a lease (worker verb).

        *count* is the worker's own self-scheduling chunk size — see
        :func:`repro.service.sweep.chunk_size`.
        """
        return self._request(
            "POST",
            f"/sweeps/{sweep_id}/claim",
            {"worker": worker, "count": int(count)},
        )

    def sweep_heartbeat(
        self, sweep_id: str, worker: str, chunk: str
    ) -> Dict[str, object]:
        """Extend one chunk's lease (worker verb; never busy-retried —
        a heartbeat is only useful now)."""
        return self._request(
            "POST",
            f"/sweeps/{sweep_id}/heartbeat",
            {"worker": worker, "chunk": chunk},
            retry_busy=False,
        )

    def sweep_complete(
        self, sweep_id: str, worker: str, chunk: str, results
    ) -> Dict[str, object]:
        """Deliver one chunk's results (worker verb; idempotent)."""
        return self._request(
            "POST",
            f"/sweeps/{sweep_id}/complete",
            {"worker": worker, "chunk": chunk, "results": list(results)},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ServiceClient {self.host}:{self.port}>"
