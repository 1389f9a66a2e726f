"""Blocking NDJSON client for the serve daemon.

:class:`ServeClient` speaks the :mod:`repro.serve.protocol` wire
format over a plain TCP socket: one request line out, one response
line back, schema-checked both ways.  It is deliberately synchronous —
tests, the CLI and the load generator all drive it from ordinary
code — and optionally resilient: give it a
:class:`~repro.resilience.RetryPolicy` and transport failures
(connection refused, connection dropped mid-request) become
transparent reconnect-and-resend attempts, because
:class:`~repro.errors.ServeConnectionError` sits inside the default
retry allowlist.

    with ServeClient("127.0.0.1", 7878, retry=RetryPolicy()) as client:
        sigma = client.decompose(shape=[32, 32], seed=7)["sigma"]

Structured server-side errors are surfaced as the matching exception:
``overloaded``/``oversized`` raise
:class:`~repro.errors.ServiceOverloadError`, ``deadline`` raises
:class:`~repro.errors.DeadlineExceeded`, everything else raises
:class:`~repro.errors.ServeProtocolError` carrying the wire code.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    DeadlineExceeded,
    ServeConnectionError,
    ServeError,
    ServeProtocolError,
    ServiceOverloadError,
)
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode,
    validate_response,
)


def raise_for_error(response: Dict[str, Any]) -> Dict[str, Any]:
    """Turn an ``ok=false`` envelope into the matching exception."""
    if response.get("ok"):
        return response
    error = response["error"]
    code, message = error["code"], error["message"]
    if code in ("overloaded", "oversized"):
        raise ServiceOverloadError(message, code=code)
    if code == "deadline":
        raise DeadlineExceeded(message, budget_s=-1.0, elapsed_s=-1.0)
    raise ServeProtocolError(message, code=code)


class _ServerBusy(ServeError):
    """Internal: a ``draining``/``overloaded`` envelope carrying a
    ``retry_after_s`` hint, raised inside the retry loop so the policy
    treats it as retryable (it is a :class:`~repro.errors.ReproError`)
    and honors the hint as a backoff floor.  Never escapes
    :meth:`ServeClient.request` — after exhaustion the envelope is
    returned, keeping the "structured errors come back as envelopes"
    contract.
    """

    def __init__(self, response: Dict[str, Any], retry_after_s: float):
        error = response["error"]
        super().__init__(
            f"server busy ({error['code']}): {error['message']}"
        )
        self.response = response
        self.retry_after_s = retry_after_s


#: Error codes a hinted response may carry and still be worth retrying:
#: the condition is temporary by construction (a drain ends with a
#: restarted daemon, an overload clears as the queue empties).
RETRYABLE_BUSY_CODES = ("draining", "overloaded")


class ServeClient:
    """One connection to a serve daemon (lazy connect, auto-reconnect).

    Args:
        host / port: Daemon address.
        retry: Optional transport retry policy; when set, connection
            failures are retried (with the policy's backoff), each
            attempt reconnecting and resending the request.
        timeout: Per-socket-operation timeout in seconds.
    """

    def __init__(
        self,
        host: str,
        port: int,
        retry: Optional[RetryPolicy] = None,
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = int(port)
        self.retry = retry
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._seq = 0

    # -- connection management ----------------------------------------------
    def connect(self) -> "ServeClient":
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as error:
                raise ServeConnectionError(
                    f"cannot connect to {self.host}:{self.port}: {error}"
                )
            self._sock = sock
            self._file = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -----------------------------------------------------------
    def _exchange(self, frame: bytes) -> Dict[str, Any]:
        """One send + one receive, normalizing transport failures."""
        self.connect()
        try:
            self._sock.sendall(frame)
            line = self._file.readline(MAX_LINE_BYTES)
        except OSError as error:
            self.close()
            raise ServeConnectionError(
                f"connection to {self.host}:{self.port} failed: {error}"
            )
        if not line:
            self.close()
            raise ServeConnectionError(
                f"connection to {self.host}:{self.port} closed by server"
            )
        return validate_response(decode_line(line))

    def _exchange_retryable(self, frame: bytes) -> Dict[str, Any]:
        """One exchange that also surfaces hinted busy envelopes
        (``draining``/``overloaded`` + ``retry_after_s``) as the
        retryable :class:`_ServerBusy`, so the retry policy re-sends
        after at least the server's hinted backoff."""
        response = self._exchange(frame)
        if not response.get("ok"):
            error = response.get("error") or {}
            hint = error.get("retry_after_s")
            if (error.get("code") in RETRYABLE_BUSY_CODES
                    and isinstance(hint, (int, float)) and hint > 0):
                raise _ServerBusy(response, float(hint))
        return response

    def request(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request document, return the raw response envelope.

        Applies the retry policy (if any) around the transport, plus
        ``draining``/``overloaded`` envelopes that carry a
        ``retry_after_s`` hint — those are retried with the hint as a
        backoff floor.  Structured server errors still come back as
        envelopes, not raises: when the retry budget runs out on a busy
        server, the last busy envelope is returned.
        """
        frame = encode(doc)
        if self.retry is not None:
            try:
                return call_with_retry(
                    self.retry, self._exchange_retryable, frame
                )
            except _ServerBusy as busy:
                return busy.response
        return self._exchange(frame)

    def _next_id(self) -> str:
        self._seq += 1
        return f"c{id(self) & 0xFFFF:04x}-{self._seq}"

    # -- operations ----------------------------------------------------------
    def decompose(
        self,
        shape: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
        matrix: Optional[Sequence[Sequence[float]]] = None,
        tenant: Optional[str] = None,
        dtype: Optional[str] = None,
        method: Optional[str] = None,
        block_width: Optional[int] = None,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Request one decomposition and return the ``ok=true`` envelope.

        Exactly one of ``matrix`` or ``shape`` (+ optional ``seed``)
        must be given.  Raises the structured exception for error
        envelopes (see :func:`raise_for_error`).
        """
        doc: Dict[str, Any] = {
            "op": "decompose",
            "id": request_id or self._next_id(),
        }
        if matrix is not None:
            doc["matrix"] = [list(map(float, row)) for row in matrix]
        if shape is not None:
            doc["shape"] = [int(shape[0]), int(shape[1])]
        if seed is not None:
            doc["seed"] = int(seed)
        if tenant is not None:
            doc["tenant"] = tenant
        if dtype is not None:
            doc["dtype"] = dtype
        if method is not None:
            doc["method"] = method
        if block_width is not None:
            doc["block_width"] = int(block_width)
        if deadline_s is not None:
            doc["deadline_s"] = float(deadline_s)
        return raise_for_error(self.request(doc))

    def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns the pong envelope."""
        return raise_for_error(
            self.request({"op": "ping", "id": self._next_id()})
        )

    def stats(self) -> Dict[str, Any]:
        """Server counter snapshot (always available, obs on or off)."""
        response = raise_for_error(
            self.request({"op": "stats", "id": self._next_id()})
        )
        return response["stats"]

    def drain(self) -> None:
        """Ask the daemon to drain: stop admitting, finish queued work
        under its drain deadline, then exit."""
        raise_for_error(
            self.request({"op": "drain", "id": self._next_id()})
        )
        self.close()

    def shutdown(self) -> None:
        """Ask the daemon to stop gracefully."""
        raise_for_error(
            self.request({"op": "shutdown", "id": self._next_id()})
        )
        self.close()


def parse_address(value: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Parse ``"host:port"`` (or pass through a tuple)."""
    if isinstance(value, tuple):
        return value[0], int(value[1])
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)
