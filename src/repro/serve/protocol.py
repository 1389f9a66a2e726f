"""Wire protocol for the SVD serving layer.

The protocol is deliberately thin — newline-delimited JSON (NDJSON)
over a loopback TCP socket, one JSON object per line in each
direction.  Requests are schema-checked with the same strict validator
(:func:`repro.guard.schemas.validate_json`) that guards fault plans,
checkpoints and BENCH reports, so a malformed request is answered with
the exact JSON path of the violation instead of a stack trace.

Request (``op="decompose"``)::

    {"op": "decompose", "id": "r-17", "tenant": "alpha",
     "shape": [32, 32], "seed": 7, "strategy": "auto",
     "deadline_s": 2.0}

The matrix arrives either as ``shape`` + ``seed`` (the server
regenerates it with :func:`repro.workloads.random_matrix` — the load
generator's zero-copy path) or inline as ``matrix`` (list of rows).
An optional ``method`` field selects the software solver
(``"block"``, the default, ``"hestenes"``, ``"dnc"`` or
``"streaming"``, i.e. :data:`repro.linalg.svd.METHODS` — see
``docs/workloads.md`` for the crossover study);
jobs with different methods never coalesce into one engine run.
``float64`` values survive the JSON round trip exactly (``repr``
shortest round-trip), which is what makes the server's answers
byte-identical to a local :func:`repro.linalg.svd` call.

Response::

    {"id": "r-17", "ok": true, "sigma": [...], "degraded": false,
     "shed": false, "queue_s": 0.013, "service_s": 0.002}

Error response::

    {"id": "r-17", "ok": false,
     "error": {"code": "overloaded", "message": "..."}}

Error codes: ``schema`` (malformed request), ``invalid`` (input matrix
failed validation), ``oversized`` (beyond the hard size cap),
``overloaded`` (queue at capacity), ``deadline`` (SLO budget expired
before service), ``shutdown`` (server stopped with the job queued),
``draining`` (admission closed while the daemon drains; carries a
``retry_after_s`` back-off hint), ``internal`` (unexpected server-side
failure).

Management ops: ``ping`` (liveness), ``stats`` (counter snapshot +
queue depths), ``drain`` (stop admitting, finish queued work under the
drain deadline, then exit), ``shutdown`` (graceful stop; pending jobs
are answered with ``code="shutdown"``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import SchemaValidationError, ServeProtocolError
from repro.guard.schemas import validate_json
from repro.linalg.hestenes import STRATEGIES, resolve_strategy
from repro.linalg.svd import JACOBI_METHODS, METHODS

#: Protocol version, echoed by ``ping`` and ``stats`` responses.
PROTOCOL_VERSION = "1"

#: Valid request operations.
OPS = ("decompose", "ping", "stats", "shutdown", "drain")

#: Structured error codes a response may carry.
ERROR_CODES = (
    "schema", "invalid", "oversized", "overloaded", "deadline",
    "shutdown", "draining", "internal",
)

#: Jacobi strategies accepted on the wire: ``linalg.STRATEGIES``.
WIRE_STRATEGIES = STRATEGIES

#: Matrix dtypes accepted on the wire.
WIRE_DTYPES = ("float64", "float32")

#: Declarative request schema (see :mod:`repro.guard.schemas`).
REQUEST_SCHEMA = {
    "fields": {
        "op": {"enum": OPS},
        "id": {"type": str, "non_empty": True},
        "tenant": {"type": str, "non_empty": True},
        "shape": {"items": int, "min_len": 2},
        "seed": int,
        "matrix": {"items": {"items": (int, float)}, "min_len": 1},
        "dtype": {"enum": WIRE_DTYPES},
        "strategy": {"enum": WIRE_STRATEGIES},
        "method": {"enum": METHODS},
        "block_width": int,
        "deadline_s": (int, float),
    },
    "optional": {
        "tenant", "shape", "seed", "matrix", "dtype", "strategy",
        "method", "block_width", "deadline_s",
    },
}

#: Response schema — what :class:`~repro.serve.client.ServeClient`
#: validates before trusting an answer.
RESPONSE_SCHEMA = {
    "fields": {
        "id": (str, type(None)),
        "ok": bool,
        "sigma": {"items": (int, float)},
        "degraded": bool,
        "shed": bool,
        "queue_s": (int, float),
        "service_s": (int, float),
        "pipeline": int,
        "error": {
            "fields": {
                "code": {"enum": ERROR_CODES},
                "message": str,
                "retry_after_s": (int, float),
            },
            "optional": ("retry_after_s",),
        },
        "pong": bool,
        "version": str,
        "stats": {"values": (int, float, str)},
    },
    "optional": {
        "sigma", "degraded", "shed", "queue_s", "service_s",
        "pipeline", "error", "pong", "version", "stats",
    },
}

#: Hard cap on one NDJSON line (inline matrices are bounded by this).
MAX_LINE_BYTES = 1 << 24


class CoalesceKey(Tuple[int, int, str, str, int, str]):
    """Hashable batching key:
    ``(m, n, dtype, strategy, block_width, method)``.

    ``m x n`` is the prepared shape the solver factors.  The
    ``"hestenes"``/``"block"`` methods sweep the ``n x n`` ``L`` of
    the input's QR preconditioner (:mod:`repro.linalg.svd`), so a
    32x16, a 16x32 and a 16x16 request are all the 16x16 problem; the
    other methods factor ``(max(rows, cols), min(rows, cols))``, a wide
    matrix transposed.  Jobs sharing a key are
    interchangeable for the executor — same prepared shape and
    dtype/strategy/block width/method feed the same solver
    configuration, and one stacked Jacobi run — so the dispatcher may
    coalesce them into one :class:`~repro.exec.batch.BatchExecutor`
    run without changing any job's numerical result.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int, dtype: str, strategy: str,
                block_width: int, method: str = "block"):
        return super().__new__(
            cls, (m, n, dtype, strategy, block_width, method)
        )

    @property
    def m(self) -> int:
        return self[0]

    @property
    def n(self) -> int:
        return self[1]

    @property
    def dtype(self) -> str:
        return self[2]

    @property
    def strategy(self) -> str:
        return self[3]

    @property
    def block_width(self) -> int:
        return self[4]

    @property
    def method(self) -> str:
        return self[5]

    @property
    def cells(self) -> int:
        """Prepared problem size ``m * n`` (admission judges the
        request's own shape instead)."""
        return self.m * self.n


def encode(message: Dict[str, Any]) -> bytes:
    """One NDJSON frame: compact JSON + newline, UTF-8."""
    return (json.dumps(message, separators=(",", ":"),
                       sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one NDJSON frame into a dict.

    Raises:
        ServeProtocolError: for non-JSON lines or non-object payloads.
    """
    try:
        value = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServeProtocolError(
            f"frame is not valid JSON: {error}", code="schema"
        )
    if not isinstance(value, dict):
        raise ServeProtocolError(
            f"frame must be a JSON object, got {type(value).__name__}",
            code="schema",
        )
    return value


def validate_request(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Structural + cross-field validation of one request.

    Returns the document unchanged.  Raises
    :class:`~repro.errors.ServeProtocolError` (``code="schema"``)
    naming the exact violation.
    """
    try:
        validate_json(doc, REQUEST_SCHEMA)
    except SchemaValidationError as error:
        raise ServeProtocolError(str(error), code="schema")
    if doc["op"] != "decompose":
        return doc
    has_inline = "matrix" in doc
    has_seeded = "shape" in doc or "seed" in doc
    if has_inline and has_seeded:
        raise ServeProtocolError(
            "$: 'matrix' and 'shape'/'seed' are mutually exclusive",
            code="schema",
        )
    if not has_inline:
        if "shape" not in doc:
            raise ServeProtocolError(
                "$: decompose requires 'matrix' or 'shape' (+ 'seed')",
                code="schema",
            )
        shape = doc["shape"]
        if len(shape) != 2:
            raise ServeProtocolError(
                f"$.shape: must have exactly 2 entries, got {len(shape)}",
                code="schema",
            )
        if shape[0] < 1 or shape[1] < 2:
            raise ServeProtocolError(
                f"$.shape: must be at least 1x2, got {shape}",
                code="schema",
            )
    else:
        rows = doc["matrix"]
        width = len(rows[0])
        if width < 2:
            raise ServeProtocolError(
                f"$.matrix: rows must have >= 2 columns, got {width}",
                code="schema",
            )
        for index, row in enumerate(rows):
            if len(row) != width:
                raise ServeProtocolError(
                    f"$.matrix[{index}]: ragged row ({len(row)} values, "
                    f"expected {width})",
                    code="schema",
                )
    if "block_width" in doc and doc["block_width"] < 1:
        raise ServeProtocolError(
            f"$.block_width: must be >= 1, got {doc['block_width']}",
            code="schema",
        )
    if "deadline_s" in doc and not doc["deadline_s"] > 0:
        raise ServeProtocolError(
            f"$.deadline_s: must be > 0, got {doc['deadline_s']}",
            code="schema",
        )
    return doc


def validate_response(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Validate one response envelope (used client-side)."""
    try:
        validate_json(doc, RESPONSE_SCHEMA)
    except SchemaValidationError as error:
        raise ServeProtocolError(str(error), code="protocol")
    if not doc["ok"] and "error" not in doc:
        raise ServeProtocolError(
            "$: ok=false response is missing the 'error' object",
            code="protocol",
        )
    return doc


def request_matrix(doc: Dict[str, Any]) -> np.ndarray:
    """Materialize the decompose request's matrix as float64.

    Seeded requests regenerate the exact
    :func:`repro.workloads.random_matrix` the load generator (and the
    byte-identity tests) compute locally; inline requests round-trip
    the float64 values exactly.
    """
    from repro.workloads.matrices import random_matrix

    if "matrix" in doc:
        matrix = np.asarray(doc["matrix"], dtype=np.float64)
    else:
        m, n = doc["shape"]
        matrix = random_matrix(m, n, seed=doc.get("seed", 0))
    if doc.get("dtype", "float64") == "float32":
        matrix = matrix.astype(np.float32)
    return matrix


def request_key(doc: Dict[str, Any], shape: Tuple[int, int],
                default_block_width: int) -> CoalesceKey:
    """The request's coalescing key (shape already materialized).

    The shape is keyed as the prepared shape (see
    :class:`CoalesceKey`), and the strategy is normalized through
    :func:`repro.linalg.resolve_strategy` before keying: ``"auto"``
    and its resolved kernel name the same engine configuration, so a
    mixed batch of ``"auto"`` and explicit-kernel requests coalesces
    instead of splitting into separate engine runs.
    """
    rows, cols = int(shape[0]), int(shape[1])
    method = doc.get("method", "block")
    n = min(rows, cols)
    return CoalesceKey(
        m=n if method in JACOBI_METHODS else max(rows, cols),
        n=n,
        dtype=doc.get("dtype", "float64"),
        strategy=resolve_strategy(doc.get("strategy", "auto")),
        block_width=int(doc.get("block_width", default_block_width)),
        method=method,
    )


def error_response(
    request_id: Optional[str],
    code: str,
    message: str,
    retry_after_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Build a structured error envelope.

    ``retry_after_s`` is the server's explicit back-off hint (draining
    responses carry it); clients with a retry policy treat a hinted
    ``draining``/``overloaded`` answer as retryable.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = float(retry_after_s)
    return {
        "id": request_id,
        "ok": False,
        "error": error,
    }


def result_response(
    request_id: str,
    sigma: np.ndarray,
    degraded: bool,
    shed: bool,
    queue_s: float,
    service_s: float,
    pipeline: int = -1,
) -> Dict[str, Any]:
    """Build a successful decompose envelope."""
    return {
        "id": request_id,
        "ok": True,
        "sigma": [float(v) for v in np.asarray(sigma).ravel()],
        "degraded": bool(degraded),
        "shed": bool(shed),
        "queue_s": float(queue_s),
        "service_s": float(service_s),
        "pipeline": int(pipeline),
    }
