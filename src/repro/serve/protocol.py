"""Wire protocol of the rewiring service: newline-delimited JSON.

One request per line, one response per line, correlated by a
client-chosen ``id`` so clients may pipeline without waiting::

    -> {"id": 1, "op": "open_session", "spec": {"dataset": "cornell"}}
    <- {"id": 1, "ok": true, "result": {"session": "s0", "num_nodes": 140}}
    -> {"id": 2, "op": "score", "session": "s0", "k": [...], "d": [...]}
    <- {"id": 2, "ok": false, "error": {"code": "overloaded",
                                        "retry_after_ms": 12}}

Operations: ``ping``, ``open_session``, ``rewire``, ``score``,
``close_session``, ``stats``, ``shutdown`` (full field tables in
``docs/serving.md``).  Failures carry a stable machine-readable ``code``
plus any actionable hints (``retry_after_ms`` on shed requests); the
exception classes here are the in-process mirror of those codes, raised
by the server internals and re-raised by the client so local and remote
callers handle the same types.

Integer vectors (the per-node ``k``/``d`` of ``rewire``/``score``) may
be sent either as plain JSON lists or in the compact form
``{"b64": "<base64 of little-endian int64>"}`` — at serving rates the
JSON cost of thousands-of-ints lists dominates small-graph requests, so
the bundled client always sends compact (:func:`encode_array` /
:func:`decode_array`).
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict, Optional

import numpy as np

__all__ = [
    "DeadlineExceededError",
    "ERROR_CODES",
    "OverloadedError",
    "ServeError",
    "UnknownSessionError",
    "decode_array",
    "decode_line",
    "encode_array",
    "encode_line",
    "error_response",
    "ok_response",
]


class ServeError(Exception):
    """Base of every protocol-level failure; ``code`` is the wire code."""

    code = "error"

    def to_wire(self) -> Dict[str, Any]:
        """The ``error`` object sent on the wire for this failure."""
        return {"code": self.code, "message": str(self)}


class OverloadedError(ServeError):
    """The bounded intake queue is full; retry after ``retry_after_ms``."""

    code = "overloaded"

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = float(retry_after_ms)

    def to_wire(self) -> Dict[str, Any]:
        """Error object plus the backoff hint clients should honour."""
        wire = super().to_wire()
        wire["retry_after_ms"] = self.retry_after_ms
        return wire


class DeadlineExceededError(ServeError):
    """The request's deadline expired before (or while) it executed."""

    code = "deadline_exceeded"


class UnknownSessionError(ServeError):
    """The request named a session that is not (or no longer) open."""

    code = "unknown_session"


class BadRequestError(ServeError):
    """The request line was malformed or named an unknown operation."""

    code = "bad_request"


#: Wire code -> exception class, the client's re-raise table.
ERROR_CODES = {
    cls.code: cls
    for cls in (
        ServeError,
        OverloadedError,
        DeadlineExceededError,
        UnknownSessionError,
        BadRequestError,
    )
}


def raise_for_error(error: Dict[str, Any]) -> None:
    """Re-raise a wire ``error`` object as its exception class."""
    code = error.get("code", "error")
    message = error.get("message", code)
    cls = ERROR_CODES.get(code, ServeError)
    if cls is OverloadedError:
        raise OverloadedError(message, error.get("retry_after_ms", 0.0))
    raise cls(message)


# ----------------------------------------------------------------------
# Array encoding
# ----------------------------------------------------------------------
def encode_array(values: np.ndarray) -> Dict[str, str]:
    """The compact wire form of an integer vector (little-endian int64).

    Examples
    --------
    >>> decode_array(encode_array(np.array([1, 2, 3]))).tolist()
    [1, 2, 3]
    """
    data = np.ascontiguousarray(values, dtype="<i8")
    return {"b64": base64.b64encode(data.tobytes()).decode("ascii")}


def decode_array(field: Any) -> np.ndarray:
    """An int64 vector from either wire form (list or ``{"b64": ...}``).

    A list must hold integers within int64 (``1.5`` or ``2**70`` is a
    :class:`BadRequestError`, never truncated or wrapped); a compact
    blob must hold a whole number of int64 values.
    """
    if isinstance(field, dict):
        blob = field.get("b64")
        if not isinstance(blob, str):
            raise BadRequestError(
                "array object must carry a base64 string under 'b64'"
            )
        try:
            raw = base64.b64decode(blob, validate=True)
        except Exception as exc:
            raise BadRequestError(f"invalid base64 array: {exc}") from exc
        if len(raw) % 8:
            raise BadRequestError(
                f"compact array holds {len(raw)} bytes, not a whole "
                "number of int64 values"
            )
        return np.frombuffer(raw, dtype="<i8").astype(np.int64)
    try:
        values = np.asarray(field)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadRequestError(
            f"array field must be an integer list or {{'b64': ...}}: {exc}"
        ) from exc
    if values.size and values.dtype.kind != "i":
        raise BadRequestError(
            "array field must hold integers within int64, got "
            f"{values.dtype} values"
        )
    return values.astype(np.int64)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_line(obj: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON plus the terminating newline."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one frame; raises :class:`BadRequestError` on junk (bad
    JSON, bytes that are not UTF-8, nesting too deep to parse)."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise BadRequestError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise BadRequestError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def ok_response(req_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """A success envelope for request ``req_id``."""
    return {"id": req_id, "ok": True, "result": result}


def error_response(
    req_id: Any, exc: Exception, code: Optional[str] = None
) -> Dict[str, Any]:
    """A failure envelope; non-:class:`ServeError` exceptions map to
    ``internal`` so server bugs never leak tracebacks on the wire."""
    if isinstance(exc, ServeError):
        error = exc.to_wire()
    else:
        error = {"code": code or "internal", "message": str(exc)}
    return {"id": req_id, "ok": False, "error": error}
