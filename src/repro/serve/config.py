"""Tunables of the rewiring service (transport, batching, bounds)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig:
    """Knobs of one :class:`~repro.serve.server.RewiringServer`.

    The defaults favour latency-bounded interactive use: small batching
    window, bounded queue, modest session count.  Throughput-oriented
    deployments raise ``max_batch``/``max_wait_ms`` (the serving bench
    sweeps exactly these; see ``benchmarks/bench_serving.py``).
    """

    host: str = "127.0.0.1"
    """TCP bind address (ignored when ``unix_path`` is set)."""
    port: int = 8473
    """TCP port; ``0`` lets the OS pick (the bound port is on the server
    object after ``start()``)."""
    unix_path: Optional[str] = None
    """Serve on a unix domain socket at this path instead of TCP."""

    max_batch: int = 16
    """Most requests fused into one block-diagonal forward — also the
    ``max_width`` of every artifact's stacked builder."""
    max_wait_ms: float = 2.0
    """How long the batcher holds an open batch for co-travellers after
    the first request arrives.  ``0`` flushes as soon as the event loop
    drains whatever is already queued (batching without added latency)."""
    max_queue: int = 256
    """Bound of the intake queue; requests beyond it are shed with an
    ``overloaded`` error and a ``retry_after_ms`` hint."""
    default_deadline_ms: Optional[float] = None
    """Deadline applied to requests that do not carry their own
    ``deadline_ms``; ``None`` means no implicit deadline."""

    max_sessions: int = 8
    """Open sessions kept per server; the least-recently-used session is
    evicted (its memo dropped) when a new one would exceed the bound."""
    memo_entries: int = 256
    """Capacity of each session's ``(k, d)`` -> Graph rewire memo."""

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not math.isfinite(self.max_wait_ms):
            raise ValueError(
                f"max_wait_ms must be finite, got {self.max_wait_ms}"
            )
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.memo_entries < 1:
            raise ValueError(
                f"memo_entries must be >= 1, got {self.memo_entries}"
            )
        if self.default_deadline_ms is not None and not (
            math.isfinite(self.default_deadline_ms)
            and self.default_deadline_ms > 0
        ):
            raise ValueError(
                f"default_deadline_ms must be finite and positive, got "
                f"{self.default_deadline_ms}"
            )
