"""Async client for the rewiring service.

:class:`ServeClient` speaks the NDJSON protocol over TCP or a unix
socket, with full pipelining: every request gets a fresh ``id``, a
background reader task resolves responses by ``id``, and any number of
requests may be in flight at once — which is exactly what lets one
client fill a server-side micro-batch::

    client = await ServeClient.connect(port=8473)
    info = await client.open_session({"dataset": "cornell"})
    results = await asyncio.gather(*[
        client.score(info["session"], k, d) for k, d in candidates
    ])
    await client.close()

Wire errors re-raise as their :mod:`repro.serve.protocol` exception
classes; :meth:`ServeClient.score_with_retry` additionally honours the
``retry_after_ms`` hint on ``overloaded`` shed responses.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Sequence

import numpy as np

from .protocol import (
    OverloadedError,
    ServeError,
    decode_line,
    encode_array,
    encode_line,
    raise_for_error,
)

__all__ = ["ServeClient"]


class ServeClient:
    """One connection to a :class:`~repro.serve.server.RewiringServer`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._next_id = 0
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 8473,
        unix_path: Optional[str] = None,
    ) -> "ServeClient":
        """Open a TCP (default) or unix-socket connection."""
        if unix_path is not None:
            reader, writer = await asyncio.open_unix_connection(unix_path)
        else:
            reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        """Close the connection; in-flight requests fail with a
        ``connection closed`` :class:`ServeError`."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._fail_pending(ServeError("connection closed"))

    # ------------------------------------------------------------------
    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_loop(self) -> None:
        """Resolve pipelined responses by their ``id``."""
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    self._fail_pending(
                        ServeError("server closed the connection")
                    )
                    return
                response = decode_line(line)
                future = self._pending.pop(response.get("id"), None)
                if future is None or future.done():
                    continue
                future.set_result(response)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_pending(ServeError(f"read loop failed: {exc}"))

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request and await its result payload.

        Raises the matching :mod:`repro.serve.protocol` exception class
        when the server responds with an error envelope.
        """
        if self._closed:
            raise ServeError("client is closed")
        req_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = future
        self._writer.write(encode_line({"id": req_id, "op": op, **fields}))
        await self._writer.drain()
        response = await future
        if not response.get("ok"):
            raise_for_error(response.get("error", {}))
        return response["result"]

    # ------------------------------------------------------------------
    # Convenience wrappers, one per operation
    # ------------------------------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        """Liveness check."""
        return await self.request("ping")

    async def open_session(
        self, spec: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Open a tenant session; ``spec`` fields as in ``SessionSpec``."""
        return await self.request("open_session", spec=spec or {})

    async def rewire(
        self,
        session: str,
        k: Sequence[int],
        d: Sequence[int],
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Build (or fetch from the session memo) one rewired topology."""
        return await self.request(
            "rewire", session=session,
            k=encode_array(k), d=encode_array(d),
            **({"deadline_ms": deadline_ms} if deadline_ms is not None else {}),
        )

    async def score(
        self,
        session: str,
        k: Sequence[int],
        d: Sequence[int],
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Train-mask accuracy/loss of the ``(k, d)`` rewire."""
        return await self.request(
            "score", session=session,
            k=encode_array(k), d=encode_array(d),
            **({"deadline_ms": deadline_ms} if deadline_ms is not None else {}),
        )

    async def score_with_retry(
        self,
        session: str,
        k: Sequence[int],
        d: Sequence[int],
        max_attempts: int = 5,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """:meth:`score`, backing off on ``overloaded`` shed responses by
        the server's own ``retry_after_ms`` hint."""
        for attempt in range(max_attempts):
            try:
                return await self.score(session, k, d, deadline_ms)
            except OverloadedError as exc:
                if attempt == max_attempts - 1:
                    raise
                await asyncio.sleep(max(exc.retry_after_ms, 1.0) / 1000.0)
        raise AssertionError("unreachable")

    async def churn(
        self,
        session: str,
        events: Sequence[Sequence[int]],
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Fold external add/remove edge events into the session's live
        graph.  Each event is ``(kind, u, v)`` (times auto-assigned in
        list order) or ``(time, kind, u, v)``; ``kind`` is +1 for add,
        -1 for remove.  Scores acknowledged after this call resolves are
        guaranteed to reflect the churned topology.  Fields are sent as
        given (numpy integers become ``int`` so arrays serialise), so a
        field the server rejects, such as ``2.9``, ``"1"`` or ``True``,
        answers ``bad_request`` here too."""
        return await self.request(
            "churn", session=session,
            events=[
                [int(x) if isinstance(x, np.integer) else x for x in e]
                for e in events
            ],
            **({"deadline_ms": deadline_ms} if deadline_ms is not None else {}),
        )

    async def close_session(self, session: str) -> Dict[str, Any]:
        """Close a tenant session (its memo is dropped)."""
        return await self.request("close_session", session=session)

    async def stats(self) -> Dict[str, Any]:
        """Service metrics: sessions, queue depth, ``serve.*`` telemetry."""
        return await self.request("stats")

    async def shutdown(self) -> Dict[str, Any]:
        """Ask the server to stop after this response."""
        return await self.request("shutdown")
