"""The asyncio rewiring server: transport, dispatch, lifecycle.

One :class:`RewiringServer` owns a :class:`~repro.serve.session.SessionManager`
(tenants and their shared artifacts) and a
:class:`~repro.serve.batcher.MicroBatcher` (the fused execution path).
The event loop only parses frames, resolves sessions and awaits batch
futures — every numeric operation (artifact builds, rewires, stacked
forwards) runs on the batcher's single worker thread, so the loop stays
responsive at any batch size.

Connections speak the NDJSON protocol of :mod:`repro.serve.protocol`.
Requests on one connection are handled concurrently (each frame spawns
a task; responses are written under a per-connection lock), so a single
pipelining client can fill a whole micro-batch by itself.

Lifecycle: ``start()`` binds the socket, ``serve_forever()`` parks until
a ``shutdown`` request (or :meth:`request_shutdown`), ``stop()`` closes
the transport, fails queued requests with ``shutdown`` errors and joins
the worker — every path is awaitable and idempotent, so tests drive the
server in-process with plain ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Dict, Optional, Tuple

from ..stream import EdgeEvent, validate_events
from ..telemetry import Telemetry, get_telemetry
from .batcher import MicroBatcher
from .config import ServeConfig
from .protocol import (
    BadRequestError,
    decode_array,
    decode_line,
    encode_line,
    error_response,
    ok_response,
)
from .session import SessionManager, SessionSpec

__all__ = ["RewiringServer"]

#: Frame size limit: room for dense ``k``/``d`` vectors at large N.
_STREAM_LIMIT = 16 * 1024 * 1024


class RewiringServer:
    """Long-lived NDJSON server for rewiring and scoring requests."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        tel: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self._tel = tel if tel is not None else get_telemetry()
        self.sessions = SessionManager(
            self.config.max_sessions, self.config.memo_entries, tel=self._tel
        )
        self.batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            max_queue=self.config.max_queue,
            tel=self._tel,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self.address: Optional[Tuple[str, int]] = None
        """``(host, port)`` actually bound (TCP only; after ``start``)."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the batch collector (idempotent)."""
        if self._server is not None:
            return
        self._stop_event = asyncio.Event()
        await self.batcher.start()
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.config.unix_path,
                limit=_STREAM_LIMIT,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.config.host,
                port=self.config.port, limit=_STREAM_LIMIT,
            )
            self.address = self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Close the transport and drain the batcher (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()
        if self._stop_event is not None:
            self._stop_event.set()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to return (from any task)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`request_shutdown`),
        then stop cleanly."""
        await self.start()
        await self._stop_event.wait()
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._tel.count("serve.connections")
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                # Each frame becomes its own task so a connection can
                # pipeline: its later requests join the same micro-batch
                # its earlier ones are waiting on.
                task = asyncio.get_running_loop().create_task(
                    self._serve_frame(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_frame(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        req_id: Any = None
        try:
            frame = decode_line(line)
            req_id = frame.get("id")
            result = await self._dispatch(frame)
            response = ok_response(req_id, result)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._tel.count("serve.errors")
            response = error_response(req_id, exc)
        async with write_lock:
            try:
                writer.write(encode_line(response))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        op = frame.get("op")
        self._tel.count("serve.requests")
        if op in ("rewire", "score"):
            return await self._op_batched(op, frame)
        if op == "churn":
            return await self._op_churn(frame)
        if op == "ping":
            return {"pong": True}
        if op == "open_session":
            return await self._op_open_session(frame)
        if op == "close_session":
            return self._op_close_session(frame)
        if op == "stats":
            return self._op_stats()
        if op == "shutdown":
            self.request_shutdown()
            return {"stopping": True}
        raise BadRequestError(f"unknown op {op!r}")

    async def _op_open_session(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        spec = SessionSpec.from_wire(frame.get("spec"))
        # The expensive build runs on the batcher's worker (serialized
        # with scoring); the registry mutation stays on the loop thread.
        artifact = await asyncio.get_running_loop().run_in_executor(
            self.batcher._executor,
            self.sessions.artifact_for, spec, self.config.max_batch,
        )
        session = self.sessions.register(artifact)
        return session.describe()

    def _op_close_session(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        session_id = frame.get("session")
        return {"closed": self.sessions.close(session_id)}

    async def _op_batched(
        self, op: str, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        session = self.sessions.get(frame.get("session"))
        if "k" not in frame or "d" not in frame:
            raise BadRequestError(f"{op} requires 'k' and 'd' vectors")
        k, d = session.artifact.clamp(
            decode_array(frame["k"]), decode_array(frame["d"])
        )
        future = self.batcher.submit(
            op, session, k, d, deadline_ms=self._deadline_ms(frame)
        )
        return await future

    def _deadline_ms(self, frame: Dict[str, Any]) -> Optional[float]:
        """The frame's ``deadline_ms`` (the configured default when
        absent, ``None`` for no deadline); anything but a finite number
        is a :class:`BadRequestError`."""
        value = frame.get("deadline_ms", self.config.default_deadline_ms)
        if value is not None and (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            raise BadRequestError(
                f"deadline_ms must be a finite number, got {value!r}"
            )
        return value

    async def _op_churn(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Fold external edge events into the session's artifact.

        Events are ``[kind, u, v]`` (times auto-assigned in list order)
        or ``[time, kind, u, v]`` with ``kind`` +1 (add) / -1 (remove).
        Validation happens here on the loop thread; the application runs
        on the batcher's worker, serialized with scoring — churns within
        a micro-batch apply before any rewire or score in it.
        """
        session = self.sessions.get(frame.get("session"))
        raw = frame.get("events")
        if not isinstance(raw, list) or not raw:
            raise BadRequestError("churn requires a non-empty 'events' list")
        events = []
        for i, item in enumerate(raw):
            if not isinstance(item, (list, tuple)) or len(item) not in (3, 4):
                raise BadRequestError(
                    "each event must be [kind, u, v] or [time, kind, u, v]"
                )
            try:
                item = tuple(int(x) for x in item)
            except (TypeError, ValueError) as exc:
                raise BadRequestError(
                    f"event fields must be integers: {item!r}"
                ) from exc
            events.append(
                EdgeEvent(*item) if len(item) == 4 else EdgeEvent(i, *item)
            )
        try:
            validate_events(events, session.artifact.graph.num_nodes)
        except ValueError as exc:
            raise BadRequestError(str(exc)) from exc
        future = self.batcher.submit(
            "churn", session, None, None,
            deadline_ms=self._deadline_ms(frame), events=events,
        )
        return await future

    def _op_stats(self) -> Dict[str, Any]:
        """Service metrics: sessions, queue and ``serve.*`` telemetry."""
        snapshot = (
            self._tel.snapshot() if self._tel.enabled
            else {"counters": {}, "gauges": {}, "histograms": {}}
        )
        serve_only = {
            kind: {
                name: value
                for name, value in snapshot.get(kind, {}).items()
                if name.startswith("serve.")
            }
            for kind in ("counters", "gauges", "histograms")
        }
        return {
            "sessions": self.sessions.stats(),
            "queue_depth": len(self.batcher._queue),
            "telemetry": serve_only,
        }
