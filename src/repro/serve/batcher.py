"""Request micro-batching: concurrent requests -> one stacked forward.

The batcher is the service's throughput engine.  Requests land in a
bounded intake queue; a collector task takes the first arrival, holds
the batch open for ``max_wait_ms`` (or until ``max_batch`` requests are
queued, whichever is first), then executes the whole batch on a
single-worker thread executor:

* every request's ``(k, d)`` rewire resolves through its session's memo
  (cross-request reuse: a candidate another request just built is free),
* all ``score`` requests sharing an artifact are fused into ONE
  block-diagonal GNN forward via the artifact's
  :class:`~repro.rl.vector.stacked.StackedGraphBuilder` and sliced back
  per request.

One worker thread is a feature, not a limitation: the GNN, the memos
and the stacked builder are not thread-safe, and CPU inference gains
nothing from thread fan-out — batching, not concurrency, is where the
throughput comes from.

Degradation is explicit at every stage: a full queue sheds new arrivals
with :class:`~repro.serve.protocol.OverloadedError` (plus a
``retry_after_ms`` hint sized to the current backlog), expired
deadlines are rejected both *before* execution (the request never costs
a forward) and *after* it (a response the client stopped waiting for is
not delivered as success), and session eviction mid-flight is safe
because each queued request holds a strong session reference.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..telemetry import Telemetry, get_telemetry
from .protocol import DeadlineExceededError, OverloadedError, ServeError
from .session import GraphSession

__all__ = ["MicroBatcher", "PendingRequest"]


@dataclass
class PendingRequest:
    """One queued ``rewire``/``score``/``churn`` awaiting a batch slot.

    ``deadline`` is absolute loop time (``None`` = no deadline); the
    strong ``session`` reference keeps the tenant's memo alive even if
    the session manager evicts it while this request waits.  ``churn``
    requests carry their event list in ``events`` and leave ``k``/``d``
    as ``None``.
    """

    op: str
    session: GraphSession
    k: Optional[np.ndarray]
    d: Optional[np.ndarray]
    future: "asyncio.Future[Dict[str, Any]]"
    enqueued: float
    deadline: Optional[float] = None
    events: Optional[List] = field(default=None, repr=False)
    result: Optional[Dict[str, Any]] = field(default=None, repr=False)
    error: Optional[Exception] = field(default=None, repr=False)


class MicroBatcher:
    """Collects concurrent requests and executes them as fused batches.

    Parameters
    ----------
    max_batch:
        Most requests per flush — also the width cap of the stacked
        forward, so it must not exceed the artifacts' ``max_width``.
    max_wait_ms:
        How long a batch stays open for co-travellers after its first
        request arrives.  The latency floor a lone request pays; ``0``
        flushes whatever one event-loop drain accumulated.
    max_queue:
        Intake bound; arrivals beyond it are shed with ``overloaded``.
    executor:
        The (single-worker) executor batches run on; owned and shut
        down by the batcher when it created one itself.
    """

    def __init__(
        self,
        max_batch: int = 16,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        executor: Optional[ThreadPoolExecutor] = None,
        tel: Optional[Telemetry] = None,
    ) -> None:
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue = int(max_queue)
        self._own_executor = executor is None
        self._executor = executor or ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._tel = tel if tel is not None else get_telemetry()
        self._queue: List[PendingRequest] = []
        self._nonempty = asyncio.Event()
        self._full = asyncio.Event()
        self._running = False
        self._task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the collector task (idempotent)."""
        if self._running:
            return
        self._running = True
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Stop collecting; queued requests fail with ``shutdown``."""
        if not self._running:
            return
        self._running = False
        self._nonempty.set()
        self._full.set()
        if self._task is not None:
            await self._task
            self._task = None
        for req in self._queue:
            if not req.future.done():
                req.future.set_exception(
                    ServeError("server shutting down")
                )
        self._queue.clear()
        if self._own_executor:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    def submit(
        self,
        op: str,
        session: GraphSession,
        k: Optional[np.ndarray],
        d: Optional[np.ndarray],
        deadline_ms: Optional[float] = None,
        events: Optional[List] = None,
    ) -> "asyncio.Future[Dict[str, Any]]":
        """Queue one request; resolves to its result payload.

        Raises :class:`OverloadedError` immediately when the intake
        queue is full — shedding at the door costs the caller one
        round-trip, not a slot in a batch it would time out of anyway.
        """
        loop = asyncio.get_running_loop()
        if len(self._queue) >= self.max_queue:
            backlog_batches = 1 + len(self._queue) // max(self.max_batch, 1)
            self._tel.count("serve.shed")
            raise OverloadedError(
                f"intake queue full ({self.max_queue} pending)",
                retry_after_ms=max(self.max_wait_ms, 1.0) * backlog_batches,
            )
        now = loop.time()
        req = PendingRequest(
            op=op, session=session, k=k, d=d, events=events,
            future=loop.create_future(), enqueued=now,
            deadline=(
                now + deadline_ms / 1000.0
                if deadline_ms is not None else None
            ),
        )
        self._queue.append(req)
        self._tel.set_gauge("serve.queue_depth", len(self._queue))
        self._nonempty.set()
        if len(self._queue) >= self.max_batch:
            self._full.set()
        return req.future

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        """Collector loop: wait, window, cut a batch, execute, deliver."""
        loop = asyncio.get_running_loop()
        while self._running:
            await self._nonempty.wait()
            if not self._running:
                break
            if self.max_wait_ms > 0 and len(self._queue) < self.max_batch:
                # Hold the batch open for co-travellers.
                try:
                    await asyncio.wait_for(
                        self._full.wait(), self.max_wait_ms / 1000.0
                    )
                except asyncio.TimeoutError:
                    pass
                if not self._running:
                    break
            batch = self._queue[: self.max_batch]
            del self._queue[: len(batch)]
            self._full.clear()
            if not self._queue:
                self._nonempty.clear()
            self._tel.set_gauge("serve.queue_depth", len(self._queue))

            now = loop.time()
            live: List[PendingRequest] = []
            for req in batch:
                if req.deadline is not None and now > req.deadline:
                    self._expire(req, "before execution")
                elif req.future.done():
                    pass  # client vanished (connection reset)
                else:
                    live.append(req)
            if not live:
                continue
            self._tel.count("serve.batches")
            self._tel.observe("serve.batch_size", len(live),
                              buckets=(1, 2, 4, 8, 16, 32, 64))
            try:
                await loop.run_in_executor(
                    self._executor, self._execute, live
                )
            except Exception as exc:  # worker-level failure: fail the batch
                for req in live:
                    if not req.future.done():
                        req.future.set_exception(exc)
                continue
            self._deliver(live, loop.time())

    def _expire(self, req: PendingRequest, where: str) -> None:
        self._tel.count("serve.deadline_expired")
        if not req.future.done():
            req.future.set_exception(
                DeadlineExceededError(f"deadline expired {where}")
            )

    def _deliver(self, batch: List[PendingRequest], now: float) -> None:
        """Resolve futures, honouring deadlines that expired mid-batch."""
        for req in batch:
            self._tel.observe(
                "serve.request_s", now - req.enqueued,
                buckets=(0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                         0.5, 1.0, 2.5, 5.0),
            )
            if req.future.done():
                continue
            if req.deadline is not None and now > req.deadline:
                self._expire(req, "during execution")
            elif req.error is not None:
                req.future.set_exception(req.error)
            else:
                req.future.set_result(req.result)

    # ------------------------------------------------------------------
    # Executor side (single worker thread; owns model/memo/builder access)
    # ------------------------------------------------------------------
    def _execute(self, batch: List[PendingRequest]) -> None:
        """Run one batch synchronously: memoised rewires, fused scoring.

        ``score`` requests are first *coalesced*: concurrent requests for
        the same artifact and the same clamped ``(k, d)`` are computed
        once and fanned out — a dedup the serial path cannot perform
        because it never sees two requests at once.  The surviving
        unique candidates per artifact are then scored in one
        block-diagonal forward each.  Fills each request's
        ``result``/``error`` in place; delivery happens back on the
        event loop so future callbacks run there.
        """
        # Churn batches apply FIRST: within one micro-batch every rewire
        # and score then executes against the post-churn topology, so a
        # response issued after a churn acknowledgement can never reflect
        # the pre-churn graph (the serving staleness guarantee; see
        # docs/streaming.md).
        for req in batch:
            if req.op != "churn":
                continue
            try:
                with self._tel.span(
                    "serve.churn", hist="serve.churn_s",
                    events=len(req.events or ()),
                ):
                    req.result = req.session.artifact.churn(req.events)
                self._tel.count("serve.churns")
            except Exception as exc:
                req.error = exc

        score_groups: Dict[Tuple[int, bytes], List[PendingRequest]] = {}
        for req in batch:
            if req.op == "churn":
                continue
            if req.op == "rewire":
                try:
                    memo = req.session.memo
                    artifact = req.session.artifact
                    # Exact: this batch's churns already ran, and one
                    # that changed the topology emptied the memo.
                    cached = artifact.memo_key(req.k, req.d) in memo
                    graph = artifact.rewired(req.k, req.d, memo)
                    req.result = {
                        "num_edges": graph.num_edges,
                        "cached": cached,
                        "memo": dict(memo.stats),
                    }
                except Exception as exc:
                    req.error = exc
            else:
                key = (
                    id(req.session.artifact),
                    req.k.tobytes() + req.d.tobytes(),
                )
                score_groups.setdefault(key, []).append(req)

        by_artifact: Dict[int, List[List[PendingRequest]]] = {}
        for (artifact_id, _), reqs in score_groups.items():
            by_artifact.setdefault(artifact_id, []).append(reqs)
            if len(reqs) > 1:
                self._tel.count("serve.coalesced", len(reqs) - 1)

        for groups in by_artifact.values():
            artifact = groups[0][0].session.artifact
            graphs = []
            live_groups: List[List[PendingRequest]] = []
            total = sum(len(reqs) for reqs in groups)
            for reqs in groups:
                lead = reqs[0]
                try:
                    graphs.append(
                        artifact.rewired(lead.k, lead.d, lead.session.memo)
                    )
                    live_groups.append(reqs)
                except Exception as exc:
                    for req in reqs:
                        req.error = exc
            if not graphs:
                continue
            try:
                with self._tel.span(
                    "serve.batch_forward", hist="serve.batch_forward_s",
                    width=len(graphs),
                ):
                    metrics = artifact.score_blocks(graphs)
            except Exception as exc:
                for reqs in live_groups:
                    for req in reqs:
                        req.error = exc
                continue
            for reqs, graph, (acc, loss) in zip(
                live_groups, graphs, metrics
            ):
                result = {
                    "acc": acc,
                    "loss": loss,
                    "num_edges": graph.num_edges,
                    "batch_width": total,
                    "unique_width": len(graphs),
                }
                for req in reqs:
                    req.result = result
