"""Deterministic synthetic churn streams: drift, burst, adversarial hubs.

Each generator owns a seeded :class:`numpy.random.Generator` plus a live
view of the *current* edge set (updated as it emits), so removes always
target existing edges and adds absent pairs.  Determinism contract: for a
fixed ``(graph, seed)`` the emitted event sequence is identical however
the consumer slices it — ``take(4)`` twice equals ``take(8)`` — which is
what lets the sequential and vectorized envs, and the serving soak test,
replay one churn trace bit for bit.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from ..graph import Graph
from .config import REGIMES, StreamConfig
from .events import ADD, REMOVE, EdgeEvent

__all__ = [
    "BurstStream",
    "ChurnStream",
    "DriftStream",
    "HubStream",
    "make_stream",
]


class ChurnStream:
    """Base class: seeded event source over a fixed node set.

    Subclasses implement :meth:`_emit` (one event, advancing the clock);
    this class maintains the canonical edge set mirror and the shared
    add/remove primitives.
    """

    def __init__(self, graph: Graph, seed: int = 0) -> None:
        self.num_nodes = graph.num_nodes
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self._present: Set[Tuple[int, int]] = set(
            map(tuple, graph.edge_array().tolist())
        )
        self.time = 0

    # ------------------------------------------------------------------
    def take(self, count: int) -> List[EdgeEvent]:
        """The next ``count`` events of the stream (advances the clock)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return [self._emit() for _ in range(count)]

    def _emit(self) -> EdgeEvent:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _record(self, kind: int, u: int, v: int) -> EdgeEvent:
        """Mirror the event into the tracked edge set and stamp it."""
        pair = (u, v) if u < v else (v, u)
        if kind == ADD:
            self._present.add(pair)
        else:
            self._present.discard(pair)
        event = EdgeEvent(self.time, kind, pair[0], pair[1])
        self.time += 1
        return event

    def _random_present(self) -> Tuple[int, int]:
        """A uniformly random existing edge (index into the sorted set,
        so the draw is independent of set-iteration order)."""
        edges = sorted(self._present)
        return edges[int(self.rng.integers(len(edges)))]

    def _random_absent(
        self, anchor: int | None = None, tries: int = 64
    ) -> Tuple[int, int] | None:
        """A random absent non-loop pair (optionally incident to
        ``anchor``); ``None`` when rejection sampling runs dry (dense
        graphs)."""
        n = self.num_nodes
        for _ in range(tries):
            u = anchor if anchor is not None else int(self.rng.integers(n))
            v = int(self.rng.integers(n))
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            if pair not in self._present:
                return pair
        return None

    def _drift_event(self, remove_p: float = 0.5) -> EdgeEvent:
        """The shared fallback move: remove an existing edge with
        probability ``remove_p``, otherwise add an absent pair."""
        do_remove = (
            bool(self._present) and self.rng.random() < remove_p
        )
        if not do_remove:
            pair = self._random_absent()
            if pair is not None:
                return self._record(ADD, *pair)
            do_remove = bool(self._present)
        if do_remove:
            return self._record(REMOVE, *self._random_present())
        # Pathological corner (empty near-complete graph): emit an
        # idempotent add so the stream never stalls.
        return self._record(ADD, 0, 1 if self.num_nodes > 1 else 0)


class DriftStream(ChurnStream):
    """Steady churn: each tick removes one random existing edge or adds
    one random absent pair, with equal probability — the edge set drifts
    while its size performs a random walk around the start size."""

    def _emit(self) -> EdgeEvent:
        return self._drift_event(remove_p=0.5)


class BurstStream(ChurnStream):
    """Quiet drift punctuated by bursts focused on one node.

    ``quiet_len`` drift events, then a burst: a focal node is drawn and
    ``burst_len`` consecutive events all touch it (rewiring its whole
    neighbourhood in a few ticks) — the shape that stresses micro-batch
    shedding and per-artifact invalidation in the serving layer.
    """

    def __init__(
        self,
        graph: Graph,
        seed: int = 0,
        quiet_len: int = 12,
        burst_len: int = 8,
    ) -> None:
        super().__init__(graph, seed)
        if quiet_len < 1 or burst_len < 1:
            raise ValueError("quiet_len and burst_len must be >= 1")
        self.quiet_len = quiet_len
        self.burst_len = burst_len
        self._phase_left = quiet_len
        self._focus: int | None = None

    def _emit(self) -> EdgeEvent:
        if self._phase_left == 0:
            if self._focus is None:  # entering a burst
                self._focus = int(self.rng.integers(self.num_nodes))
                self._phase_left = self.burst_len
            else:  # burst over, back to quiet
                self._focus = None
                self._phase_left = self.quiet_len
        self._phase_left -= 1
        if self._focus is None:
            return self._drift_event()
        return self._focused_event(self._focus)

    def _focused_event(self, focus: int) -> EdgeEvent:
        """One event incident to ``focus``: drop one of its edges or
        attach a new one, whichever the coin (and availability) says."""
        incident = sorted(p for p in self._present if focus in p)
        if incident and self.rng.random() < 0.5:
            pair = incident[int(self.rng.integers(len(incident)))]
            return self._record(REMOVE, *pair)
        pair = self._random_absent(anchor=focus)
        if pair is not None:
            return self._record(ADD, *pair)
        if incident:
            pair = incident[int(self.rng.integers(len(incident)))]
            return self._record(REMOVE, *pair)
        return self._drift_event()


class HubStream(ChurnStream):
    """Adversarial churn: every event is incident to a top-degree hub.

    Hubs (the top ``hub_frac`` of nodes by start-graph degree, at least
    one) concentrate the dirty-row set, so edit halos saturate and the
    dirty fraction climbs fastest — the regime that exercises the
    rebase fallback and the incremental evaluator's oversize-halo
    dense fallback.
    """

    def __init__(
        self, graph: Graph, seed: int = 0, hub_frac: float = 0.02
    ) -> None:
        super().__init__(graph, seed)
        if not 0.0 < hub_frac <= 1.0:
            raise ValueError(f"hub_frac must be in (0, 1], got {hub_frac}")
        count = max(1, int(round(hub_frac * graph.num_nodes)))
        order = np.argsort(graph.degrees(), kind="stable")[::-1]
        self.hubs = np.sort(order[:count].astype(np.int64))

    def _emit(self) -> EdgeEvent:
        hub = int(self.hubs[int(self.rng.integers(self.hubs.shape[0]))])
        incident = sorted(p for p in self._present if hub in p)
        if incident and self.rng.random() < 0.5:
            pair = incident[int(self.rng.integers(len(incident)))]
            return self._record(REMOVE, *pair)
        pair = self._random_absent(anchor=hub)
        if pair is not None:
            return self._record(ADD, *pair)
        if incident:
            pair = incident[int(self.rng.integers(len(incident)))]
            return self._record(REMOVE, *pair)
        return self._drift_event()


def make_stream(
    graph: Graph, config: StreamConfig | None = None, **overrides
) -> ChurnStream:
    """Build the churn stream a :class:`StreamConfig` describes.

    ``overrides`` replace individual config fields (e.g. a test passing
    ``seed=7`` on top of a default config).
    """
    cfg = config or StreamConfig()
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    cfg.validate()
    if cfg.regime == "drift":
        return DriftStream(graph, seed=cfg.seed)
    if cfg.regime == "burst":
        return BurstStream(graph, seed=cfg.seed)
    if cfg.regime == "hubs":
        return HubStream(graph, seed=cfg.seed)
    raise ValueError(  # pragma: no cover - validate() already gates
        f"unknown regime {cfg.regime!r}; choose from {REGIMES}"
    )
