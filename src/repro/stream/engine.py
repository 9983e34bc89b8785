"""The churn engine: a live graph fed by external events + agent rewires.

:class:`StreamingGraph` owns the two-graph invariant of a churned
topology:

* ``root`` — an immutable, delta-free graph;
* ``current`` — the live topology, always expressed as ``root`` plus ONE
  collapsed :class:`~repro.graph.graph.GraphDelta`.

External event batches fold in through
:func:`~repro.stream.events.apply_events`, whose deltas collapse to the
same root, so one delta measures how far the live graph has drifted.
Rewires of ``current`` (:func:`~repro.core.rewire.rewire_graph`) carry
no delta and are never fed back; their consumers (the env's and the
server's ``(k, d)`` memos) drop every entry when :attr:`version` changes.
When the accumulated dirty-node fraction crosses ``rebase_threshold``
the chained representation stops paying off: :meth:`rebase` rebuilds
``current`` from scratch through the fully validated
:class:`~repro.graph.Graph` constructor, verifies the rebuild is
**bitwise identical** to the chained edge keys, and promotes it to the
new root (bumping :attr:`version`, so memos of rewires of the old
topology are dropped too).

Telemetry: ``stream.events`` / ``stream.rebases`` counters, a
``stream.apply`` span per batch (``stream.apply_s`` histogram),
``stream.rebase`` spans and a ``stream.dirty_frac`` gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..graph import Graph
from ..telemetry import get_telemetry
from .events import EdgeEvent, apply_events

__all__ = ["ChurnReport", "StreamingGraph"]


@dataclass
class ChurnReport:
    """What one :meth:`StreamingGraph.apply` call did."""

    applied: int
    """Events folded in (batch length)."""
    added_keys: np.ndarray = field(repr=False)
    """Canonical keys the batch actually inserted (net, sorted)."""
    removed_keys: np.ndarray = field(repr=False)
    """Canonical keys the batch actually deleted (net, sorted)."""
    dirty_fraction: float = 0.0
    """Touched-node fraction of the accumulated root delta *after* the
    batch (0.0 right after a rebase)."""
    rebased: bool = False
    """Whether the batch tripped the rebase threshold."""
    version: int = 0
    """Engine version after the batch; bumps on every effective apply
    and on every rebase, so a ``(k, d)`` memo dropped whenever it
    changes never serves a rewire of an older topology."""


class StreamingGraph:
    """Maintains ``current = root + one collapsed delta`` under churn."""

    def __init__(
        self,
        graph: Graph,
        rebase_threshold: float = 0.25,
        tel=None,
    ) -> None:
        if not 0.0 < rebase_threshold <= 1.0:
            raise ValueError(
                f"rebase_threshold must be in (0, 1], got {rebase_threshold}"
            )
        self.rebase_threshold = float(rebase_threshold)
        self._tel = tel if tel is not None else get_telemetry()
        # A derived input graph is adopted as-is: its delta's base is the
        # shared root.
        self.root: Graph = (
            graph.delta.base if graph.delta is not None else graph
        )
        self.current: Graph = graph
        self.version = 0
        self.rebases = 0
        self.events_applied = 0

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Node count of the live graph (fixed across churn)."""
        return self.current.num_nodes

    def dirty_fraction(self) -> float:
        """Touched-node fraction of ``current`` relative to the root — the
        rebase trigger metric."""
        delta = self.current.delta
        if delta is None:
            return 0.0
        return delta.touched_nodes().shape[0] / self.num_nodes

    # ------------------------------------------------------------------
    def apply(self, events: Sequence[EdgeEvent]) -> ChurnReport:
        """Fold one external event batch into ``current``.

        Returns a :class:`ChurnReport` with the net inserted/deleted keys
        (exact integer inputs for incremental metric maintenance) and
        whether the batch triggered a bitwise-verified rebase.
        """
        with self._tel.span(
            "stream.apply", hist="stream.apply_s", events=len(events)
        ):
            before = self.current.edge_keys()
            self.current = apply_events(self.current, events)
            after = self.current.edge_keys()
            added = after[
                np.isin(after, before, assume_unique=True, invert=True)
            ]
            removed = before[
                np.isin(before, after, assume_unique=True, invert=True)
            ]
        self.events_applied += len(events)
        if len(events):
            self._tel.count("stream.events", len(events))
        if added.shape[0] or removed.shape[0]:
            # Only *effective* batches bump the version: a fully no-op
            # batch leaves the graph — and every memo entry dropped on a
            # version change — exactly as valid as before.
            self.version += 1
        dirty = self.dirty_fraction()
        self._tel.set_gauge("stream.dirty_frac", dirty)
        rebased = dirty > self.rebase_threshold
        if rebased:
            self.rebase()
            dirty = 0.0
        return ChurnReport(
            applied=len(events),
            added_keys=added,
            removed_keys=removed,
            dirty_fraction=dirty,
            rebased=rebased,
            version=self.version,
        )

    # ------------------------------------------------------------------
    def rebase(self) -> Graph:
        """Abandon the chained delta for a fresh, fully validated build.

        The rebuild goes through the *checked* :class:`Graph` constructor
        (re-sorting, re-deduplicating, re-validating every edge) and is
        verified **bitwise identical** to the chained edge keys before it
        replaces the root — a silently divergent fast path can never be
        promoted.  :attr:`version` bumps, so consumers that drop their
        memos on a version change drop them here too.
        """
        with self._tel.span("stream.rebase", hist="stream.rebase_s"):
            chained = self.current
            fresh = Graph(
                chained.num_nodes,
                chained.edge_array(),
                features=chained.features,
                labels=chained.labels,
            )
            if not np.array_equal(fresh.edge_keys(), chained.edge_keys()):
                raise AssertionError(
                    "rebase verification failed: fresh rebuild disagrees "
                    "with the chained-delta edge keys"
                )
        self.root = fresh
        self.current = fresh
        self.version += 1
        self.rebases += 1
        self._tel.count("stream.rebases")
        self._tel.set_gauge("stream.dirty_frac", 0.0)
        return fresh
