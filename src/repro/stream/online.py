"""Online evaluation under churn: sliding-window metrics, exactly.

:class:`OnlineEvaluator` maintains per-event-batch metrics of a live
graph *incrementally* — the integer state (edge count, same-label edge
count, the degree vector) is updated from each batch's net
inserted/deleted keys, never rescanned — and keeps the last ``window``
records in a ring.  The float metrics derived from that state
(homophily, degree-distribution entropy) and the window aggregates are
**byte-identical** to recomputing every record from a fresh
fully-constructed graph, because both sides run the same float code over
the same exact integers; :meth:`verify` asserts that equality at any
window boundary (the bench asserts it in-run).

Model metrics (train accuracy / loss) ride along when a ``model`` and
``mask`` are bound: they are a pure function of the edge keys and
therefore also byte-identical between the chained live graph and its
fresh twin.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..graph import Graph

__all__ = ["OnlineEvaluator", "degree_entropy"]


def degree_entropy(degrees: np.ndarray) -> float:
    """Shannon entropy (nats) of the degree distribution.

    The one formula both the incremental path and the fresh-recompute
    twin call, so identical integer degree vectors give identical floats.
    Returns 0.0 for an edgeless graph.
    """
    total = int(degrees.sum())
    if total == 0:
        return 0.0
    p = degrees[degrees > 0].astype(np.float64) / np.float64(total)
    return float(-(p * np.log(p)).sum())


def _same_label_count(labels: Optional[np.ndarray], keys: np.ndarray, n: int) -> int:
    """How many of the canonical ``keys`` join same-label endpoints."""
    if labels is None or not keys.shape[0]:
        return 0
    nn = np.int64(n)
    return int((labels[keys // nn] == labels[keys % nn]).sum())


def _degree_increment(keys: np.ndarray, n: int) -> np.ndarray:
    """Per-node degree contribution of the canonical ``keys``."""
    if not keys.shape[0]:
        return np.zeros(n, dtype=np.int64)
    nn = np.int64(n)
    ends = np.concatenate([keys // nn, keys % nn])
    return np.bincount(ends, minlength=n).astype(np.int64)


class OnlineEvaluator:
    """Sliding-window metric maintenance over a churn stream."""

    def __init__(
        self,
        graph: Graph,
        window: int = 32,
        model=None,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self.model = model
        self.mask = mask
        self._n = graph.num_nodes
        self._labels = graph.labels
        self._features = graph.features
        # Exact integer state, maintained incrementally from net keys.
        keys = graph.edge_keys()
        self._num_edges = int(keys.shape[0])
        self._same = _same_label_count(self._labels, keys, self._n)
        self._degrees = _degree_increment(keys, self._n)
        # The ring: (record, edge_keys at record time).  Edge-key arrays
        # are shared with the live graphs (graphs are immutable), so the
        # ring holds references, not copies.
        self._ring: Deque[Tuple[Dict[str, float], np.ndarray]] = deque(
            maxlen=self.window
        )

    # ------------------------------------------------------------------
    def observe(
        self,
        graph: Graph,
        added_keys: Optional[np.ndarray] = None,
        removed_keys: Optional[np.ndarray] = None,
    ) -> Dict[str, float]:
        """Record the graph after one applied batch.

        ``added_keys``/``removed_keys`` are the batch's *net* canonical
        keys (a :class:`~repro.stream.engine.ChurnReport` provides them);
        when given, the integer state updates in ``O(|edit|)``.  Omitted,
        the state is rebuilt from the graph — the cold-start path.
        """
        if added_keys is None or removed_keys is None:
            keys = graph.edge_keys()
            self._num_edges = int(keys.shape[0])
            self._same = _same_label_count(self._labels, keys, self._n)
            self._degrees = _degree_increment(keys, self._n)
        else:
            added_keys = np.asarray(added_keys, dtype=np.int64)
            removed_keys = np.asarray(removed_keys, dtype=np.int64)
            self._num_edges += int(
                added_keys.shape[0] - removed_keys.shape[0]
            )
            self._same += _same_label_count(
                self._labels, added_keys, self._n
            ) - _same_label_count(self._labels, removed_keys, self._n)
            self._degrees = (
                self._degrees
                + _degree_increment(added_keys, self._n)
                - _degree_increment(removed_keys, self._n)
            )
        record = self._structural_record()
        if self.model is not None and self.mask is not None:
            record.update(self._model_record(graph))
        self._ring.append((record, graph.edge_keys()))
        return dict(record)

    def _structural_record(self) -> Dict[str, float]:
        """Float metrics derived from the exact integer state."""
        record = {
            "num_edges": float(self._num_edges),
            "degree_entropy": degree_entropy(self._degrees),
        }
        if self._labels is not None:
            record["homophily"] = (
                np.float64(self._same) / np.float64(self._num_edges)
                if self._num_edges
                else 0.0
            )
        return record

    def _model_record(self, graph: Graph) -> Dict[str, float]:
        from ..gnn import evaluate

        acc, loss = evaluate(self.model, graph, self.mask)
        return {"acc": float(acc), "loss": float(loss)}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def records(self) -> List[Dict[str, float]]:
        """The window's records, oldest first (copies)."""
        return [dict(rec) for rec, _ in self._ring]

    def window_metrics(self) -> Dict[str, float]:
        """Mean of every metric over the current window."""
        return self._aggregate([rec for rec, _ in self._ring])

    @staticmethod
    def _aggregate(records: List[Dict[str, float]]) -> Dict[str, float]:
        """The one aggregation both sides of the parity check run."""
        if not records:
            return {}
        out: Dict[str, float] = {"events": float(len(records))}
        for name in records[0]:
            vals = np.asarray(
                [rec[name] for rec in records], dtype=np.float64
            )
            out[f"{name}_mean"] = float(vals.mean())
            out[f"{name}_last"] = float(vals[-1])
        return out

    # ------------------------------------------------------------------
    def recompute_window(self) -> Dict[str, float]:
        """Full-recompute twin: rebuild each record from a fresh graph.

        Every ring entry's edge keys become a brand-new, fully validated
        :class:`Graph` (no delta, no caches); all metrics are recomputed
        from scratch and aggregated with the same code as
        :meth:`window_metrics`.
        """
        records: List[Dict[str, float]] = []
        for _, keys in self._ring:
            n = np.int64(self._n)
            pairs = np.stack([keys // n, keys % n], axis=1)
            fresh = Graph(
                self._n, pairs, features=self._features, labels=self._labels
            )
            fresh_keys = fresh.edge_keys()
            rec = {
                "num_edges": float(fresh_keys.shape[0]),
                "degree_entropy": degree_entropy(
                    _degree_increment(fresh_keys, self._n)
                ),
            }
            if self._labels is not None:
                same = _same_label_count(self._labels, fresh_keys, self._n)
                rec["homophily"] = (
                    np.float64(same) / np.float64(fresh_keys.shape[0])
                    if fresh_keys.shape[0]
                    else 0.0
                )
            if self.model is not None and self.mask is not None:
                from ..gnn import evaluate

                acc, loss = evaluate(self.model, fresh, self.mask)
                rec.update({"acc": float(acc), "loss": float(loss)})
            records.append(rec)
        return self._aggregate(records)

    def verify(self) -> Dict[str, float]:
        """Assert the window aggregates are byte-identical to the
        full-recompute twin; returns the (verified) aggregates."""
        online = self.window_metrics()
        fresh = self.recompute_window()
        assert set(online) == set(fresh), (set(online), set(fresh))
        for name, value in online.items():
            assert value == fresh[name] and np.float64(value).tobytes() == (
                np.float64(fresh[name]).tobytes()
            ), (name, value, fresh[name])
        return online
