"""Spatio-temporal extension of GraphRARE (the paper's future work).

The conclusion names "extending GraphRARE to incorporate multi-modal
graphs or spatial-temporal graphs" as future work.  This module implements
the spatial-temporal direction for discrete-time snapshot sequences:

* a **temporal graph** is a list of snapshots over a fixed node set whose
  edge set drifts over time (features and labels are static, as in the
  discrete-time node-classification setting);
* the node relative entropy is computed per snapshot — the *feature*
  entropy is shared (features are static) while the *structural* entropy
  tracks each snapshot's degree profiles;
* one RARE loop runs per snapshot, warm-starting the GNN from the previous
  snapshot (the temporal analogue of co-training), and the reported
  accuracy is measured on the final snapshot's optimised topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..datasets.synthetic import DatasetSpec, build_synthetic_graph, sample_edges
from ..graph import Graph, Split, homophily_ratio
from .config import RareConfig
from .framework import GraphRARE, RareResult


def drifting_snapshots(
    spec: DatasetSpec,
    num_snapshots: int = 3,
    drift: float = 0.2,
    seed: int = 0,
) -> List[Graph]:
    """A synthetic temporal graph: edges drift, features/labels are static.

    Each step resamples a ``drift`` fraction of the edges with the same
    homophily target, so consecutive snapshots overlap by ``1 - drift``.

    Every later snapshot is derived from the base by functional
    ``remove_edges``/``add_edges`` edits, so it carries ONE collapsed
    :class:`~repro.graph.graph.GraphDelta` against ``snapshots[0]`` —
    the invariant the streaming engine relies on (a snapshot with an
    *empty* drift step is the base graph itself, and duplicate resampled
    edges collapse into the set).
    """
    if not 0.0 <= drift <= 1.0:
        raise ValueError(f"drift must be in [0, 1], got {drift}")
    if num_snapshots < 1:
        raise ValueError(f"num_snapshots must be >= 1, got {num_snapshots}")
    rng = np.random.default_rng(seed)
    base = build_synthetic_graph(spec, seed=seed)
    base_edges = set(base.edges)
    snapshots = [base]
    current = set(base.edges)
    for _ in range(num_snapshots - 1):
        keep = {
            e for e in current if rng.random() > drift
        }
        needed = spec.num_edges - len(keep)
        fresh = sample_edges(
            base.labels, needed + len(keep), spec.homophily, rng,
            degree_sigma=spec.degree_sigma,
            class_degree_spread=spec.class_degree_spread,
        )
        merged = set(keep)
        for e in fresh:
            if len(merged) >= spec.num_edges:
                break
            merged.add(e)
        current = merged
        # Chain from the base so the snapshot is base + one collapsed
        # delta (features/labels shared by construction).
        removes = sorted(base_edges - current)
        adds = sorted(current - base_edges)
        snap = base
        if removes:
            snap = snap.remove_edges(np.asarray(removes, dtype=np.int64))
        if adds:
            snap = snap.add_edges(np.asarray(adds, dtype=np.int64))
        snapshots.append(snap)
    return snapshots


@dataclass
class TemporalRareResult:
    """Outcome of a temporal GraphRARE run."""

    test_acc: float
    baseline_test_acc: float
    per_snapshot: List[RareResult] = field(default_factory=list)

    @property
    def homophily_curve(self) -> List[float]:
        """Optimised homophily ratio per snapshot."""
        return [r.optimized_homophily for r in self.per_snapshot]

    @property
    def improvement(self) -> float:
        """Accuracy gain over the plain backbone (test minus baseline)."""
        return self.test_acc - self.baseline_test_acc


class TemporalGraphRARE:
    """GraphRARE over a sequence of graph snapshots.

    Runs the single-graph framework per snapshot; the features, labels and
    split stay fixed while the topology evolves.  Reported metrics come
    from the final snapshot — the usual temporal node-classification
    protocol (classify at the latest time step).
    """

    def __init__(self, backbone: str = "gcn", config: Optional[RareConfig] = None):
        self.backbone = backbone
        self.config = config or RareConfig()

    def fit(
        self, snapshots: Sequence[Graph], split: Split,
    ) -> TemporalRareResult:
        """One RARE loop per snapshot, warm-starting each snapshot's
        co-training from the previous snapshot's co-trained backbone
        (the temporal analogue of co-training; the baseline and the
        final per-snapshot evaluation models stay fresh)."""
        if not snapshots:
            raise ValueError("need at least one snapshot")
        num_nodes = snapshots[0].num_nodes
        for snap in snapshots[1:]:
            if snap.num_nodes != num_nodes:
                raise ValueError("all snapshots must share the node set")

        per_snapshot: List[RareResult] = []
        warm = None
        for t, snap in enumerate(snapshots):
            # Only the final snapshot needs the baseline comparison.
            is_last = t == len(snapshots) - 1
            rare = GraphRARE(self.backbone, self.config)
            result = rare.fit(
                snap, split, train_baseline=is_last, initial_model=warm
            )
            warm = result.co_trained_model
            per_snapshot.append(result)

        final = per_snapshot[-1]
        return TemporalRareResult(
            test_acc=final.test_acc,
            baseline_test_acc=final.baseline_test_acc,
            per_snapshot=per_snapshot,
        )
