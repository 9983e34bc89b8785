"""Analysis utilities for optimised topologies.

The paper's Sec. V-I studies *what* the rewiring did (homophily ratios,
density observations); this module packages those diagnostics: edit
statistics, class alignment of added/removed edges, and per-node edit
histograms — the data behind Fig. 7-style claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..graph import Graph, homophily_ratio


@dataclass(frozen=True)
class RewiringAnalysis:
    """Diagnostics comparing an optimised topology against the original."""

    num_added: int
    num_removed: int
    added_same_class_frac: float
    """Fraction of the added edges that connect same-label endpoints
    (higher is better — new edges should be homophilic)."""
    removed_cross_class_frac: float
    """Fraction of the removed edges that connected different labels
    (higher is better — removed edges should have been noise)."""
    original_homophily: float
    optimized_homophily: float
    per_node_added: np.ndarray
    per_node_removed: np.ndarray

    @property
    def homophily_gain(self) -> float:
        """Edge homophily of the rewired graph minus the original's."""
        return self.optimized_homophily - self.original_homophily

    @property
    def edit_distance(self) -> int:
        """Edges added plus edges removed."""
        return self.num_added + self.num_removed

    def summary(self) -> str:
        """The four-line edit report ``repro rewire`` prints."""
        lines = [
            f"edges added      : {self.num_added} "
            f"({100 * self.added_same_class_frac:.0f}% same-class)",
            f"edges removed    : {self.num_removed} "
            f"({100 * self.removed_cross_class_frac:.0f}% cross-class)",
            f"homophily        : {self.original_homophily:.3f} -> "
            f"{self.optimized_homophily:.3f} ({self.homophily_gain:+.3f})",
            f"max edits at node: +{int(self.per_node_added.max(initial=0))} / "
            f"-{int(self.per_node_removed.max(initial=0))}",
        ]
        return "\n".join(lines)


def analyze_rewiring(original: Graph, optimized: Graph) -> RewiringAnalysis:
    """Compare two topologies over the same node set."""
    if original.num_nodes != optimized.num_nodes:
        raise ValueError(
            f"graphs have different node counts: "
            f"{original.num_nodes} vs {optimized.num_nodes}"
        )
    if original.labels is None:
        raise ValueError("rewiring analysis requires node labels")
    labels = original.labels

    added = optimized.edges - original.edges
    removed = original.edges - optimized.edges

    def same_class_frac(edges) -> float:
        if not edges:
            return 0.0
        pairs = np.array(sorted(edges))
        return float((labels[pairs[:, 0]] == labels[pairs[:, 1]]).mean())

    n = original.num_nodes
    per_added = np.zeros(n, dtype=np.int64)
    per_removed = np.zeros(n, dtype=np.int64)
    for u, v in added:
        per_added[u] += 1
        per_added[v] += 1
    for u, v in removed:
        per_removed[u] += 1
        per_removed[v] += 1

    return RewiringAnalysis(
        num_added=len(added),
        num_removed=len(removed),
        added_same_class_frac=same_class_frac(added),
        removed_cross_class_frac=1.0 - same_class_frac(removed) if removed else 0.0,
        original_homophily=homophily_ratio(original),
        optimized_homophily=homophily_ratio(optimized),
        per_node_added=per_added,
        per_node_removed=per_removed,
    )


def degree_change_report(original: Graph, optimized: Graph) -> Dict[str, float]:
    """Aggregate degree statistics before and after rewiring."""
    before = original.degrees()
    after = optimized.degrees()
    return {
        "mean_degree_before": float(before.mean()),
        "mean_degree_after": float(after.mean()),
        "max_degree_before": int(before.max()),
        "max_degree_after": int(after.max()),
        "isolated_before": int((before == 0).sum()),
        "isolated_after": int((after == 0).sum()),
    }
