"""A residual / jumping-knowledge backbone built on a custom ``Function``.

This example combines the repository's two public extension points:

1. :class:`repro.tensor.Function` — a custom differentiable op.
   ``SpmmResidual`` fuses the residual aggregation ``A h + h`` into one
   node of the autograd graph; its forward and backward are plain
   numpy/scipy, and under an enabled telemetry session both are timed
   into ``op.SpmmResidual.fwd_s`` / ``.bwd_s`` like every built-in op.
2. :class:`repro.gnn.HaloPlan` — the incremental halo engine.  The
   backbone keeps *jumping-knowledge* skip connections (the classifier
   reads the concatenation of both hidden layers), and the plan shows
   that skips cost nothing extra: the residual ego term keeps every row
   dependent on itself, so the reachable set per propagation round is
   still ``rows ∪ N_new(rows)`` and the JK concat's halo is just the
   union of the per-layer halos — which the second round already covers.

Usage:  python examples/residual_halo_plan.py
"""

import numpy as np

from repro import GraphRARE, RareConfig, geom_gcn_splits, load_dataset
from repro.gnn import (
    GNNBackbone,
    HaloPlan,
    IncrementalEvaluator,
    cached_matrix,
    patched_adjacency,
)
from repro.gnn.models import BACKBONES
from repro.graph import Graph
from repro.nn import Dropout, Linear
from repro.tensor import Function, Tensor, gradcheck, ops


# ---------------------------------------------------------------------------
# 1. The custom op
# ---------------------------------------------------------------------------
class SpmmResidual(Function):
    """Residual sparse aggregation ``A @ x + x`` as one custom op.

    Graph-level constants (the sparse matrix) travel through ``__init__``;
    only differentiable arrays go through ``__call__``.  The backward of
    ``x -> A x + x`` is ``g -> A^T g + g``.
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsr()
        self._transposed = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.matrix @ x) + x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._transposed is None:
            self._transposed = self.matrix.T.tocsr()
        return np.asarray(self._transposed @ grad) + grad


def spmm_residual(matrix, x) -> Tensor:
    """Functional wrapper — one ``SpmmResidual`` instance per call."""
    return SpmmResidual(matrix)(x)


# ---------------------------------------------------------------------------
# 2. The backbone
# ---------------------------------------------------------------------------
class ResidualJKGCN(GNNBackbone):
    """Two residual sum-aggregation layers + a jumping-knowledge head.

    ``h_l = relu((A h_{l-1} + h_{l-1}) W_l)`` and the classifier reads
    ``[h_1 || h_2]`` — layer outputs "jump" straight to the head, so
    shallow structure is never washed out by the deeper rounds.
    """

    def __init__(self, in_features, num_classes, hidden=64, dropout=0.5,
                 rng=None):
        super().__init__(in_features, num_classes)
        rng = rng or np.random.default_rng(0)
        self.lin1 = Linear(in_features, hidden, rng=rng)
        self.lin2 = Linear(hidden, hidden, rng=rng)
        self.head = Linear(2 * hidden, num_classes, rng=rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        adj = cached_matrix(graph, "adjacency", lambda g: g.adjacency())
        h = self.dropout(x)
        h1 = ops.relu(self.lin1(spmm_residual(adj, h)))
        h2 = ops.relu(self.lin2(spmm_residual(adj, self.dropout(h1))))
        return self.head(ops.concat([h1, h2], axis=1))


def _linear_rows(layer: Linear, rows: np.ndarray) -> np.ndarray:
    """Row-local numpy twin of :class:`repro.nn.Linear` (eval mode)."""
    return rows @ layer.weight.data + layer.bias.data


# ---------------------------------------------------------------------------
# 3. The halo plan
# ---------------------------------------------------------------------------
class ResidualJKPlan(HaloPlan):
    """Halo plan for :class:`ResidualJKGCN`.

    The raw adjacency has no degree normalisation, so a rewire dirties
    exactly the touched endpoints ``D``; the residual term keeps each row
    self-dependent and round 2 reaches ``H = D ∪ N_new(D)``.  The JK head
    depends on ``h1`` (changed on ``D``) and ``h2`` (changed on ``H``),
    so patching the head's output on ``H ⊇ D`` covers the concat too.
    """

    matrix_keys = ("adjacency",)

    @staticmethod
    def base_state(model: ResidualJKGCN, graph: Graph) -> dict:
        adj = cached_matrix(graph, "adjacency", lambda g: g.adjacency())
        x = graph.features
        h1 = _linear_rows(model.lin1, np.asarray(adj @ x) + x)
        h1 = h1 * (h1 > 0)
        h2 = _linear_rows(model.lin2, np.asarray(adj @ h1) + h1)
        h2 = h2 * (h2 > 0)
        out = _linear_rows(model.head, np.concatenate([h1, h2], axis=1))
        return {"adj": adj, "h1": h1, "h2": h2, "out": out}

    @staticmethod
    def prepare(model: ResidualJKGCN, graph: Graph):
        delta = graph.delta
        dirty = delta.touched_nodes()
        adj_new = patched_adjacency(graph)
        halo = np.union1d(dirty, adj_new[dirty].indices)
        return dirty, halo, {"adj_new": adj_new}

    @staticmethod
    def logits(model: ResidualJKGCN, graph: Graph, state: dict,
               dirty: np.ndarray, halo: np.ndarray, ctx: dict) -> np.ndarray:
        adj_new = ctx["adj_new"]
        x = graph.features
        # Round 1: only the dirty adjacency rows change.
        h1_rows = _linear_rows(
            model.lin1, np.asarray(adj_new[dirty] @ x) + x[dirty]
        )
        h1 = state["h1"].copy()
        h1[dirty] = h1_rows * (h1_rows > 0)
        # Round 2 reaches one hop further through the patched adjacency.
        h2_rows = _linear_rows(
            model.lin2, np.asarray(adj_new[halo] @ h1) + h1[halo]
        )
        h2_rows = h2_rows * (h2_rows > 0)
        # Jumping knowledge: the head sees both layers, restricted to H.
        out = state["out"].copy()
        out[halo] = _linear_rows(
            model.head, np.concatenate([h1[halo], h2_rows], axis=1)
        )
        return out


ResidualJKGCN.halo_plan = ResidualJKPlan


# ---------------------------------------------------------------------------
def main() -> None:
    rng = np.random.default_rng(0)

    # The custom op is a first-class autograd citizen: gradcheck it like
    # any built-in (the sparse matrix is a constant, x the variable).
    import scipy.sparse as sp

    a = sp.random(6, 6, density=0.4, random_state=0, format="csr")
    assert gradcheck(lambda x: spmm_residual(a, x), [rng.normal(size=(6, 3))])
    print("gradcheck(SpmmResidual)  : ok")

    BACKBONES["residual-jk"] = ResidualJKGCN
    graph = load_dataset("texas", scale=0.6, seed=0)
    split = geom_gcn_splits(graph, num_splits=1, seed=0)[0]

    config = RareConfig(
        k_max=5, d_max=5, max_candidates=10, episodes=4, horizon=5, seed=0,
        incremental_reward=True,  # rewards flow through ResidualJKPlan
    )
    result = GraphRARE("residual-jk", config).fit(graph, split)

    # Spot-check the plan's equivalence contract on the discovered graph.
    model = ResidualJKGCN(graph.num_features, graph.num_classes, hidden=16,
                          rng=np.random.default_rng(1))
    rewired = result.optimized_graph
    if rewired.delta is not None and not rewired.delta.is_empty:
        inc = IncrementalEvaluator(model, graph, max_halo_frac=1.0)
        np.testing.assert_allclose(
            inc.predict_logits(rewired), model.predict_logits(rewired),
            rtol=0.0, atol=1e-12,
        )
        print("halo == dense            : ok")

    print(f"ResidualJK (plain)       : {100 * result.baseline_test_acc:.1f}%")
    print(f"ResidualJK-RARE          : {100 * result.test_acc:.1f}%")
    print(f"improvement              : {100 * result.improvement:+.1f} points")


if __name__ == "__main__":
    main()
