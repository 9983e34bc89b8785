"""The GNN backbones: MLP, GCN, GraphSAGE, GAT, H2GCN and MixHop.

Each follows the layer equations of the cited original papers (Sec. IV-C
adopts the backbones unchanged: the RARE framework only alters the graph
they run on).  All models default to two propagation layers, hidden width
64 and dropout 0.5, matching the paper's hyper-parameter setting (Sec. V-C).

MLP, GCN, GAT and H2GCN are declared ``projection_first``: their forward
applies only dropout and a first ``Linear`` to the raw features, so on
wide, sparse features they receive the CSR operand of
:func:`~repro.gnn.base.features_tensor`.  GraphSAGE and MixHop propagate
the raw features themselves and always take them dense.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, gcn_norm, row_norm, two_hop_adjacency
from ..nn import MLP, Dropout, Linear
from ..tensor import Tensor, ops
from .base import GNNBackbone, cached_matrix


class MLPClassifier(GNNBackbone):
    """Attribute-only baseline: ignores the topology entirely."""

    projection_first = True

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        dropout: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(in_features, num_classes)
        rng = rng or np.random.default_rng(0)
        self.net = MLP(in_features, [hidden], num_classes, rng, dropout=dropout)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        return self.net(x)


class GCN(GNNBackbone):
    """Kipf-Welling graph convolution: ``H' = relu(Â H W)`` with
    ``Â = D^{-1/2}(A + I)D^{-1/2}``."""

    projection_first = True

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        dropout: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(in_features, num_classes)
        rng = rng or np.random.default_rng(0)
        self.lin1 = Linear(in_features, hidden, rng)
        self.lin2 = Linear(hidden, num_classes, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        a_hat = cached_matrix(graph, "gcn_norm", gcn_norm)
        h = self.dropout(x)
        h = ops.relu(ops.spmm(a_hat, self.lin1(h)))
        h = self.dropout(h)
        return ops.spmm(a_hat, self.lin2(h))


class GraphSAGE(GNNBackbone):
    """GraphSAGE with the mean aggregator:
    ``h' = relu(W_self h + W_neigh mean_{u in N(v)} h_u)``."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        dropout: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(in_features, num_classes)
        rng = rng or np.random.default_rng(0)
        self.self1 = Linear(in_features, hidden, rng)
        self.neigh1 = Linear(in_features, hidden, rng, bias=False)
        self.self2 = Linear(hidden, num_classes, rng)
        self.neigh2 = Linear(hidden, num_classes, rng, bias=False)
        self.dropout = Dropout(dropout, rng)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        mean_adj = cached_matrix(graph, "row_norm", row_norm)
        h = self.dropout(x)
        h = ops.relu(self.self1(h) + self.neigh1(ops.spmm(mean_adj, h)))
        h = self.dropout(h)
        return self.self2(h) + self.neigh2(ops.spmm(mean_adj, h))


class GATLayer(GNNBackbone):
    """One multi-head additive-attention layer (Velickovic et al.)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        heads: int,
        rng: np.random.Generator,
        concat: bool = True,
        negative_slope: float = 0.2,
    ) -> None:
        super().__init__(in_features, out_features)
        self.heads = heads
        self.concat = concat
        self.negative_slope = negative_slope
        self.linear = Linear(in_features, heads * out_features, rng, bias=False)
        self.att_src = Linear(out_features, 1, rng, bias=False)
        self.att_dst = Linear(out_features, 1, rng, bias=False)
        self.out_features = out_features

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        n = graph.num_nodes
        edge_index = cached_matrix(
            graph, "edge_index_loops", _edge_index_with_self_loops
        )
        src, dst = edge_index

        h = self.linear(x)  # (n, heads*out)
        outputs = []
        for head in range(self.heads):
            cols = slice(head * self.out_features, (head + 1) * self.out_features)
            head_h = _slice_cols(h, cols)
            alpha_src = self.att_src(head_h)  # (n, 1)
            alpha_dst = self.att_dst(head_h)
            logits = ops.leaky_relu(
                ops.gather_rows(alpha_src, src) + ops.gather_rows(alpha_dst, dst),
                self.negative_slope,
            )
            att = ops.segment_softmax(logits, dst, n)  # (E, 1)
            messages = ops.gather_rows(head_h, src) * att
            outputs.append(ops.scatter_add_rows(messages, dst, n))
        if self.concat:
            return ops.concat(outputs, axis=1)
        total = outputs[0]
        for o in outputs[1:]:
            total = total + o
        return total * (1.0 / self.heads)


def _slice_cols(x: Tensor, cols: slice) -> Tensor:
    """Differentiable column slice (head / block selection)."""
    return ops.gather_cols(x, cols)


def _edge_index_with_self_loops(graph: Graph) -> np.ndarray:
    ei = graph.edge_index()
    loops = np.arange(graph.num_nodes)
    return np.hstack([ei, np.vstack([loops, loops])])


class GAT(GNNBackbone):
    """Two-layer GAT: multi-head concat, then single-head output layer."""

    projection_first = True

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        heads: int = 4,
        dropout: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(in_features, num_classes)
        rng = rng or np.random.default_rng(0)
        head_dim = max(1, hidden // heads)
        self.layer1 = GATLayer(in_features, head_dim, heads, rng, concat=True)
        self.layer2 = GATLayer(head_dim * heads, num_classes, 1, rng, concat=False)
        self.dropout = Dropout(dropout, rng)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        h = self.dropout(x)
        h = ops.elu(self.layer1(graph, h))
        h = self.dropout(h)
        return self.layer2(graph, h)


class H2GCN(GNNBackbone):
    """H2GCN (Zhu et al., NeurIPS 2020), with its three designs:

    1. ego / neighbour embedding separation (no self-loops in aggregation),
    2. aggregation over both 1-hop and strict 2-hop neighbourhoods,
    3. final concatenation of all intermediate representations.
    """

    projection_first = True

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        rounds: int = 2,
        dropout: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(in_features, num_classes)
        rng = rng or np.random.default_rng(0)
        self.rounds = rounds
        self.embed = Linear(in_features, hidden, rng)
        # Each round triples the width (prev || A1 prev || A2 prev).
        final_dim = hidden * sum(2**i for i in range(rounds + 1))
        self.classify = Linear(final_dim, num_classes, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        a1 = cached_matrix(
            graph, "h2gcn_a1", lambda g: gcn_norm(g, add_self_loops=False)
        )
        a2 = cached_matrix(graph, "h2gcn_a2", _normalized_two_hop)

        h = ops.relu(self.embed(self.dropout(x)))
        reps = [h]
        current = h
        for _ in range(self.rounds):
            current = ops.concat(
                [ops.spmm(a1, current), ops.spmm(a2, current)], axis=1
            )
            reps.append(current)
        final = ops.concat(reps, axis=1)
        return self.classify(self.dropout(final))


def _normalized_two_hop(graph: Graph):
    import scipy.sparse as sp

    # Built transiently: the raw A @ A matrix is not worth retaining next
    # to the normalized "h2gcn_a2" cache.
    two = two_hop_adjacency(graph)
    deg = np.asarray(two.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = deg[nz] ** -0.5
    d_half = sp.diags(inv_sqrt)
    return (d_half @ two @ d_half).tocsr()


class MixHop(GNNBackbone):
    """MixHop (Abu-El-Haija et al., ICML 2019): each layer concatenates
    propagations by adjacency powers ``Â^0, Â^1, Â^2``."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        dropout: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(in_features, num_classes)
        rng = rng or np.random.default_rng(0)
        width = max(1, hidden // 3)
        self.hop_linears1 = [Linear(in_features, width, rng) for _ in range(3)]
        self.hop_linears2 = [Linear(3 * width, num_classes, rng) for _ in range(3)]
        self.dropout = Dropout(dropout, rng)

    def _mix(self, graph: Graph, h: Tensor, linears) -> Tensor:
        a_hat = cached_matrix(graph, "gcn_norm", gcn_norm)
        pieces = []
        propagated = h
        for power, lin in enumerate(linears):
            if power > 0:
                propagated = ops.spmm(a_hat, propagated)
            pieces.append(lin(propagated))
        return ops.concat(pieces, axis=1)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        h = ops.relu(self._mix(graph, self.dropout(x), self.hop_linears1))
        out = self._mix(graph, self.dropout(h), self.hop_linears2)
        # Average the three output blocks into class logits.
        n_cls = self.num_classes
        blocks = [
            _slice_cols(out, slice(i * n_cls, (i + 1) * n_cls)) for i in range(3)
        ]
        total = blocks[0]
        for b in blocks[1:]:
            total = total + b
        return total * (1.0 / 3.0)


BACKBONES = {
    "mlp": MLPClassifier,
    "gcn": GCN,
    "graphsage": GraphSAGE,
    "gat": GAT,
    "h2gcn": H2GCN,
    "mixhop": MixHop,
}


def build_backbone(
    name: str,
    in_features: int,
    num_classes: int,
    hidden: int = 64,
    dropout: float = 0.5,
    rng: np.random.Generator | None = None,
) -> GNNBackbone:
    """Instantiate a backbone by name (case-insensitive)."""
    try:
        cls = BACKBONES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown backbone {name!r}; choose from {sorted(BACKBONES)}"
        ) from None
    return cls(in_features, num_classes, hidden=hidden, dropout=dropout, rng=rng)
