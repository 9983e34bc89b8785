"""The sparse-feature first layer (``repro.gnn.base.features_tensor``).

Projection-first backbones (MLP, GCN, GAT, H2GCN) take wide, sparse
features as one memoised CSR matrix: dropout masks its nonzeros and the
first ``Linear`` projects it through ``ops.spmm``.  The contract pinned
here (``docs/equivalence-policy.md``, "Sparse-feature input"):

* given the same dropout mask, logits and first-layer weight gradients
  are float64-allclose to the dense path;
* every exactness contract that compares two evaluations of the *same*
  operand stays bitwise — the env's ``num_envs = 1`` rewards vs direct
  ``evaluate`` scoring, bundle-loaded vs in-RAM logits;
* narrow or dense features, and GraphSAGE / MixHop, never see the CSR
  operand; a fit converts its features once.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import GraphRARE, RareConfig, TopologyEnv, rewire_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences
from repro.gnn import (
    GCN,
    Trainer,
    build_backbone,
    evaluate,
    features_tensor,
)
from repro.graph import Graph, random_split
from repro.graph.storage import load_graph_bundle, save_graph_bundle
from repro.nn import Dropout, cross_entropy
from repro.tensor import Tensor
from repro.tensor import sparse as tensor_sparse
from repro.tensor.sparse import SPARSE_MAX_DENSITY, SPARSE_MIN_WIDTH

from ..sparse_graphs import wide_sparse_graph

PROJECTION_FIRST = ("mlp", "gcn", "gat", "h2gcn")


def make_model(name, graph, seed=0):
    return build_backbone(
        name, graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(seed),
    )


# ---------------------------------------------------------------------------
# Operand selection
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", PROJECTION_FIRST)
def test_projection_first_backbones_get_csr(name):
    g = wide_sparse_graph()
    x = features_tensor(g, make_model(name, g))
    assert sp.isspmatrix_csr(x)
    np.testing.assert_array_equal(x.toarray(), g.features)


@pytest.mark.parametrize("name", ["graphsage", "mixhop"])
def test_propagate_first_backbones_stay_dense(name):
    g = wide_sparse_graph()
    x = features_tensor(g, make_model(name, g))
    assert isinstance(x, Tensor)


def test_narrow_or_dense_features_stay_dense():
    narrow = wide_sparse_graph(num_features=SPARSE_MIN_WIDTH - 1)
    dense = wide_sparse_graph(density=min(1.0, 3 * SPARSE_MAX_DENSITY))
    for g in (narrow, dense):
        assert isinstance(features_tensor(g, make_model("gcn", g)), Tensor)


def test_no_model_and_undeclared_subclass_stay_dense():
    """``projection_first`` is not inherited: a subclass may override
    ``forward`` in a way that needs dense features."""

    class MyGCN(GCN):
        pass

    g = wide_sparse_graph()
    assert isinstance(features_tensor(g), Tensor)
    model = MyGCN(g.num_features, g.num_classes, hidden=8)
    assert isinstance(features_tensor(g, model), Tensor)


def test_csr_memoised_per_feature_array():
    g = wide_sparse_graph()
    rewired = g.add_edges([(0, g.num_nodes - 1)])
    assert rewired.features is g.features
    model = make_model("gcn", g)
    assert features_tensor(g, model) is features_tensor(rewired, model)
    copy = Graph._from_keys(
        g.num_nodes, g.edge_keys(), g.features.copy(), g.labels
    )
    assert features_tensor(copy, model) is not features_tensor(g, model)


def test_fit_converts_features_once(monkeypatch):
    """One conversion of the features (the GNN operand) and one of the
    entropy embedding (its Gram blocks) per fit."""
    calls = []
    real = tensor_sparse._to_csr

    def counting(features):
        calls.append(features)
        return real(features)

    monkeypatch.setattr(tensor_sparse, "_to_csr", counting)
    g = wide_sparse_graph(num_nodes=40, seed=3)
    split = random_split(g.labels, np.random.default_rng(0))
    config = RareConfig(
        episodes=1, horizon=2, k_max=2, d_max=2, max_candidates=4,
        final_epochs=3, final_patience=3, co_train_epochs=1,
        co_train_patience=1, seed=0,
    )
    GraphRARE("gcn", config).fit(g, split)
    assert len(calls) == 2
    assert sum(x is g.features for x in calls) == 1


# ---------------------------------------------------------------------------
# CSR vs dense, given the same dropout mask
# ---------------------------------------------------------------------------
class _SharedMaskRng:
    """Serves one feature-dropout draw either as the dense ``(N, F)``
    array or as its values at the stored nonzeros (the CSR draw);
    every other draw comes from a seeded generator."""

    def __init__(self, features, seed):
        self.dense = np.random.default_rng(seed).random(features.shape)
        self.at_nnz = self.dense[sp.csr_matrix(features).nonzero()]
        self.rest = np.random.default_rng(seed + 1)

    def random(self, shape):
        shape = tuple(np.atleast_1d(shape))
        if shape == self.dense.shape:
            return self.dense
        if shape == self.at_nnz.shape:
            return self.at_nnz
        return self.rest.random(shape)


def _first_weight(model):
    for attr in ("lin1", "embed"):
        if hasattr(model, attr):
            return getattr(model, attr).weight
    if hasattr(model, "layer1"):
        return model.layer1.linear.weight
    return model.net.layers[0].weight


def _train_forward(model, graph, x, seed):
    rng = _SharedMaskRng(graph.features, seed)
    for module in model.modules():
        if isinstance(module, Dropout):
            module._rng = rng
    model.train()
    model.zero_grad()
    logits = model(graph, x)
    cross_entropy(logits, graph.labels, np.arange(0, graph.num_nodes, 2)).backward()
    return logits.data, _first_weight(model).grad.copy()


@pytest.mark.parametrize("name", PROJECTION_FIRST)
def test_csr_matches_dense_given_same_mask(name):
    g = wide_sparse_graph()
    sparse_model = make_model(name, g)
    dense_model = make_model(name, g)
    x = features_tensor(g, sparse_model)
    assert sp.isspmatrix_csr(x)
    logits_s, grad_s = _train_forward(sparse_model, g, x, seed=4)
    logits_d, grad_d = _train_forward(dense_model, g, Tensor(g.features), seed=4)
    np.testing.assert_allclose(logits_s, logits_d, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(grad_s, grad_d, rtol=0.0, atol=1e-12)
    # Eval mode: dropout is the identity on both operands.
    np.testing.assert_allclose(
        sparse_model.predict_logits(g),
        dense_model.eval()(g, Tensor(g.features)).data,
        rtol=0.0, atol=1e-12,
    )


def test_sparse_dropout_draws_one_value_per_nonzero():
    g = wide_sparse_graph()
    model = make_model("gcn", g)
    x = features_tensor(g, model)
    draws = []

    class Recording:
        def random(self, shape):
            draws.append(tuple(np.atleast_1d(shape)))
            return np.random.default_rng(0).random(shape)

    model.dropout._rng = Recording()
    model.train()
    model(g, x)
    assert draws[0] == (x.nnz,)


# ---------------------------------------------------------------------------
# Bitwise contracts on a wide sparse graph
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    g = wide_sparse_graph(num_nodes=120, mean_degree=2.5, seed=1)
    entropy = RelativeEntropy.from_graph(g, lam=1.0)
    sequences = build_entropy_sequences(g, entropy, max_candidates=6)
    split = random_split(g.labels, np.random.default_rng(0))
    return g, sequences, split


def _env_parts(world):
    g, seqs, split = world
    config = RareConfig(k_max=4, d_max=4, max_candidates=6, horizon=3)
    model = make_model("gcn", g)
    return g, seqs, model, Trainer(model, lr=0.05), split, config


def test_vec_env_b1_bitwise_vs_sequential(world):
    """At ``num_envs = 1`` the env scores each step on the CSR operand:
    its per-step score, loss and reward are bitwise those of
    ``evaluate`` on the rewired graphs one by one."""
    env = TopologyEnv(*_env_parts(world), co_train=False)
    assert sp.isspmatrix_csr(features_tensor(env.base_graph, env.model))
    g, seqs, split = world
    prev = evaluate(env.model, g, split.train)
    rng = np.random.default_rng(3)
    k = np.zeros(g.num_nodes, dtype=np.int64)
    d = np.zeros(g.num_nodes, dtype=np.int64)
    for _ in range(2):  # inside one episode (horizon 3)
        action = rng.integers(0, 3, (1, 2 * g.num_nodes))
        _, reward, _, info = env.step(action)
        k, d = env.k[0].copy(), env.d[0].copy()
        graph = rewire_graph(g, seqs, k, d)
        score, loss = evaluate(env.model, graph, split.train)
        assert (info[0]["train_score"], info[0]["train_loss"]) == (score, loss)
        assert reward[0] == (score - prev[0]) + (prev[1] - loss)
        prev = (score, loss)


def test_bundle_base_state_bitwise_vs_in_ram(world, tmp_path):
    """A bundle-loaded graph's eval-mode logits are bitwise the in-RAM
    graph's, on the CSR feature operand."""
    g = world[0]
    path = str(tmp_path / "bundle")
    save_graph_bundle(g, path)
    mg = load_graph_bundle(path)
    model = make_model("gcn", g, seed=5)
    assert sp.isspmatrix_csr(features_tensor(mg, model))
    assert model.predict_logits(mg).tobytes() == (
        model.predict_logits(g).tobytes()
    )
