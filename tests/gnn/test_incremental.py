"""Tests for the incremental reward engine (repro.gnn.incremental).

Covers the three layers of the engine:

* the :class:`~repro.graph.GraphDelta` recorded by the rewiring engine,
* the delta-patched propagation matrices (bitwise equal to fresh builds,
  property-tested against random ``(k, d)`` deltas),
* the halo-restricted evaluator (full-graph logits equal to the dense
  forward within the documented float64 policy, byte-identical off the
  halo), including its fallback and invalidation behaviour and the env
  integration parity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RareConfig, TopologyEnv, clamp_state, rewire_graph
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences
from repro.gnn import (
    H2GCN,
    IncrementalEvaluator,
    Trainer,
    build_backbone,
    evaluate,
    install_propagation_caches,
    patched_adjacency,
    patched_gcn_norm,
    patched_row_norm,
    patched_two_hop,
    supports_incremental,
)
from repro.gnn.incremental import _PLANS
from repro.graph import (
    Graph,
    gcn_norm,
    random_split,
    row_norm,
    two_hop_adjacency,
)
from repro.nn import accuracy, cross_entropy, masked_metrics
from repro.tensor import Tensor

N = 36


@pytest.fixture(scope="module")
def world():
    graph = planted_partition_graph(
        num_nodes=N, homophily=0.4, feature_signal=0.4, num_features=12, seed=0
    )
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=6)
    split = random_split(graph.labels, np.random.default_rng(0))
    return graph, sequences, split


@pytest.fixture(scope="module")
def models(world):
    graph, _, split = world
    out = {}
    for name in ("gcn", "graphsage"):
        model = build_backbone(
            name, graph.num_features, graph.num_classes,
            hidden=16, rng=np.random.default_rng(3),
        )
        Trainer(model, lr=0.05).fit(graph, split, epochs=3, patience=3)
        out[name] = model
    return out


counts = st.lists(st.integers(0, 4), min_size=N, max_size=N)


def rewired(world, ks, ds, **kwargs):
    graph, seqs, _ = world
    k, d = clamp_state(np.array(ks), np.array(ds), graph, seqs, 6, 6)
    return rewire_graph(graph, seqs, k, d, **kwargs)


# ---------------------------------------------------------------------------
# GraphDelta recording
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(counts, counts)
def test_rewire_records_exact_delta(world, ks, ds):
    graph = world[0]
    out = rewired(world, ks, ds)
    delta = out.delta
    assert delta is not None and delta.base is graph
    np.testing.assert_array_equal(
        delta.added, np.setdiff1d(out.edge_keys(), graph.edge_keys())
    )
    np.testing.assert_array_equal(
        delta.removed, np.setdiff1d(graph.edge_keys(), out.edge_keys())
    )
    np.testing.assert_array_equal(
        graph.degrees() + delta.degree_changes(), out.degrees()
    )
    touched = delta.touched_nodes()
    assert touched.shape[0] == np.unique(touched).shape[0]
    if delta.num_edits:
        assert set(touched) == set(delta.edit_pairs().ravel())


def test_add_remove_edges_record_delta(world):
    graph = world[0]
    extra = graph.add_edges([(0, 1), (2, 3)])
    # Only genuinely new keys land in the delta.
    expected = np.setdiff1d(extra.edge_keys(), graph.edge_keys())
    np.testing.assert_array_equal(extra.delta.added, expected)
    assert extra.delta.removed.shape[0] == 0

    u, v = map(int, graph.edge_array()[0])
    fewer = graph.remove_edges([(u, v), (0, 0 + 1)])
    assert fewer.delta.base is graph
    assert fewer.delta.added.shape[0] == 0
    np.testing.assert_array_equal(
        fewer.delta.removed, np.setdiff1d(graph.edge_keys(), fewer.edge_keys())
    )


def test_chained_edits_collapse_to_the_root(world):
    """Iterative add/remove chains keep ONE back-reference (the root), so
    intermediates stay collectable and the evaluator stays eligible."""
    graph = world[0]
    g = graph
    for i in range(4):
        g = g.add_edges([(i, i + 10)])
        g = g.remove_edges([(i, i + 10)])
    assert g.delta.base is graph  # not the previous intermediate
    np.testing.assert_array_equal(
        g.delta.added, np.setdiff1d(g.edge_keys(), graph.edge_keys())
    )
    np.testing.assert_array_equal(
        g.delta.removed, np.setdiff1d(graph.edge_keys(), g.edge_keys())
    )
    # Rewiring a derived graph collapses too.
    _, seqs, _ = world
    k = np.zeros(N, dtype=np.int64)
    k[0] = 1
    again = rewire_graph(g, seqs, k, np.zeros(N, dtype=np.int64))
    assert again.delta.base is graph


def test_zero_state_rewire_has_empty_delta(world):
    out = rewired(world, [0] * N, [0] * N)
    assert out.delta.is_empty
    assert out.delta.touched_nodes().shape[0] == 0


# ---------------------------------------------------------------------------
# Delta-patched propagation matrices
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(counts, counts)
def test_patched_matrices_match_fresh_builds(world, ks, ds):
    """Every patched matrix is bitwise equal to a from-scratch build."""
    out = rewired(world, ks, ds)
    np.testing.assert_array_equal(
        patched_adjacency(out).toarray(), out.adjacency().toarray()
    )
    np.testing.assert_array_equal(
        patched_gcn_norm(out).toarray(), gcn_norm(out).toarray()
    )
    np.testing.assert_array_equal(
        patched_gcn_norm(
            out, add_self_loops=False, cache_key="h2gcn_a1"
        ).toarray(),
        gcn_norm(out, add_self_loops=False).toarray(),
    )
    np.testing.assert_array_equal(
        patched_row_norm(out).toarray(), row_norm(out).toarray()
    )
    np.testing.assert_array_equal(
        patched_two_hop(out).toarray(), two_hop_adjacency(out).toarray()
    )


def test_patched_matrices_handle_isolating_removals(world):
    """A node stripped of every edge (degree 0) keeps the patch exact."""
    graph = world[0]
    v = int(np.argmax(graph.degrees() > 0))
    gone = [(v, int(u)) for u in graph.neighbors(v)]
    out = graph.remove_edges(gone)
    assert out.degrees()[v] == 0
    np.testing.assert_array_equal(
        patched_gcn_norm(out).toarray(), gcn_norm(out).toarray()
    )
    np.testing.assert_array_equal(
        patched_row_norm(out).toarray(), row_norm(out).toarray()
    )
    np.testing.assert_array_equal(
        patched_two_hop(out).toarray(), two_hop_adjacency(out).toarray()
    )


def test_empty_delta_shares_base_matrices(world):
    """An edit-free rewire reuses the base matrix objects outright."""
    graph = world[0]
    out = rewired(world, [0] * N, [0] * N)
    base_mat = gcn_norm(graph)
    graph.cache["gcn_norm"] = base_mat
    assert patched_gcn_norm(out) is base_mat


def test_install_propagation_caches(world):
    out = rewired(world, [1] * N, [0] * N)
    install_propagation_caches(
        out, ("gcn_norm", "row_norm", "two_hop", "h2gcn_a1")
    )
    for key in ("gcn_norm", "row_norm", "two_hop", "h2gcn_a1"):
        assert key in out.cache
    np.testing.assert_array_equal(
        out.cache["gcn_norm"].toarray(), gcn_norm(out).toarray()
    )


def test_install_requires_delta(world):
    graph = world[0]
    plain = Graph(graph.num_nodes, graph.edge_array(), graph.features,
                  graph.labels)
    assert plain.delta is None
    with pytest.raises(ValueError, match="no GraphDelta"):
        install_propagation_caches(plain, ("gcn_norm",))


# ---------------------------------------------------------------------------
# Halo-restricted evaluation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backbone", ["gcn", "graphsage"])
@settings(max_examples=25, deadline=None)
@given(ks=counts, ds=counts)
def test_halo_logits_match_full_forward(world, models, backbone, ks, ds):
    """Exactness policy for any (k, d): allclose everywhere at float64
    resolution, byte-identical off the halo, identical argmax."""
    model = models[backbone]
    out = rewired(world, ks, ds)
    # max_halo_frac=1.0 forces the halo path whatever the edit size.
    inc = IncrementalEvaluator(model, world[0], max_halo_frac=1.0)
    fast = inc.predict_logits(out)
    ref = model.predict_logits(out)
    np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(fast.argmax(axis=-1), ref.argmax(axis=-1))
    if not out.delta.is_empty:
        assert inc.stats["halo_evals"] == 1
        _, halo, _ = _PLANS[type(model)].prepare(model, out)
        off = np.setdiff1d(np.arange(N), halo)
        np.testing.assert_array_equal(fast[off], ref[off])


@pytest.mark.parametrize("backbone", ["gcn", "graphsage"])
def test_evaluate_matches_reference_twin(world, models, backbone):
    graph, seqs, split = world
    model = models[backbone]
    inc = IncrementalEvaluator(model, graph, max_halo_frac=1.0)
    k = np.zeros(N, dtype=np.int64)
    d = np.zeros(N, dtype=np.int64)
    k[[1, 5]] = 2
    d[[7]] = 1
    k, d = clamp_state(k, d, graph, seqs, 6, 6)
    out = rewire_graph(graph, seqs, k, d)
    acc_i, loss_i = inc.evaluate(out, split.train)
    acc_f, loss_f = evaluate(model, out, split.train)
    assert abs(acc_i - acc_f) <= 1e-12
    assert abs(loss_i - loss_f) <= 1e-9


def test_masked_metrics_is_bitwise_twin_of_evaluate_ops(world):
    """Given identical logits, the numpy metric twin reproduces the
    Tensor-op cross_entropy/accuracy pair exactly."""
    graph, _, split = world
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((N, graph.num_classes))
    for mask in (split.train, np.flatnonzero(split.train)[:5]):
        acc, loss = masked_metrics(logits, graph.labels, mask)
        assert loss == cross_entropy(Tensor(logits), graph.labels, mask).item()
        assert acc == accuracy(logits, graph.labels, mask)
    # Empty selection mirrors cross_entropy's zero-loss convention.
    assert masked_metrics(logits, graph.labels, np.empty(0, np.int64)) == (
        0.0, 0.0,
    )


def test_base_graph_evaluations_hit_the_cache(world, models):
    graph, _, split = world
    model = models["gcn"]
    inc = IncrementalEvaluator(model, graph)
    ref = evaluate(model, graph, split.train)
    for _ in range(3):
        got = inc.evaluate(graph, split.train)
        assert abs(got[0] - ref[0]) <= 1e-12 and abs(got[1] - ref[1]) <= 1e-9
    assert inc.stats["base_hits"] == 3
    assert inc.stats["full_evals"] == 0


def test_invalidate_refreshes_after_weight_updates(world):
    graph, seqs, split = world
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(9),
    )
    trainer = Trainer(model, lr=0.05)
    inc = IncrementalEvaluator(model, graph, max_halo_frac=1.0)
    out = rewire_graph(graph, seqs, np.ones(N, np.int64), np.zeros(N, np.int64))
    inc.evaluate(out, split.train)  # warm the (soon stale) cache
    trainer.fit(graph, split, epochs=3, patience=3)
    inc.invalidate()
    assert inc.stats["invalidations"] == 1
    np.testing.assert_allclose(
        inc.predict_logits(out), model.predict_logits(out),
        rtol=0.0, atol=1e-12,
    )


def test_unsupported_backbone_falls_back(world):
    graph, seqs, split = world
    model = build_backbone(
        "mlp", graph.num_features, graph.num_classes,
        hidden=8, rng=np.random.default_rng(2),
    )
    assert not supports_incremental(model)
    inc = IncrementalEvaluator(model, graph)
    out = rewire_graph(graph, seqs, np.ones(N, np.int64), np.zeros(N, np.int64))
    got = inc.evaluate(out, split.train)
    ref = evaluate(model, out, split.train)
    assert got == ref
    assert inc.stats["full_evals"] == 1 and inc.stats["halo_evals"] == 0


def test_opted_out_backbone_fallback_still_patches_caches(world):
    """A backbone that opts out of the halo engine (``halo_plan = None``)
    still gets delta-patched propagation matrices before every dense
    forward — the MRO walk finds its parent's cache keys."""
    graph, seqs, split = world

    class DenseH2GCN(H2GCN):
        halo_plan = None

    model = DenseH2GCN(
        graph.num_features, graph.num_classes,
        hidden=8, rng=np.random.default_rng(4),
    )
    assert not supports_incremental(model)
    inc = IncrementalEvaluator(model, graph)
    out = rewire_graph(graph, seqs, np.ones(N, np.int64), np.zeros(N, np.int64))
    got = inc.evaluate(out, split.train)
    assert inc.stats["full_evals"] == 1 and inc.stats["halo_evals"] == 0
    # Both H2GCN matrices were delta-patched, bitwise equal to fresh
    # builds; the raw A @ A rebuild never ran on the derived graph.
    assert "h2gcn_a1" in out.cache and "h2gcn_a2" in out.cache
    assert "two_hop" not in out.cache
    np.testing.assert_array_equal(
        out.cache["h2gcn_a1"].toarray(),
        gcn_norm(out, add_self_loops=False).toarray(),
    )
    # The dense forward consumed the patched matrices: same result as the
    # reference evaluation on a cache-free twin.
    fresh = rewire_graph(graph, seqs, np.ones(N, np.int64), np.zeros(N, np.int64))
    ref = evaluate(model, fresh, split.train)
    assert abs(got[0] - ref[0]) <= 1e-12 and abs(got[1] - ref[1]) <= 1e-9


def test_foreign_graph_falls_back(world, models):
    graph, _, split = world
    model = models["gcn"]
    inc = IncrementalEvaluator(model, graph)
    foreign = planted_partition_graph(
        num_nodes=N, homophily=0.5, feature_signal=0.4, num_features=12, seed=7
    )
    assert foreign.delta is None
    got = inc.evaluate(foreign, split.train)
    assert got == evaluate(model, foreign, split.train)
    assert inc.stats["full_evals"] == 1


def test_oversized_halo_falls_back_with_patched_caches(world, models):
    graph, seqs, split = world
    model = models["gcn"]
    inc = IncrementalEvaluator(model, graph, max_halo_frac=0.0)
    out = rewire_graph(graph, seqs, np.ones(N, np.int64), np.zeros(N, np.int64))
    got = inc.evaluate(out, split.train)
    assert got == evaluate(model, out, split.train)
    assert inc.stats["full_evals"] == 1
    # The fallback pre-installed the patched matrix for the dense forward.
    assert "gcn_norm" in out.cache
    np.testing.assert_array_equal(
        out.cache["gcn_norm"].toarray(), gcn_norm(out).toarray()
    )


def test_supports_incremental_registry(world, models):
    assert supports_incremental(models["gcn"])
    assert supports_incremental(models["graphsage"])


# ---------------------------------------------------------------------------
# Env integration: incremental on vs off
# ---------------------------------------------------------------------------
def _env_world(num_nodes=40, seed=0):
    graph = planted_partition_graph(
        num_nodes=num_nodes, homophily=0.3, feature_signal=0.4,
        num_features=16, seed=seed,
    )
    split = random_split(graph.labels, np.random.default_rng(seed))
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=8)
    return graph, sequences, split


def _fresh_model_trainer(graph, split, seed=0):
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(seed),
    )
    trainer = Trainer(model, lr=0.05)
    trainer.fit(graph, split, epochs=3, patience=3)
    return model, trainer


def test_topology_env_incremental_parity():
    graph, sequences, split = _env_world()
    rewards = {}
    for flag in (False, True):
        model, trainer = _fresh_model_trainer(graph, split)
        config = RareConfig(
            k_max=4, d_max=4, max_candidates=8, horizon=3,
            incremental_reward=flag,
        )
        env = TopologyEnv(graph, sequences, model, trainer, split, config,
                          co_train=True, seed=0)
        collected = []
        for _ in range(2 * config.horizon):  # two episodes (autoreset)
            _, r, _, _ = env.step(env.sample_actions())
            collected.append(r[0])
        rewards[flag] = np.array(collected)
        assert (env._inc is not None) == flag
    np.testing.assert_allclose(
        rewards[False], rewards[True], rtol=0.0, atol=1e-9
    )


def test_derived_base_graph_keeps_the_halo_path():
    """An env whose base graph is itself derived (preprocessed dataset)
    still gets incremental evaluation: rewire deltas collapse to the root
    and the evaluator is bound there."""
    graph, _, split = _env_world()
    derived = graph.add_edges([(0, graph.num_nodes - 1)])
    entropy = RelativeEntropy.from_graph(derived, lam=1.0)
    sequences = build_entropy_sequences(derived, entropy, max_candidates=8)
    model, trainer = _fresh_model_trainer(derived, split)
    config = RareConfig(
        k_max=4, d_max=4, max_candidates=8, horizon=3,
        incremental_reward=True,
    )
    env = TopologyEnv(derived, sequences, model, trainer, split, config,
                      co_train=False, seed=0)
    assert env._inc.base_graph is graph  # bound to the root, not `derived`
    # Force the halo path whatever the edit size, then take steps.
    env._inc.max_halo_frac = 1.0
    env.reset()
    for _ in range(config.horizon):
        env.step(env.sample_actions())
    stats = env._inc.stats
    assert stats["halo_evals"] + stats["base_hits"] > 0
    assert stats["full_evals"] == 0


def test_vec_env_incremental_parity_and_stacked_delta():
    """At ``num_envs = 3`` with co-training on, incremental reward (the
    graphs scored alone go through the evaluator, batches through one
    dense stacked forward) keeps the dense env's rewards to 1e-9."""
    graph, sequences, split = _env_world()
    rewards = {}
    for flag in (False, True):
        model, trainer = _fresh_model_trainer(graph, split)
        config = RareConfig(
            k_max=4, d_max=4, max_candidates=8, horizon=3,
            num_envs=3, incremental_reward=flag,
        )
        venv = TopologyEnv(graph, sequences, model, trainer, split, config,
                           co_train=True, seed=0)
        collected = []
        for _ in range(4):
            _, r, _, _ = venv.step(venv.sample_actions())
            collected.append(r.copy())
        rewards[flag] = np.array(collected)
    np.testing.assert_allclose(
        rewards[False], rewards[True], rtol=0.0, atol=1e-9
    )
