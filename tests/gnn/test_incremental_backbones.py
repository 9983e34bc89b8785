"""Halo plans for the attention/deep backbones (GAT, H2GCN, MixHop).

Mirrors ``tests/gnn/test_incremental.py`` for the backbones the halo
engine gained after the 2-layer linear-propagation pair: halo-vs-full
logit equivalence under random ``(k, d)`` rewires (hypothesis property
suites), isolating removals, multi-head attention widths, ``K > 2``
H2GCN rounds, the oversized-halo fallbacks (GAT's state-reusing dense
path, H2GCN's patched-matrix dense path), the plan registry /
``halo_plan`` declaration API, the instrumented ``eval_state`` hooks,
and env parity incremental-on-vs-off — sequential and vectorized.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RareConfig, TopologyEnv, clamp_state, rewire_graph
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences
from repro.gnn import (
    GAT,
    H2GCN,
    HaloPlan,
    IncrementalEvaluator,
    MixHop,
    Trainer,
    build_backbone,
    evaluate,
    register_halo_plan,
    resolve_halo_plan,
    supports_incremental,
)
from repro.gnn.incremental import _PLANS
from repro.graph import random_split

N = 36

BACKBONES = ("gat", "h2gcn", "mixhop")


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
    for name in BACKBONES:
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


def assert_halo_equivalence(model, base, out):
    """The documented policy: allclose everywhere at float64 resolution,
    byte-identical off the halo, identical argmax."""
    inc = IncrementalEvaluator(model, base, max_halo_frac=1.0)
    fast = inc.predict_logits(out)
    ref = model.predict_logits(out)
    np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(fast.argmax(axis=-1), ref.argmax(axis=-1))
    if not out.delta.is_empty:
        assert inc.stats["halo_evals"] == 1
        plan = resolve_halo_plan(model)
        _, halo, _ = plan.prepare(model, out)
        off = np.setdiff1d(np.arange(out.num_nodes), halo)
        np.testing.assert_array_equal(fast[off], ref[off])
    return inc


# ---------------------------------------------------------------------------
# Halo-vs-full logits
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backbone", BACKBONES)
@settings(max_examples=20, deadline=None)
@given(ks=counts, ds=counts)
def test_halo_logits_match_full_forward(world, models, backbone, ks, ds):
    out = rewired(world, ks, ds)
    assert_halo_equivalence(models[backbone], world[0], out)


@pytest.mark.parametrize("backbone", BACKBONES)
def test_isolating_removal_keeps_equivalence(world, models, backbone):
    """A node stripped of every edge (degree 0) stays exact."""
    graph = world[0]
    v = int(np.argmax(graph.degrees() > 0))
    out = graph.remove_edges([(v, int(u)) for u in graph.neighbors(v)])
    assert out.degrees()[v] == 0
    assert_halo_equivalence(models[backbone], graph, out)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_gat_multi_head_attention(world, heads):
    """The edge-softmax resplice holds for any head count (the per-head
    attention coefficients are cached and respliced column-wise)."""
    graph, seqs, split = world
    model = GAT(
        graph.num_features, graph.num_classes,
        hidden=16, heads=heads, rng=np.random.default_rng(5),
    )
    Trainer(model, lr=0.05).fit(graph, split, epochs=2, patience=2)
    out = rewired(world, [2] * N, [1] * N)
    assert_halo_equivalence(model, graph, out)


@pytest.mark.parametrize("rounds", [1, 3, 4])
def test_h2gcn_k_rounds(world, rounds):
    """The halo round count follows ``model.rounds`` — K > 2 reaches
    further, K = 1 stops at the matrix-dirty rows."""
    graph, seqs, split = world
    model = H2GCN(
        graph.num_features, graph.num_classes,
        hidden=8, rounds=rounds, rng=np.random.default_rng(6),
    )
    Trainer(model, lr=0.05).fit(graph, split, epochs=2, patience=2)
    out = rewired(world, [1] * N, [1] * N)
    assert_halo_equivalence(model, graph, out)
    _, _, ctx = resolve_halo_plan(model).prepare(model, out)
    assert len(ctx["rounds"]) == rounds


def test_eval_state_is_bitwise_twin_of_forward(world, models):
    """The instrumented hooks capture the exact forward activations."""
    graph = world[0]
    for name in BACKBONES:
        state = models[name].eval_state(graph)
        np.testing.assert_array_equal(
            state["out"], models[name].predict_logits(graph)
        )


# ---------------------------------------------------------------------------
# Fallbacks
# ---------------------------------------------------------------------------
def test_gat_oversized_halo_reuses_cached_state(world, models):
    """The satellite bugfix: a dense-path GAT evaluation must come from
    the per-model-version attention cache, not a from-scratch forward."""
    graph, seqs, split = world
    model = models["gat"]
    inc = IncrementalEvaluator(model, graph, max_halo_frac=0.0)
    out = rewire_graph(graph, seqs, np.ones(N, np.int64), np.zeros(N, np.int64))
    for _ in range(3):
        fast = inc.predict_logits(out)
    np.testing.assert_allclose(
        fast, model.predict_logits(out), rtol=0.0, atol=1e-12
    )
    # Every call used the cached ingredients; none ran the dense forward.
    assert inc.stats["state_fulls"] == 3
    assert inc.stats["full_evals"] == 0 and inc.stats["halo_evals"] == 0
    # Off-halo destinations are byte-identical even on the dense path.
    plan = resolve_halo_plan(model)
    _, halo, _ = plan.prepare(model, out)
    off = np.setdiff1d(np.arange(N), halo)
    np.testing.assert_array_equal(fast[off], model.predict_logits(out)[off])


def test_gat_invalidate_refreshes_dense_state(world):
    graph, seqs, split = world
    model = build_backbone(
        "gat", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(9),
    )
    trainer = Trainer(model, lr=0.05)
    inc = IncrementalEvaluator(model, graph, max_halo_frac=0.0)
    out = rewire_graph(graph, seqs, np.ones(N, np.int64), np.zeros(N, np.int64))
    inc.predict_logits(out)  # warm the (soon stale) state
    trainer.fit(graph, split, epochs=3, patience=3)
    inc.invalidate()
    np.testing.assert_allclose(
        inc.predict_logits(out), model.predict_logits(out),
        rtol=0.0, atol=1e-12,
    )


@pytest.mark.parametrize("backbone", ["h2gcn", "mixhop"])
def test_deep_backbone_ignores_halo_frac(world, models, backbone):
    """Correction-based plans opt out of the oversized-halo fallback:
    their cost is bounded by the edit's column support, so even a
    max_halo_frac of 0 keeps the incremental path (and its exactness)."""
    graph, seqs, split = world
    model = models[backbone]
    inc = IncrementalEvaluator(model, graph, max_halo_frac=0.0)
    out = rewire_graph(graph, seqs, np.ones(N, np.int64), np.zeros(N, np.int64))
    fast = inc.predict_logits(out)
    assert inc.stats["halo_evals"] == 1
    assert inc.stats["full_evals"] == 0 and inc.stats["state_fulls"] == 0
    ref = model.predict_logits(out)
    np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(fast.argmax(axis=-1), ref.argmax(axis=-1))
    got = inc.evaluate(out, split.train)
    fresh = rewire_graph(graph, seqs, np.ones(N, np.int64), np.zeros(N, np.int64))
    ref_metrics = evaluate(model, fresh, split.train)
    assert abs(got[0] - ref_metrics[0]) <= 1e-9
    assert abs(got[1] - ref_metrics[1]) <= 1e-9


# ---------------------------------------------------------------------------
# Plan registry / declaration API
# ---------------------------------------------------------------------------
def test_registry_covers_all_planned_backbones(models):
    for name in BACKBONES:
        assert supports_incremental(models[name])
    assert GAT in _PLANS and H2GCN in _PLANS and MixHop in _PLANS


def test_halo_plan_attribute_overrides_registry(world, models):
    class OptedOut(H2GCN):
        halo_plan = None

    class Declared(H2GCN):
        halo_plan = resolve_halo_plan(models["h2gcn"])

    graph = world[0]
    assert not supports_incremental(
        OptedOut(graph.num_features, graph.num_classes, hidden=8)
    )
    declared = Declared(graph.num_features, graph.num_classes, hidden=8)
    assert supports_incremental(declared)
    assert resolve_halo_plan(declared) is _PLANS[H2GCN]


def test_halo_plans_are_not_inherited(world):
    """A subclass usually overrides ``forward`` (and the receptive
    field), so neither a parent's declared plan nor its registry entry
    silently applies — the subclass re-declares in one line."""
    graph = world[0]

    class Undeclared(H2GCN):  # registry entry is exact-type
        pass

    class Child(Undeclared):  # parent's attribute must not leak either
        pass

    for cls in (Undeclared, Child):
        model = cls(graph.num_features, graph.num_classes, hidden=8)
        assert resolve_halo_plan(model) is None
        assert not supports_incremental(model)


def test_register_halo_plan_decorator():
    class Dummy:  # stand-in backbone class
        halo_plan = "auto"

    @register_halo_plan(Dummy)
    class DummyPlan(HaloPlan):
        matrix_keys = ()

    try:
        assert _PLANS[Dummy] is DummyPlan
        assert resolve_halo_plan(Dummy()) is DummyPlan
    finally:
        _PLANS.pop(Dummy, None)


# ---------------------------------------------------------------------------
# Env integration: incremental on vs off, sequential + vectorized
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


def _fresh_model_trainer(backbone, graph, split, seed=0):
    model = build_backbone(
        backbone, graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(seed),
    )
    trainer = Trainer(model, lr=0.05)
    trainer.fit(graph, split, epochs=2, patience=2)
    return model, trainer


@pytest.mark.parametrize("backbone", ["gat", "h2gcn"])
def test_topology_env_incremental_parity(backbone):
    graph, sequences, split = _env_world()
    rewards = {}
    for flag in (False, True):
        model, trainer = _fresh_model_trainer(backbone, graph, split)
        config = RareConfig(
            k_max=4, d_max=4, max_candidates=8, horizon=3,
            incremental_reward=flag, max_halo_frac=1.0,
        )
        env = TopologyEnv(graph, sequences, model, trainer, split, config,
                          co_train=True, seed=0)
        collected = []
        for _ in range(2 * config.horizon):  # two episodes (autoreset)
            _, r, _, _ = env.step(env.sample_actions())
            collected.append(r[0])
        rewards[flag] = np.array(collected)
        if flag:
            stats = env._inc.stats
            assert stats["halo_evals"] + stats["base_hits"] > 0
            assert stats["full_evals"] == 0
    np.testing.assert_allclose(
        rewards[False], rewards[True], rtol=0.0, atol=1e-9
    )


@pytest.mark.parametrize("backbone", ["gat", "h2gcn"])
def test_vec_env_incremental_parity(backbone):
    graph, sequences, split = _env_world()
    rewards = {}
    for flag in (False, True):
        model, trainer = _fresh_model_trainer(backbone, graph, split)
        config = RareConfig(
            k_max=4, d_max=4, max_candidates=8, horizon=3,
            num_envs=3, incremental_reward=flag, max_halo_frac=1.0,
        )
        venv = TopologyEnv(graph, sequences, model, trainer, split, config,
                           co_train=True, seed=0)
        collected = []
        for _ in range(4):
            _, r, _, _ = venv.step(venv.sample_actions())
            collected.append(r.copy())
        rewards[flag] = np.array(collected)
        if flag:
            stacked = venv._stack.stacked_graph(venv.current_graphs)
            assert stacked.delta is not None
            total = venv._stack.incremental_for(3).stats
            assert (
                total["base_hits"] + total["halo_evals"]
                + total["state_fulls"] + total["full_evals"] > 0
            )
    np.testing.assert_allclose(
        rewards[False], rewards[True], rtol=0.0, atol=1e-9
    )
