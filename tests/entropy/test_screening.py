"""Tests for the screen-then-rescore candidate engine and shard plumbing.

The screened builder must match the dense builders *identically away from
exact value ties*: scores agree to tight tolerance everywhere, ids agree
at every strictly separated rank, and the thread-pool sharded execution
is byte-identical for every worker count.  The engines are called directly
(``build_entropy_sequences`` picks one from the graph; see
``test_engine_choice.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import planted_partition_graph
from repro.entropy import (
    EntropyShardPlan,
    PairEntropyScorer,
    RelativeEntropy,
    assert_rankings_match,
    build_entropy_sequences,
    build_entropy_sequences_reference,
    feature_logit_threshold,
    run_sharded,
    select_topk_flat,
)
from repro.entropy.sequence import _build_screened, _build_sorted
from repro.graph import Graph


def make_entropy(graph, lam=1.0, mode="js"):
    return RelativeEntropy.from_graph(graph, lam=lam, structural_mode=mode)


@pytest.mark.parametrize("mode", ["js", "kl"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 3.0])
def test_screened_matches_reference(mode, lam):
    graph = planted_partition_graph(num_nodes=70, homophily=0.3, seed=5)
    entropy = make_entropy(graph, lam=lam, mode=mode)
    ref = build_entropy_sequences_reference(graph, entropy, max_candidates=9)
    scr = _build_screened(graph, entropy, 9)
    assert_rankings_match(scr, ref)


@pytest.mark.parametrize("mode", ["js", "kl"])
@pytest.mark.parametrize("num_nodes", [90, 400])
def test_screened_matches_dense(mode, num_nodes):
    graph = planted_partition_graph(
        num_nodes=num_nodes, homophily=0.4, seed=2
    )
    entropy = make_entropy(graph, mode=mode)
    dense = _build_sorted(graph, entropy, 12)
    scr = _build_screened(graph, entropy, 12)
    assert_rankings_match(scr, dense)
    # The screened engine scores neighbours with its exact flat scorer, the
    # dense engine reads them off its tiled block rows; the two sum in
    # different orders, so compare to a few ULPs rather than byte-identical.
    for a, b in zip(scr.neighbors, dense.neighbors):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(scr.neighbor_scores, dense.neighbor_scores):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=10, max_value=80),
    st.floats(min_value=0.05, max_value=0.95),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.integers(min_value=1, max_value=12),
)
def test_screened_matches_reference_property(seed, n, hom, lam, mc):
    graph = planted_partition_graph(num_nodes=n, homophily=hom, seed=seed)
    entropy = RelativeEntropy.from_graph(graph, lam=lam)
    ref = build_entropy_sequences_reference(graph, entropy, max_candidates=mc)
    scr = _build_screened(graph, entropy, mc)
    assert_rankings_match(scr, ref)


@pytest.mark.parametrize("screen", [True, False], ids=["on", "off"])
def test_worker_pool_byte_identical(screen):
    graph = planted_partition_graph(num_nodes=120, homophily=0.3, seed=9)
    entropy = make_entropy(graph)
    # min_rows=1 forces real shards at this size (screened engine only;
    # the dense builder derives its own block-aligned sorted ranges).
    plan = EntropyShardPlan.build(graph, num_shards=4, min_rows=1)

    def build(workers):
        if screen:
            return _build_screened(
                graph, entropy, 8, num_workers=workers, shard_plan=plan
            )
        return _build_sorted(graph, entropy, 8, num_workers=workers)

    base = build(1)
    for workers in (2, 3):
        par = build(workers)
        np.testing.assert_array_equal(base.remote, par.remote)
        np.testing.assert_array_equal(base.remote_scores, par.remote_scores)
        np.testing.assert_array_equal(base.flat_neighbors, par.flat_neighbors)
        for a, b in zip(base.neighbor_scores, par.neighbor_scores):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_default_plan_byte_identical_across_worker_counts(seed):
    # No pinned shard_plan: the default plan must not depend on the worker
    # count, or batch-boundary float grouping shifts scores at the ULP
    # level (which flips rankings at near-ties) between --num-workers runs.
    graph = planted_partition_graph(num_nodes=600, homophily=0.4, seed=seed)
    entropy = make_entropy(graph)
    base = _build_screened(graph, entropy, 8, num_workers=1)
    par = _build_screened(graph, entropy, 8, num_workers=4)
    np.testing.assert_array_equal(base.remote, par.remote)
    np.testing.assert_array_equal(base.remote_scores, par.remote_scores)
    np.testing.assert_array_equal(base.flat_neighbors, par.flat_neighbors)
    for a, b in zip(base.neighbor_scores, par.neighbor_scores):
        np.testing.assert_array_equal(a, b)


def test_invalid_engine_arguments():
    graph = planted_partition_graph(num_nodes=20, homophily=0.5, seed=0)
    entropy = make_entropy(graph)
    with pytest.raises(ValueError, match="num_workers"):
        build_entropy_sequences(graph, entropy, num_workers=0)
    with pytest.raises(ValueError, match="max_candidates"):
        build_entropy_sequences(graph, entropy, max_candidates=0)


def test_screened_near_complete_graph():
    # Few remote candidates per node; padding and short rows must agree.
    g = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)
                  if (i, j) != (0, 4) and (i, j) != (1, 3)],
              features=np.eye(5))
    entropy = make_entropy(g)
    ref = build_entropy_sequences_reference(g, entropy, max_candidates=4)
    scr = _build_screened(g, entropy, 4)
    np.testing.assert_array_equal(scr.remote, ref.remote)
    np.testing.assert_allclose(
        scr.remote_scores, ref.remote_scores, atol=1e-9
    )


def test_screened_isolated_nodes():
    g = Graph(12, [(0, 1), (2, 3)], features=np.random.default_rng(0).random((12, 4)))
    entropy = make_entropy(g)
    ref = build_entropy_sequences_reference(g, entropy, max_candidates=5)
    scr = _build_screened(g, entropy, 5)
    assert_rankings_match(scr, ref)


def test_screened_mc_exceeds_candidates():
    g = planted_partition_graph(num_nodes=10, homophily=0.5, seed=1)
    entropy = make_entropy(g)
    ref = build_entropy_sequences_reference(g, entropy, max_candidates=30)
    scr = _build_screened(g, entropy, 30)
    assert_rankings_match(scr, ref)


# ---------------------------------------------------------------------------
# Shard plan
# ---------------------------------------------------------------------------
def test_shard_plan_covers_rows():
    graph = planted_partition_graph(num_nodes=200, homophily=0.3, seed=7)
    plan = EntropyShardPlan.build(graph, num_shards=4, min_rows=1)
    ranges = plan.ranges()
    assert ranges[0][0] == 0 and ranges[-1][1] == graph.num_nodes
    for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
        assert a1 == b0
        assert a0 < a1
    assert plan.num_shards <= 4


def test_shard_plan_validation():
    graph = planted_partition_graph(num_nodes=30, homophily=0.5, seed=0)
    with pytest.raises(ValueError, match="num_shards"):
        EntropyShardPlan.build(graph, num_shards=0)
    other = planted_partition_graph(num_nodes=40, homophily=0.5, seed=0)
    plan = EntropyShardPlan.build(graph, num_shards=2)
    # A mismatched plan must be rejected by the builder too, not silently
    # produce rows of -1/-inf padding outside the plan's coverage.
    with pytest.raises(ValueError, match="shard_plan built for"):
        _build_screened(other, make_entropy(other), 4, shard_plan=plan)


# ---------------------------------------------------------------------------
# Engine internals
# ---------------------------------------------------------------------------
def test_feature_logit_threshold_inverts_entropy():
    graph = planted_partition_graph(num_nodes=120, homophily=0.4, seed=0)
    entropy = make_entropy(graph)
    scorer = PairEntropyScorer.from_entropy(entropy)
    hf = scorer.feature(np.arange(0, 20), np.arange(40, 60))
    bound = feature_logit_threshold(
        hf, entropy.log_denominator, entropy.feature_scale
    )
    logit = np.einsum(
        "ij,ij->i", entropy.Z[np.arange(0, 20)], entropy.Z[np.arange(40, 60)]
    )
    # H_f is increasing in the logit, so the inverted bound must sit at
    # (numerically just below) each pair's own logit.
    assert (logit >= bound - 1e-9).all()
    assert (logit <= bound + 1e-6).all()


def test_feature_logit_threshold_edge_cases():
    out = feature_logit_threshold(
        np.array([-1.0, 0.0, np.inf]), 20.0, 1.0
    )
    assert np.isneginf(out[0]) and np.isneginf(out[1]) and np.isposinf(out[2])
    # Untrustworthy normaliser (tiny graphs): every row rescans fully.
    out = feature_logit_threshold(np.array([0.5]), 1.5, 1.0)
    assert np.isneginf(out[0])


def test_pair_scorer_matches_entropy_pairs():
    graph = planted_partition_graph(num_nodes=100, homophily=0.3, seed=11)
    for mode in ("js", "kl"):
        entropy = make_entropy(graph, lam=0.7, mode=mode)
        scorer = PairEntropyScorer.from_entropy(entropy)
        rng = np.random.default_rng(0)
        v = rng.integers(0, 100, 500)
        u = rng.integers(0, 100, 500)
        got = scorer.score(v, u)
        want = entropy.pairs(np.stack([v, u], axis=1))
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_select_topk_flat_order_and_padding():
    r = np.array([0, 0, 0, 2, 2])
    ids = np.array([5, 3, 9, 1, 0])
    scores = np.array([1.0, 1.0, 2.0, 0.5, -np.inf])
    out_ids, out_scores = select_topk_flat(r, ids, scores, num_rows=3, k=2)
    np.testing.assert_array_equal(out_ids, [[9, 3], [-1, -1], [1, -1]])
    assert out_scores[0, 0] == 2.0 and out_scores[0, 1] == 1.0
    assert np.isneginf(out_scores[1]).all()


def test_run_sharded_preserves_order():
    tasks = list(range(7))
    for workers in (1, 3):
        got = run_sharded(lambda x: x * x, tasks, workers)
        assert got == [x * x for x in tasks]
