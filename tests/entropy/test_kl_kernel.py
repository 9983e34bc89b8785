"""Equivalence tests pinning the unified length-sorted KL kernel.

``structural_mode="kl"`` now routes through the same sorted tiled builder
as the paper's JS mode (with the cross term decomposed into two GEMMs over
clamped log-profiles).  These tests mirror the JS fast-vs-reference suite:
sequence rankings must match the per-node reference away from exact value
ties, and the batched block kernels must agree with the one-sided KL
formulas they fold together.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import planted_partition_graph
from repro.entropy import (
    RelativeEntropy,
    build_entropy_sequences_reference,
    kl_divergence_block,
    symmetric_kl_divergence_block,
    symmetric_kl_divergence_pairs,
)
from repro.entropy.sequence import _build_from_rows, _build_sorted
from repro.entropy import assert_rankings_match


@pytest.fixture(scope="module")
def graph():
    return planted_partition_graph(num_nodes=80, homophily=0.35, seed=6)


@pytest.fixture(scope="module")
def entropy(graph):
    return RelativeEntropy.from_graph(graph, lam=1.0, structural_mode="kl")


def test_folded_block_matches_two_sided_kl(entropy):
    """The single-pass ``(p - q)(Lp - Lq)`` fold equals the average of the
    two clamped one-sided KLs it replaced."""
    P = entropy.profiles[:16]
    Q = entropy.profiles
    folded = symmetric_kl_divergence_block(P, Q)
    two_sided = 0.5 * (
        kl_divergence_block(P, Q) + kl_divergence_block(Q, P).T
    )
    np.testing.assert_allclose(folded, two_sided, atol=1e-9)


def test_folded_pairs_match_block(entropy):
    P = entropy.profiles
    v = np.array([0, 3, 17, 40])
    u = np.array([5, 3, 60, 2])
    pairs = symmetric_kl_divergence_pairs(P[v], P[u])
    block = symmetric_kl_divergence_block(P[v], P)
    np.testing.assert_allclose(pairs, block[np.arange(4), u], atol=1e-10)


def test_structural_rows_match_per_row(entropy):
    rows = entropy.structural_rows(10, 20)
    for i, v in enumerate(range(10, 20)):
        np.testing.assert_allclose(
            rows[i], entropy.structural_row(v), atol=1e-9
        )


def test_kl_sorted_builder_matches_reference(graph, entropy):
    """The unified tiled kernel reproduces the per-node reference rankings
    (mirrors the JS test_sequences_agree_without_shared_rows)."""
    ref = build_entropy_sequences_reference(graph, entropy, max_candidates=10)
    fast = _build_sorted(graph, entropy, 10)
    assert_rankings_match(fast, ref)


def test_kl_sorted_builder_matches_generic_blocked(graph, entropy):
    """The retired generic ``(B, N, M)`` blocked path and the sorted tiled
    kernel agree — the unification did not change the semantics."""
    generic = _build_from_rows(graph, entropy.rows, 10, block_size=32)
    fast = _build_sorted(graph, entropy, 10)
    assert_rankings_match(fast, generic)
    for a, b in zip(fast.neighbors, generic.neighbors):
        np.testing.assert_array_equal(np.sort(a), np.sort(b))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=10, max_value=60),
    st.floats(min_value=0.05, max_value=0.95),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.integers(min_value=1, max_value=12),
)
def test_kl_fast_vs_reference_property(seed, n, hom, lam, mc):
    graph = planted_partition_graph(num_nodes=n, homophily=hom, seed=seed)
    entropy = RelativeEntropy.from_graph(
        graph, lam=lam, structural_mode="kl"
    )
    ref = build_entropy_sequences_reference(graph, entropy, max_candidates=mc)
    fast = _build_sorted(graph, entropy, mc)
    assert_rankings_match(fast, ref)


def test_kl_pairs_rows_matrix_consistent(graph, entropy):
    """pairs()/rows()/matrix() agree in KL mode (consistency triangle)."""
    H = entropy.matrix()
    rows = entropy.rows(5, 15)
    np.testing.assert_allclose(rows, H[5:15], atol=1e-9)
    pairs = np.array([[0, 9], [33, 2], [7, 7], [60, 61]])
    np.testing.assert_allclose(
        entropy.pairs(pairs), H[pairs[:, 0], pairs[:, 1]], atol=1e-9
    )
