"""The dense entropy engine's feature Gram and its one pass over the pairs.

* On wide, sparse embeddings every Gram block is a CSR x CSR product:
  the normaliser, the remote rankings and the neighbour rankings agree
  with the per-row reference (``docs/equivalence-policy.md``, "Entropy
  engines").  Narrow or dense embeddings keep the BLAS GEMM bit for bit.
* Neighbour scores are read off the same block rows as the remote
  scores: the build never constructs a ``PairEntropyScorer``.
* Neighbour scores equal to ``TIE_DECIMALS`` decimals are ties, which
  keep ascending id order in every builder.
"""

import numpy as np
import pytest

from repro.datasets import planted_partition_graph
from repro.entropy import (
    PairEntropyScorer,
    RelativeEntropy,
    assert_rankings_match,
    build_entropy_sequences,
    build_entropy_sequences_reference,
)
from repro.entropy.feature_entropy import GramBlocks
from repro.entropy.screening import TIE_DECIMALS
from repro.graph import Graph
from repro.tensor.sparse import (
    SPARSE_MAX_DENSITY,
    SPARSE_MIN_WIDTH,
    sparse_features,
)

from ..sparse_graphs import wide_sparse_graph

MC = 8


@pytest.fixture(scope="module")
def wide():
    return wide_sparse_graph(num_nodes=150, seed=4)


def assert_neighbors_match(fast, ref, atol=1e-12):
    for v in range(fast.num_nodes):
        np.testing.assert_array_equal(
            fast.neighbors[v], ref.neighbors[v], err_msg=f"row {v}"
        )
        np.testing.assert_allclose(
            fast.neighbor_scores[v], ref.neighbor_scores[v], rtol=0,
            atol=atol, err_msg=f"row {v}",
        )


@pytest.mark.parametrize("mode", ["js", "kl"])
def test_csr_gram_matches_per_row_reference(wide, mode):
    entropy = RelativeEntropy.from_graph(wide, structural_mode=mode)
    Z = entropy.Z
    assert sparse_features(Z) is not None  # the CSR path is the one tested
    dense = np.log(np.exp(Z @ Z.T).sum())
    np.testing.assert_allclose(entropy.log_denominator, dense, rtol=1e-12)

    fast = build_entropy_sequences(wide, entropy, MC, screening="off")
    ref = build_entropy_sequences_reference(wide, entropy, MC)
    assert assert_rankings_match(fast, ref) > 0
    assert_neighbors_match(fast, ref)


def test_csr_gram_blocks_allclose_to_gemm(wide):
    Z = RelativeEntropy.from_graph(wide).Z
    gram = GramBlocks(Z)
    for start, stop in ((0, 64), (64, 150)):
        np.testing.assert_allclose(
            gram(start, stop), Z[start:stop] @ Z.T, rtol=0, atol=1e-15
        )
    perm = np.random.default_rng(0).permutation(Z.shape[0])
    np.testing.assert_allclose(
        GramBlocks(Z, perm)(0, 150), Z[perm] @ Z[perm].T, rtol=0, atol=1e-15
    )


@pytest.mark.parametrize(
    "shape",
    [
        dict(num_features=SPARSE_MIN_WIDTH - 1),
        dict(density=3 * SPARSE_MAX_DENSITY),
    ],
    ids=["255-wide", "30%-dense"],
)
def test_narrow_or_dense_embedding_keeps_the_gemm(shape):
    g = wide_sparse_graph(num_nodes=150, seed=4, **shape)
    entropy = RelativeEntropy.from_graph(g)
    Z = entropy.Z
    assert sparse_features(Z) is None
    gram = GramBlocks(Z)
    for start, stop in ((0, 64), (64, 150)):
        np.testing.assert_array_equal(gram(start, stop), Z[start:stop] @ Z.T)
    perm = np.random.default_rng(0).permutation(Z.shape[0])
    Zp = np.ascontiguousarray(Z[perm])
    np.testing.assert_array_equal(GramBlocks(Z, perm)(0, 64), Zp[:64] @ Zp.T)

    fast = build_entropy_sequences(g, entropy, MC, screening="off")
    ref = build_entropy_sequences_reference(g, entropy, MC)
    assert_rankings_match(fast, ref)
    assert_neighbors_match(fast, ref)


@pytest.mark.parametrize("kind", ["wide-sparse", "narrow"])
def test_dense_engine_is_one_pass(monkeypatch, wide, kind):
    g = wide if kind == "wide-sparse" else planted_partition_graph(
        num_nodes=150, homophily=0.4, seed=4
    )
    entropy = RelativeEntropy.from_graph(g)

    def boom(cls, entropy):
        raise AssertionError("the dense engine built a PairEntropyScorer")

    monkeypatch.setattr(PairEntropyScorer, "from_entropy", classmethod(boom))
    one = build_entropy_sequences(g, entropy, MC, screening="off")
    three = build_entropy_sequences(
        g, entropy, MC, screening="off", num_workers=3
    )

    H = entropy.rows(0, g.num_nodes)
    indptr, flat = one.neighbor_csr()
    rows = np.repeat(np.arange(g.num_nodes), np.diff(indptr))
    np.testing.assert_allclose(
        np.concatenate(one.neighbor_scores), H[rows, flat], rtol=0, atol=1e-12
    )

    for name in ("remote", "remote_scores", "flat_neighbors", "neighbor_indptr"):
        a, b = getattr(one, name), getattr(three, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (
        np.concatenate(one.neighbor_scores).tobytes()
        == np.concatenate(three.neighbor_scores).tobytes()
    )


def test_neighbour_ties_keep_ascending_id():
    """Last-bit differences do not reorder neighbours; real ones do."""
    g = Graph(4, [(0, 1), (0, 2), (0, 3)], features=np.eye(4))
    H = np.zeros((4, 4))
    tiny, real = 10.0 ** -(TIE_DECIMALS + 3), 10.0 ** -(TIE_DECIMALS - 3)
    H[0, 1:] = [0.5 + tiny, 0.5, 0.5 - real]
    for seqs in (
        build_entropy_sequences(g, None, 2, H=H),
        build_entropy_sequences_reference(g, None, 2, H=H),
    ):
        np.testing.assert_array_equal(seqs.neighbors[0], [3, 1, 2])
        np.testing.assert_array_equal(seqs.neighbor_scores[0], H[0, [3, 1, 2]])
