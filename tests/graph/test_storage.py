"""Out-of-core storage: bundles, memmapped graphs, streamed screen state.

The load-bearing invariant throughout is *byte-identity*: a
:class:`MemmapGraph` over an on-disk bundle must be indistinguishable —
bit for bit, on every accessor and every downstream pipeline stage —
from the in-RAM :class:`Graph` it was saved from.
"""

import json
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences, degree_profiles
from repro.entropy.sequence import _build_screened
from repro.gnn import GCN, GraphSAGE
from repro.gnn.incremental import IncrementalEvaluator, PropagationRowSource
from repro.graph import Graph
from repro.graph.normalize import gcn_norm, row_norm
from repro.graph.storage import (
    BUNDLE_META,
    BUNDLE_VERSION,
    GraphBundle,
    MemmapGraph,
    MmapReleaser,
    ScreenStateLoader,
    advise_dontneed,
    entropy_sidecar_meta,
    has_entropy_sidecar,
    load_entropy_sidecar,
    load_graph_bundle,
    save_entropy_sidecar,
    save_graph_bundle,
)
from repro.nn import masked_metrics


#: The build parameters of ``RelativeEntropy.from_graph``'s defaults.
RECIPE = {"embedding": "normalize", "max_profile_len": None}


def small_graph(n=40, seed=0, features=True):
    g = planted_partition_graph(
        num_nodes=n, num_classes=3, homophily=0.5, mean_degree=5.0,
        num_features=12, seed=seed,
    )
    if not features:
        g = Graph._from_keys(g.num_nodes, g.edge_keys())
    return g


@pytest.fixture()
def bundle_dir(tmp_path):
    g = small_graph()
    path = str(tmp_path / "bundle")
    save_graph_bundle(g, path)
    return g, path


# -- bundle round-trip and manifest -----------------------------------------


def test_bundle_roundtrip_mmap_and_ram(bundle_dir):
    g, path = bundle_dir
    for mmap_arrays in (True, False):
        loaded = load_graph_bundle(path, mmap_arrays=mmap_arrays)
        assert isinstance(loaded, MemmapGraph)
        assert loaded.is_mmap is mmap_arrays
        assert loaded.num_nodes == g.num_nodes
        np.testing.assert_array_equal(loaded.edge_keys(), g.edge_keys())
        np.testing.assert_array_equal(loaded.features, g.features)
        np.testing.assert_array_equal(loaded.labels, g.labels)


def test_bundle_roundtrip_without_attributes(tmp_path):
    g = small_graph(features=False)
    path = str(tmp_path / "bare")
    save_graph_bundle(g, path)
    loaded = load_graph_bundle(path)
    assert loaded.features is None and loaded.labels is None
    np.testing.assert_array_equal(loaded.edge_keys(), g.edge_keys())


def test_bundle_stores_sorted_csr(bundle_dir):
    g, path = bundle_dir
    bundle = GraphBundle.open(path)
    indptr = bundle.load("indptr", mmap_arrays=False)
    indices = bundle.load("indices", mmap_arrays=False)
    adj = g.adjacency()
    np.testing.assert_array_equal(indptr, adj.indptr)
    np.testing.assert_array_equal(indices, adj.indices)


def test_open_missing_dir_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="not a graph bundle"):
        GraphBundle.open(str(tmp_path / "nope"))


def test_open_wrong_format_raises(tmp_path):
    path = tmp_path / "junk"
    path.mkdir()
    (path / BUNDLE_META).write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="not a graph bundle"):
        GraphBundle.open(str(path))


def test_open_future_version_raises(bundle_dir):
    _, path = bundle_dir
    meta_path = os.path.join(path, BUNDLE_META)
    with open(meta_path) as f:
        meta = json.load(f)
    meta["version"] = BUNDLE_VERSION + 1
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match="unsupported graph-bundle version"):
        GraphBundle.open(path)


def test_bundle_load_unknown_array_raises(bundle_dir):
    _, path = bundle_dir
    with pytest.raises(KeyError, match="no array"):
        GraphBundle.open(path).load("nonexistent")


def _edit_manifest(path, edit):
    meta_path = os.path.join(path, BUNDLE_META)
    with open(meta_path) as fh:
        meta = json.load(fh)
    edit(meta)
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)


def _resave(path, name, edit):
    array_path = os.path.join(path, f"{name}.npy")
    np.save(array_path, edit(np.load(array_path)))


#: Hand edits that each used to load without error, and the array the
#: rejection must name.
BUNDLE_CORRUPTIONS = {
    "num_nodes_plus_5": (
        "indptr",
        lambda p: _edit_manifest(
            p, lambda m: m.update(num_nodes=m["num_nodes"] + 5)
        ),
    ),
    "indptr_10_short": (
        "indptr", lambda p: _resave(p, "indptr", lambda a: a[:-10])
    ),
    "labels_3_short": (
        "labels", lambda p: _resave(p, "labels", lambda a: a[:-3])
    ),
    "labels_negative": (
        "labels", lambda p: _resave(p, "labels", lambda a: np.full_like(a, -1))
    ),
    "edge_keys_float64": (
        "edge_keys",
        lambda p: _resave(p, "edge_keys", lambda a: a.astype(np.float64)),
    ),
    "edge_keys_twice": (
        "edge_keys", lambda p: _resave(p, "edge_keys", lambda a: np.repeat(a, 2))
    ),
}


@pytest.mark.parametrize("corruption", sorted(BUNDLE_CORRUPTIONS))
def test_bundle_contradicting_its_manifest_is_rejected(tmp_path, corruption):
    from repro.datasets import load_dataset

    array, corrupt = BUNDLE_CORRUPTIONS[corruption]
    path = str(tmp_path / "bundle")
    save_graph_bundle(load_dataset("texas", scale=0.5, seed=0), path)
    corrupt(path)
    for mmap_arrays in (True, False):
        with pytest.raises(ValueError, match=f"bundle array '{array}'") as info:
            load_graph_bundle(path, mmap_arrays=mmap_arrays)
        assert "\n" not in str(info.value)


def test_materialized_nbytes_accounts_derived(bundle_dir):
    g, path = bundle_dir
    bundle = GraphBundle.open(path)
    stored = sum(bundle.nbytes(name) for name in bundle.meta["arrays"])
    mat = bundle.materialized_nbytes()
    adj = g.adjacency()
    derived = (
        g.edge_array().nbytes
        + adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes
        + g.degrees().nbytes
    )
    assert mat == stored + derived


# -- MemmapGraph accessors: byte-identity vs the in-RAM graph ---------------


def test_memmap_accessors_match_in_ram(bundle_dir):
    g, path = bundle_dir
    mg = load_graph_bundle(path)
    np.testing.assert_array_equal(mg.degrees(), g.degrees())
    for v in range(g.num_nodes):
        np.testing.assert_array_equal(mg.neighbors(v), g.neighbors(v))
    adj_ref, adj_mm = g.adjacency(), mg.adjacency()
    assert adj_mm.indptr.dtype == adj_ref.indptr.dtype
    assert adj_mm.indices.dtype == adj_ref.indices.dtype
    np.testing.assert_array_equal(adj_mm.indptr, adj_ref.indptr)
    np.testing.assert_array_equal(adj_mm.indices, adj_ref.indices)
    np.testing.assert_array_equal(adj_mm.data, adj_ref.data)
    np.testing.assert_array_equal(mg.edge_array(), g.edge_array())


def test_csr_row_slice_bounds(bundle_dir):
    _, path = bundle_dir
    mg = load_graph_bundle(path)
    with pytest.raises(ValueError, match="out of bounds"):
        mg.csr_row_slice(0, mg.num_nodes + 1)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_row_and_key_slices_match_in_ram(data):
    seed = data.draw(st.integers(0, 5))
    g = small_graph(n=data.draw(st.integers(12, 60)), seed=seed)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b")
        save_graph_bundle(g, path)
        mg = load_graph_bundle(path)
        lo = data.draw(st.integers(0, g.num_nodes))
        hi = data.draw(st.integers(lo, g.num_nodes))
        ref_adj = g.adjacency()
        local, idx = mg.csr_row_slice(lo, hi)
        window = ref_adj.indptr[lo : hi + 1]
        np.testing.assert_array_equal(local, window - window[0])
        np.testing.assert_array_equal(idx, ref_adj.indices[window[0] : window[-1]])
        np.testing.assert_array_equal(
            mg.edge_key_slice(lo, hi), g.edge_key_slice(lo, hi)
        )
        np.testing.assert_array_equal(degree_profiles(mg), degree_profiles(g))


def test_functional_edits_return_plain_graphs(bundle_dir):
    g, path = bundle_dir
    mg = load_graph_bundle(path)
    u, v = 0, mg.num_nodes - 1
    edited = mg.add_edges([(u, v)]) if not mg.has_edge(u, v) else mg.remove_edges(
        [(u, v)]
    )
    ref = g.add_edges([(u, v)]) if not g.has_edge(u, v) else g.remove_edges([(u, v)])
    np.testing.assert_array_equal(edited.edge_keys(), ref.edge_keys())


def test_resave_memmap_graph_roundtrips(bundle_dir, tmp_path):
    g, path = bundle_dir
    mg = load_graph_bundle(path)
    path2 = str(tmp_path / "copy")
    save_graph_bundle(mg, path2)
    again = load_graph_bundle(path2)
    np.testing.assert_array_equal(again.edge_keys(), g.edge_keys())
    np.testing.assert_array_equal(again.features, g.features)


# -- page release helpers ----------------------------------------------------


def test_advise_dontneed_counts_only_mmaps(bundle_dir):
    _, path = bundle_dir
    mg = load_graph_bundle(path)
    assert advise_dontneed(mg.edge_keys()) == 1
    # Non-mmap arrays (and None) are tolerated and not counted.
    assert advise_dontneed(np.arange(4), None) == 0
    assert mg.release() >= 3
    # Released pages refault transparently: data unchanged.
    np.testing.assert_array_equal(
        mg.edge_keys(), load_graph_bundle(path, mmap_arrays=False).edge_keys()
    )


def test_mmap_releaser_steps_and_flushes(bundle_dir):
    _, path = bundle_dir
    mg = load_graph_bundle(path)
    gathered, persistent = mg.features, mg.edge_keys()
    rel = MmapReleaser(gather=[gathered], persistent=[persistent], every=2)
    rel.step()   # below `every`: no release yet
    rel.step()
    rel.flush()  # releases persistent too
    np.testing.assert_array_equal(
        np.asarray(gathered),
        load_graph_bundle(path, mmap_arrays=False).features,
    )


# -- entropy sidecar + streamed screening -----------------------------------


def test_entropy_sidecar_roundtrip(bundle_dir):
    g, path = bundle_dir
    assert not has_entropy_sidecar(path)
    with pytest.raises(FileNotFoundError):
        entropy_sidecar_meta(path)
    entropy = RelativeEntropy.from_graph(g, lam=1.25)
    save_entropy_sidecar(path, entropy, RECIPE)
    assert has_entropy_sidecar(path)
    meta = entropy_sidecar_meta(path)
    assert meta["lam"] == 1.25
    assert {name: meta[name] for name in RECIPE} == RECIPE
    for mmap_arrays in (True, False):
        loaded = load_entropy_sidecar(path, mmap_arrays=mmap_arrays)
        assert loaded.lam == entropy.lam
        assert loaded.log_denominator == entropy.log_denominator
        np.testing.assert_array_equal(np.asarray(loaded.Z), entropy.Z)
        np.testing.assert_array_equal(
            np.asarray(loaded.profiles), entropy.profiles
        )


@pytest.mark.parametrize("num_workers", [1, 2, 3])
def test_streamed_screening_byte_identical(tmp_path, num_workers):
    g = small_graph(n=64, seed=3)
    path = str(tmp_path / "bundle")
    save_graph_bundle(g, path)
    entropy = RelativeEntropy.from_graph(g, lam=1.0)
    save_entropy_sidecar(path, entropy, RECIPE)
    ref = _build_screened(g, entropy, 6)
    mg = load_graph_bundle(path)
    for mmap_arrays in (True, False):
        seqs = build_entropy_sequences(
            mg, None, max_candidates=6, num_workers=num_workers,
            state_loader=ScreenStateLoader(
                path, max_candidates=6, mmap_arrays=mmap_arrays
            ),
        )
        np.testing.assert_array_equal(seqs.remote, ref.remote)
        np.testing.assert_array_equal(seqs.remote_scores, ref.remote_scores)
        np.testing.assert_array_equal(seqs.flat_neighbors, ref.flat_neighbors)
        for mine, theirs in zip(seqs.neighbor_scores, ref.neighbor_scores):
            np.testing.assert_array_equal(mine, theirs)


def test_screen_state_loader_pickles_and_builds(bundle_dir):
    import pickle

    g, path = bundle_dir
    save_entropy_sidecar(path, RelativeEntropy.from_graph(g, lam=1.0), RECIPE)
    loader = ScreenStateLoader(path, max_candidates=4)
    # The loader holds a path and parameters, not arrays.
    clone = pickle.loads(pickle.dumps(loader))
    state = clone()
    assert state.num_nodes == g.num_nodes
    assert state.max_candidates == 4
    assert state.release is not None
    # The materialised twin: same params, no releaser, plain arrays.
    twin = ScreenStateLoader(path, max_candidates=4, mmap_arrays=False)()
    assert twin.release is None
    assert twin.block_rows == state.block_rows
    assert twin.screen_size == state.screen_size
    np.testing.assert_array_equal(
        np.asarray(twin.Z32), np.asarray(state.Z32)
    )


# -- PropagationRowSource: bitwise row service -------------------------------


@pytest.mark.parametrize("key,builder", [
    ("adjacency", lambda g: g.adjacency()),
    ("gcn_norm", lambda g: gcn_norm(g)),
    ("row_norm", lambda g: row_norm(g)),
])
def test_row_source_bitwise_vs_materialised(bundle_dir, key, builder):
    g, path = bundle_dir
    mg = load_graph_bundle(path)
    ref = sp.csr_matrix(builder(g))
    src = PropagationRowSource(mg, key)
    assert src.add_self_loops == (key == "gcn_norm")
    n = g.num_nodes
    row_sets = [
        np.arange(n),                     # everything
        np.array([0]), np.array([n - 1]),  # boundaries
        np.arange(3, min(9, n)),          # contiguous run
        np.unique(np.array([1, 4, 5, 6, n - 2]) % n),  # scattered + runs
    ]
    for rows in row_sets:
        got = src[rows]
        want = ref[rows]
        np.testing.assert_array_equal(got.indptr, want.indptr)
        # Bitwise: scipy's matmul column ordering must be replicated
        # exactly (row_norm serves reverse-sorted columns).
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
    block = src.row_block(2, min(11, n))
    want = ref[2 : min(11, n)]
    np.testing.assert_array_equal(block.indices, want.indices)
    assert block.data.tobytes() == want.data.tobytes()


def test_row_source_rejects_unknown_key(bundle_dir):
    _, path = bundle_dir
    with pytest.raises(ValueError, match="key"):
        PropagationRowSource(load_graph_bundle(path), "laplacian")


# -- streamed incremental evaluation -----------------------------------------


@pytest.mark.parametrize("model_cls", [GCN, GraphSAGE])
def test_streamed_evaluator_bitwise(tmp_path, model_cls):
    g = small_graph(n=50, seed=7)
    path = str(tmp_path / "bundle")
    save_graph_bundle(g, path)
    mg = load_graph_bundle(path)
    rng = np.random.default_rng(11)
    model = model_cls(g.num_features, g.num_classes, hidden=8,
                      rng=np.random.default_rng(5))
    ref_ev = IncrementalEvaluator(model, g)
    mm_ev = IncrementalEvaluator(model, mg)
    mask = np.arange(g.num_nodes) % 3 == 0

    assert mm_ev.predict_logits(mg).tobytes() == \
        ref_ev.predict_logits(g).tobytes()
    assert mm_ev.stats["stream_states"] == 1
    assert ref_ev.stats["stream_states"] == 0

    for _ in range(4):
        u = int(rng.integers(g.num_nodes - 1))
        v = int(rng.integers(u + 1, g.num_nodes))
        edit = (g.remove_edges, mg.remove_edges) if g.has_edge(u, v) else \
            (g.add_edges, mg.add_edges)
        ref = ref_ev.predict_logits(edit[0]([(u, v)]))
        got = mm_ev.predict_logits(edit[1]([(u, v)]))
        assert got.tobytes() == ref.tobytes()
        assert masked_metrics(got, mg.labels, mask) == \
            masked_metrics(ref, g.labels, mask)
    assert mm_ev.stats["halo_evals"] == ref_ev.stats["halo_evals"]


def test_memmap_dense_fallback_bitwise(tmp_path):
    """max_halo_frac=0 forces the dense path: memmap graphs route it
    through the chunked adjacency build, still bitwise."""
    g = small_graph(n=30, seed=9)
    path = str(tmp_path / "bundle")
    save_graph_bundle(g, path)
    mg = load_graph_bundle(path)
    model = GCN(g.num_features, g.num_classes, hidden=8,
                rng=np.random.default_rng(5))
    ref_ev = IncrementalEvaluator(model, g, max_halo_frac=0.0)
    mm_ev = IncrementalEvaluator(model, mg, max_halo_frac=0.0)
    edited_ref = g.add_edges([(0, g.num_nodes - 1)])
    edited_mm = mg.add_edges([(0, mg.num_nodes - 1)])
    ref = ref_ev.predict_logits(edited_ref)
    got = mm_ev.predict_logits(edited_mm)
    assert got.tobytes() == ref.tobytes()
