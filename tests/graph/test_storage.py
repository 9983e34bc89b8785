"""Graph bundles: the on-disk format, its load-time checks and the
entropy sidecar.

The load-bearing invariant is *equality*: a graph read from a bundle is
an in-RAM :class:`Graph` equal, array for array, to the graph it was
saved from, and a corrupt bundle is rejected with one line naming the
array.
"""

import json
import os

import numpy as np
import pytest

from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy
from repro.graph import Graph
from repro.graph.storage import (
    BUNDLE_META,
    BUNDLE_VERSION,
    GraphBundle,
    entropy_sidecar_meta,
    has_entropy_sidecar,
    load_entropy_sidecar,
    load_graph_bundle,
    save_entropy_sidecar,
    save_graph_bundle,
)


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


def test_bundle_roundtrip(bundle_dir):
    """A bundle reads back as a plain in-RAM graph equal to the one
    saved, carrying its bundle handle."""
    g, path = bundle_dir
    loaded = load_graph_bundle(path)
    assert type(loaded) is Graph and loaded == g
    assert loaded.bundle.path == path
    for arr in (loaded.edge_keys(), loaded.features, loaded.labels):
        assert type(arr) is np.ndarray  # read into RAM, not memory-mapped
    assert GraphBundle.open(path).graph() == g


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
    indptr = bundle.load("indptr")
    indices = bundle.load("indices")
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


def _flip_last_key(path):
    """Store the bundle's last edge ``(u, v)`` as ``v * N + u``: still
    sorted and unique, no longer canonical."""
    with open(os.path.join(path, BUNDLE_META)) as fh:
        n = json.load(fh)["num_nodes"]

    def flip(keys):
        u, v = divmod(int(keys[-1]), n)
        keys = keys.copy()
        keys[-1] = v * n + u
        return keys

    _resave(path, "edge_keys", flip)


def _nan_first_entry(features):
    features = features.copy()
    features[0, 0] = np.nan
    return features


#: Hand edits that each used to load without error, and the array the
#: rejection must name.
BUNDLE_CORRUPTIONS = {
    "num_nodes_plus_5": (
        "indptr",
        lambda p: _edit_manifest(
            p, lambda m: m.update(num_nodes=m["num_nodes"] + 5)
        ),
    ),
    "indptr_unlisted": (
        "indptr",
        lambda p: _edit_manifest(p, lambda m: m["arrays"].pop("indptr")),
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
    # The arrays below keep the manifest's dtype and shape; only a check
    # of their values finds them.
    "edge_keys_reversed": (
        "edge_keys", lambda p: _resave(p, "edge_keys", lambda a: a[::-1])
    ),
    "edge_keys_duplicate": (
        "edge_keys",
        lambda p: _resave(
            p, "edge_keys", lambda a: np.concatenate([a[:1], a[:-1]])
        ),
    ),
    "edge_keys_non_canonical": ("edge_keys", _flip_last_key),
    "features_nan": (
        "features", lambda p: _resave(p, "features", _nan_first_entry)
    ),
}


@pytest.mark.parametrize("corruption", sorted(BUNDLE_CORRUPTIONS))
def test_bundle_contradicting_its_manifest_is_rejected(tmp_path, corruption):
    """Every hand edit, whether it contradicts the manifest or only the
    :class:`Graph` invariants, fails the load with one line."""
    from repro.datasets import load_dataset

    array, corrupt = BUNDLE_CORRUPTIONS[corruption]
    path = str(tmp_path / "bundle")
    save_graph_bundle(load_dataset("texas", scale=0.5, seed=0), path)
    corrupt(path)
    with pytest.raises(ValueError, match=f"bundle array '{array}'") as info:
        load_graph_bundle(path)
    assert "\n" not in str(info.value)


def test_functional_edits_return_plain_graphs(bundle_dir):
    """An edit of a bundle-loaded graph is a new graph that carries no
    bundle: the sidecar caches the stored graph's entropy only."""
    g, path = bundle_dir
    mg = load_graph_bundle(path)
    u, v = 0, mg.num_nodes - 1
    edited = mg.add_edges([(u, v)]) if not mg.has_edge(u, v) else mg.remove_edges(
        [(u, v)]
    )
    ref = g.add_edges([(u, v)]) if not g.has_edge(u, v) else g.remove_edges([(u, v)])
    np.testing.assert_array_equal(edited.edge_keys(), ref.edge_keys())
    assert getattr(edited, "bundle", None) is None


def test_resave_bundle_graph_roundtrips(bundle_dir, tmp_path):
    g, path = bundle_dir
    mg = load_graph_bundle(path)
    path2 = str(tmp_path / "copy")
    save_graph_bundle(mg, path2)
    again = load_graph_bundle(path2)
    np.testing.assert_array_equal(again.edge_keys(), g.edge_keys())
    np.testing.assert_array_equal(again.features, g.features)


# -- entropy sidecar ----------------------------------------------------------


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
    assert sorted(meta["arrays"]) == ["Z", "profiles"]
    loaded = load_entropy_sidecar(path)
    for name in ("lam", "log_denominator", "feature_scale", "structural_mode"):
        assert getattr(loaded, name) == getattr(entropy, name)
    assert loaded.Z.tobytes() == entropy.Z.tobytes()
    assert loaded.profiles.tobytes() == entropy.profiles.tobytes()


def test_sidecar_with_derived_screening_arrays_loads(bundle_dir):
    """Earlier builds also stored the screen's derived arrays (``Z32``,
    ``U``, ``lengths``) in the sidecar; the reader reads ``Z`` and
    ``profiles`` only, so such a sidecar still loads."""
    g, path = bundle_dir
    entropy = RelativeEntropy.from_graph(g)
    edir = save_entropy_sidecar(path, entropy, RECIPE)
    meta_path = os.path.join(edir, "entropy.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    z32 = entropy.Z.astype(np.float32)
    np.save(os.path.join(edir, "Z32.npy"), z32)
    meta["arrays"]["Z32"] = {
        "dtype": "float32", "shape": list(z32.shape), "nbytes": z32.nbytes,
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    assert load_entropy_sidecar(path).Z.tobytes() == entropy.Z.tobytes()
