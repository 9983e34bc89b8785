"""Graph bundles: a versioned on-disk graph plus its entropy cache.

A *graph bundle* is a directory holding one ``.npy`` file per array —
sorted canonical edge keys, the adjacency CSR (``indptr``/``indices``),
features and labels — plus a ``bundle.json`` manifest carrying the format
version and shape metadata.  :func:`load_graph_bundle` reads every array
into RAM, checks it against the manifest and the :class:`~repro.graph.Graph`
invariants, and returns an ordinary in-RAM graph that carries its
:class:`GraphBundle` as ``graph.bundle``.

The *entropy sidecar* (``entropy/`` inside the bundle) caches the one-off
relative-entropy state GraphRARE computes before training (Sec. IV-A):
the embeddings ``Z``, the degree profiles and the scalar terms of a
:class:`~repro.entropy.RelativeEntropy`, with the recipe they were built
with.  :func:`repro.core.framework.relative_entropy` reads it instead of
recomputing (and writes it on first use); the sequence build then picks
its engine exactly as for any in-RAM graph, so a bundle-backed fit equals
the in-RAM fit of the same graph bit for bit (``docs/graph-bundles.md``).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

import numpy as np

from ..telemetry import get_telemetry
from .graph import Graph, checked_features, checked_keys, checked_labels

#: On-disk format version of the bundle directory layout.  Readers reject
#: bundles written by a newer layout with a clear error instead of
#: misinterpreting the arrays.
BUNDLE_VERSION = 1

#: Manifest file name inside a bundle directory.
BUNDLE_META = "bundle.json"

#: Manifest file name of the entropy sidecar (inside ``<bundle>/entropy``).
ENTROPY_META = "entropy.json"


def _save_arrays(directory: str, arrays: Dict[str, np.ndarray],
                 label: str = "") -> Dict[str, Dict]:
    """Write each array as ``<directory>/<name>.npy``; returns the
    manifest entries (dtype, shape, nbytes) keyed by name."""
    manifest: Dict[str, Dict] = {}
    tel = get_telemetry()
    for name, arr in arrays.items():
        with tel.span("storage.save", array=label + name):
            np.save(os.path.join(directory, f"{name}.npy"), arr)
        manifest[name] = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "nbytes": int(arr.nbytes),
        }
        if tel.enabled:
            tel.count("storage.bytes_written", int(arr.nbytes))
    return manifest


def _load_array(path: str, label: str) -> np.ndarray:
    """Read one ``.npy`` file into RAM, timed as a ``storage.load`` span."""
    tel = get_telemetry()
    if not tel.enabled:
        return np.load(path)
    with tel.span("storage.load", hist="io.read_s", array=label):
        arr = np.load(path)
    tel.count("storage.bytes_read", int(arr.nbytes))
    return arr


# ---------------------------------------------------------------------------
# The bundle container
# ---------------------------------------------------------------------------
class GraphBundle:
    """Handle on an on-disk graph bundle directory.

    Holds the path and the parsed manifest only: arrays are read on
    demand and nothing is cached here, so a bundle can be shared by path
    alone.
    """

    def __init__(self, path: str, meta: Dict) -> None:
        self.path = path
        self.meta = meta

    @classmethod
    def open(cls, path: str) -> "GraphBundle":
        """Open an existing bundle, validating format and version."""
        meta_path = os.path.join(path, BUNDLE_META)
        if not os.path.isfile(meta_path):
            raise FileNotFoundError(
                f"{path!r} is not a graph bundle (missing {BUNDLE_META})"
            )
        with open(meta_path) as f:
            meta = json.load(f)
        if meta.get("format") != "repro-graph-bundle":
            raise ValueError(
                f"{path!r} is not a graph bundle "
                f"(format={meta.get('format')!r})"
            )
        version = meta.get("version")
        if version != BUNDLE_VERSION:
            raise ValueError(
                f"unsupported graph-bundle version {version!r} at {path!r}; "
                f"this build reads version {BUNDLE_VERSION} — re-create the "
                f"bundle with save_graph_bundle"
            )
        return cls(path, meta)

    def array_path(self, name: str) -> str:
        """Path of the stored ``name.npy`` file (present or not)."""
        return os.path.join(self.path, f"{name}.npy")

    def has(self, name: str) -> bool:
        """Whether the bundle's metadata lists array ``name``."""
        return name in self.meta["arrays"]

    def load(self, name: str) -> np.ndarray:
        """Read one stored array into RAM."""
        if not self.has(name):
            raise KeyError(f"bundle {self.path!r} has no array {name!r}")
        return _load_array(self.array_path(name), name)

    def graph(self) -> Graph:
        """Construct the stored graph (see :func:`load_graph_bundle`)."""
        return load_graph_bundle(self.path, bundle=self)


def save_graph_bundle(graph: Graph, path: str) -> str:
    """Persist ``graph`` as a versioned ``.npy``-per-array bundle directory.

    Stores the sorted canonical edge keys, the CSR adjacency
    (``indptr``/``indices`` as int64), and — when present — features and
    labels, each with ``np.save``.
    """
    os.makedirs(path, exist_ok=True)
    indptr, indices = graph.csr_neighbors()
    arrays: Dict[str, np.ndarray] = {
        "edge_keys": graph.edge_keys(),
        "indptr": np.asarray(indptr, dtype=np.int64),
        "indices": np.asarray(indices, dtype=np.int64),
    }
    if graph.features is not None:
        arrays["features"] = graph.features
    if graph.labels is not None:
        arrays["labels"] = graph.labels
    meta = {
        "format": "repro-graph-bundle",
        "version": BUNDLE_VERSION,
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "arrays": _save_arrays(path, arrays),
    }
    with open(os.path.join(path, BUNDLE_META), "w") as f:
        json.dump(meta, f, indent=2)
    return path


def load_graph_bundle(path: str, bundle: Optional[GraphBundle] = None) -> Graph:
    """Read the graph stored at ``path`` into RAM.

    Returns a plain :class:`~repro.graph.Graph` whose ``bundle`` attribute
    is the :class:`GraphBundle` it came from (edits of it are new graphs
    and carry none).  The arrays are checked as they enter: a required
    array the manifest does not list, a dtype or shape that contradicts
    the manifest or ``num_nodes``, CSR lengths that disagree with the
    edge count, edge keys that are not strictly increasing canonical keys
    ``u * N + v`` (``0 <= u < v < N``), and features or labels that
    :class:`~repro.graph.Graph` would reject each raise one
    ``ValueError`` line naming the array.
    """
    if bundle is None:
        bundle = GraphBundle.open(path)
    names = ["edge_keys", "indptr", "indices"]
    for name in names:
        if not bundle.has(name):
            raise ValueError(f"bundle array {name!r} is not in the manifest")
    names += [name for name in ("features", "labels") if bundle.has(name)]
    arrays = {name: bundle.load(name) for name in names}
    _check_bundle_arrays(bundle.meta, arrays)
    n = int(bundle.meta["num_nodes"])
    checked = {}
    for name, check in (
        ("edge_keys", checked_keys),
        ("features", checked_features),
        ("labels", checked_labels),
    ):
        try:
            checked[name] = check(arrays.get(name), n)
        except ValueError as exc:
            raise ValueError(f"bundle array {name!r}: {exc}") from None
    graph = Graph._from_keys(
        n, checked["edge_keys"], checked["features"], checked["labels"]
    )
    graph.bundle = bundle
    return graph


def _check_bundle_arrays(meta: Dict, arrays: Dict[str, np.ndarray]) -> None:
    """Reject arrays that contradict the manifest, ``num_nodes`` or each
    other, with one ``ValueError`` line naming the array."""
    n, e = int(meta["num_nodes"]), int(meta["num_edges"])
    for name, arr in arrays.items():
        listed = meta["arrays"][name]
        dtype, shape = listed.get("dtype"), tuple(listed.get("shape", ()))
        if str(arr.dtype) != dtype or arr.shape != shape:
            raise ValueError(
                f"bundle array {name!r} is {arr.dtype} {arr.shape}, but the "
                f"manifest lists {dtype} {shape}"
            )
    for name, shape in (
        ("edge_keys", (e,)), ("indptr", (n + 1,)), ("indices", (2 * e,)),
    ):
        arr = arrays[name]
        if arr.dtype != np.int64 or arr.shape != shape:
            raise ValueError(
                f"bundle array {name!r} is {arr.dtype} {arr.shape}; "
                f"num_nodes={n} and num_edges={e} need int64 {shape}"
            )
    nnz = int(arrays["indptr"][-1])
    if nnz != 2 * e:
        raise ValueError(
            f"bundle array 'indptr' ends at {nnz}, but num_edges={e} "
            f"stores {2 * e} neighbour entries"
        )
    labels = arrays.get("labels")
    if labels is not None and labels.dtype.kind not in "iu":
        raise ValueError(
            f"bundle array 'labels' is {labels.dtype}; labels must be integers"
        )


# ---------------------------------------------------------------------------
# Entropy sidecar: the persisted relative-entropy state
# ---------------------------------------------------------------------------
def _entropy_dir(path: str) -> str:
    return os.path.join(path, "entropy")


def save_entropy_sidecar(path: str, entropy, recipe: Dict) -> str:
    """Persist a :class:`~repro.entropy.RelativeEntropy` next to a bundle.

    Stores what the object holds: the embeddings ``Z`` and the degree
    profiles as ``.npy`` files, and the scalar terms (``lam``,
    ``log_denominator``, ``feature_scale``, ``structural_mode``) in
    ``entropy.json``.  ``recipe`` holds the JSON-ready build parameters
    the entropy was made with (see
    :data:`repro.core.framework.ENTROPY_RECIPE`); it is recorded in the
    manifest so a reader can check the sidecar matches the build it wants.
    """
    edir = _entropy_dir(path)
    os.makedirs(edir, exist_ok=True)
    arrays = {
        "Z": np.asarray(entropy.Z, dtype=np.float64),
        "profiles": np.asarray(entropy.profiles),
    }
    meta = {
        "version": BUNDLE_VERSION,
        "lam": float(entropy.lam),
        "log_denominator": float(entropy.log_denominator),
        "feature_scale": float(entropy.feature_scale),
        "structural_mode": entropy.structural_mode,
        **recipe,
        "arrays": _save_arrays(edir, arrays, label="entropy/"),
    }
    with open(os.path.join(edir, ENTROPY_META), "w") as f:
        json.dump(meta, f, indent=2)
    return edir


def has_entropy_sidecar(path: str) -> bool:
    """Whether the bundle at ``path`` carries a persisted entropy state."""
    return os.path.isfile(os.path.join(_entropy_dir(path), ENTROPY_META))


def entropy_sidecar_meta(path: str) -> Dict:
    """The sidecar's manifest (lam, structural mode, any recorded recipe,
    array inventory) — what a pipeline checks against its config before
    reusing it."""
    meta_path = os.path.join(_entropy_dir(path), ENTROPY_META)
    if not os.path.isfile(meta_path):
        raise FileNotFoundError(
            f"bundle {path!r} has no entropy sidecar; create one with "
            f"save_entropy_sidecar"
        )
    with open(meta_path) as f:
        return json.load(f)


def load_entropy_sidecar(path: str):
    """Read a bundle's sidecar into an in-RAM
    :class:`~repro.entropy.RelativeEntropy`.

    Only ``Z`` and ``profiles`` are read, so sidecars that also store
    derived screening arrays (``Z32``, ``U``, ``lengths``, ``L``, written
    by earlier builds) load unchanged.
    """
    from ..entropy.relative_entropy import RelativeEntropy

    meta = entropy_sidecar_meta(path)
    version = meta.get("version")
    if version != BUNDLE_VERSION:
        raise ValueError(
            f"unsupported entropy-sidecar version {version!r} at {path!r}"
        )
    arrays = {}
    for name in ("Z", "profiles"):
        if name not in meta["arrays"]:
            raise KeyError(f"entropy sidecar at {path!r} missing {name!r}")
        arrays[name] = _load_array(
            os.path.join(_entropy_dir(path), f"{name}.npy"), f"entropy/{name}"
        )
    return RelativeEntropy(
        Z=arrays["Z"],
        log_denominator=meta["log_denominator"],
        profiles=arrays["profiles"],
        lam=meta["lam"],
        feature_scale=meta["feature_scale"],
        structural_mode=meta["structural_mode"],
    )


__all__ = [
    "BUNDLE_VERSION",
    "GraphBundle",
    "entropy_sidecar_meta",
    "has_entropy_sidecar",
    "load_entropy_sidecar",
    "load_graph_bundle",
    "save_entropy_sidecar",
    "save_graph_bundle",
]
