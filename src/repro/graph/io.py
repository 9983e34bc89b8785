"""Graph persistence: a single-file ``.npz`` format plus plain edge lists.

The npz layout stores the edge set, features and labels; it round-trips
exactly and keeps synthetic datasets reusable across benchmark runs.

Format versions
---------------
``version 1`` (legacy, no ``version`` field)
    ``num_nodes`` plus a dense ``(E, 2)`` ``edges`` pair array.  Still
    readable; never written anymore.
``version 2`` (current)
    ``num_nodes``, ``version`` and the sorted canonical ``edge_keys``
    vector (``u * N + v`` with ``u < v``) — the graph's primary state
    written as-is, so :func:`save_graph` no longer materialises the
    dense pair view at all.  Files claiming a newer version are
    rejected with a clear error instead of being misread.

For the directory layout of a graph bundle (per-array ``.npy`` files
plus a cached entropy sidecar), see :mod:`repro.graph.storage`.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from .graph import Graph, checked_features, checked_keys, checked_labels

#: Newest ``.npz`` layout version this build writes and understands.
FORMAT_VERSION = 2


def save_graph(graph: Graph, path: str) -> str:
    """Write ``graph`` to ``path`` (``.npz`` appended if missing)."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    payload = {
        "version": np.array([FORMAT_VERSION], dtype=np.int64),
        "num_nodes": np.array([graph.num_nodes], dtype=np.int64),
        "edge_keys": np.asarray(graph.edge_keys(), dtype=np.int64),
    }
    if graph.features is not None:
        payload["features"] = graph.features
    if graph.labels is not None:
        payload["labels"] = graph.labels
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.savez_compressed(path, **payload)
    return path


def load_graph(path: str) -> Graph:
    """Read a graph previously written by :func:`save_graph`.

    Understands every layout up to :data:`FORMAT_VERSION`; files written
    by a newer build raise ``ValueError`` rather than loading garbage.
    The arrays are checked as they enter: edge keys must be an integer,
    1-D, strictly increasing vector of canonical keys (``u < v < N``), and
    features and labels pass the checks of :class:`Graph`.  A failure is
    one ``ValueError`` line naming the array.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as data:
        version = int(data["version"][0]) if "version" in data else 1
        if version > FORMAT_VERSION:
            raise ValueError(
                f"graph file {path!r} uses format version {version}, but "
                f"this build reads at most version {FORMAT_VERSION}; "
                "upgrade the library or re-export the graph"
            )
        num_nodes = int(data["num_nodes"][0])
        if num_nodes <= 0:
            raise ValueError(
                f"graph file {path!r}: num_nodes must be positive, got "
                f"{num_nodes}"
            )
        features = data["features"] if "features" in data else None
        labels = data["labels"] if "labels" in data else None
        if version >= 2:
            keys = data["edge_keys"]
        else:
            keys = _keys_from_pairs(data["edges"], num_nodes, path)
    try:
        keys = checked_keys(keys, num_nodes)
        features = checked_features(features, num_nodes)
        labels = checked_labels(labels, num_nodes)
    except ValueError as exc:
        raise ValueError(f"graph file {path!r}: {exc}") from None
    return Graph._from_keys(num_nodes, keys, features=features, labels=labels)


def _keys_from_pairs(
    edges: np.ndarray, num_nodes: int, path: str
) -> np.ndarray:
    """Canonical sorted keys from a legacy ``(E, 2)`` pair array —
    vectorised (the v1 reader built a Python tuple list per edge)."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if pairs.size:
        if pairs.min() < 0 or pairs.max() >= num_nodes:
            raise ValueError(
                f"graph file {path!r}: edge endpoint out of range "
                f"[0, {num_nodes})"
            )
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ValueError(f"graph file {path!r}: self-loop edge")
    u = pairs.min(axis=1)
    v = pairs.max(axis=1)
    return np.unique(u * np.int64(num_nodes) + v)


def save_edge_list(graph: Graph, path: str) -> str:
    """Write a whitespace-separated ``u v`` edge list (one edge per line)."""
    with open(path, "w") as f:
        f.write(f"# num_nodes={graph.num_nodes}\n")
        for u, v in graph.edge_array().tolist():
            f.write(f"{u} {v}\n")
    return path


def load_edge_list(
    path: str,
    num_nodes: Optional[int] = None,
    features: Optional[np.ndarray] = None,
    labels: Optional[np.ndarray] = None,
) -> Graph:
    """Read an edge list; node count comes from the header comment, the
    ``num_nodes`` argument, or the maximum node id seen."""
    edges = []
    header_nodes = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "num_nodes=" in line:
                    header_nodes = int(line.split("num_nodes=")[1])
                continue
            u, v = line.split()[:2]
            edges.append((int(u), int(v)))
    if num_nodes is None:
        num_nodes = header_nodes
    if num_nodes is None:
        num_nodes = 1 + max((max(u, v) for u, v in edges), default=0)
    return Graph(num_nodes, edges, features=features, labels=labels)
