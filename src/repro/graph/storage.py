"""Out-of-core graph storage: versioned on-disk bundles + memmap graphs.

A *graph bundle* is a directory holding one ``.npy`` file per array —
sorted canonical edge keys, the adjacency CSR (``indptr``/``indices``),
features and labels — plus a ``bundle.json`` manifest carrying the format
version and shape metadata.  The layout is chosen so every consumer can
open the arrays with ``np.load(..., mmap_mode="r")`` and read only the
pages it touches:

* :class:`MemmapGraph` is a :class:`~repro.graph.Graph` whose primary
  state lives on such memmaps.  Binary searches over the edge keys, CSR
  row slices and degree lookups never materialise the arrays;
  :meth:`~repro.graph.Graph.adjacency` (the dense fallback some consumers
  still need) is built through a chunked streaming copy and counted in
  telemetry so accidental re-materialisation is visible.
* The *entropy sidecar* (``entropy/`` inside the bundle) persists the
  screen-then-rescore engine's read-only state — embeddings, degree
  profiles and the scorer's folded suffix arrays — so a bundle-backed
  build assembles its :class:`~repro.entropy.screening.ScreenState` from
  memmaps instead of computing it (:class:`ScreenStateLoader`, the
  ``state_loader`` of :func:`~repro.entropy.build_entropy_sequences`).
* :func:`advise_dontneed` drops the clean file-backed pages of a memmap
  back to the page cache, which is what bounds a streaming run's peak RSS
  to its working set instead of the bundle size.

Everything stored is the byte-exact output of the in-RAM builders, so a
bundle-backed pipeline and an in-RAM pipeline given the same engine
parameters produce byte-identical screening and rewiring results (see
``docs/out-of-core.md`` for the full contract).
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..telemetry import get_telemetry
from .graph import Graph

#: On-disk format version of the bundle directory layout.  Readers reject
#: bundles written by a newer layout with a clear error instead of
#: misinterpreting the arrays.
BUNDLE_VERSION = 1

#: Manifest file name inside a bundle directory.
BUNDLE_META = "bundle.json"

#: Manifest file name of the entropy sidecar (inside ``<bundle>/entropy``).
ENTROPY_META = "entropy.json"

#: Rows copied per step by the chunked array writers/readers.  Sized so a
#: float64 feature chunk stays a few MB — small enough never to matter for
#: peak RSS, large enough that the copy loop is all memcpy.
DEFAULT_CHUNK_ROWS = 65_536


# ---------------------------------------------------------------------------
# Page-residency control
# ---------------------------------------------------------------------------
def _backing_mmap(arr) -> Optional[mmap.mmap]:
    """The ``mmap`` object backing ``arr`` (walking views), or ``None``."""
    seen = 0
    while arr is not None and seen < 16:
        candidate = getattr(arr, "_mmap", None)
        if isinstance(candidate, mmap.mmap):
            return candidate
        arr = getattr(arr, "base", None)
        seen += 1
    return None


def advise_dontneed(*arrays) -> int:
    """Drop the resident pages of each memmap-backed array.

    ``MADV_DONTNEED`` on a read-only file mapping releases the process's
    page-table entries (the data stays in the OS page cache, so the next
    access is a cheap minor fault).  This is the primitive the streaming
    pipeline uses to keep peak RSS bounded by its working set.  Arrays
    that are not memmap-backed are ignored; returns how many mappings
    were actually advised.
    """
    if not hasattr(mmap, "MADV_DONTNEED"):  # non-Linux fallback: no-op
        return 0
    dropped = 0
    seen = set()
    for arr in arrays:
        m = _backing_mmap(arr)
        if m is None or id(m) in seen:
            continue
        seen.add(id(m))
        try:
            m.madvise(mmap.MADV_DONTNEED)
            dropped += 1
        except (OSError, ValueError):  # closed / unsupported mapping
            continue
    return dropped


class MmapReleaser:
    """Two-tier page-release policy for a streaming shard worker.

    ``step()`` is called once per row block and drops the *gather* arrays
    (scorer state read at random row offsets, whose residency would
    otherwise grow to the full array) every ``every`` calls; ``flush()``
    runs at shard end and additionally drops the arrays that must stay
    resident across blocks (the screen's GEMM operand, the CSR).
    ``every=0`` disables the per-block tier.
    """

    def __init__(self, gather: Sequence, persistent: Sequence = (), every: int = 1):
        self.gather = [a for a in gather if a is not None]
        self.persistent = [a for a in persistent if a is not None]
        self.every = int(every)
        self._calls = 0

    def step(self) -> None:
        """Count one block; every ``every``-th call releases the
        per-block ``gather`` arrays' pages."""
        if not self.every:
            return
        self._calls += 1
        if self._calls % self.every:
            return
        n = advise_dontneed(*self.gather)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("storage.page_releases", n)

    def flush(self) -> None:
        """Release the pages of every tracked array, persistent ones
        included (the end of a shard)."""
        n = advise_dontneed(*self.gather, *self.persistent)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("storage.page_releases", n)


# ---------------------------------------------------------------------------
# Chunked .npy writers
# ---------------------------------------------------------------------------
def _write_array_chunked(
    path: str,
    arr: np.ndarray,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    fortran_order: bool = False,
) -> int:
    """Write ``arr`` to ``path`` as ``.npy`` by row chunks; returns nbytes.

    The destination is an ``open_memmap``, so no second in-RAM copy of the
    array is ever made — the source may itself be a memmap (re-saving a
    bundle) or a live array.
    """
    out = np.lib.format.open_memmap(
        path,
        mode="w+",
        dtype=arr.dtype,
        shape=arr.shape,
        fortran_order=fortran_order,
    )
    if arr.ndim == 0 or not arr.shape[0]:
        out.flush()
        nbytes = int(out.nbytes)
        del out
        return nbytes
    for start in range(0, arr.shape[0], max(chunk_rows, 1)):
        stop = min(arr.shape[0], start + chunk_rows)
        out[start:stop] = arr[start:stop]
    out.flush()
    nbytes = int(out.nbytes)
    del out
    return nbytes


# ---------------------------------------------------------------------------
# The bundle container
# ---------------------------------------------------------------------------
class GraphBundle:
    """Handle on an on-disk graph bundle directory.

    Thin and stateless apart from the parsed manifest: arrays are opened
    on demand (memmapped by default) and nothing is cached here, so a
    bundle can be shared across processes by path alone.
    """

    def __init__(self, path: str, meta: Dict) -> None:
        self.path = path
        self.meta = meta

    # -- open / manifest ------------------------------------------------
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

    def load(self, name: str, mmap_arrays: bool = True) -> np.ndarray:
        """Open one stored array (memmapped unless ``mmap_arrays=False``)."""
        if not self.has(name):
            raise KeyError(f"bundle {self.path!r} has no array {name!r}")
        tel = get_telemetry()
        if not tel.enabled:
            return np.load(
                self.array_path(name), mmap_mode="r" if mmap_arrays else None
            )
        with tel.span("storage.load", hist="io.read_s", array=name):
            arr = np.load(
                self.array_path(name), mmap_mode="r" if mmap_arrays else None
            )
        if not mmap_arrays:
            tel.count("storage.bytes_read", int(arr.nbytes))
        return arr

    def nbytes(self, name: str) -> int:
        """Stored size of one array (from the manifest, no file access)."""
        return int(self.meta["arrays"][name]["nbytes"])

    # -- accounting -----------------------------------------------------
    def materialized_nbytes(self) -> int:
        """Bytes an in-RAM run of the same pipeline holds resident.

        The sum of every stored array plus the derived structures a
        :class:`~repro.graph.Graph` materialises on top of them — the
        ``(E, 2)`` canonical pair view, the scipy CSR adjacency (float64
        data + int32 indices/indptr) and the degree vector.  This is the
        denominator of the out-of-core RSS contract
        (``docs/out-of-core.md``).
        """
        total = sum(int(a["nbytes"]) for a in self.meta["arrays"].values())
        n = int(self.meta["num_nodes"])
        e = int(self.meta["num_edges"])
        total += 2 * e * 8              # edge_array (E, 2) int64
        total += 2 * e * 8              # adjacency data (2E float64)
        total += 2 * e * 4 + (n + 1) * 4  # adjacency indices/indptr int32
        total += n * 8                  # degrees int64
        return total

    # -- graph construction --------------------------------------------
    def graph(self, mmap_arrays: bool = True) -> Graph:
        """Construct the stored graph (see :func:`load_graph_bundle`)."""
        return load_graph_bundle(self.path, mmap_arrays=mmap_arrays, bundle=self)


def save_graph_bundle(
    graph: Graph, path: str, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> str:
    """Persist ``graph`` as a versioned ``.npy``-per-array bundle directory.

    Stores the sorted canonical edge keys, the CSR adjacency
    (``indptr``/``indices`` as int64), and — when present — features and
    labels.  All writes stream row chunks into ``open_memmap`` targets, so
    saving adds only one chunk of transient memory on top of what the
    source graph already holds (re-saving a :class:`MemmapGraph` never
    materialises its arrays at all).
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

    manifest: Dict[str, Dict] = {}
    tel = get_telemetry()
    for name, arr in arrays.items():
        with tel.span("storage.save", array=name):
            nbytes = _write_array_chunked(
                graph_bundle_array_path(path, name), arr, chunk_rows
            )
        manifest[name] = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "nbytes": nbytes,
        }
        if tel.enabled:
            tel.count("storage.bytes_written", nbytes)

    meta = {
        "format": "repro-graph-bundle",
        "version": BUNDLE_VERSION,
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "arrays": manifest,
    }
    with open(os.path.join(path, BUNDLE_META), "w") as f:
        json.dump(meta, f, indent=2)
    return path


def graph_bundle_array_path(path: str, name: str) -> str:
    """Path of one array file inside a bundle directory."""
    return os.path.join(path, f"{name}.npy")


def load_graph_bundle(
    path: str, mmap_arrays: bool = True, bundle: Optional[GraphBundle] = None
) -> Graph:
    """Reconstruct the graph stored at ``path``.

    ``mmap_arrays=True`` (default) returns a :class:`MemmapGraph` whose
    arrays are lazily paged from disk; ``False`` loads every array into
    RAM and returns it wrapped in the same class (the "materialised twin"
    the out-of-core benchmark compares against — byte-identical data,
    identical code paths).  Arrays whose dtype or shape contradicts the
    manifest or ``num_nodes``, CSR lengths that disagree with the edge
    count, and negative labels raise one ``ValueError`` line naming the
    array.
    """
    if bundle is None:
        bundle = GraphBundle.open(path)
    return MemmapGraph._from_bundle(bundle, mmap_arrays=mmap_arrays)


def _check_bundle_arrays(meta: Dict, arrays: Dict[str, np.ndarray]) -> None:
    """Reject arrays that contradict the manifest, ``num_nodes`` or each
    other, with one ``ValueError`` line naming the array.

    Reads headers, lengths and ``indptr[-1]``; only the sign check of the
    labels reads a whole array (``N`` values).
    """
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
    features = arrays.get("features")
    if features is not None and (features.ndim != 2 or features.shape[0] != n):
        raise ValueError(
            f"bundle array 'features' has shape {features.shape}; "
            f"num_nodes={n} needs {n} rows"
        )
    labels = arrays.get("labels")
    if labels is not None:
        if labels.dtype.kind not in "iu" or labels.shape != (n,):
            raise ValueError(
                f"bundle array 'labels' is {labels.dtype} {labels.shape}; "
                f"num_nodes={n} needs integer ({n},)"
            )
        negative = np.flatnonzero(np.asarray(labels) < 0)
        if negative.shape[0]:
            first = int(negative[0])
            raise ValueError(
                f"bundle array 'labels' holds {negative.shape[0]} negative "
                f"labels, first {int(labels[first])} at node {first}"
            )


class MemmapGraph(Graph):
    """A :class:`~repro.graph.Graph` whose primary state is memmapped.

    Drop-in compatible: the sorted edge-key array *is* the graph's primary
    state, so every inherited operation (binary-search membership,
    functional edits, the entropy shard planner's
    ``edge_key_range``/``edge_key_slice``) works unchanged on the
    memmapped keys, touching only the pages the access pattern needs.
    The CSR accessors are overridden to serve the *stored* ``indptr``/
    ``indices`` instead of building a scipy adjacency, and
    :meth:`adjacency` — still needed by dense fallbacks — is a chunked
    streaming build counted in telemetry (``storage.materialize.*``).

    Functional edits (:meth:`~repro.graph.Graph.add_edges` /
    ``remove_edges``) return plain in-RAM :class:`~repro.graph.Graph`
    objects carrying a delta against this graph, which is exactly what
    the incremental reward engine patches from.
    """

    @classmethod
    def _from_bundle(
        cls, bundle: GraphBundle, mmap_arrays: bool = True
    ) -> "MemmapGraph":
        arrays = {
            name: bundle.load(name, mmap_arrays)
            for name in ("edge_keys", "indptr", "indices")
        }
        for name in ("features", "labels"):
            if bundle.has(name):
                arrays[name] = bundle.load(name, mmap_arrays)
        _check_bundle_arrays(bundle.meta, arrays)
        g = cls.__new__(cls)
        g.num_nodes = int(bundle.meta["num_nodes"])
        g._edge_keys = arrays["edge_keys"]
        g.features = arrays.get("features")
        g.labels = arrays.get("labels")
        g._init_derived()
        g.bundle = bundle
        g._bundle_indptr = arrays["indptr"]
        g._bundle_indices = arrays["indices"]
        return g

    @property
    def is_mmap(self) -> bool:
        """Whether the arrays are actually memmapped (vs loaded in RAM)."""
        return _backing_mmap(self._edge_keys) is not None

    # -- streaming accessors -------------------------------------------
    def csr_neighbors(self) -> Tuple[np.ndarray, np.ndarray]:
        """The *stored* CSR ``(indptr, indices)`` — no adjacency build."""
        return self._bundle_indptr, self._bundle_indices

    def degrees(self) -> np.ndarray:
        """Degrees from the stored ``indptr`` (one sequential pass)."""
        if self._deg is None:
            self._deg = np.diff(np.asarray(self._bundle_indptr)).astype(np.int64)
        return self._deg

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of node ``v`` from the stored CSR (int64 copy)."""
        lo, hi = int(self._bundle_indptr[v]), int(self._bundle_indptr[v + 1])
        return np.asarray(self._bundle_indices[lo:hi], dtype=np.int64)

    def csr_row_slice(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row-range CSR slice served straight from the stored arrays.

        Reads only the ``indptr[lo:hi+1]`` window and the covered span of
        ``indices`` — the touched CSR pages, nothing else.
        """
        if not (0 <= lo <= hi <= self.num_nodes):
            raise ValueError(
                f"row range [{lo}, {hi}) out of bounds for N={self.num_nodes}"
            )
        window = np.asarray(self._bundle_indptr[lo : hi + 1], dtype=np.int64)
        local = window - window[0]
        indices = np.asarray(
            self._bundle_indices[window[0] : window[-1]], dtype=np.int64
        )
        tel = get_telemetry()
        if tel.enabled:
            tel.count("storage.rows_streamed", hi - lo)
            tel.count("storage.bytes_read", int(window.nbytes + indices.nbytes))
        return local, indices

    def edge_key_slice(self, lo: int, hi: int) -> np.ndarray:
        """Canonical edge keys whose smaller endpoint lies in rows
        ``[lo, hi)``, read straight from the stored key array."""
        i0, i1 = self.edge_key_range(lo, hi)
        keys = np.asarray(self._edge_keys[i0:i1])
        tel = get_telemetry()
        if tel.enabled:
            tel.count("storage.rows_streamed", hi - lo)
            tel.count("storage.bytes_read", int(keys.nbytes))
        return keys

    # -- dense fallbacks (chunked, counted) -----------------------------
    def adjacency(self) -> sp.csr_matrix:
        """Materialised scipy CSR adjacency via a chunked streaming build.

        Identical (indices, indptr, data and dtypes) to the base class's
        COO-built adjacency, but assembled by copying the stored CSR in
        row chunks — peak transient memory is one chunk, and the read is
        visible in telemetry as a ``storage.materialize.adjacency`` count.
        """
        if self._adj is None:
            n = self.num_nodes
            nnz = int(self._bundle_indptr[-1])
            tel = get_telemetry()
            if tel.enabled:
                tel.count("storage.materialize.adjacency")
                tel.count(
                    "storage.bytes_read", int(nnz * 8 + (n + 1) * 8)
                )
            idx_dtype = sp.csr_matrix((1, 1)).indptr.dtype  # scipy's int32
            indptr = np.asarray(self._bundle_indptr).astype(idx_dtype)
            indices = np.empty(nnz, dtype=idx_dtype)
            step = max(DEFAULT_CHUNK_ROWS, 1)
            for start in range(0, nnz, step):
                stop = min(nnz, start + step)
                indices[start:stop] = self._bundle_indices[start:stop]
            self._adj = sp.csr_matrix(
                (np.ones(nnz), indices, indptr), shape=(n, n)
            )
        return self._adj

    def edge_array(self) -> np.ndarray:
        """The dense ``(E, 2)`` pair view — a counted materialisation."""
        if self._edge_array is None:
            tel = get_telemetry()
            if tel.enabled:
                tel.count("storage.materialize.edge_array")
        return super().edge_array()

    # -- residency ------------------------------------------------------
    def release(self) -> int:
        """Drop every resident page of this graph's memmapped arrays."""
        return advise_dontneed(
            self._edge_keys,
            self._bundle_indptr,
            self._bundle_indices,
            self.features,
            self.labels,
        )


# ---------------------------------------------------------------------------
# Entropy sidecar: persisted screen-then-rescore state
# ---------------------------------------------------------------------------
def _entropy_dir(path: str) -> str:
    return os.path.join(path, "entropy")


def save_entropy_sidecar(
    path: str,
    entropy,
    recipe: Dict,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> str:
    """Persist the screening engine's read-only state next to a bundle.

    ``entropy`` is a fully built
    :class:`~repro.entropy.RelativeEntropy`; the sidecar stores its
    embeddings (float64 and the float32 GEMM operand), degree profiles
    and the :class:`~repro.entropy.screening.PairEntropyScorer` arrays
    (``U`` in Fortran order, exactly as the in-RAM scorer lays it out),
    plus the scalar terms in ``entropy.json``.  Everything written is the
    byte-exact output of the in-RAM builders — a
    :class:`ScreenStateLoader` over this sidecar reproduces the in-RAM
    screen bit for bit.  ``recipe`` holds the JSON-ready build parameters
    the entropy was made with (``embedding`` and ``max_profile_len``; see
    :data:`repro.core.framework.ENTROPY_RECIPE`).  It is recorded in the
    manifest next to ``lam`` and ``structural_mode`` so a reader can check
    the sidecar matches the build it wants.
    """
    from ..entropy.screening import PairEntropyScorer

    edir = _entropy_dir(path)
    os.makedirs(edir, exist_ok=True)
    scorer = PairEntropyScorer.from_entropy(entropy)
    arrays = {
        "Z": np.asarray(entropy.Z, dtype=np.float64),
        "Z32": np.ascontiguousarray(entropy.Z, dtype=np.float32),
        "profiles": np.asarray(entropy.profiles),
        "U": scorer.U,
        "lengths": scorer.lengths,
    }
    if scorer.L is not None:
        arrays["L"] = scorer.L

    manifest: Dict[str, Dict] = {}
    tel = get_telemetry()
    for name, arr in arrays.items():
        fortran = bool(arr.ndim == 2 and arr.flags.f_contiguous and not arr.flags.c_contiguous)
        with tel.span("storage.save", array=f"entropy/{name}"):
            nbytes = _write_array_chunked(
                os.path.join(edir, f"{name}.npy"),
                arr,
                chunk_rows,
                fortran_order=fortran,
            )
        manifest[name] = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "nbytes": nbytes,
            "fortran": fortran,
        }
        if tel.enabled:
            tel.count("storage.bytes_written", nbytes)

    meta = {
        "version": BUNDLE_VERSION,
        "lam": float(entropy.lam),
        "log_denominator": float(entropy.log_denominator),
        "feature_scale": float(entropy.feature_scale),
        "structural_mode": entropy.structural_mode,
        **recipe,
        "arrays": manifest,
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
    streaming from it."""
    meta_path = os.path.join(_entropy_dir(path), ENTROPY_META)
    if not os.path.isfile(meta_path):
        raise FileNotFoundError(
            f"bundle {path!r} has no entropy sidecar; create one with "
            f"save_entropy_sidecar"
        )
    with open(meta_path) as f:
        return json.load(f)


def load_entropy_sidecar(path: str, mmap_arrays: bool = True):
    """Rebuild a :class:`~repro.entropy.RelativeEntropy` from a sidecar.

    With ``mmap_arrays=True`` the embeddings and profiles are memmaps —
    every accessor works lazily.  Mainly a debugging/inspection aid; the
    streaming pipeline itself goes through :class:`ScreenStateLoader`.
    """
    from ..entropy.relative_entropy import RelativeEntropy

    meta, arrays = _open_sidecar(path, mmap_arrays, ("Z", "profiles"))
    return RelativeEntropy(
        Z=arrays["Z"],
        log_denominator=meta["log_denominator"],
        profiles=arrays["profiles"],
        lam=meta["lam"],
        feature_scale=meta["feature_scale"],
        structural_mode=meta["structural_mode"],
    )


def _open_sidecar(
    path: str, mmap_arrays: bool, names: Sequence[str]
) -> Tuple[Dict, Dict[str, np.ndarray]]:
    edir = _entropy_dir(path)
    meta_path = os.path.join(edir, ENTROPY_META)
    if not os.path.isfile(meta_path):
        raise FileNotFoundError(
            f"bundle {path!r} has no entropy sidecar; create one with "
            f"save_entropy_sidecar"
        )
    with open(meta_path) as f:
        meta = json.load(f)
    version = meta.get("version")
    if version != BUNDLE_VERSION:
        raise ValueError(
            f"unsupported entropy-sidecar version {version!r} at {path!r}"
        )
    tel = get_telemetry()
    arrays = {}
    for name in names:
        if name not in meta["arrays"]:
            if name == "L":
                arrays[name] = None
                continue
            raise KeyError(f"entropy sidecar at {path!r} missing {name!r}")
        with tel.span("storage.load", hist="io.read_s", array=f"entropy/{name}"):
            arrays[name] = np.load(
                os.path.join(edir, f"{name}.npy"),
                mmap_mode="r" if mmap_arrays else None,
            )
        if tel.enabled and not mmap_arrays:
            tel.count("storage.bytes_read", int(arrays[name].nbytes))
    return meta, arrays


@dataclass
class ScreenStateLoader:
    """Recipe that builds the screened engine's state from a bundle path.

    This is the ``state_loader`` of
    :func:`~repro.entropy.build_entropy_sequences`: the build calls it
    once, it opens the bundle's arrays as memmaps and assembles the
    :class:`~repro.entropy.screening.ScreenState` that every shard thread
    then reads.  The loader also attaches a :class:`MmapReleaser` so the
    shard workers can drop gathered pages as they stream
    (``release_every`` blocks; ``0`` disables releasing, e.g. for the
    materialised twin).

    ``screen_size``/``block_rows`` default to the same formulas
    ``build_screen_state`` uses, so a loader-built state and an in-RAM
    state over the same arrays are byte-for-byte interchangeable.
    """

    path: str
    max_candidates: int
    screen_size: Optional[int] = None
    block_rows: Optional[int] = None
    release_every: int = 1
    mmap_arrays: bool = True

    def __call__(self):
        from ..entropy.screening import (
            PairEntropyScorer,
            ScreenState,
            default_screen_params,
            screen_sample,
        )

        tel = get_telemetry()
        with tel.span("storage.state_load", hist="io.read_s"):
            bundle = GraphBundle.open(self.path)
            indptr = bundle.load("indptr", self.mmap_arrays)
            indices = bundle.load("indices", self.mmap_arrays)
            meta, arrays = _open_sidecar(
                self.path,
                self.mmap_arrays,
                ("Z", "Z32", "profiles", "U", "lengths", "L"),
            )
            n = int(bundle.meta["num_nodes"])
            scorer = PairEntropyScorer(
                Z=arrays["Z"],
                log_denominator=meta["log_denominator"],
                feature_scale=meta["feature_scale"],
                lam=meta["lam"],
                mode=meta["structural_mode"],
                profiles=arrays["profiles"],
                lengths=arrays["lengths"],
                U=arrays["U"],
                L=arrays["L"],
            )
            screen_size, block_rows = default_screen_params(
                n, self.max_candidates, self.screen_size, self.block_rows
            )
            hs_max = 1.0 if meta["structural_mode"] == "js" else 1.0 + 1e-9
            release = None
            if self.mmap_arrays:
                release = MmapReleaser(
                    gather=[
                        arrays["Z"],
                        arrays["profiles"],
                        arrays["U"],
                        arrays["L"],
                    ],
                    persistent=[arrays["Z32"], indptr, indices],
                    every=self.release_every,
                )
            state = ScreenState(
                Z32=arrays["Z32"],
                scorer=scorer,
                indptr=indptr,
                indices=indices,
                num_nodes=n,
                max_candidates=self.max_candidates,
                screen_size=screen_size,
                hs_max=hs_max,
                block_rows=block_rows,
                sample=screen_sample(n),
                release=release,
            )
        if tel.enabled:
            tel.count("storage.shard_loads")
        return state


__all__ = [
    "BUNDLE_VERSION",
    "GraphBundle",
    "MemmapGraph",
    "MmapReleaser",
    "ScreenStateLoader",
    "advise_dontneed",
    "entropy_sidecar_meta",
    "has_entropy_sidecar",
    "load_entropy_sidecar",
    "load_graph_bundle",
    "save_entropy_sidecar",
    "save_graph_bundle",
]
