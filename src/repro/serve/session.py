"""Artifacts and multi-tenant sessions of the rewiring service.

Two tiers of shared state, mirroring what is expensive to build versus
what is per-tenant:

* :class:`GraphArtifact` — everything derived from a
  :class:`SessionSpec` alone: the loaded graph, its entropy sequences,
  a warmed GNN backbone and the
  :class:`~repro.rl.vector.stacked.StackedGraphBuilder` the batcher
  scores through.  Artifacts are memoised on the spec's key, so two
  sessions asking about the same dataset/config share one build (and
  one set of cached propagation matrices).
* :class:`GraphSession` — a tenant's handle: a reference to its
  artifact plus a private ``(k, d)`` rewire memo
  (:class:`~repro.core.lru.LRUCache`) of rewires of the live topology
  only: a churn that changes the topology empties it.  Sessions are
  cheap; the :class:`SessionManager` LRU-evicts the stalest when the
  configured bound would be exceeded.  In-flight requests hold strong
  session references, so eviction mid-request only prevents *new*
  lookups — the running batch completes safely against the evicted
  object.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import RareConfig
from ..core.lru import LRUCache
from ..core.rewire import clamp_state, rewire_graph
from ..entropy import RelativeEntropy, build_entropy_sequences
from ..datasets import dataset_names
from ..gnn import BACKBONES, Trainer, build_backbone
from ..graph import Graph, geom_gcn_splits
from ..nn import masked_metrics
from ..rl.vector.stacked import StackedGraphBuilder
from ..telemetry import Telemetry, get_telemetry, use_telemetry
from .protocol import BadRequestError, UnknownSessionError

__all__ = [
    "GraphArtifact",
    "GraphSession",
    "SessionManager",
    "SessionSpec",
    "build_artifact",
]


@dataclass(frozen=True)
class SessionSpec:
    """What a tenant asks to be served: dataset + model recipe.

    Frozen (hashable) on purpose — the spec *is* the artifact-dedup key,
    so two sessions opened with equal specs share one
    :class:`GraphArtifact`.  Values are validated on construction
    (``ValueError``), so a bad spec fails before any artifact build.
    """

    dataset: str = "cornell"
    """A :func:`repro.datasets.load_dataset` name, or ``"synthetic"`` for
    a planted-partition graph sized by ``num_nodes``/``num_features`` —
    the offline path tests and benches use (no dataset files needed)."""
    scale: float = 0.1
    seed: int = 0
    num_nodes: int = 600
    """Synthetic-graph size (``dataset="synthetic"`` only)."""
    num_features: int = 32
    """Synthetic-graph feature width (``dataset="synthetic"`` only)."""
    backbone: str = "gcn"
    hidden: int = 32
    lam: float = 1.0
    k_max: int = 4
    d_max: int = 4
    warmup_epochs: int = 8
    """Training epochs baked into the artifact so scores are informative
    from the first request (the co-training warm start's counterpart)."""

    def __post_init__(self) -> None:
        names = dataset_names()
        if not (self.dataset == "synthetic"
                or str(self.dataset).lower() in names):
            raise ValueError(
                f"unknown dataset {self.dataset!r}; choose from "
                f"{['synthetic', *names]}"
            )
        if self.backbone not in BACKBONES:
            raise ValueError(
                f"unknown backbone {self.backbone!r}; choose from "
                f"{sorted(BACKBONES)}"
            )
        for name, low in (
            ("seed", 0), ("num_nodes", 1), ("num_features", 1),
            ("hidden", 1), ("k_max", 0), ("d_max", 0), ("warmup_epochs", 0),
        ):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(
                    f"{name} must be an integer >= {low}, got {value!r}"
                )
        if not 0 < self.scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {self.scale!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(
                f"lam must be finite and non-negative, got {self.lam!r}"
            )

    @classmethod
    def from_wire(cls, spec: Optional[Dict]) -> "SessionSpec":
        """Build from the ``open_session`` request's ``spec`` object;
        anything but a JSON object of known, valid fields is a
        :class:`~repro.serve.protocol.BadRequestError`."""
        if spec is None:
            spec = {}
        if not isinstance(spec, dict):
            raise BadRequestError(
                f"invalid spec: must be a JSON object, got "
                f"{type(spec).__name__}"
            )
        unknown = set(spec) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise BadRequestError(
                f"unknown spec field(s): {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**spec)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"invalid spec: {exc}") from exc


class GraphArtifact:
    """The spec-derived state every session on that spec shares.

    All heavy members are built once in :func:`build_artifact`; after
    construction the artifact mutates only under ``churn`` (live edge
    events fold into :attr:`graph`, bump :attr:`version` and empty the
    rewire memos, see ``docs/streaming.md``) and through the stacked
    builder's per-width feature tiles — all only ever touched from the
    server's single scoring thread, so no locking is needed.
    """

    def __init__(
        self,
        spec: SessionSpec,
        graph: Graph,
        sequences,
        model,
        trainer: Trainer,
        split,
        stack: StackedGraphBuilder,
    ) -> None:
        self.spec = spec
        self.graph = graph
        self.sequences = sequences
        self.model = model
        self.trainer = trainer
        self.split = split
        self.stack = stack
        #: Bumps on every effective churn batch and on every rebase, and
        #: each bump empties every rewire memo, so a cached graph built
        #: against an older topology can never be served after a churn.
        self.version = 0
        self._stream = None  # lazy StreamingGraph, first churn builds it
        # Every live memo ``rewired`` has filled, by id.  ``churn`` reads
        # them through ``valuerefs()``, one atomic snapshot, because a
        # memo may die on the event-loop thread meanwhile.
        self._memos = weakref.WeakValueDictionary()
        train = np.asarray(split.train)
        if train.dtype == bool:
            train = np.flatnonzero(train)
        self.train_idx = train.astype(np.int64)

    # ------------------------------------------------------------------
    def clamp(self, k, d) -> Tuple[np.ndarray, np.ndarray]:
        """Validate and clip a request's per-node counts to feasibility.

        Clamping also canonicalises the memo key: every infeasible
        variant of the same effective rewire maps to one cache entry.
        """
        n = self.graph.num_nodes
        k = np.asarray(k, dtype=np.int64)
        d = np.asarray(d, dtype=np.int64)
        if k.shape != (n,) or d.shape != (n,):
            raise BadRequestError(
                f"k and d must be length-{n} integer vectors, got "
                f"shapes {k.shape} and {d.shape}"
            )
        return clamp_state(
            k, d, self.graph, self.sequences, self.spec.k_max, self.spec.d_max
        )

    @staticmethod
    def memo_key(k: np.ndarray, d: np.ndarray) -> bytes:
        """Session-memo key of a clamped ``(k, d)``: the state alone, since
        a memo only ever holds rewires of the live version."""
        return k.tobytes() + d.tobytes()

    def rewired(self, k: np.ndarray, d: np.ndarray, memo: LRUCache) -> Graph:
        """The (memoised) entropy-guided rewire for clamped ``(k, d)``.

        ``memo`` is registered with the artifact, so the next churn that
        changes :attr:`version` empties it.
        """
        self._memos[id(memo)] = memo
        key = self.memo_key(k, d)
        graph = memo.get(key)
        if graph is None:
            graph = memo.put(
                key, rewire_graph(self.graph, self.sequences, k, d)
            )
        return graph

    def churn(self, events) -> Dict:
        """Fold external edge events into the live graph (worker thread).

        The first churn lazily wraps :attr:`graph` in a
        :class:`~repro.stream.StreamingGraph`; every batch then lands as
        one collapsed delta against the artifact's root, and a rebase
        promotes a fresh bitwise-verified root.  The stacked builder
        reads only the node count, features and labels, which churn never
        changes, so it survives both.  :attr:`version` tracks the
        stream's version, which bumps on every *effective* batch; a bump
        empties every memo :meth:`rewired` has filled (a clear, not an
        eviction).  A fully no-op batch leaves the graph, the version and
        every memoised rewire valid.
        """
        from ..stream import StreamingGraph

        if self._stream is None:
            self._stream = StreamingGraph(self.graph)
        report = self._stream.apply(events)
        self.graph = self._stream.current
        if report.version != self.version:
            self.version = report.version
            for ref in self._memos.valuerefs():
                memo = ref()
                if memo is not None:
                    memo.clear()
        return {
            "applied": report.applied,
            "added": int(report.added_keys.shape[0]),
            "removed": int(report.removed_keys.shape[0]),
            "num_edges": self.graph.num_edges,
            "dirty_fraction": report.dirty_fraction,
            "rebased": report.rebased,
            "version": self.version,
        }

    def score_blocks(
        self, graphs: List[Graph]
    ) -> List[Tuple[float, float]]:
        """Train-mask ``(accuracy, loss)`` of each graph from ONE forward.

        The graphs are stacked block-diagonally and scored in a single
        GNN forward; each block's full-node logits are then sliced out
        and reduced with :func:`repro.nn.masked_metrics` — the reducer
        of the dense ``evaluate`` path — so a batched score equals the
        unbatched score byte for byte.
        """
        per_block = self.stack.stacked_logits(graphs)
        labels = self.graph.labels
        return [
            masked_metrics(per_block[b], labels, self.train_idx)
            for b in range(len(graphs))
        ]


def build_artifact(spec: SessionSpec, max_batch: int = 16) -> GraphArtifact:
    """Build everything :class:`GraphArtifact` holds, deterministically.

    One dataset load, one entropy-sequence build, one backbone warm-up —
    the costs the serving layer exists to amortise.  Fully seeded by
    ``spec.seed``, so equal specs build equal artifacts.
    """
    tel = get_telemetry()
    with tel.span("serve.build_artifact", dataset=spec.dataset,
                  backbone=spec.backbone, hist="serve.build_artifact_s"):
        if spec.dataset == "synthetic":
            from ..datasets import planted_partition_graph

            graph = planted_partition_graph(
                num_nodes=spec.num_nodes, num_classes=5, homophily=0.3,
                mean_degree=8.0, num_features=spec.num_features,
                seed=spec.seed,
            )
        else:
            from ..datasets import load_dataset

            graph = load_dataset(
                spec.dataset, scale=spec.scale, seed=spec.seed
            )
        split = geom_gcn_splits(graph, num_splits=1, seed=spec.seed)[0]
        rng = np.random.default_rng(spec.seed)
        entropy = RelativeEntropy.from_graph(graph, lam=spec.lam, rng=rng)
        sequences = build_entropy_sequences(
            graph, entropy, max_candidates=max(8, spec.k_max), rng=rng
        )
        config = RareConfig(
            lam=spec.lam,
            k_max=spec.k_max,
            d_max=spec.d_max,
            max_candidates=max(8, spec.k_max),
            hidden=spec.hidden,
            seed=spec.seed,
        )
        model = build_backbone(
            spec.backbone, graph.num_features, graph.num_classes,
            hidden=spec.hidden, dropout=config.dropout, rng=rng,
        )
        trainer = Trainer(
            model, lr=config.gnn_lr, weight_decay=config.gnn_weight_decay
        )
        if spec.warmup_epochs > 0:
            trainer.fit(graph, split, epochs=spec.warmup_epochs,
                        patience=max(2, spec.warmup_epochs // 2))
        stack = StackedGraphBuilder(graph, model, max_width=max_batch)
        return GraphArtifact(
            spec, graph, sequences, model, trainer, split, stack
        )


class GraphSession:
    """One tenant's handle on an artifact plus its private rewire memo."""

    def __init__(
        self,
        session_id: str,
        artifact: GraphArtifact,
        memo_entries: int,
        tel: Optional[Telemetry] = None,
    ) -> None:
        self.session_id = session_id
        self.artifact = artifact
        self.memo = LRUCache(
            memo_entries, counter_prefix="serve.session_memo", tel=tel
        )
        self.requests = 0

    def describe(self) -> Dict:
        """The ``open_session`` result payload (plus ``stats`` reuse)."""
        graph = self.artifact.graph
        return {
            "session": self.session_id,
            "dataset": self.artifact.spec.dataset,
            "backbone": self.artifact.spec.backbone,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "k_max": self.artifact.spec.k_max,
            "d_max": self.artifact.spec.d_max,
        }


class SessionManager:
    """Bounded registry of open sessions with LRU eviction.

    Artifacts are memoised separately from sessions: closing (or
    evicting) the last session on a spec keeps the artifact warm, which
    is the cross-request reuse the service is named for.  ``get``
    refreshes a session's recency, so steady traffic never evicts an
    active tenant.

    ``tel`` is the telemetry session the registry, its session memos and
    its artifact builds record into; it defaults to the session ambient
    at construction.
    """

    def __init__(
        self,
        max_sessions: int,
        memo_entries: int,
        tel: Optional[Telemetry] = None,
    ) -> None:
        self.max_sessions = int(max_sessions)
        self.memo_entries = int(memo_entries)
        self._tel = tel if tel is not None else get_telemetry()
        self._sessions = LRUCache(
            max_sessions, counter_prefix="serve.sessions", tel=self._tel
        )
        self._artifacts: Dict[SessionSpec, GraphArtifact] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def artifact_for(
        self, spec: SessionSpec, max_batch: int
    ) -> GraphArtifact:
        """The memoised artifact for ``spec`` (built on first use)."""
        artifact = self._artifacts.get(spec)
        if artifact is None:
            self._tel.count("serve.artifact_builds")
            # The server builds on an executor thread, which does not
            # inherit the ambient telemetry session.
            with use_telemetry(self._tel):
                artifact = build_artifact(spec, max_batch=max_batch)
            self._artifacts[spec] = artifact
        else:
            self._tel.count("serve.artifact_reuses")
        return artifact

    def open(self, spec: SessionSpec, max_batch: int) -> GraphSession:
        """Open a session on ``spec``; may LRU-evict the stalest one."""
        return self.register(self.artifact_for(spec, max_batch))

    def register(self, artifact: GraphArtifact) -> GraphSession:
        """Bind a fresh session to a prebuilt artifact (the server splits
        the build — worker thread — from this loop-thread registration)."""
        session_id = f"s{self._next_id}"
        self._next_id += 1
        session = GraphSession(
            session_id, artifact, self.memo_entries, tel=self._tel
        )
        self._sessions.put(session_id, session)
        self._tel.set_gauge("serve.sessions.open", len(self._sessions))
        return session

    def get(self, session_id: str) -> GraphSession:
        """The open session, recency-refreshed; raises when unknown."""
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(
                f"session {session_id!r} is not open (expired or never "
                "existed); open a new one"
            )
        session.requests += 1
        return session

    def close(self, session_id: str) -> bool:
        """Drop the session (its memo dies with it); False if unknown."""
        closed = self._sessions.pop(session_id) is not None
        self._tel.set_gauge("serve.sessions.open", len(self._sessions))
        return closed

    def stats(self) -> Dict:
        """Registry-level numbers for the ``stats`` operation."""
        return {
            "open_sessions": len(self._sessions),
            "artifacts": len(self._artifacts),
            "session_cache": dict(self._sessions.stats),
        }
