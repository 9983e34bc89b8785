"""The GraphRARE framework driver (Sec. III, Algorithm 1).

Pipeline: compute node relative entropy once -> build per-node entropy
sequences -> jointly train a PPO agent (choosing per-node ``k_v``/``d_v``)
and the GNN backbone on the evolving topology -> finish with a full
training run on the best discovered graph and report its test accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..entropy import EntropySequences, RelativeEntropy, build_entropy_sequences
from ..gnn import GNNBackbone, Trainer, build_backbone, evaluate
from ..graph import Graph, Split, homophily_ratio
from ..rl import NodePolicy, build_agent
from ..telemetry import get_telemetry, telemetry_from_spec, use_telemetry
from ..tensor import resolve_backend, use_backend
from ..tensor.backends.instrument import InstrumentedBackend
from .config import RareConfig
from .env import OBS_DIM, TopologyEnv


@dataclass
class RareResult:
    """Outcome of one GraphRARE run."""

    test_acc: float
    val_acc: float
    baseline_test_acc: float
    """The same backbone trained on the *original* topology (the paper's
    counterpart column in Table III)."""
    original_homophily: float
    optimized_homophily: float
    optimized_graph: Graph
    entropy_seconds: float
    accuracy_curve: List[float] = field(default_factory=list)
    homophily_curve: List[float] = field(default_factory=list)
    episode_rewards: List[float] = field(default_factory=list)
    co_trained_model: Optional[GNNBackbone] = field(default=None, repr=False)
    """The backbone as it left co-training — the warm-start handle
    :class:`~repro.core.temporal.TemporalGraphRARE` threads into the next
    snapshot's run.  (The reported ``test_acc`` comes from a *fresh*
    final model; this one carries the co-training trajectory.)"""

    @property
    def improvement(self) -> float:
        """Accuracy gain over the plain backbone (the up-arrows in Table III)."""
        return self.test_acc - self.baseline_test_acc


class GraphRARE:
    """Reinforcement-learning enhanced GNN with relative entropy.

    Parameters
    ----------
    backbone:
        Name of the GNN to enhance ("gcn", "graphsage", "gat", "h2gcn", ...)
        — the paper's GCN-RARE, GraphSAGE-RARE, GAT-RARE and H2GCN-RARE.
    config:
        Loop hyper-parameters; see :class:`RareConfig`.
    """

    def __init__(self, backbone: str = "gcn", config: Optional[RareConfig] = None):
        self.backbone_name = backbone
        self.config = config or RareConfig()

    # ------------------------------------------------------------------
    def _prepare_sequences(
        self, graph: Graph, rng: np.random.Generator, shuffle: bool = False
    ) -> tuple:
        """Entropy + sequence construction (Algorithm 1, lines 1-6).

        Timed through a telemetry span (``rare.entropy``) that measures
        whether or not the session records — its duration is the
        ``entropy_seconds`` reported on :class:`RareResult`.
        """
        with get_telemetry().timed_span("rare.entropy") as span:
            if self.config.storage == "stream":
                sequences = build_entropy_sequences(
                    graph,
                    None,
                    max_candidates=self.config.max_candidates,
                    rng=rng,
                    shuffle=shuffle,
                    screening="on",
                    num_workers=self.config.num_workers,
                    state_loader=self._stream_state_loader(graph, rng),
                )
            else:
                entropy = RelativeEntropy.from_graph(
                    graph,
                    lam=self.config.lam,
                    embedding=self.config.embedding,
                    max_profile_len=self.config.max_profile_len,
                    rng=rng,
                    structural_mode=self.config.structural_mode,
                )
                sequences = build_entropy_sequences(
                    graph,
                    entropy,
                    max_candidates=self.config.max_candidates,
                    rng=rng,
                    shuffle=shuffle,
                    screening=self.config.screening,
                    num_workers=self.config.num_workers,
                )
        return sequences, span.duration

    def _stream_state_loader(self, graph: Graph, rng: np.random.Generator):
        """The ``storage="stream"`` screening recipe for a bundle graph.

        The bundle's entropy sidecar is the stream source; it is written
        on first use (one in-RAM entropy build, persisted next to the
        graph arrays) and validated against the config on every reuse so
        a stale sidecar can never silently change the sequences.
        """
        from ..graph.storage import (
            ScreenStateLoader,
            entropy_sidecar_meta,
            has_entropy_sidecar,
            save_entropy_sidecar,
        )

        bundle = getattr(graph, "bundle", None)
        if bundle is None:
            raise ValueError(
                "storage='stream' needs a bundle-backed graph; load one "
                "with repro.graph.load_graph_bundle (CLI: --graph-bundle)"
            )
        path = bundle.path
        if not has_entropy_sidecar(path):
            save_entropy_sidecar(
                path,
                RelativeEntropy.from_graph(
                    graph,
                    lam=self.config.lam,
                    embedding=self.config.embedding,
                    max_profile_len=self.config.max_profile_len,
                    rng=rng,
                    structural_mode=self.config.structural_mode,
                ),
            )
        meta = entropy_sidecar_meta(path)
        if (
            meta["lam"] != self.config.lam
            or meta["structural_mode"] != self.config.structural_mode
        ):
            raise ValueError(
                f"entropy sidecar at {path!r} was built with lam="
                f"{meta['lam']}, structural_mode={meta['structural_mode']!r}"
                f" but the config asks for lam={self.config.lam}, "
                f"structural_mode={self.config.structural_mode!r}; delete "
                "the sidecar or align the config"
            )
        return ScreenStateLoader(path, max_candidates=self.config.max_candidates)

    def _build_model(self, graph: Graph, rng: np.random.Generator) -> GNNBackbone:
        return build_backbone(
            self.backbone_name,
            graph.num_features,
            graph.num_classes,
            hidden=self.config.hidden,
            dropout=self.config.dropout,
            rng=rng,
        )

    # ------------------------------------------------------------------
    def fit(
        self,
        graph: Graph,
        split: Split,
        sequences: Optional[EntropySequences] = None,
        shuffle_sequences: bool = False,
        train_baseline: bool = True,
        initial_model: Optional[GNNBackbone] = None,
    ) -> RareResult:
        """Run Algorithm 1 and evaluate on ``split.test``.

        ``sequences`` may be supplied to reuse a precomputed entropy ranking
        across splits (the paper computes entropy once per dataset);
        ``shuffle_sequences`` activates the "without relative entropy"
        ablation.  ``initial_model`` warm-starts co-training from an
        already trained backbone instead of a fresh build — the temporal
        driver passes the previous snapshot's co-trained model here (the
        baseline and the final evaluation model are always fresh, so the
        reported accuracies stay comparable across snapshots).  The whole run executes under the configured tensor
        backend (``RareConfig.tensor_backend``), scoped so concurrent or
        subsequent runs keep their own choice.

        Observability: if a telemetry session is already ambient
        (:func:`repro.telemetry.use_telemetry`) the run records into it;
        otherwise ``RareConfig.telemetry`` may open one for the duration
        of this call (closed — and its JSONL stream flushed — before
        returning).  Under an enabled session the active tensor backend
        is wrapped in an :class:`InstrumentedBackend`, so per-kernel call
        counts and timings come for free; with telemetry off the backend
        is used bare and no instrumentation runs.
        """
        tel = get_telemetry()
        opened = False
        if not tel.enabled and self.config.telemetry:
            tel = telemetry_from_spec(
                self.config.telemetry,
                run=f"GraphRARE.fit[{self.backbone_name}]",
            )
            opened = tel.enabled
        backend = resolve_backend(self.config.tensor_backend)
        if tel.enabled:
            backend = InstrumentedBackend(backend, tel)
        try:
            with use_telemetry(tel), use_backend(backend):
                with tel.span("rare.fit", backbone=self.backbone_name):
                    return self._fit(
                        graph, split, sequences, shuffle_sequences,
                        train_baseline, initial_model,
                    )
        finally:
            if opened:
                tel.close()

    def _fit(
        self,
        graph: Graph,
        split: Split,
        sequences: Optional[EntropySequences],
        shuffle_sequences: bool,
        train_baseline: bool,
        initial_model: Optional[GNNBackbone] = None,
    ) -> RareResult:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        entropy_seconds = 0.0
        if sequences is None:
            sequences, entropy_seconds = self._prepare_sequences(
                graph, rng, shuffle=shuffle_sequences
            )

        tel = get_telemetry()

        # --- baseline: the untouched backbone on the original topology ---
        baseline_test_acc = float("nan")
        if train_baseline:
            with tel.span("rare.baseline"):
                baseline_model = self._build_model(graph, rng)
                baseline_trainer = Trainer(
                    baseline_model, lr=cfg.gnn_lr,
                    weight_decay=cfg.gnn_weight_decay,
                )
                baseline_test_acc = baseline_trainer.fit(
                    graph, split, epochs=cfg.final_epochs,
                    patience=cfg.final_patience,
                ).test_acc

        # --- co-training (Algorithm 1, lines 7-18) ------------------------
        # Two rare.setup spans around the warm start: the model must exist
        # before it, and the policy draws its init from the same generator
        # after it.
        with tel.span("rare.setup"):
            model = (
                initial_model if initial_model is not None
                else self._build_model(graph, rng)
            )
            trainer = Trainer(
                model, lr=cfg.gnn_lr, weight_decay=cfg.gnn_weight_decay
            )
        # Warm start so early rewards are informative.
        with tel.span("rare.warm_start"):
            trainer.fit(graph, split, epochs=cfg.co_train_epochs,
                        patience=cfg.co_train_patience)

        accuracy_curve: List[float] = []
        homophily_curve: List[float] = []
        episode_rewards: List[float] = []
        with tel.span("rare.setup"):
            policy = NodePolicy(
                obs_dim=OBS_DIM, hidden=cfg.policy_hidden, rng=rng
            )
            agent = build_agent(cfg.rl_algorithm, policy, cfg.ppo, rng=rng)
            # The original topology is the starting candidate: a rewired
            # graph must beat it on validation accuracy to be selected (the
            # paper launches testing at the validation-accuracy maximum,
            # Sec. V-C).
            best_val, _ = evaluate(model, graph, split.val)
            best_graph = graph
            if cfg.num_envs > 1:
                # Vectorized path: each iteration collects num_envs
                # complete episodes as one batched rollout (the
                # horizon-length vector rollout ends every episode exactly
                # at the boundary), so the episode budget rounds up to a
                # multiple of num_envs and the per-iteration curves have
                # ceil(episodes / num_envs) entries (documented on
                # RareConfig.num_envs).
                from ..rl.vector.topology import VecTopologyEnv

                env = VecTopologyEnv(
                    graph, sequences, model, trainer, split, cfg,
                    num_envs=cfg.num_envs, seed=cfg.seed,
                )
            else:
                env = TopologyEnv(graph, sequences, model, trainer, split,
                                  cfg, seed=cfg.seed)

        if cfg.num_envs > 1:
            for _ in range(-(-cfg.episodes // cfg.num_envs)):
                with tel.span("rare.rollout"):
                    buffer = agent.collect_vectorized_rollout(env, cfg.horizon)
                with tel.span("rare.update", hist="rl.update_s"):
                    stats = agent.update(buffer)
                episode_rewards.append(stats.mean_reward)

                with tel.span("rare.select"):
                    # Dedupe by identity (Graph is unhashable): after
                    # autoreset every slot holds the base graph again, so
                    # the distinct candidates are usually just
                    # {best_graph, base_graph}.
                    seen_ids = set()
                    for candidate in (env.best_graph, *env.current_graphs):
                        if id(candidate) in seen_ids:
                            continue
                        seen_ids.add(id(candidate))
                        val_acc, _ = evaluate(model, candidate, split.val)
                        if val_acc > best_val:
                            best_val = val_acc
                            best_graph = candidate
                    lead = env.current_graphs[0]
                    val_acc, _ = evaluate(model, lead, split.val)
                    accuracy_curve.append(val_acc)
                    homophily_curve.append(homophily_ratio(lead))
        else:
            for _ in range(cfg.episodes):
                with tel.span("rare.rollout"):
                    buffer = agent.collect_rollout(env, cfg.horizon)
                with tel.span("rare.update", hist="rl.update_s"):
                    stats = agent.update(buffer)
                episode_rewards.append(stats.mean_reward)

                with tel.span("rare.select"):
                    for candidate in (env.current_graph, env.best_graph):
                        val_acc, _ = evaluate(model, candidate, split.val)
                        if val_acc > best_val:
                            best_val = val_acc
                            best_graph = candidate
                    val_acc, _ = evaluate(model, env.current_graph, split.val)
                    accuracy_curve.append(val_acc)
                    homophily_curve.append(homophily_ratio(env.current_graph))

        # --- final training on the optimised topology ---------------------
        # A fresh model isolates the quality of the *topology*: the
        # co-trained network has passed through many intermediate graphs
        # and its optimiser state reflects them.
        with tel.span("rare.final"):
            final_model = self._build_model(
                graph, np.random.default_rng(cfg.seed)
            )
            final_trainer = Trainer(
                final_model, lr=cfg.gnn_lr, weight_decay=cfg.gnn_weight_decay
            )
            final = final_trainer.fit(
                best_graph, split, epochs=cfg.final_epochs,
                patience=cfg.final_patience,
            )

        return RareResult(
            test_acc=final.test_acc,
            val_acc=final.val_acc,
            baseline_test_acc=baseline_test_acc,
            original_homophily=homophily_ratio(graph),
            optimized_homophily=homophily_ratio(best_graph),
            optimized_graph=best_graph,
            entropy_seconds=entropy_seconds,
            accuracy_curve=accuracy_curve,
            homophily_curve=homophily_curve,
            episode_rewards=episode_rewards,
            co_trained_model=model,
        )
