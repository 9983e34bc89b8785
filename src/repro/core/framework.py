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
from ..graph.storage import (
    ScreenStateLoader,
    entropy_sidecar_meta,
    has_entropy_sidecar,
    save_entropy_sidecar,
)
from ..nn import bind_dropout_rng
from ..rl import NodePolicy, build_agent
from ..telemetry import get_telemetry
from .config import RareConfig
from .env import OBS_DIM, TopologyEnv


#: The :class:`RareConfig` fields an entropy build depends on.  A bundle's
#: entropy sidecar records all of them and is reused only when every one
#: matches the config.
ENTROPY_RECIPE = ("lam", "embedding", "max_profile_len", "structural_mode")


def _recipe(config: RareConfig) -> dict:
    return {name: getattr(config, name) for name in ENTROPY_RECIPE}


def relative_entropy(
    graph: Graph, config: RareConfig, rng: Optional[np.random.Generator]
) -> RelativeEntropy:
    """The relative-entropy state of ``graph`` built with ``config``'s
    :data:`ENTROPY_RECIPE` (Algorithm 1, lines 1-4)."""
    return RelativeEntropy.from_graph(
        graph,
        lam=config.lam,
        embedding=config.embedding,
        max_profile_len=config.max_profile_len,
        rng=rng,
        structural_mode=config.structural_mode,
    )


def check_entropy_sidecar(path: str, config: RareConfig) -> None:
    """Raise ``ValueError`` if the bundle at ``path`` carries an entropy
    sidecar built with another recipe than ``config``'s.

    A sidecar that does not record every :data:`ENTROPY_RECIPE` field
    (one written before they were all recorded) counts as a mismatch.  No
    sidecar is no mismatch: :func:`entropy_sequences` writes one.
    """
    if not has_entropy_sidecar(path):
        return
    meta = entropy_sidecar_meta(path)
    built = {name: meta.get(name, "unrecorded") for name in ENTROPY_RECIPE}
    wanted = _recipe(config)
    if built != wanted:
        raise ValueError(
            f"entropy sidecar at {path!r} was built with {built} but the "
            f"config asks for {wanted}; delete the sidecar or align the "
            "config"
        )


def entropy_sequences(
    graph: Graph,
    config: RareConfig,
    rng: Optional[np.random.Generator],
    shuffle: bool = False,
) -> EntropySequences:
    """The entropy sequences of ``graph`` under ``config`` (Algorithm 1,
    lines 1-6): the one path from a :class:`RareConfig` to
    :class:`~repro.entropy.EntropySequences`.

    A bundle-backed graph (``graph.bundle``, set by
    :func:`repro.graph.load_graph_bundle`) streams the screened engine's
    state from the bundle's entropy sidecar.  The sidecar is written on
    first use (one in-RAM :func:`relative_entropy` build, persisted next
    to the graph arrays with its recipe) and checked against the config
    on every reuse (:func:`check_entropy_sidecar`), so a stale sidecar can
    never silently change the sequences.  Every other graph, and the
    ``shuffle`` ablation (GCN-RA) on any graph, builds its entropy in
    RAM; :func:`~repro.entropy.build_entropy_sequences` then picks the
    engine from the graph's size and embedding.
    """
    bundle = getattr(graph, "bundle", None)
    if bundle is not None and not shuffle:
        check_entropy_sidecar(bundle.path, config)
        if not has_entropy_sidecar(bundle.path):
            save_entropy_sidecar(
                bundle.path, relative_entropy(graph, config, rng),
                recipe=_recipe(config),
            )
        return build_entropy_sequences(
            graph,
            None,
            max_candidates=config.max_candidates,
            num_workers=config.num_workers,
            state_loader=ScreenStateLoader(
                bundle.path, max_candidates=config.max_candidates
            ),
        )
    return build_entropy_sequences(
        graph,
        relative_entropy(graph, config, rng),
        max_candidates=config.max_candidates,
        rng=rng,
        shuffle=shuffle,
        num_workers=config.num_workers,
    )


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
            sequences = entropy_sequences(graph, self.config, rng, shuffle)
        return sequences, span.duration

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
        reported accuracies stay comparable across snapshots).  Its
        dropout masks are drawn from this run's generator
        (:func:`repro.nn.bind_dropout_rng`), so the run depends on the
        model's weights alone.

        Observability: the run records into the ambient telemetry
        session (enter one with :func:`repro.telemetry.use_telemetry`).
        Under an enabled session every tensor op's forward and backward
        is timed into ``op.<Name>.fwd_s`` / ``.bwd_s``
        (:class:`repro.tensor.Function`).
        """
        with get_telemetry().span("rare.fit", backbone=self.backbone_name):
            return self._fit(
                graph, split, sequences, shuffle_sequences,
                train_baseline, initial_model,
            )

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
            if initial_model is not None:
                # A warm-started model draws its dropout masks from this
                # run's generator, not from the one it was built with.
                bind_dropout_rng(initial_model, rng)
                model = initial_model
            else:
                model = self._build_model(graph, rng)
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
            env = TopologyEnv(graph, sequences, model, trainer, split, cfg,
                              seed=cfg.seed)

        # Each iteration collects num_envs complete episodes as one rollout
        # (the horizon-length rollout ends every episode exactly at the
        # boundary), so the episode budget rounds up to a multiple of
        # num_envs and the curves have ceil(episodes / num_envs) entries.
        # The policy is updated after every rollout but the last: no action
        # is sampled after it, and the final model below trains from a
        # fresh generator, so that update could change nothing returned.
        iterations = -(-cfg.episodes // cfg.num_envs)
        for iteration in range(iterations):
            with tel.span("rare.rollout"):
                buffer = agent.collect_rollout(env, cfg.horizon)
            if iteration < iterations - 1:
                with tel.span("rare.update", hist="rl.update_s"):
                    agent.update(buffer)
            episode_rewards.append(float(buffer.flat_rewards().mean()))

            with tel.span("rare.select"):
                # Current graphs first, then the record graph; a candidate
                # replaces the selection only on a strictly higher
                # validation accuracy, so on an exact tie the earlier one
                # (after autoreset every slot holds the original topology)
                # wins.  Deduped by identity: Graph is unhashable.  The
                # lead graph is scored first, and that score is its point
                # on the accuracy curve.
                lead = env.current_graphs[0]
                seen_ids = set()
                for candidate in (*env.current_graphs, env.best_graph):
                    if id(candidate) in seen_ids:
                        continue
                    seen_ids.add(id(candidate))
                    val_acc, _ = evaluate(model, candidate, split.val)
                    if candidate is lead:
                        lead_acc = val_acc
                    if val_acc > best_val:
                        best_val = val_acc
                        best_graph = candidate
                accuracy_curve.append(lead_acc)
                homophily_curve.append(homophily_ratio(lead))

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
