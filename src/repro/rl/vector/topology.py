"""Batched topology-optimisation MDP: ``B`` episodes as one rollout.

:class:`VecTopologyEnv` steps ``B`` independent episodes of the GraphRARE
MDP (Sec. IV-B) against one shared, immutable base-graph CSR.  What the
sequential :class:`~repro.core.env.TopologyEnv` does per episode in Python,
this layer does once per batched step:

* **Observations** — the static columns (degree, candidate availability,
  entropy summaries) are computed once via
  :func:`repro.core.env.observation_template`; each step only rewrites the
  two ``k``/``d`` state columns of the stacked ``(B, N, OBS_DIM)`` array.
* **State clamping** — one broadcasted
  :func:`repro.core.rewire.clamp_state_batch` call over ``(B, N)`` arrays.
* **Rewiring** — per-episode delta rewires against the shared base edge-key
  array, memoised in one cross-episode *and* cross-env ``(k, d)`` cache, so
  any episode revisiting a state another episode produced gets the exact
  same :class:`Graph` object (and its cached propagation matrices) free.
* **Reward evaluation** — one GNN forward over a block-diagonal stacked
  graph (``B * N`` nodes, per-episode blocks, shared tiled features) scores
  every live episode in a single call; per-episode accuracy and
  cross-entropy fall out of segment reductions on the stacked logits.
  With ``config.incremental_reward`` the stacked graph additionally
  carries the block-diagonal union of the per-episode edge deltas, so the
  incremental engine (:mod:`repro.gnn.incremental`) re-evaluates only the
  blocks' edit halos against cached stacked-base logits.
* **Autoreset** — gym-style: finished episodes restart immediately, the
  terminal observation and an episode summary ride along in the per-episode
  ``info`` dicts.

Batch semantics where the sequential env is inherently serial: all
episodes are scored under the model state at the start of the step; record
topologies (Algorithm 1 lines 10-13) are then processed in episode order,
each co-training burst bumping an internal model version.  With ``B = 1``
every step is byte-identical to ``TopologyEnv`` — the equivalence tests
hold the two paths together.  With ``B > 1`` the stacked forward may differ
from per-episode forwards in the last ulp (BLAS blocking over the larger
matrices); pass ``reward_batching="loop"`` for bit-exact per-episode
evaluation at batch width.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ...core.env import (
    fill_observation,
    observation_template,
    reward_metrics,
)
from ...core.lru import LRUCache
from ...core.rewire import clamp_state_batch, rewire_graph, state_bounds
from ...gnn.incremental import IncrementalEvaluator
from ...graph import Graph, homophily_ratio
from ...nn import macro_auc
from ...telemetry import get_telemetry
from ..env import MultiDiscreteSpace
from .base import VecEnv
from .stacked import STACKED_CACHE_LIMIT, StackedGraphBuilder


class VecTopologyEnv(VecEnv):
    """Vectorized :class:`~repro.core.env.TopologyEnv`.

    Parameters mirror the sequential env plus:

    num_envs:
        ``B``, the number of parallel episodes.
    seed:
        Base seed; per-episode generators are spawned from one
        :class:`numpy.random.SeedSequence`, so episode ``b``'s stream is
        identical for any batch width ``> b``.
    reward_batching:
        ``"auto"`` (stacked forward when ``B > 1``, per-episode loop at
        ``B = 1``), ``"stacked"``, or ``"loop"``.
    """

    def __init__(
        self,
        graph: Graph,
        sequences,
        model,
        trainer,
        split,
        config,
        num_envs: int = 1,
        co_train: bool = True,
        seed: Optional[int] = None,
        reward_batching: str = "auto",
    ) -> None:
        if num_envs < 1:
            raise ValueError(f"num_envs must be >= 1, got {num_envs}")
        if reward_batching not in ("auto", "stacked", "loop"):
            raise ValueError(
                f"unknown reward_batching {reward_batching!r}; "
                "choose from 'auto', 'stacked', 'loop'"
            )
        self.base_graph = graph
        self.sequences = sequences
        self.model = model
        self.trainer = trainer
        self.split = split
        self.config = config
        self.co_train = co_train
        self.num_envs = int(num_envs)
        self.reward_batching = reward_batching

        n = graph.num_nodes
        self.action_space = MultiDiscreteSpace([3] * (2 * n))
        self.seed(seed)

        # --- shared static structures ---------------------------------
        self._template = observation_template(graph, sequences, config)
        self._state_bounds = state_bounds(
            graph, sequences, config.k_max, config.d_max
        )
        train = np.asarray(split.train)
        if train.dtype == bool:
            train = np.flatnonzero(train)
        self._train_idx = train.astype(np.int64)
        self._train_labels = (
            graph.labels[self._train_idx] if graph.labels is not None else None
        )
        B = self.num_envs
        self._stacked_features = (
            np.tile(graph.features, (B, 1)) if graph.features is not None else None
        )
        self._stacked_labels = (
            np.tile(graph.labels, B) if graph.labels is not None else None
        )

        # --- shared cross-env/cross-episode rewire memo ---------------
        # One shared LRUCache (repro.core.lru) with the sequential env's
        # accounting: per-instance counters behind ``rewire_memo_stats``,
        # mirrored into the active session's ``env.rewire_memo.*``
        # aggregates; ``_rewire_hits`` / ``_rewire_misses`` remain as
        # read-only properties.  ``_rewire_cache_limit`` stays a mutable
        # attribute (tests shrink it post-construction) and is passed per
        # ``put`` call.
        self._tel = get_telemetry()
        self._rewire_cache_limit = config.rewire_memo_entries * self.num_envs
        self._rewire_cache = LRUCache(
            self._rewire_cache_limit,
            counter_prefix="env.rewire_memo",
            tel=self._tel,
        )
        self.rewire_memo_stats = self._rewire_cache.stats

        # --- incremental reward engine --------------------------------
        # One evaluator over the delta root (the base graph, or the graph
        # it was derived from — rewire deltas collapse to the root) for
        # per-episode scoring, and per-width stacked evaluators inside the
        # StackedGraphBuilder for the batched forward; both patch matrices
        # / halo-evaluate from the per-episode deltas the rewire engine
        # records, for any backbone with a registered halo plan (GCN,
        # GraphSAGE, GAT, H2GCN, MixHop, user plans) — no backbone gate;
        # plan-less backbones fall back inside the evaluator.  The stacked
        # root (B copies of its edge keys) and its evaluator are built
        # lazily on the first stacked evaluation — reward_batching="loop"
        # never pays for them.
        self._delta_root: Graph = (
            graph.delta.base if graph.delta is not None else graph
        )
        self._inc: Optional[IncrementalEvaluator] = (
            IncrementalEvaluator(
                model, self._delta_root,
                max_halo_frac=config.max_halo_frac,
            )
            if config.incremental_reward
            else None
        )
        self._stack = StackedGraphBuilder(
            graph, model, max_width=B,
            incremental=self._inc is not None,
            max_halo_frac=config.max_halo_frac,
            cache_limit=STACKED_CACHE_LIMIT,
        )
        self._stack.set_tiled(B, self._stacked_features, self._stacked_labels)

        # --- live churn (docs/streaming.md) ---------------------------
        # One shared stream for the whole batch (all episodes live on the
        # same drifting base); with a fixed StreamConfig seed the event
        # trace is identical to the sequential env's, which the churn
        # parity suite pins down.
        self._stream = None
        self._churn = None
        self._online = None
        if config.stream is not None:
            from ...stream import OnlineEvaluator, StreamingGraph, make_stream

            self._churn = make_stream(graph, config.stream)
            self._stream = StreamingGraph(
                graph,
                rebase_threshold=config.stream.rebase_threshold,
                tel=self._tel,
            )
            self._online = OnlineEvaluator(graph, window=config.stream.window)

        # --- global co-training record (one shared model) -------------
        self.best_acc = 0.0
        self.best_graph: Graph = graph
        self._model_version = 0
        self._base_metrics_cache: Optional[Tuple[int, float, float]] = None

        # --- per-episode logs (accumulate across episodes, like the
        #     sequential env's ``history``) ----------------------------
        self.histories: List[List[Dict[str, float]]] = [[] for _ in range(B)]
        self._steps_total = np.zeros(B, dtype=np.int64)

        self.reset()

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def seed(self, seed: Optional[int] = None) -> List[np.random.Generator]:
        """Spawn one independent generator per episode from a base seed."""
        self._seed_seq = np.random.SeedSequence(seed)
        children = self._seed_seq.spawn(self.num_envs)
        self.rngs = [np.random.default_rng(c) for c in children]
        return self.rngs

    def sample_actions(self) -> np.ndarray:
        """One random action per episode from its own spawned stream."""
        return np.stack(
            [self.action_space.sample(rng) for rng in self.rngs]
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def _rewire_hits(self) -> int:
        """Back-compat integer view of the memo hit counter."""
        return self._rewire_cache.hits

    @property
    def _rewire_misses(self) -> int:
        """Back-compat integer view of the memo miss counter."""
        return self._rewire_cache.misses

    def _metrics_single(self, graph: Graph) -> Tuple[float, float]:
        """Sequential-env-identical (score, loss) for one episode graph."""
        with self._tel.span("env.reward", hist="rl.reward_s"):
            return reward_metrics(
                self.model, graph, self.split.train, self.config.reward,
                self._inc,
            )

    def _base_metrics(self) -> Tuple[float, float]:
        """Metrics of the base graph under the current model, memoised per
        model version (resets re-score it after every co-training burst,
        never otherwise)."""
        cache = self._base_metrics_cache
        if cache is None or cache[0] != self._model_version:
            score, loss = self._metrics_single(self.base_graph)
            self._base_metrics_cache = (self._model_version, score, loss)
            return score, loss
        return cache[1], cache[2]

    def _stacked_graph(self, graphs: List[Graph]) -> Graph:
        """Block-diagonal union of the per-episode graphs (delegates to
        the shared :class:`~repro.rl.vector.stacked.StackedGraphBuilder`)."""
        return self._stack.stacked_graph(graphs)

    def _get_stacked_base(self) -> Graph:
        """``B`` block-diagonal copies of the delta root — the reference
        topology the stacked incremental evaluator caches logits for."""
        return self._stack.stacked_base(self.num_envs)

    @property
    def _inc_stacked(self) -> Optional[IncrementalEvaluator]:
        """The builder's stacked evaluator at batch width (``None`` until
        the first incremental stacked evaluation builds it)."""
        if self._inc is None:
            return None
        return self._stack._incs.get(self.num_envs)

    def _stacked_metrics(
        self, graphs: List[Graph]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(scores, losses) of every episode from one stacked forward."""
        per_env = self._stack.stacked_logits(graphs)

        B, n = self.num_envs, self.base_graph.num_nodes
        sub = per_env[:, self._train_idx, :]  # (B, M, C)
        y = self._train_labels
        m = self._train_idx.shape[0]
        if m == 0:
            return np.zeros(B), np.zeros(B)
        shifted = sub - sub.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        log_probs = shifted - log_z
        losses = -log_probs[:, np.arange(m), y].mean(axis=1)
        if self.config.reward == "auc":
            scores = np.array(
                [
                    macro_auc(per_env[b], self.base_graph.labels, self._train_idx)
                    for b in range(B)
                ]
            )
        else:
            scores = (sub.argmax(axis=-1) == y[None, :]).mean(axis=1)
        return scores.astype(np.float64), losses.astype(np.float64)

    def _batch_metrics(
        self, graphs: List[Graph]
    ) -> Tuple[np.ndarray, np.ndarray]:
        mode = self.reward_batching
        if mode == "auto":
            mode = "stacked" if self.num_envs > 1 else "loop"
        if mode == "stacked":
            with self._tel.span(
                "env.reward", hist="rl.reward_s", batching="stacked"
            ):
                return self._stacked_metrics(graphs)
        # Per-episode loop, deduped on graph identity: episodes sharing a
        # memoised topology are scored once.
        scores = np.empty(self.num_envs)
        losses = np.empty(self.num_envs)
        seen: Dict[int, Tuple[float, float]] = {}
        for b, g in enumerate(graphs):
            got = seen.get(id(g))
            if got is None:
                got = self._metrics_single(g)
                seen[id(g)] = got
            scores[b], losses[b] = got
        return scores, losses

    # ------------------------------------------------------------------
    # Rewiring (shared memo)
    # ------------------------------------------------------------------
    def _rewired(self, k: np.ndarray, d: np.ndarray) -> Graph:
        key = k.tobytes() + d.tobytes()
        if self._stream is not None:
            # Same invariant as the sequential env: the memo key carries
            # the stream version so entries built against an older base
            # topology can never be served after churn.
            key = self._stream.version.to_bytes(8, "little") + key
        graph = self._rewire_cache.get(key)
        if graph is None:
            with self._tel.span("env.rewire", hist="rl.rewire_s"):
                graph = rewire_graph(
                    self.base_graph,
                    self.sequences,
                    k,
                    d,
                    add_edges=self.config.add_edges,
                    remove_edges=self.config.remove_edges,
                )
            self._rewire_cache.put(
                key, graph, capacity=self._rewire_cache_limit
            )
        return graph

    # ------------------------------------------------------------------
    # Live churn
    # ------------------------------------------------------------------
    def _advance_stream(self) -> None:
        """Fold one step's worth of external churn into the shared base.

        The vectorized twin of ``TopologyEnv._advance_stream``: one event
        batch per *batched* step (all episodes share the drifting base).
        A rebase promotes a fresh bitwise-verified root, so every
        root-addressed structure is re-bound: the per-episode incremental
        evaluator, the stacked-graph builder (its stacked base is B
        copies of the root's edge keys) and the delta root itself.  The
        clamp bounds are refreshed every churn step — degrees moved — and
        the memoised base metrics are dropped so autoresets re-score the
        current topology.
        """
        report = self._stream.apply(
            self._churn.take(self.config.stream.events_per_step)
        )
        self._online.observe(
            self._stream.current, report.added_keys, report.removed_keys
        )
        if report.rebased:
            root = self._stream.root
            self._delta_root = root
            if self._inc is not None:
                self._inc = IncrementalEvaluator(
                    self.model, root,
                    max_halo_frac=self.config.max_halo_frac,
                )
            self._stack = StackedGraphBuilder(
                root, self.model, max_width=self.num_envs,
                incremental=self._inc is not None,
                max_halo_frac=self.config.max_halo_frac,
                cache_limit=STACKED_CACHE_LIMIT,
            )
            self._stack.set_tiled(
                self.num_envs, self._stacked_features, self._stacked_labels
            )
        self.base_graph = self._stream.current
        self._state_bounds = state_bounds(
            self.base_graph, self.sequences,
            self.config.k_max, self.config.d_max,
        )
        self._base_metrics_cache = None

    def stream_metrics(self) -> Dict[str, float]:
        """Sliding-window aggregates of the churned base topology
        (empty dict outside streaming mode)."""
        if self._online is None:
            return {}
        return self._online.window_metrics()

    # ------------------------------------------------------------------
    # Reset / step
    # ------------------------------------------------------------------
    def _obs_batch(self) -> np.ndarray:
        out = np.empty((self.num_envs,) + self._template.shape)
        return fill_observation(
            self._template, self.k, self.d, self.config, out=out
        )

    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        """Restart every episode: ``S_0 = 0`` on the shared base topology.

        Like the sequential env, :attr:`histories` and the per-episode step
        counters accumulate across episodes (:meth:`clear_history` drops
        them) and the rewire memo survives.
        """
        if seed is not None:
            self.seed(seed)
        B, n = self.num_envs, self.base_graph.num_nodes
        self.k = np.zeros((B, n), dtype=np.int64)
        self.d = np.zeros((B, n), dtype=np.int64)
        self.t = np.zeros(B, dtype=np.int64)
        self.current_graphs: List[Graph] = [self.base_graph] * B
        score, loss = self._base_metrics()
        self.prev_score = np.full(B, score)
        self.prev_loss = np.full(B, loss)
        self.episode_returns = np.zeros(B)
        self.episode_lengths = np.zeros(B, dtype=np.int64)
        return self._obs_batch()

    def clear_history(self) -> None:
        """Drop the accumulated per-episode logs and step counters."""
        self.histories = [[] for _ in range(self.num_envs)]
        self._steps_total[:] = 0

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        """One batched transition for all ``B`` episodes, timed as an
        ``env.vec_step`` span; ``(obs, rewards, dones, infos)``."""
        with self._tel.span(
            "env.vec_step", hist="rl.vec_step_s", num_envs=self.num_envs
        ):
            return self._step(actions)

    def _step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        """One batched transition; the body of :meth:`step` under its span."""
        actions = np.asarray(actions, dtype=np.int64)
        B, n = self.num_envs, self.base_graph.num_nodes
        if actions.shape != (B, 2 * n):
            raise ValueError(
                f"actions must have shape ({B}, {2 * n}), got {actions.shape}"
            )

        # Streaming mode: external events land before the agents' moves,
        # in the same position the sequential env applies them.
        if self._stream is not None:
            self._advance_stream()

        # Eq. 10 batched: S_{t+1} = S_t + A_t, clamped to feasibility.
        self.k = self.k + (actions[:, :n] - 1)
        self.d = self.d + (actions[:, n:] - 1)
        self.k, self.d = clamp_state_batch(
            self.k, self.d, self.base_graph, self.sequences,
            self.config.k_max, self.config.d_max,
            bounds=self._state_bounds,
        )

        graphs = [self._rewired(self.k[b], self.d[b]) for b in range(B)]
        self.current_graphs = graphs

        scores, losses = self._batch_metrics(graphs)
        # Eq. 11, one vector expression over all live episodes.
        rewards = (scores - self.prev_score) + self.config.lambda_r * (
            self.prev_loss - losses
        )

        # Algorithm 1 lines 10-13, processed in episode order against the
        # one shared model: each record co-trains once and is re-scored.
        for b in range(B):
            if scores[b] > self.best_acc:
                self.best_acc = float(scores[b])
                self.best_graph = graphs[b]
                if self.co_train:
                    with self._tel.span("env.co_train", hist="rl.cotrain_s"):
                        self.trainer.fit(
                            graphs[b],
                            self.split,
                            epochs=self.config.co_train_epochs,
                            patience=self.config.co_train_patience,
                        )
                    self._model_version += 1
                    if self._inc is not None:
                        self._inc.invalidate()
                    self._stack.invalidate()
                    scores[b], losses[b] = self._metrics_single(graphs[b])

        self.prev_score = scores
        self.prev_loss = losses
        self.t += 1
        self._steps_total += 1
        dones = self.t >= self.config.horizon
        obs = self._obs_batch()

        has_labels = self.base_graph.labels is not None
        infos: List[Dict[str, Any]] = []
        for b in range(B):
            info: Dict[str, Any] = {
                "train_score": float(scores[b]),
                "train_loss": float(losses[b]),
                "homophily": (
                    homophily_ratio(graphs[b]) if has_labels else 0.0
                ),
                "num_edges": graphs[b].num_edges,
                "mean_k": float(self.k[b].mean()),
                "mean_d": float(self.d[b].mean()),
            }
            if self._stream is not None:
                info["stream_version"] = self._stream.version
                info["stream_events"] = self._stream.events_applied
            self.histories[b].append(
                {
                    "step": int(self._steps_total[b]),
                    "reward": float(rewards[b]),
                    **info,
                }
            )
            infos.append(info)

        self.episode_returns += rewards
        self.episode_lengths += 1

        # Gym-style autoreset: finished episodes restart on the base graph;
        # the observation slot already holds the terminal state, so only the
        # two dynamic columns need zeroing after the state reset.
        done_idx = np.flatnonzero(dones)
        if done_idx.size:
            for b in done_idx:
                infos[b]["terminal_observation"] = obs[b].copy()
                infos[b]["episode"] = {
                    "r": float(self.episode_returns[b]),
                    "l": int(self.episode_lengths[b]),
                }
            score, loss = self._base_metrics()
            self.k[done_idx] = 0
            self.d[done_idx] = 0
            self.t[done_idx] = 0
            self.prev_score[done_idx] = score
            self.prev_loss[done_idx] = loss
            self.episode_returns[done_idx] = 0.0
            self.episode_lengths[done_idx] = 0
            for b in done_idx:
                self.current_graphs[b] = self.base_graph
            obs[done_idx, :, 0] = 0.0
            obs[done_idx, :, 1] = 0.0

        return obs, rewards, dones, infos
