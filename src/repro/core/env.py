"""The finite-horizon topology-optimisation MDP (Sec. IV-B).

State, action, transition and reward follow the paper exactly:

* **State** ``S_t = [k_1..k_N, d_1..d_N]``; ``S_0 = 0``.
* **Action** ``A_t``: per component, decrement / keep / increment by
  ``delta_k = 1``.
* **Transition** ``S_{t+1} = S_t + A_t`` (Eq. 10), clamped to feasibility.
* **Reward** ``R = (acc_t - acc_{t-1}) + lambda_r (loss_{t-1} - loss_t)``
  (Eq. 11), computed from an eval-mode pass of the co-trained GNN on the
  training nodes; an AUC-based alternative backs the Table V ablation.

The environment also hosts the co-training hook of Algorithm 1 (lines
10-13): when the training accuracy sets a new record, the GNN is trained
for a few more epochs on the current topology with early stopping.

:class:`TopologyEnv` is the one implementation of the MDP.  It steps
``B = config.num_envs`` episodes at once against one shared, immutable
base graph, the way Stable-Baselines3 runs a single env as a width-1
``DummyVecEnv``; ``B = 1`` is the sequential case, not a separate code
path.  Per batched step:

* **Observations** — the static columns (degree, candidate availability,
  entropy summaries) come from :func:`observation_template`, computed
  once; each step rewrites only the two ``k``/``d`` state columns of the
  ``(B, N, OBS_DIM)`` array.
* **State clamping** — one broadcasted
  :func:`~repro.core.rewire.clamp_state_batch` over ``(B, N)`` arrays.
* **Rewiring** — per-episode rewires of the base edge keys, memoised in
  one cross-episode ``(k, d)`` LRU, so any episode revisiting a state
  gets the exact same :class:`Graph` object (and its cached propagation
  matrices) free.  Under churn the memo holds rewires of the live base
  only: it is emptied whenever the stream version changes.
* **Reward evaluation** — one scoring path at every width: one GNN
  forward over a block-diagonal stacked graph
  (:class:`~repro.rl.vector.stacked.StackedGraphBuilder`; one graph is
  its own stack) scores every episode, and each block is reduced by
  :func:`repro.nn.masked_metrics`.
* **Autoreset** — gym-style: finished episodes restart immediately, the
  terminal observation and an episode summary ride along in the
  per-episode ``info`` dicts (the :class:`~repro.rl.vector.VecEnv`
  contract).

Batch semantics where episodes interact: all episodes are scored under the
model state at the start of the step; record topologies (Algorithm 1 lines
10-13) are then processed in episode order, each co-training burst bumping
an internal model version.  Each slot's reward is bitwise what a
``num_envs = 1`` env scores for the same episode
(``docs/equivalence-policy.md``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..entropy import EntropySequences
from ..gnn import GNNBackbone, Trainer
from ..graph import Graph, Split, homophily_ratio
from ..nn import macro_auc, masked_metrics
from ..rl import MultiDiscreteSpace, VecEnv
from ..rl.vector.stacked import StackedGraphBuilder
from ..telemetry import get_telemetry
from .config import RareConfig
from .lru import LRUCache
from .rewire import clamp_state_batch, rewire_graph, state_bounds

#: Features per node row in the observation.
OBS_DIM = 6


def observation_template(
    graph: Graph,
    sequences: EntropySequences,
    config: RareConfig,
) -> np.ndarray:
    """The static ``(N, OBS_DIM)`` part of the observation.

    Columns 2-5 (degree, candidate availability, entropy summaries) depend
    only on the *base* graph and the entropy sequences, never on the MDP
    state — :class:`TopologyEnv` computes them once and rewrites only the
    ``k``/``d`` columns each step.  Columns 0 and 1
    are left zeroed (the ``S_0 = 0`` observation).
    """
    deg = graph.degrees().astype(np.float64)
    max_deg = max(deg.max(), 1.0)  # guard: edgeless graphs have max degree 0
    avail = (sequences.remote >= 0).sum(axis=1).astype(np.float64)
    score_scale = 1.0 + config.lam

    # Guard: a sequence built over a (near-)complete graph can have zero
    # remote-candidate columns; the summary statistic is then simply 0.
    top = sequences.remote_scores[:, :3].copy()
    if top.shape[1]:
        top[~np.isfinite(top)] = 0.0
        top_mean = top.mean(axis=1) / score_scale
    else:
        top_mean = np.zeros(graph.num_nodes)

    neigh_mean = np.array(
        [s.mean() if len(s) else 0.0 for s in sequences.neighbor_scores]
    ) / score_scale

    return np.stack(
        [
            np.zeros(graph.num_nodes),
            np.zeros(graph.num_nodes),
            deg / max_deg,
            avail / max(sequences.max_candidates, 1),
            top_mean,
            neigh_mean,
        ],
        axis=1,
    )


def fill_observation(
    template: np.ndarray,
    k: np.ndarray,
    d: np.ndarray,
    config: RareConfig,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Write the dynamic ``k``/``d`` columns into a (copy of a) template.

    ``template`` may be ``(N, OBS_DIM)`` with ``k``/``d`` of shape ``(N,)``,
    or batched ``(B, N, OBS_DIM)`` with ``(B, N)`` states.  ``out`` lets the
    caller reuse a preallocated buffer; when ``None`` the template is
    copied.
    """
    if out is None:
        out = template.copy()
    else:
        out[...] = template
    out[..., 0] = k / max(config.k_max, 1)
    out[..., 1] = d / max(config.d_max, 1)
    return out


def build_observation(
    k: np.ndarray,
    d: np.ndarray,
    graph: Graph,
    sequences: EntropySequences,
    config: RareConfig,
) -> np.ndarray:
    """Per-node observation rows for the policy network.

    Each row describes one node: its current ``k_v`` and ``d_v`` (scaled),
    its degree, how many remote candidates it has, and summary statistics of
    its entropy sequence — everything the agent needs to reason about the
    node's "personality".  Composed from :func:`observation_template` (the
    static columns) and :func:`fill_observation` (the state columns) so
    :class:`TopologyEnv` can cache the former.
    """
    return fill_observation(
        observation_template(graph, sequences, config), k, d, config
    )


class TopologyEnv(VecEnv):
    """The GraphRARE MDP, ``config.num_envs`` episodes per step.

    Parameters
    ----------
    graph, sequences, model, trainer, split, config:
        The base topology, its entropy sequences, the co-trained GNN and
        its trainer, the node split and the run configuration; the batch
        width ``B`` is ``config.num_envs``.
    co_train:
        Run Algorithm 1's co-training burst on record topologies.
    seed:
        Base seed; per-episode generators are spawned from one
        :class:`numpy.random.SeedSequence`, so episode ``b``'s stream is
        identical for any batch width ``> b``.
    """

    def __init__(
        self,
        graph: Graph,
        sequences: EntropySequences,
        model: GNNBackbone,
        trainer: Trainer,
        split: Split,
        config: RareConfig,
        co_train: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        self.base_graph = graph
        self.sequences = sequences
        self.model = model
        self.trainer = trainer
        self.split = split
        self.config = config
        self.co_train = co_train
        self.num_envs = B = int(config.num_envs)

        self.action_space = MultiDiscreteSpace([3] * (2 * graph.num_nodes))
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

        # --- cross-episode (k, d) -> Graph rewire memo ----------------
        # Per-instance hit/miss/eviction counters behind
        # ``rewire_memo_stats``, mirrored into the active session's
        # ``env.rewire_memo.*`` aggregates.  Each entry pins a Graph plus
        # its cached propagation matrices, so the bound scales with the
        # batch width and nothing else.
        self._tel = get_telemetry()
        self._rewire_cache = LRUCache(
            config.rewire_memo_entries * B,
            counter_prefix="env.rewire_memo",
            tel=self._tel,
        )
        self.rewire_memo_stats = self._rewire_cache.stats

        # --- reward scoring -------------------------------------------
        # One stacked builder for the env's lifetime (it reads nothing
        # churn changes).
        self._stack = StackedGraphBuilder(graph, model, max_width=B)

        # --- live churn (docs/streaming.md) ---------------------------
        # With ``config.stream`` set, every step first folds one batch of
        # external add/remove edge events into the shared base topology;
        # the online evaluator keeps sliding-window metrics of the
        # drifting base.
        self._stream = None
        self._churn = None
        self._online = None
        if config.stream is not None:
            from ..stream import OnlineEvaluator, StreamingGraph, make_stream

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

        # --- per-episode logs: accumulate across episodes -------------
        self.histories: List[List[Dict[str, float]]] = [[] for _ in range(B)]
        self._steps_total = np.zeros(B, dtype=np.int64)

        self.reset()

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def seed(self, seed: Optional[int] = None) -> List[np.random.Generator]:
        """Spawn one independent generator per episode from a base seed.

        The MDP itself is deterministic; the generators serve its
        stochastic companions (:meth:`sample_actions`, exploration
        baselines), so a run is reproducible from one base seed.
        """
        self._seed_seq = np.random.SeedSequence(seed)
        children = self._seed_seq.spawn(self.num_envs)
        self.rngs = [np.random.default_rng(c) for c in children]
        return self.rngs

    def sample_actions(self) -> np.ndarray:
        """One uniformly random action per episode from its own stream,
        ``(B, 2N)``."""
        return np.stack(
            [self.action_space.sample(rng) for rng in self.rngs]
        )

    # ------------------------------------------------------------------
    # Reward metrics
    # ------------------------------------------------------------------
    def _scores(self, graphs: List[Graph]) -> Tuple[np.ndarray, np.ndarray]:
        """Eval-mode ``(scores, losses)`` of ``graphs`` on the training
        nodes (Alg. 1 line 9), one entry per graph.

        The env's one scorer: one stacked forward (one graph is its own
        stack).  Each graph's logits are reduced by
        :func:`~repro.nn.masked_metrics`; the AUC reward reads the same
        logits.
        """
        with self._tel.span("env.reward", hist="rl.reward_s"):
            logits = self._stack.stacked_logits(graphs)
            scores = np.empty(len(graphs))
            losses = np.empty(len(graphs))
            for b, graph in enumerate(graphs):
                scores[b], losses[b] = masked_metrics(
                    logits[b], graph.labels, self._train_idx
                )
                if self.config.reward == "auc":
                    scores[b] = macro_auc(
                        logits[b], graph.labels, self._train_idx
                    )
            return scores, losses

    def _base_metrics(self) -> Tuple[float, float]:
        """Metrics of the base graph under the current model, memoised per
        model version (resets re-score it after every co-training burst,
        never otherwise)."""
        cache = self._base_metrics_cache
        if cache is None or cache[0] != self._model_version:
            scores, losses = self._scores([self.base_graph])
            cache = (self._model_version, float(scores[0]), float(losses[0]))
            self._base_metrics_cache = cache
        return cache[1], cache[2]

    # ------------------------------------------------------------------
    # Rewiring (shared memo)
    # ------------------------------------------------------------------
    def _rewired(self, k: np.ndarray, d: np.ndarray) -> Graph:
        """Memoised rewiring: repeated ``(k, d)`` states are free.

        The MDP rebuilds ``G_{t+1}`` from the *original* topology, so the
        result depends only on the clamped state — an episode that
        revisits a state (all-keep actions, oscillating policies, another
        episode's state) reuses the exact Graph object, and with it every
        propagation matrix cached on it.  A hit refreshes the entry's
        recency (true LRU), so hot states survive early insertion.  Under
        churn the "original" topology is the live base, and
        :meth:`_advance_stream` empties the memo when it changes.
        """
        key = k.tobytes() + d.tobytes()
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
            self._rewire_cache.put(key, graph)
        return graph

    # ------------------------------------------------------------------
    # Live churn
    # ------------------------------------------------------------------
    def _advance_stream(self) -> None:
        """Fold one step's worth of external churn into the shared base.

        Streaming-mode step prologue: draw ``events_per_step`` events from
        the seeded generator (one batch per batched step: all episodes
        share the drifting base), apply them as one collapsed delta and
        feed the net inserted/deleted keys to the online evaluator.  When
        the stream version changes, the rewire memo is emptied: every
        entry was built against an older topology.  The clamp bounds are
        refreshed every churn step (degrees moved) and the memoised base
        metrics are dropped so autoresets re-score the current topology.
        """
        version = self._stream.version
        report = self._stream.apply(
            self._churn.take(self.config.stream.events_per_step)
        )
        if report.version != version:
            self._rewire_cache.clear()
        self._online.observe(
            self._stream.current, report.added_keys, report.removed_keys
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
        """Restart every episode: ``S_0 = 0`` on the shared base topology;
        returns the ``(B, N, OBS_DIM)`` observations.

        ``seed`` (optional) respawns the per-episode generators first.
        Cross-episode semantics (deliberate): :attr:`histories` and the
        per-episode step counters accumulate across episodes so one env
        yields one continuous training log (:meth:`clear_history` drops
        them), and the rewire memo survives because it is keyed purely on
        ``(k, d)`` over the base graph.
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
        """One transition of all ``B`` episodes; ``actions`` is ``(B, 2N)``.

        Returns ``(obs, rewards, dones, infos)`` with shapes
        ``(B, N, OBS_DIM)``, ``(B,)``, ``(B,)`` and a length-``B`` list;
        finished episodes are reset automatically.  Timed as one
        ``env.step`` span carrying ``num_envs``.
        """
        with self._tel.span(
            "env.step", hist="rl.step_s", num_envs=self.num_envs
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

        # Streaming mode: external events land before the agents' moves —
        # the step's rewires and rewards see the churned topology.
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

        scores, losses = self._scores(graphs)
        # Eq. 11, one vector expression over all episodes.
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
                    # Co-training changed the weights: the memoised base
                    # metrics are stale.
                    self._model_version += 1
                    score, loss = self._scores([graphs[b]])
                    scores[b], losses[b] = score[0], loss[0]

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
