"""Configuration for the GraphRARE framework."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..rl import PPOConfig


@dataclass
class RareConfig:
    """All knobs of the GraphRARE co-training loop (Secs. IV-B, IV-C, V-C).

    Defaults follow the paper where it is explicit (lambda = 1.0, ternary
    actions with delta-k = 1, PPO with an MLP policy, Adam with lr 0.05 and
    weight decay 5e-5) and use modest budgets elsewhere so the loop runs on
    CPU.
    """

    # --- relative entropy (Sec. IV-A) ---------------------------------
    lam: float = 1.0
    """Weight of the structural entropy in Eq. 9 (Table IV sweeps this)."""
    embedding: str = "normalize"
    """Feature embedding ``phi`` for Eq. 3."""
    structural_mode: str = "js"
    """``"js"`` (paper, Eq. 7-8) or ``"kl"`` ([50]'s unbounded variant,
    kept for the DESIGN.md entropy ablation)."""
    max_candidates: int = 16
    """Remote candidates retained per node in the entropy sequence."""
    max_profile_len: int | None = 64
    """Truncation of degree profiles (Eq. 5) on heavy-tailed graphs."""
    num_workers: int = 1
    """Thread-pool width for the sharded entropy build; every worker count
    returns byte-identical sequences (row-range merge).  The build picks
    its engine from the graph, bundle-loaded or not
    (:func:`repro.core.framework.entropy_sequences`)."""

    # --- topology optimisation (Sec. IV-B) ----------------------------
    k_max: int = 8
    """Upper bound for per-node added-edge counts ``k_v``."""
    d_max: int = 8
    """Upper bound for per-node deleted-edge counts ``d_v``."""
    add_edges: bool = True
    """Disable for the Table V 'GCN-RARE-remove' ablation."""
    remove_edges: bool = True
    """Disable for the Table V 'GCN-RARE-add' ablation."""

    # --- reward (Eq. 11) ------------------------------------------------
    lambda_r: float = 1.0
    """Mixing weight between the accuracy and loss deltas."""
    reward: str = "acc_loss"
    """``"acc_loss"`` (Eq. 11) or ``"auc"`` (Table V reward ablation)."""
    incremental_reward: bool = False
    """Accepted and ignored: every reward is scored by the dense forward
    (one stacked forward per step; one graph is its own stack).  Kept
    only because the end-to-end benchmark's ``fit-rl-vec`` workload
    sets it; ROADMAP item 2 removes it with the next benchmark change."""

    rewire_memo_entries: int = 64
    """Bound of the per-env ``(k, d)`` -> Graph rewire memo
    (:class:`repro.core.lru.LRUCache`).  Each entry pins a Graph plus its
    cached propagation matrices; the env scales the bound by
    ``num_envs``.  (The serving layer's per-session memos are bounded by
    ``ServeConfig.memo_entries`` instead.)"""

    # --- co-training loop (Algorithm 1) --------------------------------
    episodes: int = 6
    """PPO episodes; each episode is ``horizon`` topology steps."""
    horizon: int = 8
    """Steps per episode of the finite-horizon MDP."""
    co_train_epochs: int = 8
    """'a few more epochs' of GNN training when accuracy improves."""
    co_train_patience: int = 4
    """Early-stopping patience inside a co-training burst."""
    final_epochs: int = 100
    """Final GNN training budget on the best discovered topology."""
    final_patience: int = 20

    # --- GNN optimisation (Sec. V-C) -----------------------------------
    gnn_lr: float = 0.05
    gnn_weight_decay: float = 5e-5
    hidden: int = 64
    dropout: float = 0.5

    # --- RL agent --------------------------------------------------------
    rl_algorithm: str = "ppo"
    """``"ppo"`` (the paper's choice), ``"a2c"`` or ``"reinforce"`` — the
    paper notes other RL algorithms "can also be conveniently applied"."""
    ppo: PPOConfig = field(default_factory=PPOConfig)
    """Agent hyper-parameters; overlapping fields are translated when a
    non-PPO algorithm is selected (see ``repro.rl.build_agent``)."""
    policy_hidden: int = 64
    num_envs: int = 1
    """Episodes stepped together by :class:`~repro.core.env.TopologyEnv`,
    for every agent.  ``1`` is the sequential case (rewards scored per
    episode); ``> 1`` scores all episodes of a step with one stacked GNN
    forward.  Each iteration completes ``num_envs`` whole episodes, so the
    effective episode budget rounds :attr:`episodes` *up* to the next
    multiple of ``num_envs`` (and the per-iteration reward/accuracy curves
    have ``ceil(episodes / num_envs)`` entries)."""

    # --- execution substrate -------------------------------------------
    stream: "StreamConfig | None" = None  # noqa: F821 - lazy import below
    """Live edge churn (:mod:`repro.stream`).  ``None`` (default) keeps
    the classical static-graph setting.  A
    :class:`~repro.stream.StreamConfig` makes the environment fold
    ``events_per_step`` external add/remove edge events into the base
    topology at the start of every MDP step, before the agents' moves.
    The events collapse to one delta against a shared root, with a
    bitwise-verified rebase above ``rebase_threshold`` dirty nodes; the
    agents' rewires are rebuilt from the live base and never fed back,
    and the ``(k, d)`` rewire memo is emptied whenever the stream
    version changes.  See ``docs/streaming.md``."""

    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(
                f"lam must be finite and non-negative, got {self.lam}"
            )
        if self.k_max < 0 or self.d_max < 0:
            raise ValueError("k_max and d_max must be non-negative")
        if self.k_max > self.max_candidates:
            raise ValueError(
                f"k_max ({self.k_max}) cannot exceed max_candidates "
                f"({self.max_candidates})"
            )
        if self.reward not in ("acc_loss", "auc"):
            raise ValueError(f"unknown reward {self.reward!r}")
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.rewire_memo_entries < 1:
            raise ValueError(
                f"rewire_memo_entries must be >= 1, got "
                f"{self.rewire_memo_entries}"
            )
        from ..rl import AGENTS

        if self.rl_algorithm.lower() not in AGENTS:
            raise ValueError(
                f"unknown rl_algorithm {self.rl_algorithm!r}; "
                f"choose from {sorted(AGENTS)}"
            )
        if self.stream is not None:
            from ..stream.config import StreamConfig

            if not isinstance(self.stream, StreamConfig):
                raise ValueError(
                    "stream must be None or a repro.stream.StreamConfig, "
                    f"got {self.stream!r}"
                )
            self.stream.validate()
        if not (self.add_edges or self.remove_edges):
            raise ValueError("at least one of add_edges/remove_edges must be on")
        if self.horizon < 1 or self.episodes < 1:
            raise ValueError("horizon and episodes must be >= 1")
        if self.num_envs < 1:
            raise ValueError(f"num_envs must be >= 1, got {self.num_envs}")
