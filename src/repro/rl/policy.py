"""Actor-critic network for the multi-discrete topology MDP.

The paper's PPO policy is an MLP (Sec. V-C).  Because the action has two
ternary components *per node*, we share the MLP across nodes: each node's
observation row passes through a common trunk, then two linear heads emit
the (dec / keep / inc) logits for ``k`` and ``d``.  The critic mean-pools
per-node values from a third head on the same trunk features.  Parameter
sharing keeps the network size independent of the graph size, exactly
like SB3's handling of ``MultiDiscrete([3] * 2N)`` up to weight tying.

Every entry point runs one forward (:meth:`NodePolicy._forward`): one trunk
pass and the three heads as one GEMM.  The rollout-side calls (``act``,
``act_batch``, ``value``, ``value_batch``) run it under
:func:`~repro.tensor.no_grad`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..nn import MLP, Linear, Module
from ..tensor import Tensor, no_grad, ops
from .distributions import Categorical, MultiDiscreteDistribution


class NodePolicy(Module):
    """Per-node actor-critic with a shared trunk.

    Parameters
    ----------
    obs_dim:
        Number of features in each node's observation row.
    num_choices:
        Choices per action component (3: decrement / keep / increment).
    hidden:
        Trunk width.
    """

    def __init__(
        self,
        obs_dim: int,
        num_choices: int = 3,
        hidden: int = 64,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.num_choices = num_choices
        self.trunk = MLP(obs_dim, [hidden], hidden, rng, activation="tanh")
        self.k_head = Linear(hidden, num_choices, rng)
        self.d_head = Linear(hidden, num_choices, rng)
        self.value_head = Linear(hidden, 1, rng)

    # ------------------------------------------------------------------
    def _forward(self, rows: np.ndarray) -> Tuple[Tensor, Tensor, Tensor]:
        """``(k_logits, d_logits, node_values)`` for ``(R, obs_dim)`` rows.

        One trunk pass, then ``feats @ [W_k | W_d | W_v] + [b_k | b_d |
        b_v]`` as one :func:`~repro.tensor.ops.affine` whose columns are
        split back into the two ``(R, num_choices)`` logit blocks and the
        ``(R, 1)`` values.
        """
        feats = ops.tanh(self.trunk(Tensor(rows)))
        heads = (self.k_head, self.d_head, self.value_head)
        out = ops.affine(
            feats,
            ops.concat([h.weight for h in heads], axis=1),
            ops.concat([h.bias for h in heads], axis=0),
        )
        c = self.num_choices
        return (
            ops.gather_cols(out, slice(0, c)),
            ops.gather_cols(out, slice(c, 2 * c)),
            ops.gather_cols(out, slice(2 * c, 2 * c + 1)),
        )

    def _check_batch(self, obs_batch: np.ndarray) -> np.ndarray:
        """A batch of observations, validated as ``(B, N, obs_dim)``
        floats."""
        obs_batch = np.asarray(obs_batch, dtype=np.float64)
        if obs_batch.ndim != 3 or obs_batch.shape[2] != self.obs_dim:
            raise ValueError(
                f"batched observation must be (B, N, {self.obs_dim}), "
                f"got {obs_batch.shape}"
            )
        return obs_batch

    def _rows(self, obs: np.ndarray) -> np.ndarray:
        """One env's observation, validated as ``(N, obs_dim)`` floats."""
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] != self.obs_dim:
            raise ValueError(
                f"observation must be (num_nodes, {self.obs_dim}), got {obs.shape}"
            )
        return obs

    # ------------------------------------------------------------------
    def evaluate_actions(
        self, obs: np.ndarray, action: np.ndarray
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Differentiable ``(log_prob, entropy, value)`` for a PPO update.

        ``action`` is a flat vector of length ``2 * num_nodes`` (``k``
        choices, then ``d`` choices).  The joint log-probability and
        entropy are scalar sums over the ``2N`` components; the value
        mean-pools the node values.
        """
        k_logits, d_logits, node_values = self._forward(self._rows(obs))
        dist = MultiDiscreteDistribution(
            ops.concat([k_logits, d_logits], axis=0)
        )
        return dist.log_prob(action), dist.entropy(), ops.mean(node_values)

    def act(
        self, obs: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, float, float]:
        """Sample an action; returns ``(action, log_prob, value)``.

        ``action`` is a flat int vector of length ``2 * num_nodes``: the
        first half are the ``k`` choices, the second half the ``d`` choices.
        This is :meth:`act_batch` on a batch of one.
        """
        actions, log_probs, values = self.act_batch(self._rows(obs)[None], rng)
        return actions[0], float(log_probs[0]), float(values[0])

    def act_batch(
        self, obs_batch: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample one action per env; ``(actions, log_probs, values)``.

        ``actions`` is ``(B, 2N)`` int, ``log_probs`` and ``values`` are
        ``(B,)`` floats.  One forward over all ``B * N`` node rows and one
        ``rng.random((2 * B * N, 1))`` draw over all components, in
        per-env order (env ``b``'s ``k`` rows, then its ``d`` rows).
        """
        obs_batch = self._check_batch(obs_batch)
        b, n, _ = obs_batch.shape
        with no_grad():
            k_logits, d_logits, node_values = self._forward(
                obs_batch.reshape(b * n, -1)
            )
        logits = np.concatenate(
            [k_logits.data.reshape(b, n, -1), d_logits.data.reshape(b, n, -1)],
            axis=1,
        ).reshape(2 * b * n, -1)
        dist = Categorical(Tensor(logits))
        actions = dist.sample(rng)
        log_probs = dist.log_prob(actions).data.reshape(b, 2 * n).sum(axis=-1)
        values = node_values.data.reshape(b, n).mean(axis=1)
        return actions.reshape(b, 2 * n), log_probs, values

    def value(self, obs: np.ndarray) -> Tensor:
        """Scalar state-value estimate (mean-pooled node values) of one
        ``(N, obs_dim)`` observation, as a constant tensor."""
        return Tensor(self.value_batch(self._rows(obs)[None])[0])

    def value_batch(self, obs_batch: np.ndarray) -> np.ndarray:
        """Per-env state values ``(B,)`` for a ``(B, N, obs_dim)`` batch."""
        obs_batch = self._check_batch(obs_batch)
        b, n, _ = obs_batch.shape
        with no_grad():
            _, _, node_values = self._forward(obs_batch.reshape(b * n, -1))
        return node_values.data.reshape(b, n).mean(axis=1)
