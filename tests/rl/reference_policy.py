"""Test oracle: the two-trunk policy forward and the composite
categorical terms :class:`repro.rl.NodePolicy` used before its fused
single forward.

Each evaluation runs the trunk twice (once for the logits, once for the
value), three separate head GEMMs, and builds the categorical
log-probability and entropy from ``log_softmax`` / one-hot / ``softmax``
composites.  The fused path must match these bitwise where the float
sequence is unchanged (per-row log-probabilities and entropies on the same
logits, trunk features) and allclose elsewhere (see
``docs/equivalence-policy.md``).
"""

import numpy as np

from repro.tensor import Tensor, ops


def composite_log_prob(logits: Tensor, actions) -> Tensor:
    """Per-row ``sum(log_softmax(logits) * one_hot(actions))``."""
    actions = np.asarray(actions, dtype=np.int64)
    log_probs = ops.log_softmax(logits, axis=-1)
    one_hot = np.zeros(log_probs.shape)
    one_hot[np.arange(len(actions)), actions] = 1.0
    return ops.sum(log_probs * Tensor(one_hot), axis=-1)


def composite_entropy(logits: Tensor) -> Tensor:
    """Per-row ``-sum(softmax(logits) * log_softmax(logits))``."""
    log_probs = ops.log_softmax(logits, axis=-1)
    return -ops.sum(ops.softmax(logits, axis=-1) * log_probs, axis=-1)


def trunk_features(policy, obs) -> Tensor:
    """The shared trunk's output for one ``(N, obs_dim)`` observation."""
    return ops.tanh(policy.trunk(Tensor(np.asarray(obs, dtype=np.float64))))


def reference_logits(policy, obs) -> Tensor:
    """``(2N, C)`` logits, ``k`` rows then ``d`` rows, from their own
    trunk pass and two head GEMMs."""
    feats = trunk_features(policy, obs)
    return ops.concat([policy.k_head(feats), policy.d_head(feats)], axis=0)


def reference_value(policy, obs) -> Tensor:
    """Mean-pooled node values from a second trunk pass."""
    return ops.mean(policy.value_head(trunk_features(policy, obs)))


def reference_evaluate_actions(policy, obs, action):
    """Differentiable ``(log_prob, entropy, value)``, two trunk passes."""
    logits = reference_logits(policy, obs)
    return (
        ops.sum(composite_log_prob(logits, action)),
        ops.sum(composite_entropy(logits)),
        reference_value(policy, obs),
    )


def reference_act(policy, obs, rng):
    """``(action, log_prob, value)`` with one ``rng.random((2N, 1))`` draw."""
    logits = reference_logits(policy, obs)
    probs = np.exp(ops.log_softmax(logits, axis=-1).data)
    u = rng.random((probs.shape[0], 1))
    action = (u > probs.cumsum(axis=-1)).sum(axis=-1).astype(np.int64)
    log_prob = ops.sum(composite_log_prob(logits, action)).item()
    return action, log_prob, reference_value(policy, obs).item()
