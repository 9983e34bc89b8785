"""The fused policy forward against the two-trunk composite oracle.

``NodePolicy`` runs one trunk pass and one head GEMM per call, and the
multi-discrete log-probability / entropy are fused ops.  The oracle in
``reference_policy`` is the previous forward; the equivalence classes
pinned here are the ones ``docs/equivalence-policy.md`` states.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.rl import BatchedRolloutBuffer, NodePolicy, PPO, PPOConfig
from repro.tensor import Tensor, ops

from .reference_policy import (
    composite_entropy,
    composite_log_prob,
    reference_act,
    reference_evaluate_actions,
    trunk_features,
)

OBS_DIM = 6
NUM_NODES = 40


def make_policy(seed=0):
    return NodePolicy(obs_dim=OBS_DIM, hidden=64,
                      rng=np.random.default_rng(seed))


def observation(seed, n=NUM_NODES):
    return np.random.default_rng(seed).standard_normal((n, OBS_DIM))


# ---------------------------------------------------------------------------
# Fused categorical ops: bitwise forward, allclose backward
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(2, 5)),
           elements=st.floats(-60.0, 60.0, allow_nan=False)),
    st.integers(0, 2**31 - 1),
)
def test_fused_ops_bitwise_equal_composite(logits, seed):
    actions = np.random.default_rng(seed).integers(0, logits.shape[1],
                                                   size=logits.shape[0])
    np.testing.assert_array_equal(
        ops.categorical_log_prob(Tensor(logits), actions).data,
        composite_log_prob(Tensor(logits), actions).data,
    )
    np.testing.assert_array_equal(
        ops.categorical_entropy(Tensor(logits)).data,
        composite_entropy(Tensor(logits)).data,
    )


@pytest.mark.parametrize("scale", [0.1, 3.0, 40.0])
def test_fused_op_gradients_match_composite(scale):
    rng = np.random.default_rng(1)
    logits = scale * rng.standard_normal((50, 3))
    actions = rng.integers(0, 3, size=50)
    upstream = rng.standard_normal(50)
    for fused, composite in (
        (lambda t: ops.categorical_log_prob(t, actions),
         lambda t: composite_log_prob(t, actions)),
        (ops.categorical_entropy, composite_entropy),
    ):
        grads = []
        for fn in (fused, composite):
            t = Tensor(logits, requires_grad=True)
            fn(t).backward(upstream)
            grads.append(t.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=0.0, atol=1e-12)


def test_fused_ops_reject_bad_shapes():
    with pytest.raises(ValueError, match="actions"):
        ops.categorical_log_prob(Tensor(np.zeros((4, 3))), np.zeros(3, int))
    with pytest.raises(ValueError, match="2-D"):
        ops.categorical_entropy(Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# One forward: trunk bitwise, one head GEMM
# ---------------------------------------------------------------------------
def test_forward_is_one_trunk_pass_and_one_head_gemm():
    policy = make_policy()
    obs = observation(2)
    feats = trunk_features(policy, obs).data
    heads = (policy.k_head, policy.d_head, policy.value_head)
    out = (feats @ np.concatenate([h.weight.data for h in heads], axis=1)
           + np.concatenate([h.bias.data for h in heads]))
    k_logits, d_logits, node_values = policy._forward(obs)
    np.testing.assert_array_equal(k_logits.data, out[:, 0:3])
    np.testing.assert_array_equal(d_logits.data, out[:, 3:6])
    np.testing.assert_array_equal(node_values.data, out[:, 6:7])
    # Against three separate head GEMMs: allclose (BLAS blocks one
    # 7-column product differently from three narrow ones).
    np.testing.assert_allclose(k_logits.data, feats @ heads[0].weight.data
                               + heads[0].bias.data, rtol=0.0, atol=1e-12)


def test_evaluate_actions_allclose_to_two_trunk_reference():
    policy = make_policy()
    obs = observation(3)
    action = np.random.default_rng(4).integers(0, 3, size=2 * NUM_NODES)
    fused = policy.evaluate_actions(obs, action)
    reference = reference_evaluate_actions(policy, obs, action)
    for got, want in zip(fused, reference):
        assert got.shape == want.shape == ()
        np.testing.assert_allclose(got.data, want.data, rtol=0.0, atol=1e-12)


def _ppo_loss(evaluate, obs, action, old_log_prob=-40.0, adv=0.7, ret=0.3):
    cfg = PPOConfig()
    log_prob, entropy, value = evaluate(obs, action)
    ratio = ops.exp(log_prob - old_log_prob)
    surr = ops.minimum(
        ratio * adv,
        ops.clamp(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range) * adv,
    )
    value_err = value - ret
    return (-surr + cfg.value_coef * value_err * value_err
            - cfg.entropy_coef * entropy)


def test_ppo_loss_gradients_allclose_to_reference():
    policy = make_policy()
    obs = observation(5)
    action = np.random.default_rng(6).integers(0, 3, size=2 * NUM_NODES)
    old_log_prob = policy.evaluate_actions(obs, action)[0].item() + 0.05
    grads = []
    for evaluate in (policy.evaluate_actions,
                     functools.partial(reference_evaluate_actions, policy)):
        for p in policy.parameters():
            p.zero_grad()
        _ppo_loss(evaluate, obs, action, old_log_prob).backward()
        grads.append([p.grad.copy() for p in policy.parameters()])
    for fused, reference in zip(*grads):
        assert np.abs(reference).max() > 0
        np.testing.assert_allclose(fused, reference, rtol=0.0, atol=1e-12)


def test_act_matches_reference_act():
    policy = make_policy()
    obs = observation(7)
    action, log_prob, value = policy.act(obs, np.random.default_rng(8))
    ref_action, ref_log_prob, ref_value = reference_act(
        policy, obs, np.random.default_rng(8)
    )
    np.testing.assert_array_equal(action, ref_action)
    assert log_prob == pytest.approx(ref_log_prob, rel=0.0, abs=1e-12)
    assert value == pytest.approx(ref_value, rel=0.0, abs=1e-12)


def test_act_log_prob_bitwise_equals_evaluate_actions():
    """A sampled action's rollout log-probability is the float the update
    recomputes for it (same forward, same fused op, same row sum), so the
    first PPO ratio is exactly 1."""
    policy = make_policy()
    obs = observation(9)
    action, log_prob, _ = policy.act(obs, np.random.default_rng(10))
    assert policy.evaluate_actions(obs, action)[0].item() == log_prob


def test_rollout_calls_record_no_graph():
    policy = make_policy()
    obs = observation(11)
    policy.act(obs, np.random.default_rng(0))
    policy.value_batch(obs[None])
    assert not policy.value(obs).requires_grad
    assert all(p.grad is None for p in policy.parameters())


# ---------------------------------------------------------------------------
# One PPO update over a fixed buffer
# ---------------------------------------------------------------------------
def fixed_buffer(num_steps=6, seed=12):
    rng = np.random.default_rng(seed)
    buf = BatchedRolloutBuffer(
        num_steps, 1, obs_shape=(NUM_NODES, OBS_DIM),
        action_dim=2 * NUM_NODES,
    )
    for t in range(num_steps):
        buf.add(
            rng.standard_normal((1, NUM_NODES, OBS_DIM)),
            rng.integers(0, 3, size=(1, 2 * NUM_NODES)),
            [float(rng.standard_normal())],
            [float(rng.standard_normal())],
            [-2.0 * NUM_NODES * np.log(3.0) + 0.1 * float(rng.standard_normal())],
            [t == num_steps - 1],
        )
    return buf


def test_ppo_update_allclose_to_reference():
    fused, reference = make_policy(), make_policy()
    reference.evaluate_actions = functools.partial(
        reference_evaluate_actions, reference
    )
    buf = fixed_buffer()
    stats = []
    for policy in (fused, reference):
        agent = PPO(policy, PPOConfig(update_epochs=2),
                    rng=np.random.default_rng(13))
        stats.append(agent.update(buf))
    for p_fused, p_ref in zip(fused.parameters(), reference.parameters()):
        np.testing.assert_allclose(p_fused.data, p_ref.data,
                                   rtol=0.0, atol=1e-12)
    assert stats[0].policy_loss == pytest.approx(stats[1].policy_loss,
                                                 rel=1e-9)
    # The update moved the parameters (the comparison is not vacuous).
    untouched = make_policy()
    assert any(
        not np.array_equal(p.data, q.data)
        for p, q in zip(fused.parameters(), untouched.parameters())
    )
