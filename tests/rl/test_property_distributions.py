"""Hypothesis property tests for the RL distributions and GAE."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.rl import BatchedRolloutBuffer, Categorical, MultiDiscreteDistribution
from repro.tensor import Tensor

logit_arrays = arrays(
    np.float64, (4, 3),
    elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)


@settings(max_examples=30, deadline=None)
@given(logit_arrays)
def test_log_probs_normalise(logits):
    cat = Categorical(Tensor(logits))
    totals = np.exp(cat.log_probs.data).sum(axis=-1)
    np.testing.assert_allclose(totals, 1.0, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(logit_arrays)
def test_entropy_bounds(logits):
    cat = Categorical(Tensor(logits))
    ent = cat.entropy().data
    assert (ent >= -1e-9).all()
    assert (ent <= np.log(3.0) + 1e-9).all()


@settings(max_examples=30, deadline=None)
@given(logit_arrays, st.integers(min_value=0, max_value=1000))
def test_sampled_actions_have_positive_probability(logits, seed):
    cat = Categorical(Tensor(logits))
    actions = cat.sample(np.random.default_rng(seed))
    probs = cat.probs[np.arange(len(actions)), actions]
    assert (probs > 0).all()


@settings(max_examples=30, deadline=None)
@given(logit_arrays)
def test_joint_log_prob_leq_zero(logits):
    dist = MultiDiscreteDistribution(Tensor(logits))
    action = dist.sample(np.random.default_rng(0))
    assert dist.log_prob(action).item() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    rewards=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=2, max_size=10,
    ),
    gamma=st.floats(min_value=0.5, max_value=1.0),
)
def test_gae_with_zero_values_and_lambda_one_is_discounted_return(rewards, gamma):
    buf = BatchedRolloutBuffer(
        len(rewards), 1, obs_shape=(1, 1), action_dim=2,
        gamma=gamma, gae_lambda=1.0,
    )
    for i, r in enumerate(rewards):
        done = i == len(rewards) - 1
        buf.add(np.zeros((1, 1, 1)), np.zeros((1, 2), int), [r], [0.0],
                [0.0], [done])
    adv, ret = buf.compute_flat_advantages()
    expected = 0.0
    expected_list = []
    for r in reversed(rewards):
        expected = r + gamma * expected
        expected_list.append(expected)
    np.testing.assert_allclose(ret, expected_list[::-1], atol=1e-9)
    np.testing.assert_allclose(adv, ret)  # zero values => adv == returns
