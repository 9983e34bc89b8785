"""Tests for the batched semantics of :class:`repro.core.TopologyEnv`.

The contract under test: with ``num_envs > 1`` every slot replays exactly
the episode a ``num_envs = 1`` env produces under the same actions — the
observations bitwise, the rewards bitwise with incremental reward off
(rtol 1e-9 with it on, the halo class) — and the core batching hooks
(clamp, observation template, one-graph stacks) agree with their
per-episode forms exactly.  At
``num_envs = 1`` the env's step stream is bitwise a scalar statement of
the MDP (the oracle in ``scalar_mdp.py``); whole fits are pinned by
``test_golden_fit.py``.
"""

import itertools

import numpy as np
import pytest

from repro.core import (
    OBS_DIM,
    RareConfig,
    TopologyEnv,
    build_observation,
    clamp_state,
    clamp_state_batch,
    fill_observation,
    observation_template,
)
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences
from repro.gnn import Trainer, build_backbone
from repro.graph import geom_gcn_splits, random_split
from repro.rl.vector.stacked import StackedGraphBuilder
from repro.telemetry import Telemetry, use_telemetry

from .scalar_mdp import assert_matches_oracle


def make_parts(num_nodes=40, **config_overrides):
    """Fresh (graph, sequences, model, trainer, split, config) — identical
    across calls, so paired envs start from the same model bytes."""
    graph = planted_partition_graph(
        num_nodes=num_nodes, homophily=0.3, feature_signal=0.4,
        num_features=32, seed=0,
    )
    split = random_split(graph.labels, np.random.default_rng(0))
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=8)
    config_overrides.setdefault("horizon", 4)
    config = RareConfig(
        k_max=4, d_max=4, max_candidates=8, **config_overrides
    )
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(0),
    )
    trainer = Trainer(model, lr=0.05)
    return graph, sequences, model, trainer, split, config


# ---------------------------------------------------------------------------
# Core batching hooks
# ---------------------------------------------------------------------------
def test_clamp_state_batch_matches_rows():
    graph, sequences, *_ , config = make_parts()
    rng = np.random.default_rng(0)
    B, n = 5, graph.num_nodes
    k = rng.integers(-3, 9, (B, n))
    d = rng.integers(-3, 9, (B, n))
    kb, db = clamp_state_batch(k, d, graph, sequences, 4, 4)
    for b in range(B):
        ks, ds = clamp_state(k[b], d[b], graph, sequences, 4, 4)
        np.testing.assert_array_equal(kb[b], ks)
        np.testing.assert_array_equal(db[b], ds)


def test_observation_template_composes_build_observation():
    graph, sequences, _, _, _, config = make_parts()
    n = graph.num_nodes
    rng = np.random.default_rng(1)
    k = rng.integers(0, 5, n)
    d = rng.integers(0, 5, n)
    template = observation_template(graph, sequences, config)
    assert (template[:, 0] == 0).all() and (template[:, 1] == 0).all()
    np.testing.assert_array_equal(
        fill_observation(template, k, d, config),
        build_observation(k, d, graph, sequences, config),
    )
    # Batched fill: row b equals the sequential observation for state b.
    kb = rng.integers(0, 5, (3, n))
    db = rng.integers(0, 5, (3, n))
    out = np.empty((3, n, OBS_DIM))
    fill_observation(template, kb, db, config, out=out)
    for b in range(3):
        np.testing.assert_array_equal(
            out[b], build_observation(kb[b], db[b], graph, sequences, config)
        )


# ---------------------------------------------------------------------------
# B = 1 against a scalar statement of the MDP
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("co_train", [False, True])
def test_b1_step_stream_byte_identical(co_train):
    env = TopologyEnv(*make_parts(), co_train=co_train)
    actions = np.random.default_rng(3).integers(
        0, 3, (6, 2 * env.base_graph.num_nodes)
    )  # crosses one episode boundary (horizon 4)
    assert_matches_oracle(env, make_parts(), actions, co_train)


def test_b1_auc_reward_variant_matches():
    env = TopologyEnv(*make_parts(reward="auc"), co_train=False)
    actions = np.random.default_rng(0).integers(
        0, 3, (3, 2 * env.base_graph.num_nodes)
    )
    assert_matches_oracle(env, make_parts(reward="auc"), actions, False)


# ---------------------------------------------------------------------------
# B > 1 against B = 1
# ---------------------------------------------------------------------------
def test_stacked_rewards_match_loop_evaluation():
    """The stacked B > 1 forward scores every episode like a per-episode
    B = 1 env does, for both rewards: exactly with incremental reward off,
    to rtol 1e-9 with it on (the B = 1 env then scores through halos)."""
    B = 4
    for reward, incremental in itertools.product(
        ("acc_loss", "auc"), (False, True)
    ):
        parts = dict(reward=reward, incremental_reward=incremental)
        venv = TopologyEnv(*make_parts(num_envs=B, **parts), co_train=False,
                           seed=0)
        singles = [
            TopologyEnv(*make_parts(**parts), co_train=False)
            for _ in range(B)
        ]
        obs_v = venv.reset()
        for b, env in enumerate(singles):
            np.testing.assert_array_equal(env.reset()[0], obs_v[b])
        for _ in range(6):  # crosses an episode boundary (horizon 4)
            actions = venv.sample_actions()
            obs_v, rew_v, done_v, _ = venv.step(actions)
            for b, env in enumerate(singles):
                obs_s, rew_s, done_s, _ = env.step(actions[b:b + 1])
                np.testing.assert_array_equal(obs_s[0], obs_v[b])
                assert done_s[0] == done_v[b]
                if incremental:
                    np.testing.assert_allclose(rew_s[0], rew_v[b],
                                               rtol=1e-9, atol=1e-12)
                else:
                    assert rew_s[0] == rew_v[b]


def test_batched_episodes_match_independent_sequential_envs():
    """Each batch slot replays exactly the episode a ``num_envs = 1`` env
    produces under the same actions (co_train off = fixed shared model)."""
    B = 3
    venv = TopologyEnv(*make_parts(num_envs=B), co_train=False, seed=0)
    parts = make_parts()
    seq_envs = [TopologyEnv(*parts, co_train=False) for _ in range(B)]
    venv.reset()
    for env in seq_envs:
        env.reset()
    rng = np.random.default_rng(7)
    n = venv.base_graph.num_nodes
    for _ in range(3):
        actions = rng.integers(0, 3, (B, 2 * n))
        obs_v, rew_v, _, _ = venv.step(actions)
        for b, env in enumerate(seq_envs):
            obs_s, rew_s, _, _ = env.step(actions[b:b + 1])
            np.testing.assert_array_equal(obs_s[0], obs_v[b])
            assert rew_s[0] == rew_v[b]  # bitwise: one reducer at any width


def test_one_graph_is_its_own_stack():
    """A width-1 stack is the graph itself, scored by the plain forward."""
    graph, _, model, *_ = make_parts()
    stack = StackedGraphBuilder(graph, model, max_width=3)
    assert stack.stacked_graph([graph]) is graph
    assert stack.stacked_logits([graph])[0].tobytes() == (
        model.predict_logits(graph).tobytes()
    )
    # Width 1 learns no block-diagonal seeding; the first wider batch does.
    assert stack._seed_keys is None
    stack.stacked_logits([graph, graph])
    assert stack._seed_keys == ("gcn_norm",)


def test_batched_steps_leave_the_evaluator_alone():
    """At ``num_envs > 1`` the batch goes to one stacked forward: with
    co-training off, a step that ends no episode never calls the
    incremental evaluator (it scores only graphs scored alone), nor any
    other halo evaluation."""
    tel = Telemetry(enabled=True)

    def halo_counters():
        return {
            name: value for name, value in tel.snapshot()["counters"].items()
            if name.startswith("incremental.")
        }

    with use_telemetry(tel):
        venv = TopologyEnv(
            *make_parts(num_envs=3, incremental_reward=True),
            co_train=False, seed=0,
        )
        before, counters = dict(venv._inc.stats), halo_counters()
        assert before["base_hits"] == 1  # the reset's base-graph score
        for _ in range(venv.config.horizon - 1):
            _, _, dones, _ = venv.step(venv.sample_actions())
            assert not dones.any()
            assert dict(venv._inc.stats) == before
            assert halo_counters() == counters


def test_autoreset_and_episode_infos():
    B = 2
    venv = TopologyEnv(*make_parts(horizon=2, num_envs=B), co_train=False,
                       seed=0)
    venv.reset()
    venv.step(venv.sample_actions())
    obs, rewards, dones, infos = venv.step(venv.sample_actions())
    assert dones.all()
    for b in range(B):
        assert infos[b]["episode"]["l"] == 2
        assert "terminal_observation" in infos[b]
    # Fresh episodes: state cleared, observation is the S_0 template.
    assert (venv.t == 0).all()
    assert (venv.k == 0).all() and (venv.d == 0).all()
    assert (obs[:, :, 0] == 0).all() and (obs[:, :, 1] == 0).all()
    assert all(g is venv.base_graph for g in venv.current_graphs)
    # Histories accumulate across episodes.
    assert all(len(h) == 2 for h in venv.histories)
    venv.reset()
    assert all(len(h) == 2 for h in venv.histories)
    venv.clear_history()
    assert all(len(h) == 0 for h in venv.histories)


def test_shared_rewire_memo_across_envs():
    """Two episodes reaching the same (k, d) state share one Graph."""
    B = 2
    venv = TopologyEnv(*make_parts(num_envs=B), co_train=False, seed=0)
    venv.reset()
    n = venv.base_graph.num_nodes
    same = np.tile(np.full(2 * n, 2), (B, 1))  # both increment everything
    venv.step(same)
    assert venv.current_graphs[0] is venv.current_graphs[1]
    assert venv.rewire_memo_stats["misses"] == 1
    assert venv.rewire_memo_stats["hits"] >= 1


def test_seed_spawns_stable_per_episode_streams():
    """Episode b's random stream is one function of (base seed, b): the
    same for any batch width that includes it."""
    a = TopologyEnv(*make_parts(num_envs=2), co_train=False, seed=11)
    b = TopologyEnv(*make_parts(num_envs=4), co_train=False, seed=11)
    sa = a.sample_actions()
    sb = b.sample_actions()
    np.testing.assert_array_equal(sa, sb[:2])
    # Reseeding reproduces the stream; distinct seeds diverge.
    a.reset(seed=11)
    np.testing.assert_array_equal(a.sample_actions(), sa)
    a.reset(seed=12)
    assert not np.array_equal(a.sample_actions(), sa)


def test_sequential_env_seed_plumbing():
    env = TopologyEnv(*make_parts(), co_train=False, seed=4)
    first = env.sample_actions()
    assert first.shape == (1, 2 * env.base_graph.num_nodes)
    env.reset(seed=4)
    np.testing.assert_array_equal(env.sample_actions(), first)
    assert env.action_space.contains(first[0])


def test_validation_errors():
    with pytest.raises(ValueError, match="num_envs"):
        make_parts(num_envs=0)
    venv = TopologyEnv(*make_parts(num_envs=2), co_train=False, seed=0)
    with pytest.raises(ValueError, match="actions"):
        venv.step(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError, match="actions"):
        venv.step(np.zeros((1, 2 * venv.base_graph.num_nodes), dtype=int))


def test_rare_config_num_envs_validation():
    with pytest.raises(ValueError, match="num_envs"):
        RareConfig(num_envs=0)
    assert RareConfig(num_envs=4).num_envs == 4
    # Every agent collects through the batched path, REINFORCE included.
    assert RareConfig(num_envs=4, rl_algorithm="reinforce").num_envs == 4


def test_vec_topology_env_is_an_alias():
    from repro.rl.vector.topology import VecTopologyEnv

    assert VecTopologyEnv is TopologyEnv


# ---------------------------------------------------------------------------
# Framework integration
# ---------------------------------------------------------------------------
def _fit_world():
    graph = planted_partition_graph(
        num_nodes=40, num_classes=3, homophily=0.25,
        feature_signal=0.5, num_features=32, seed=0,
    )
    return graph, random_split(graph.labels, np.random.default_rng(0))


def test_graphrare_fit_with_num_envs():
    """Framework integration: the batched collection path produces a
    valid result end to end."""
    from repro.core import GraphRARE

    graph, split = _fit_world()
    cfg = RareConfig(
        k_max=3, d_max=3, max_candidates=8, episodes=4, horizon=3,
        num_envs=2, final_epochs=20, final_patience=6, seed=0,
    )
    result = GraphRARE("gcn", cfg).fit(graph, split, train_baseline=False)
    assert 0.0 <= result.test_acc <= 1.0
    # ceil(4 episodes / 2 envs) = 2 update iterations.
    assert len(result.episode_rewards) == 2


@pytest.mark.parametrize("num_envs", [2, 4])
def test_graphrare_reinforce_with_num_envs(num_envs):
    """REINFORCE runs at any batch width: one curve entry per
    ``num_envs``-episode iteration, ``ceil(episodes / num_envs)`` in all."""
    from repro.core import GraphRARE

    graph, split = _fit_world()
    cfg = RareConfig(
        rl_algorithm="reinforce", k_max=3, d_max=3, max_candidates=8,
        episodes=5, horizon=3, num_envs=num_envs, final_epochs=10,
        final_patience=10, seed=0,
    )
    result = GraphRARE("gcn", cfg).fit(graph, split, train_baseline=False)
    iterations = -(-5 // num_envs)
    assert len(result.episode_rewards) == iterations
    assert len(result.accuracy_curve) == iterations
    assert len(result.homophily_curve) == iterations
    assert np.isfinite(result.episode_rewards).all()
    assert 0.0 <= result.test_acc <= 1.0


def test_selection_tie_keeps_original_topology():
    """On an exact validation tie between the original topology and a
    rewired record graph, the original wins: the current graphs (the
    original after autoreset) are candidates before the record graph and
    only a strictly higher accuracy replaces the selection.  Measured
    case: both candidates reach val 0.5833 in every iteration."""
    from repro.core import GraphRARE

    graph = planted_partition_graph(
        num_nodes=120, num_classes=4, homophily=0.3, mean_degree=4,
        num_features=24, seed=3,
    )
    split = geom_gcn_splits(graph, seed=3)[0]
    cfg = RareConfig(
        seed=3, k_max=3, d_max=3, max_candidates=8, episodes=6, horizon=3,
        final_epochs=15, final_patience=15, co_train_epochs=3,
        co_train_patience=3, num_envs=2,
    )
    result = GraphRARE("gcn", cfg).fit(graph, split)
    assert result.accuracy_curve == [7 / 12] * 3
    assert result.optimized_graph is graph
    assert result.test_acc == 0.375
