"""LRU semantics and hit/miss accounting of the (k, d) rewire memo."""

import numpy as np

from repro.core import RareConfig, TopologyEnv
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences
from repro.gnn import Trainer, build_backbone
from repro.graph import random_split


def make_env(num_envs=1, **config_overrides):
    graph = planted_partition_graph(
        num_nodes=24, homophily=0.3, feature_signal=0.4, num_features=8, seed=0
    )
    split = random_split(graph.labels, np.random.default_rng(0))
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=6)
    config = RareConfig(
        k_max=4, d_max=4, max_candidates=6, horizon=3, num_envs=num_envs,
        **config_overrides,
    )
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=8, rng=np.random.default_rng(0),
    )
    trainer = Trainer(model, lr=0.05)
    env = TopologyEnv(graph, sequences, model, trainer, split, config,
                      co_train=False)
    return env, graph


def state(graph, i):
    """A distinct (k, d) state per ``i``."""
    n = graph.num_nodes
    k = np.zeros(n, dtype=np.int64)
    d = np.zeros(n, dtype=np.int64)
    k[i % n] = 1 + (i % 2)
    d[(i * 5 + 1) % n] = 1
    return k, d


def counts(env):
    stats = env.rewire_memo_stats
    return stats["hits"], stats["misses"]


def test_hit_refreshes_recency_true_lru():
    """A revisited entry must survive eviction (the old FIFO aged it out)."""
    env, graph = make_env(rewire_memo_entries=3)
    graphs = [env._rewired(*state(graph, i)) for i in range(3)]  # fill
    _, misses = counts(env)
    assert env._rewired(*state(graph, 0)) is graphs[0]  # refresh entry 0
    assert counts(env) == (1, misses)
    env._rewired(*state(graph, 3))  # evicts entry 1 (LRU), not entry 0
    assert env._rewired(*state(graph, 0)) is graphs[0]  # still cached
    assert counts(env)[1] == misses + 1
    env._rewired(*state(graph, 1))  # entry 1 was evicted: a fresh miss
    assert counts(env)[1] == misses + 2


def test_eviction_order_follows_recency_not_insertion():
    env, graph = make_env(rewire_memo_entries=2)
    g0 = env._rewired(*state(graph, 0))
    env._rewired(*state(graph, 1))
    env._rewired(*state(graph, 0))          # 0 becomes most-recent
    env._rewired(*state(graph, 2))          # evicts 1, keeps hot 0
    assert env._rewired(*state(graph, 0)) is g0
    hits, _ = counts(env)
    env._rewired(*state(graph, 1))          # re-inserted: miss
    assert counts(env)[0] == hits


def test_accounting_across_resets_and_limit_boundary():
    env, graph = make_env(rewire_memo_entries=4)
    action = np.full((1, 2 * graph.num_nodes), 2)  # k = d = 1 (clamped)
    env.reset()
    env.step(action)
    assert counts(env) == (0, 1)
    env.reset()  # the memo survives resets (keyed on the immutable base)
    env.step(action)
    assert counts(env) == (1, 1)

    # Drive the memo past its bound: the population never exceeds the
    # limit and every new state is an honest miss.
    for i in range(10):
        env._rewired(*state(graph, i))
    assert len(env._rewire_cache) <= 4
    assert env.rewire_memo_stats["evictions"] >= 6
    assert counts(env)[1] == 11
    # The last inserted states are resident, the earliest are gone.
    hits, _ = counts(env)
    assert env._rewired(*state(graph, 9)) is not None
    assert counts(env)[0] == hits + 1


def test_vec_env_shared_memo_is_lru_too():
    """At ``num_envs = 2`` the one memo is shared by both episodes and its
    bound is ``rewire_memo_entries * num_envs``."""
    env, graph = make_env(num_envs=2, rewire_memo_entries=2)
    assert env._rewire_cache.capacity == 4
    graphs = [env._rewired(*state(graph, i)) for i in range(4)]
    env._rewired(*state(graph, 0))          # refresh
    env._rewired(*state(graph, 4))          # evicts state 1
    _, misses = counts(env)
    assert env._rewired(*state(graph, 0)) is graphs[0]
    assert counts(env)[1] == misses
    env._rewired(*state(graph, 1))
    assert counts(env)[1] == misses + 1
