"""A scalar statement of the topology MDP: the test oracle for
``TopologyEnv`` at ``num_envs = 1``.

One episode at a time, written only from the public pieces — the Eq. 10
clamp, the rewire, the Eq. 11 reward from ``predict_logits`` (the
model's, or the incremental evaluator's) reduced by ``masked_metrics``,
Algorithm 1's co-training on a record score, live churn folded in before
each step, a fresh episode after the horizon.  No memo, no batching, no
autoreset bookkeeping, none of the env's scoring code: what the env must
reproduce bit for bit.
"""

import numpy as np

from repro.core import build_observation, clamp_state, rewire_graph
from repro.gnn import IncrementalEvaluator
from repro.nn import macro_auc, masked_metrics


def scalar_mdp_stream(graph, sequences, model, trainer, split, config,
                      actions, co_train):
    """Yield ``(observation, reward, done, score, loss, base)`` per action;
    the observation is the one the step ended in, ``base`` the (churned)
    base topology of the step."""
    n = graph.num_nodes
    inc = stream = churn = None
    if config.incremental_reward:
        inc = IncrementalEvaluator(model, graph)
    if config.stream is not None:
        from repro.stream import StreamingGraph, make_stream

        churn = make_stream(graph, config.stream)
        stream = StreamingGraph(
            graph, rebase_threshold=config.stream.rebase_threshold
        )

    def metrics(g):
        scorer = model if inc is None else inc
        logits = scorer.predict_logits(g)
        acc, loss = masked_metrics(logits, g.labels, split.train)
        if config.reward == "auc":
            return macro_auc(logits, g.labels, split.train), loss
        return acc, loss

    base = graph
    k = d = np.zeros(n, dtype=np.int64)
    t, best, prev = 0, 0.0, metrics(graph)
    for action in actions:
        if stream is not None:
            report = stream.apply(churn.take(config.stream.events_per_step))
            if report.rebased and inc is not None:
                inc = IncrementalEvaluator(model, stream.root)
            base = stream.current
        k, d = clamp_state(k + action[:n] - 1, d + action[n:] - 1, base,
                           sequences, config.k_max, config.d_max)
        g = rewire_graph(base, sequences, k, d)
        score, loss = metrics(g)
        reward = (score - prev[0]) + config.lambda_r * (prev[1] - loss)
        if score > best:
            best = score
            if co_train:
                trainer.fit(g, split, epochs=config.co_train_epochs,
                            patience=config.co_train_patience)
                if inc is not None:
                    inc.invalidate()
                score, loss = metrics(g)
        prev, t = (score, loss), t + 1
        done = t >= config.horizon
        yield (build_observation(k, d, graph, sequences, config), reward,
               done, score, loss, base)
        if done:
            k = d = np.zeros(n, dtype=np.int64)
            t, prev = 0, metrics(base)


def assert_matches_oracle(env, parts, actions, co_train):
    """Step ``env`` (``num_envs = 1``) and the oracle over ``parts`` (fresh
    twins of the env's inputs) in lockstep: every reward, done flag,
    score, loss, observation and base topology must be bitwise equal."""
    env.reset()
    oracle = scalar_mdp_stream(*parts, actions, co_train)
    for action, expected in zip(actions, oracle):
        o_obs, o_rew, o_done, o_score, o_loss, o_base = expected
        obs, rew, done, info = env.step(action[None])
        assert rew[0] == o_rew  # bitwise: same float, not approx
        assert done[0] == o_done
        assert (info[0]["train_score"], info[0]["train_loss"]) == (
            o_score, o_loss
        )
        ended = info[0]["terminal_observation"] if o_done else obs[0]
        np.testing.assert_array_equal(ended, o_obs)
        np.testing.assert_array_equal(env.base_graph.edge_keys(),
                                      o_base.edge_keys())
