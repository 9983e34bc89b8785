"""End-to-end tests for the GraphRARE framework (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import GraphRARE, RareConfig
from repro.datasets import planted_partition_graph
from repro.graph import random_split


def tiny_config(**overrides):
    base = dict(
        k_max=3,
        d_max=3,
        max_candidates=8,
        episodes=2,
        horizon=3,
        co_train_epochs=4,
        co_train_patience=3,
        final_epochs=40,
        final_patience=10,
        seed=0,
    )
    base.update(overrides)
    return RareConfig(**base)


@pytest.fixture(scope="module")
def heterophilic():
    graph = planted_partition_graph(
        num_nodes=60, num_classes=3, homophily=0.2,
        feature_signal=0.5, num_features=48, mean_degree=4.0, seed=0,
    )
    split = random_split(graph.labels, np.random.default_rng(0))
    return graph, split


@pytest.fixture(scope="module")
def rare_result(heterophilic):
    graph, split = heterophilic
    rare = GraphRARE("gcn", tiny_config())
    return rare.fit(graph, split)


def test_result_fields_populated(rare_result):
    assert 0.0 <= rare_result.test_acc <= 1.0
    assert 0.0 <= rare_result.baseline_test_acc <= 1.0
    assert rare_result.entropy_seconds > 0
    assert len(rare_result.accuracy_curve) == 2
    assert len(rare_result.homophily_curve) == 2
    assert len(rare_result.episode_rewards) == 2


def test_improvement_property(rare_result):
    assert rare_result.improvement == pytest.approx(
        rare_result.test_acc - rare_result.baseline_test_acc
    )


def test_optimized_graph_differs_from_original(heterophilic, rare_result):
    graph, _ = heterophilic
    assert rare_result.optimized_graph.edges != graph.edges


def test_rare_improves_heterophilic_homophily(heterophilic, rare_result):
    """The Fig. 7 claim: rewiring raises the homophily ratio."""
    assert rare_result.optimized_homophily > rare_result.original_homophily


def test_rare_beats_or_matches_backbone(heterophilic, rare_result):
    """The Table III claim, on an easy synthetic instance."""
    assert rare_result.test_acc >= rare_result.baseline_test_acc - 0.05


def test_shuffle_sequences_ablation_runs(heterophilic):
    graph, split = heterophilic
    rare = GraphRARE("gcn", tiny_config(episodes=1))
    result = rare.fit(graph, split, shuffle_sequences=True, train_baseline=False)
    assert 0.0 <= result.test_acc <= 1.0
    assert np.isnan(result.baseline_test_acc)


def test_precomputed_sequences_reused(heterophilic):
    graph, split = heterophilic
    from repro.entropy import RelativeEntropy, build_entropy_sequences

    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    seqs = build_entropy_sequences(graph, entropy, max_candidates=8)
    rare = GraphRARE("gcn", tiny_config(episodes=1))
    result = rare.fit(graph, split, sequences=seqs, train_baseline=False)
    assert result.entropy_seconds == 0.0


def test_other_backbones_run(heterophilic):
    graph, split = heterophilic
    for backbone in ("graphsage", "h2gcn"):
        rare = GraphRARE(backbone, tiny_config(episodes=1, horizon=2))
        result = rare.fit(graph, split, train_baseline=False)
        assert 0.0 <= result.test_acc <= 1.0


def test_config_validation():
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam must be finite"):
            RareConfig(lam=lam)
    with pytest.raises(ValueError):
        RareConfig(k_max=100, max_candidates=10)
    with pytest.raises(ValueError):
        RareConfig(reward="f1")
    with pytest.raises(ValueError):
        RareConfig(add_edges=False, remove_edges=False)
    with pytest.raises(ValueError):
        RareConfig(horizon=0)
    with pytest.raises(ValueError):
        RareConfig(num_workers=0)
    assert RareConfig(num_workers=4).num_workers == 4


def test_add_only_and_remove_only_configs(heterophilic):
    graph, split = heterophilic
    for flags in ({"remove_edges": False}, {"add_edges": False}):
        rare = GraphRARE("gcn", tiny_config(episodes=1, horizon=2, **flags))
        result = rare.fit(graph, split, train_baseline=False)
        if flags.get("remove_edges") is False:
            assert graph.edges <= result.optimized_graph.edges
        else:
            assert result.optimized_graph.edges <= graph.edges


def test_fit_with_telemetry_emits_valid_jsonl(heterophilic, tmp_path):
    from repro.telemetry import (
        get_telemetry,
        telemetry_from_spec,
        use_telemetry,
        validate_lines,
    )

    graph, split = heterophilic
    path = str(tmp_path / "fit.jsonl")
    rare = GraphRARE("gcn", tiny_config(episodes=1, horizon=2))
    tel = telemetry_from_spec(path)
    with use_telemetry(tel):
        result = rare.fit(graph, split, train_baseline=True)
    tel.close()
    assert 0.0 <= result.test_acc <= 1.0
    # Leaving the scope restores the disabled default session.
    assert not get_telemetry().enabled

    events, errors = validate_lines(open(path).read().splitlines())
    assert errors == []
    names = {e["name"] for e in events if e["type"] == "span"}
    # The span tree covers entropy -> rewire -> reward -> co-training.
    for required in (
        "rare.fit", "rare.entropy", "rare.baseline", "rare.final",
        "env.step", "env.reward", "env.co_train",
    ):
        assert required in names, required
    counters = {e["name"] for e in events if e["type"] == "counter"}
    assert any(c.startswith("env.rewire_memo.") for c in counters)
    # Every op a fit runs times its forward and backward.
    histograms = {e["name"] for e in events if e["type"] == "histogram"}
    assert {"op.Spmm.fwd_s", "op.Spmm.bwd_s"} <= histograms


#: The phases ``GraphRARE._fit`` opens directly under ``rare.fit``.
TOP_LEVEL_PHASES = {
    "rare.entropy", "rare.baseline", "rare.setup", "rare.warm_start",
    "rare.rollout", "rare.update", "rare.select", "rare.final",
}


@pytest.mark.parametrize("num_envs", [1, 2])
def test_phase_spans_cover_fit(heterophilic, num_envs):
    """The top-level phases account for >= 98% of ``rare.fit`` on both
    driver loops, every rollout but the last is followed by an agent
    update, and every update lands in ``rl.update_s``."""
    from repro.telemetry import Telemetry, use_telemetry

    graph, split = heterophilic
    tel = Telemetry(enabled=True)
    cfg = tiny_config(num_envs=num_envs, episodes=4, horizon=4)
    with use_telemetry(tel):
        GraphRARE("gcn", cfg).fit(graph, split)
    (fit,) = [s for s in tel.spans if s["name"] == "rare.fit"]
    phases = [s for s in tel.spans if s["parent"] == fit["id"]]
    assert {s["name"] for s in phases} == TOP_LEVEL_PHASES
    covered = sum(s["dur"] for s in phases)
    assert covered >= 0.98 * fit["dur"], (covered, fit["dur"])
    updates = [s for s in phases if s["name"] == "rare.update"]
    assert len(updates) == -(-cfg.episodes // num_envs) - 1
    assert tel.registry.histograms["rl.update_s"].count == len(updates)


def _spy_on_agent(monkeypatch, log):
    """Wrap the agent ``_fit`` builds so ``log`` records each rollout's
    buffer (``("rollout", buffer)``) and each update (``("update",
    buffer)``)."""
    import repro.core.framework as framework

    build = framework.build_agent

    def spying_build_agent(*args, **kwargs):
        agent = build(*args, **kwargs)
        collect, update = agent.collect_rollout, agent.update

        def collect_rollout(env, num_steps):
            buffer = collect(env, num_steps)
            log.append(("rollout", buffer))
            return buffer

        def spying_update(buffer):
            log.append(("update", buffer))
            return update(buffer)

        agent.collect_rollout, agent.update = collect_rollout, spying_update
        return agent

    monkeypatch.setattr(framework, "build_agent", spying_build_agent)


@pytest.mark.parametrize("episodes, num_envs", [(3, 1), (4, 2), (2, 2), (5, 2)])
def test_fit_updates_after_every_rollout_but_the_last(
    heterophilic, monkeypatch, episodes, num_envs
):
    """``agent.update`` runs ``ceil(episodes / num_envs) - 1`` times, each
    on the rollout just collected, and every iteration's episode reward is
    its buffer's mean reward — the last one included."""
    graph, split = heterophilic
    log = []
    _spy_on_agent(monkeypatch, log)
    cfg = tiny_config(episodes=episodes, num_envs=num_envs, horizon=2)
    result = GraphRARE("gcn", cfg).fit(graph, split, train_baseline=False)
    iterations = -(-episodes // num_envs)
    rollouts = [buf for kind, buf in log if kind == "rollout"]
    updates = [buf for kind, buf in log if kind == "update"]
    assert len(rollouts) == iterations
    assert len(updates) == iterations - 1
    assert all(u is r for u, r in zip(updates, rollouts))
    assert log[-1][0] == "rollout"
    assert result.episode_rewards == [
        float(buf.flat_rewards().mean()) for buf in rollouts
    ]


def test_select_scores_each_candidate_once_per_iteration(
    heterophilic, monkeypatch
):
    """``rare.select`` evaluates every distinct candidate once; the lead
    graph's score is reused for the accuracy curve."""
    import repro.core.framework as framework

    graph, split = heterophilic
    log = []
    _spy_on_agent(monkeypatch, log)
    evaluate = framework.evaluate

    def counting_evaluate(model, candidate, mask):
        score = evaluate(model, candidate, mask)
        log.append(("evaluate", candidate, score[0]))
        return score

    monkeypatch.setattr(framework, "evaluate", counting_evaluate)
    cfg = tiny_config(episodes=6, num_envs=2, horizon=2)
    result = GraphRARE("gcn", cfg).fit(graph, split, train_baseline=False)

    # Split the log at each rollout; the evaluations after one are that
    # iteration's selection (the one before the first is the baseline
    # candidate).
    iterations, current = [], None
    for entry in log:
        if entry[0] == "rollout":
            current = []
            iterations.append(current)
        elif entry[0] == "evaluate" and current is not None:
            current.append(entry[1:])
    assert len(iterations) == 3
    for calls, lead_acc in zip(iterations, result.accuracy_curve):
        ids = [id(candidate) for candidate, _ in calls]
        assert len(ids) == len(set(ids)), "a candidate was scored twice"
        assert calls[0][1] == lead_acc


def test_warm_start_draws_dropout_masks_from_the_fit(heterophilic):
    """A warm-started fit depends on the model's weights only, not on the
    state of the generator the model was built with."""
    from repro.gnn import build_backbone
    from repro.nn import Dropout

    from .golden_fit import digest

    graph, split = heterophilic
    cfg = tiny_config(episodes=2, horizon=2)

    def warm_model():
        return build_backbone(
            "gcn", graph.num_features, graph.num_classes, hidden=cfg.hidden,
            dropout=0.5, rng=np.random.default_rng(123),
        )

    plain, advanced = warm_model(), warm_model()
    (old_rng,) = {
        m._rng for m in advanced.modules() if isinstance(m, Dropout)
    }
    old_rng.random(1000)  # the draws an earlier run would have made

    results = [
        GraphRARE("gcn", cfg).fit(graph, split, initial_model=model)
        for model in (plain, advanced)
    ]
    assert digest(results[0]) == digest(results[1])
    for model in (plain, advanced):
        assert all(
            m._rng is not old_rng
            for m in model.modules() if isinstance(m, Dropout)
        )
