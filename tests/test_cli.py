"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["info", "--dataset", "citeseer"])


def test_info_command(capsys):
    code = main(["info", "--dataset", "cornell", "--scale", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "homophily" in out
    assert "nodes" in out


def test_rewire_command(capsys):
    code = main([
        "rewire", "--dataset", "texas", "--scale", "0.5", "--k", "2", "--d", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "edges added" in out
    assert "homophily" in out


def test_entropy_engine_flags_parse():
    args = build_parser().parse_args([
        "run", "--dataset", "texas", "--num-workers", "3",
    ])
    assert args.num_workers == 3
    args = build_parser().parse_args(["rewire", "--dataset", "texas"])
    assert args.num_workers == 1
    # The engine follows from the graph; there is no flag to choose it.
    for command in ("run", "rewire"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, "--dataset", "texas", "--screening", "on"]
            )


def test_rewire_with_screening_engine(tmp_path, capsys):
    """A bundle-backed rewire streams the screened engine on the
    requested number of threads."""
    from repro.telemetry import validate_lines

    _, path = _make_bundle(tmp_path)
    log = str(tmp_path / "rewire.jsonl")
    code = main([
        "rewire", "--graph-bundle", path, "--k", "1", "--d", "1",
        "--num-workers", "2", "--telemetry", log,
    ])
    assert code == 0
    assert "homophily" in capsys.readouterr().out
    events, _ = validate_lines(open(log).read().splitlines())
    (span,) = [
        e for e in events
        if e["type"] == "span" and e["name"] == "entropy.sequences"
    ]
    assert span["attrs"] == {"engine": "screened-streamed", "workers": 2}


def test_rewire_saves_graph(tmp_path, capsys):
    out_path = str(tmp_path / "rewired.npz")
    code = main([
        "rewire", "--dataset", "texas", "--scale", "0.5",
        "--k", "1", "--d", "0", "--out", out_path,
    ])
    assert code == 0
    from repro.graph import load_graph

    loaded = load_graph(out_path)
    assert loaded.num_nodes > 0


def test_run_command_small(capsys):
    code = main([
        "run", "--dataset", "texas", "--scale", "0.4",
        "--backbone", "gcn", "--episodes", "1", "--horizon", "2",
        "--k-max", "2", "--d-max", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "GCN-RARE".lower() in out.lower()
    assert "mean over 1 split" in out


def test_run_command_alternative_agent(capsys):
    code = main([
        "run", "--dataset", "texas", "--scale", "0.4",
        "--episodes", "1", "--horizon", "2", "--rl", "reinforce",
        "--k-max", "2", "--d-max", "2",
    ])
    assert code == 0


def test_run_reinforce_with_num_envs(capsys):
    """``--num-envs > 1`` works for every agent, REINFORCE included."""
    code = main([
        "run", "--dataset", "texas", "--scale", "0.4",
        "--episodes", "2", "--horizon", "2", "--rl", "reinforce",
        "--num-envs", "2", "--k-max", "2", "--d-max", "2",
    ])
    assert code == 0
    assert "mean over 1 split" in capsys.readouterr().out


def test_telemetry_flag_parses():
    args = build_parser().parse_args(["run", "--dataset", "texas"])
    assert args.telemetry is None
    args = build_parser().parse_args(
        ["run", "--dataset", "texas", "--telemetry"]
    )
    assert args.telemetry == "on"
    args = build_parser().parse_args(
        ["rewire", "--dataset", "texas", "--telemetry", "out.jsonl"]
    )
    assert args.telemetry == "out.jsonl"


def test_rewire_telemetry_jsonl_and_stats(tmp_path, capsys):
    from repro.telemetry import validate_lines

    path = str(tmp_path / "rewire.jsonl")
    code = main([
        "rewire", "--dataset", "texas", "--scale", "0.5",
        "--k", "1", "--d", "1", "--telemetry", path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "telemetry report" in out.lower()
    events, errors = validate_lines(open(path).read().splitlines())
    assert errors == []
    names = {e["name"] for e in events if e["type"] == "span"}
    assert "rewire.entropy" in names and "rewire.apply" in names

    code = main(["stats", path])
    assert code == 0
    assert "rewire.apply" in capsys.readouterr().out


def test_stats_rejects_invalid_stream(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "span", "v": 1}\n')
    assert main(["stats", str(bad)]) == 1
    assert "schema error" in capsys.readouterr().err.lower()
    assert main(["stats", str(tmp_path / "missing.jsonl")]) == 2


def _make_bundle(tmp_path):
    from repro.datasets import load_dataset
    from repro.graph import save_graph_bundle

    graph = load_dataset("texas", scale=0.5, seed=0)
    path = str(tmp_path / "bundle")
    save_graph_bundle(graph, path)
    return graph, path


def test_rewire_graph_bundle(tmp_path, capsys):
    graph, path = _make_bundle(tmp_path)
    code = main([
        "rewire", "--graph-bundle", path, "--k", "2", "--d", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "homophily" in out
    # The sidecar is written on first use and reused (lam must match).
    from repro.graph.storage import entropy_sidecar_meta

    assert entropy_sidecar_meta(path)["lam"] == 1.0
    assert main(["rewire", "--graph-bundle", path, "--k", "1", "--d", "0"]) == 0
    capsys.readouterr()
    assert main(["rewire", "--graph-bundle", path, "--k", "1", "--d", "0",
                 "--lam", "2.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: entropy sidecar")
    assert "'lam': 2.0" in captured.err and captured.err.count("\n") == 1


def test_rewire_bundle_matches_dataset_rewire(tmp_path, capsys):
    # Same graph, same flags: the streamed bundle path and the classic
    # in-RAM dataset path must print the identical rewiring analysis.
    _, path = _make_bundle(tmp_path)
    assert main(["rewire", "--graph-bundle", path, "--k", "2", "--d", "1"]) == 0
    streamed = capsys.readouterr().out
    assert main(["rewire", "--dataset", "texas", "--scale", "0.5",
                 "--k", "2", "--d", "1"]) == 0
    in_ram = capsys.readouterr().out
    assert streamed == in_ram


def test_run_graph_bundle_streams(tmp_path, capsys):
    _, path = _make_bundle(tmp_path)
    code = main([
        "run", "--graph-bundle", path, "--backbone", "gcn",
        "--episodes", "1", "--horizon", "2", "--k-max", "2", "--d-max", "2",
        "--incremental-reward",
    ])
    assert code == 0
    assert "mean over 1 split" in capsys.readouterr().out


def test_run_rejects_a_bundle_contradicting_its_manifest(tmp_path, capsys):
    _, path = _make_bundle(tmp_path)
    labels = str(tmp_path / "bundle" / "labels.npy")
    np.save(labels, np.full_like(np.load(labels), -1))
    assert main(["run", "--graph-bundle", path, "--episodes", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load graph bundle")
    assert "'labels'" in captured.err and captured.err.count("\n") == 1


def test_dataset_and_bundle_flags_are_exclusive(tmp_path, capsys):
    _, path = _make_bundle(tmp_path)
    assert main(["rewire", "--dataset", "texas", "--graph-bundle", path]) == 2
    assert "not both" in capsys.readouterr().err
    assert main(["rewire"]) == 2
    assert "one of --dataset or --graph-bundle" in capsys.readouterr().err


def test_run_rejects_zero_splits(capsys):
    """``--splits 0`` used to run no fit, print ``nan%`` and exit 0."""
    assert main(["run", "--dataset", "texas", "--splits", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --splits must be >= 1, got 0\n"


@pytest.mark.parametrize("flags,message", [
    (["--num-envs", "0"], "num_envs must be >= 1, got 0"),
    (["--horizon", "0"], "horizon and episodes must be >= 1"),
    (["--k-max", "-1"], "k_max and d_max must be non-negative"),
    (["--churn", "--churn-events", "0"], "events_per_step"),
    (["--lam", "nan"], "lam must be finite"),
])
def test_run_config_errors_are_one_line(flags, message, capsys):
    """``RareConfig`` validation errors reach the user as one ``error:``
    line with exit status 2, not a traceback."""
    assert main(["run", "--dataset", "texas", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag,value", [("--k", "-1"), ("--d", "-2")])
def test_rewire_rejects_negative_counts(flag, value, capsys):
    """A negative ``--k``/``--d`` used to rewire silently as 0, exit 0."""
    assert main(["rewire", "--dataset", "texas", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 0, got {value}\n"


@pytest.mark.parametrize("command", ["info", "run", "rewire"])
@pytest.mark.parametrize("scale", ["0", "1.5"])
def test_bad_scale_is_one_line(command, scale, capsys):
    """A ``--scale`` outside (0, 1] used to end in a traceback."""
    assert main([command, "--dataset", "texas", "--scale", scale]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load dataset 'texas': ")
    assert "scale must be in (0, 1]" in captured.err
    assert captured.err.count("\n") == 1


def test_bundle_sidecar_recipe_is_shared_by_run_and_rewire(tmp_path, capsys):
    """``rewire --graph-bundle`` writes the sidecar ``run`` would write
    (RareConfig's entropy recipe), so ``run`` reuses it."""
    from repro.core import RareConfig
    from repro.graph.storage import entropy_sidecar_meta

    _, path = _make_bundle(tmp_path)
    assert main(["rewire", "--graph-bundle", path, "--k", "2", "--d", "1"]) == 0
    meta = entropy_sidecar_meta(path)
    defaults = RareConfig()
    for name in ("lam", "embedding", "max_profile_len", "structural_mode"):
        assert meta[name] == getattr(defaults, name), name
    assert main([
        "run", "--graph-bundle", path, "--episodes", "1", "--horizon", "2",
        "--k-max", "2", "--d-max", "2",
    ]) == 0
    assert "mean over 1 split" in capsys.readouterr().out


@pytest.mark.parametrize("recipe, reason", [
    # Written before the recipe was recorded: counts as a mismatch.
    ({}, "unrecorded"),
    # Full-width profiles, the recipe `rewire` once used on bundles.
    ({"embedding": "normalize", "max_profile_len": None},
     "'max_profile_len': None"),
])
@pytest.mark.parametrize("command", [
    ["run", "--episodes", "1", "--horizon", "2"],
    ["rewire", "--k", "2", "--d", "1"],
])
def test_stale_entropy_sidecar_is_one_error_line(
    command, recipe, reason, tmp_path, capsys
):
    """A sidecar built with another recipe than the config's (64-wide
    profiles) is rejected with exit status 2 before any training."""
    from repro.entropy import RelativeEntropy
    from repro.graph.storage import save_entropy_sidecar

    graph, path = _make_bundle(tmp_path)
    save_entropy_sidecar(
        path, RelativeEntropy.from_graph(graph, lam=1.0), recipe=recipe
    )
    assert main([command[0], "--graph-bundle", path, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: entropy sidecar")
    assert reason in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "rewire"])
def test_missing_bundle_is_one_error_line(command, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert main([command, "--graph-bundle", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot load graph bundle '{missing}'")
    assert captured.err.count("\n") == 1


def test_rewire_num_workers_error_is_one_line(capsys):
    """``--num-workers 0`` used to end ``rewire`` in a traceback."""
    assert main(["rewire", "--dataset", "texas", "--num-workers", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: num_workers must be >= 1, got 0\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--max-batch", "0", "max_batch must be >= 1, got 0"),
    ("--max-queue", "0", "max_queue must be >= 1, got 0"),
    ("--max-sessions", "0", "max_sessions must be >= 1, got 0"),
    ("--memo-entries", "0", "memo_entries must be >= 1, got 0"),
    ("--max-wait-ms", "-1", "max_wait_ms must be >= 0, got -1.0"),
])
def test_serve_config_errors_are_one_line(flag, value, message, capsys):
    """A bad ``serve`` limit used to end in a traceback; it now exits 2
    before any socket opens."""
    assert main(["serve", "--port", "0", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("source", ["dataset", "bundle"])
def test_rewire_and_fit_build_the_same_sequences(source, tmp_path, monkeypatch):
    """``repro rewire`` and ``GraphRARE`` share one entropy recipe: the
    same config and graph give byte-equal sequences."""
    import repro.cli
    from repro.core import GraphRARE, RareConfig
    from repro.core.framework import entropy_sequences
    from repro.datasets import load_dataset
    from repro.graph import load_graph_bundle

    built = []

    def spy(graph, config, rng, shuffle=False):
        seqs = entropy_sequences(graph, config, rng, shuffle)
        built.append((config, seqs))
        return seqs

    monkeypatch.setattr(repro.cli, "entropy_sequences", spy)
    if source == "bundle":
        _, path = _make_bundle(tmp_path)
        flags = ["--graph-bundle", path]
    else:
        flags = ["--dataset", "texas", "--scale", "0.5"]
    assert main(["rewire", *flags, "--k", "2", "--d", "1"]) == 0
    ((config, seqs),) = built
    assert config == RareConfig(max_candidates=8)
    graph = (
        load_graph_bundle(path) if source == "bundle"
        else load_dataset("texas", scale=0.5, seed=0)
    )
    fit_seqs, _ = GraphRARE("gcn", config)._prepare_sequences(
        graph, np.random.default_rng(config.seed)
    )
    for name in ("remote", "remote_scores", "flat_neighbors", "neighbor_indptr"):
        assert getattr(seqs, name).tobytes() == getattr(fit_seqs, name).tobytes()
    assert (
        np.concatenate(seqs.neighbor_scores).tobytes()
        == np.concatenate(fit_seqs.neighbor_scores).tobytes()
    )
