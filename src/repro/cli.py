"""Command-line interface for the GraphRARE reproduction.

Five subcommands::

    python -m repro info    --dataset cornell [--scale 0.6]
    python -m repro run     --dataset cornell --backbone gcn [options]
    python -m repro rewire  --dataset cornell --k 2 --d 1 [--out graph.npz]
    python -m repro serve   [--port 8473 | --unix /tmp/repro.sock]
    python -m repro stats   run.jsonl | bench_results/name.json

``info`` prints dataset statistics, ``run`` executes the full GraphRARE
pipeline and reports backbone-vs-RARE accuracy, ``rewire`` performs a
static entropy-guided rewiring and optionally saves the result,
``serve`` starts the long-lived rewiring service (NDJSON over TCP or a
unix socket; see ``docs/serving.md``), and ``stats`` renders telemetry:
either a JSONL event stream (validated against the schema) or a
``repro-bench/v2`` result envelope with its embedded metric snapshot —
both render interpolated p50/p90/p99 columns for every histogram.
``run`` and ``rewire`` accept ``--telemetry[=PATH]`` to record spans and
metrics (in memory, or streamed to ``PATH``; see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .core import GraphRARE, RareConfig, analyze_rewiring, rewire_graph
from .core.framework import check_entropy_sidecar, entropy_sequences
from .datasets import dataset_names, load_dataset
from .graph import degree_statistics, geom_gcn_splits, homophily_ratio, save_graph
from .telemetry import (
    report_from_events,
    report_from_snapshot,
    telemetry_from_spec,
    use_telemetry,
    validate_lines,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphRARE reproduction (Peng et al., ICDE 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p, bundle: bool = False):
        p.add_argument("--dataset", required=not bundle,
                       choices=dataset_names())
        p.add_argument("--scale", type=float, default=0.1,
                       help="graph shrink factor (default 0.1)")
        p.add_argument("--seed", type=int, default=0)
        if bundle:
            p.add_argument("--graph-bundle", default=None, metavar="DIR",
                           help="run from an on-disk graph bundle "
                                "(repro.graph.save_graph_bundle) instead "
                                "of --dataset: arrays stay memory-mapped "
                                "and the entropy screen streams its state "
                                "from the bundle's entropy sidecar "
                                "(written on first use)")

    def add_telemetry_arg(p):
        p.add_argument("--telemetry", nargs="?", const="on", default=None,
                       metavar="PATH",
                       help="record spans and metrics for the command: "
                            "bare --telemetry keeps them in memory and "
                            "prints the run report; --telemetry PATH "
                            "additionally streams a JSONL event log "
                            "(render it later with 'repro stats PATH')")

    def add_num_workers_arg(p):
        p.add_argument("--num-workers", type=int, default=1,
                       help="threads for the sharded entropy build "
                            "(results are byte-identical for every "
                            "worker count)")

    info = sub.add_parser("info", help="print dataset statistics")
    add_dataset_args(info)

    run = sub.add_parser("run", help="run the GraphRARE pipeline")
    add_dataset_args(run, bundle=True)
    run.add_argument("--backbone", default="gcn",
                     choices=["gcn", "graphsage", "gat", "h2gcn", "mixhop", "mlp"])
    run.add_argument("--episodes", type=int, default=4)
    run.add_argument("--horizon", type=int, default=6)
    run.add_argument("--k-max", type=int, default=6)
    run.add_argument("--d-max", type=int, default=6)
    run.add_argument("--lam", type=float, default=1.0)
    run.add_argument("--rl", default="ppo", choices=["ppo", "a2c", "reinforce"])
    run.add_argument("--num-envs", type=int, default=1,
                     help="episodes stepped together per rollout, for "
                          "every agent; > 1 scores them with one stacked "
                          "GNN forward (the episode budget rounds up to a "
                          "multiple)")
    run.add_argument("--incremental-reward", action="store_true",
                     help="score graphs the env scores one at a time "
                          "(every step at --num-envs 1) through the "
                          "incremental engine: delta-patched propagation "
                          "matrices and halo-restricted GNN "
                          "re-evaluation — supported "
                          "for gcn, graphsage, gat, h2gcn and mixhop "
                          "(equal to the dense evaluation at float64 "
                          "resolution; plan-less backbones fall back "
                          "transparently)")
    run.add_argument("--splits", type=int, default=1)
    run.add_argument("--churn", nargs="?", const="drift", default=None,
                     choices=["drift", "burst", "hubs"], metavar="REGIME",
                     help="run under live edge churn (docs/streaming.md): "
                          "fold external add/remove edge events into the "
                          "topology every MDP step; bare --churn uses the "
                          "'drift' regime, or pick 'burst'/'hubs'")
    run.add_argument("--churn-events", type=int, default=4,
                     help="external events folded in per MDP step "
                          "(default 4; needs --churn)")
    run.add_argument("--churn-seed", type=int, default=0,
                     help="seed of the synthetic churn stream (default 0; "
                          "needs --churn)")
    add_num_workers_arg(run)
    add_telemetry_arg(run)

    rewire = sub.add_parser("rewire", help="static entropy-guided rewiring")
    add_dataset_args(rewire, bundle=True)
    rewire.add_argument("--k", type=int, default=2)
    rewire.add_argument("--d", type=int, default=1)
    rewire.add_argument("--lam", type=float, default=1.0)
    rewire.add_argument("--out", default=None, help="save rewired graph (.npz)")
    add_num_workers_arg(rewire)
    add_telemetry_arg(rewire)

    serve = sub.add_parser(
        "serve", help="start the long-lived rewiring service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8473,
                       help="TCP port (0 lets the OS pick; the bound "
                            "address is printed on startup)")
    serve.add_argument("--unix", default=None, metavar="PATH",
                       help="serve on a unix domain socket instead of TCP")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="most concurrent requests fused into one "
                            "block-diagonal forward (default 16)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="micro-batch collection window after the "
                            "first request arrives (default 2.0)")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="intake queue bound; beyond it requests are "
                            "shed with retry_after_ms (default 256)")
    serve.add_argument("--max-sessions", type=int, default=8,
                       help="open sessions kept before LRU eviction")
    serve.add_argument("--memo-entries", type=int, default=256,
                       help="per-session (k, d) rewire-memo capacity")
    add_telemetry_arg(serve)

    stats = sub.add_parser(
        "stats", help="render telemetry: a JSONL stream or a "
                      "repro-bench/v2 result envelope"
    )
    stats.add_argument("path", help="telemetry event log written by "
                                    "--telemetry PATH, or a bench "
                                    "envelope from bench_results/")
    return parser


def cmd_info(args) -> int:
    graph, _ = _resolve_graph(args)
    if graph is None:
        return 2
    stats = degree_statistics(graph)
    print(f"dataset   : {args.dataset} (scale {args.scale})")
    print(f"nodes     : {graph.num_nodes}")
    print(f"edges     : {graph.num_edges}")
    print(f"features  : {graph.num_features}")
    print(f"classes   : {graph.num_classes}")
    print(f"homophily : {homophily_ratio(graph):.3f}")
    print(f"degree    : mean {stats['mean']:.1f}, max {stats['max']}, "
          f"isolated {stats['isolated']}")
    return 0


def _finish_telemetry(tel) -> None:
    """Close a CLI telemetry session and print its report/destination."""
    tel.close()
    if tel.enabled:
        print()
        print(tel.report())
        if tel.jsonl_path:
            print(f"\ntelemetry event log: {tel.jsonl_path}")


def _resolve_graph(args):
    """The command's graph and its display name: a memmapped bundle when
    ``--graph-bundle`` is given, the (scaled) named dataset otherwise.
    A graph that cannot be loaded prints one ``error:`` line and gives
    ``(None, None)``."""
    bundle = getattr(args, "graph_bundle", None)
    if bundle is not None and args.dataset is not None:
        print("error: pass either --dataset or --graph-bundle, not both",
              file=sys.stderr)
        return None, None
    if bundle is not None:
        from .graph import load_graph_bundle

        try:
            return load_graph_bundle(bundle), f"bundle:{bundle}"
        except (OSError, ValueError) as exc:
            print(f"error: cannot load graph bundle {bundle!r}: {exc}",
                  file=sys.stderr)
            return None, None
    if args.dataset is None:
        print("error: one of --dataset or --graph-bundle is required",
              file=sys.stderr)
        return None, None
    try:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    except ValueError as exc:
        print(f"error: cannot load dataset {args.dataset!r}: {exc}",
              file=sys.stderr)
        return None, None
    return graph, args.dataset


def _run_config(args) -> RareConfig:
    """The :class:`RareConfig` of a ``run`` invocation (raises
    ``ValueError`` on an invalid flag combination)."""
    stream_cfg = None
    if getattr(args, "churn", None):
        from .stream import StreamConfig

        stream_cfg = StreamConfig(
            regime=args.churn,
            events_per_step=args.churn_events,
            seed=args.churn_seed,
        )
    return RareConfig(
        lam=args.lam,
        k_max=args.k_max,
        d_max=args.d_max,
        max_candidates=max(12, args.k_max),
        episodes=args.episodes,
        horizon=args.horizon,
        rl_algorithm=args.rl,
        num_envs=args.num_envs,
        incremental_reward=args.incremental_reward,
        num_workers=args.num_workers,
        stream=stream_cfg,
        seed=args.seed,
    )


def cmd_run(args) -> int:
    # Flags are validated before any data is loaded; a bad value is one
    # ``error:`` line on stderr and exit status 2, never a traceback.
    if args.splits < 1:
        print(f"error: --splits must be >= 1, got {args.splits}",
              file=sys.stderr)
        return 2
    try:
        config = _run_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    graph, graph_name = _resolve_graph(args)
    if graph is None or not _sidecar_matches(args, config):
        return 2
    splits = geom_gcn_splits(graph, num_splits=args.splits, seed=args.seed)
    tel = telemetry_from_spec(
        args.telemetry,
        run={"command": "run", "dataset": graph_name,
             "backbone": args.backbone},
    )
    base_accs, rare_accs, gains = [], [], []
    with use_telemetry(tel):
        for i, split in enumerate(splits):
            result = GraphRARE(args.backbone, config).fit(graph, split)
            base_accs.append(result.baseline_test_acc)
            rare_accs.append(result.test_acc)
            gains.append(
                result.optimized_homophily - result.original_homophily
            )
            print(
                f"split {i}: {args.backbone} "
                f"{100 * result.baseline_test_acc:.1f}% "
                f"-> {args.backbone}-RARE {100 * result.test_acc:.1f}% "
                f"(dH {gains[-1]:+.3f})"
            )
    print(
        f"\nmean over {len(splits)} split(s): "
        f"{args.backbone} {100 * np.mean(base_accs):.1f}% vs "
        f"{args.backbone}-RARE {100 * np.mean(rare_accs):.1f}% "
        f"({100 * (np.mean(rare_accs) - np.mean(base_accs)):+.1f} points)"
    )
    _finish_telemetry(tel)
    return 0


def _sidecar_matches(args, config: RareConfig) -> bool:
    """Whether a ``--graph-bundle``'s entropy sidecar (if any) was built
    with ``config``'s recipe; prints one ``error:`` line when not."""
    if not getattr(args, "graph_bundle", None):
        return True
    try:
        check_entropy_sidecar(args.graph_bundle, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def cmd_rewire(args) -> int:
    for flag, value in (("--k", args.k), ("--d", args.d)):
        if value < 0:
            print(f"error: {flag} must be >= 0, got {value}", file=sys.stderr)
            return 2
    try:
        # The entropy recipe of ``repro run`` (RareConfig defaults), so a
        # bundle sidecar written by either command serves the other.
        config = RareConfig(
            lam=args.lam, max_candidates=max(8, args.k),
            num_workers=args.num_workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    graph, graph_name = _resolve_graph(args)
    if graph is None or not _sidecar_matches(args, config):
        return 2
    tel = telemetry_from_spec(
        args.telemetry, run={"command": "rewire", "dataset": graph_name}
    )
    with use_telemetry(tel):
        with tel.span("rewire.entropy"):
            sequences = entropy_sequences(graph, config, None)
        k = np.minimum(args.k, (sequences.remote >= 0).sum(axis=1))
        d = np.minimum(args.d, graph.degrees())
        with tel.span("rewire.apply"):
            rewired = rewire_graph(graph, sequences, k, d)
    print(analyze_rewiring(graph, rewired).summary())
    if args.out:
        path = save_graph(rewired, args.out)
        print(f"saved optimised graph to {path}")
    _finish_telemetry(tel)
    return 0


def cmd_serve(args) -> int:
    """Run the rewiring service until a ``shutdown`` request or Ctrl-C."""
    import asyncio

    from .serve import RewiringServer, ServeConfig

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            max_sessions=args.max_sessions,
            memo_entries=args.memo_entries,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A service's ``stats`` op is a first-class feature, so metrics
    # default ON here (in-memory; the disabled-path budget is moot for
    # a process that exists to be observed).  ``--telemetry off`` still
    # disables, any PATH still streams JSONL.
    tel = telemetry_from_spec(
        args.telemetry if args.telemetry is not None else "on",
        run={"command": "serve"},
    )

    async def _run() -> None:
        server = RewiringServer(config, tel=tel)
        await server.start()
        if config.unix_path is not None:
            print(f"serving on unix:{config.unix_path}")
        else:
            host, port = server.address
            print(f"serving on {host}:{port}")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    with use_telemetry(tel):
        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            print("\ninterrupted; shut down cleanly")
    _finish_telemetry(tel)
    return 0


def cmd_stats(args) -> int:
    """Render telemetry: a JSONL stream or a repro-bench/v2 envelope."""
    import json

    try:
        with open(args.path) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2

    envelope = None
    if text.lstrip().startswith("{"):
        # A bench envelope is one JSON document; a JSONL stream is one
        # event per line, so only the former parses as a whole.
        try:
            doc = json.loads(text)
            if isinstance(doc, dict) and doc.get("schema") == "repro-bench/v2":
                envelope = doc
        except json.JSONDecodeError:
            pass
    if envelope is not None:
        name = envelope.get("bench", "?")
        print(f"bench envelope: {name} (schema {envelope['schema']})")
        rss = envelope.get("peak_rss_bytes")
        if rss:
            print(f"peak rss      : {rss / 1e6:.1f} MB")
        print()
        snapshot = envelope.get("telemetry")
        if snapshot:
            print(report_from_snapshot(snapshot, title=f"telemetry [{name}]"))
        else:
            print("(no telemetry snapshot embedded)")
        return 0

    events, errors = validate_lines(text.splitlines())
    if errors:
        for err in errors:
            print(f"schema error: {err}", file=sys.stderr)
        return 1
    print(report_from_events(events))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "run": cmd_run,
        "rewire": cmd_rewire,
        "serve": cmd_serve,
        "stats": cmd_stats,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
