"""Per-layer tracing for the end-to-end benchmark, from outside the program.

The benchmark never edits ``src/``: :func:`install` wraps public functions
and methods of each ``repro`` layer at run time (module attributes and
class attributes are rebound in place), and every wrapper records into one
:class:`Tracer`.  A span's *self* time is its wall time minus the time of
the traced spans nested directly inside it; ``nested`` keeps the
parent -> child totals, so e.g. the co-training share of an env step is
read off without any span inside the program.

Only the traced runs (``--trace 1``) install the wrappers; the end-to-end
metrics always come from untraced processes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: The ``Trainer.fit`` calls a ``GraphRARE.fit`` makes outside env steps,
#: in call order (co-training bursts run inside ``env.step``).
FIT_ORDER = ("baseline", "warm", "final")


def fit_phase(active: List[str], index: int) -> str:
    """Phase of one ``Trainer.fit`` call.

    ``active`` names the traced spans open around the call; ``index``
    counts the earlier top-level ``Trainer.fit`` calls of the same
    ``GraphRARE.fit``.  A fit inside an env step is a co-training burst; a
    fit outside any ``GraphRARE.fit`` (the serving artifact warm-up) is a
    warm start.
    """
    if "env.step" in active:
        return "co_train"
    if "rare.fit" not in active:
        return "warm"
    return FIT_ORDER[min(index, len(FIT_ORDER) - 1)]


class Tracer:
    """Thread-safe span totals: calls, inclusive and self seconds."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: Dict[str, List[float]] = {}
        self.nested: Dict[str, List[float]] = {}
        self.sizes: Dict[str, float] = {}
        self.top_level_fits = 0

    def active(self) -> List[str]:
        """Names of the spans open on the calling thread, outermost first."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return [frame[0] for frame in stack]

    def wrap(
        self,
        name,
        fn: Callable,
        size: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording under ``name`` (a string, or a callable of the
        active span names returning one).  ``size(args, kwargs, result)``,
        when given, is summed into ``sizes[name]``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            active = tracer.active()
            span = name(active) if callable(name) else name
            if span in active:  # re-entrant call: counted by the outer one
                return fn(*args, **kwargs)
            stack = tracer._local.stack
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                with tracer._lock:
                    rec = tracer.spans.setdefault(span, [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[1]
                    if parent is not None:
                        parent[1] += elapsed
                        key = f"{parent[0]}>{span}"
                        nest = tracer.nested.setdefault(key, [0, 0.0])
                        nest[0] += 1
                        nest[1] += elapsed
            if size is not None:
                with tracer._lock:
                    tracer.sizes[span] = (
                        tracer.sizes.get(span, 0.0)
                        + float(size(args, kwargs, result))
                    )
            return result

        return traced

    def _fit_name(self, active: List[str]) -> str:
        phase = fit_phase(active, self.top_level_fits)
        if phase != "co_train" and "rare.fit" in active:
            self.top_level_fits += 1
        return f"gnn.fit.{phase}"

    def snapshot(self) -> Dict:
        """JSON-ready totals."""
        with self._lock:
            return {
                "spans": {
                    k: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
                    for k, v in sorted(self.spans.items())
                },
                "nested": {
                    k: {"calls": int(v[0]), "total_s": v[1]}
                    for k, v in sorted(self.nested.items())
                },
                "sizes": dict(sorted(self.sizes.items())),
            }


#: The per-layer metrics a traced run reports, with their units.  A layer
#: a workload bypasses reads 0.
PER_LAYER = {
    "gnn.train_epoch_s": "s", "gnn.train_epoch_calls": "count",
    "gnn.evaluate_s": "s", "gnn.evaluate_calls": "count",
    "gnn.epochs_run": "count",
    "gnn.fit.baseline_s": "s", "gnn.fit.warm_s": "s",
    "gnn.fit.co_train_s": "s", "gnn.fit.final_s": "s",
    "tensor.dropout_s": "s", "tensor.matmul_s": "s", "tensor.spmm_s": "s",
    "tensor.backward_s": "s",
    "entropy.relative_s": "s", "entropy.sequences_s": "s",
    "env.step_self_s": "s", "env.steps": "count",
    "core.rewire_s": "s", "core.rewire_calls": "count",
    "env.rewire_miss_frac": "ratio",
    "rl.update_s": "s", "rl.update_calls": "count", "rl.act_s": "s",
    "incremental.predict_s": "s", "incremental.predict_calls": "count",
    "stacked.logits_s": "s", "stacked.width_mean": "count",
    "graph.norm_build_s": "s", "graph.norm_build_calls": "count",
    "serve.score_blocks_s": "s", "serve.batch_width_mean": "count",
    "serve.rewire_miss_frac": "ratio", "serve.decode_s": "s",
    "serve.batches": "count", "serve.coalesced": "count",
    "serve.shed": "count",
    "stream.churn_s": "s", "stream.rebases": "count",
    "trace.wall_s": "s", "trace.overhead": "ratio",
}

PHASES = ("baseline", "warm", "co_train", "final")


def per_layer(
    snap: Dict,
    num_envs: int = 1,
    counters: Optional[Dict] = None,
    wall_s: float = 0.0,
    overhead: float = 0.0,
) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of one traced run.

    ``counters`` are the server's ``serve.*`` telemetry counters (from the
    ``stats`` op); ``wall_s`` is the traced unit of work's wall time and
    ``overhead`` its ratio to the untraced one.
    """
    spans, nested, sizes = snap["spans"], snap["nested"], snap["sizes"]
    counters = counters or {}

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def inside(parent, child, key="total_s"):
        return nested.get(f"{parent}>{child}", {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    fits = [f"gnn.fit.{phase}" for phase in PHASES]
    steps = calls("env.step")
    values = {
        "gnn.train_epoch_s": total("gnn.train_epoch"),
        "gnn.train_epoch_calls": calls("gnn.train_epoch"),
        "gnn.evaluate_s": total("gnn.evaluate"),
        "gnn.evaluate_calls": calls("gnn.evaluate"),
        "gnn.epochs_run": sum(sizes.get(name, 0) for name in fits),
        **{f"gnn.fit.{p}_s": total(f"gnn.fit.{p}") for p in PHASES},
        **{f"tensor.{op}_s": total(f"tensor.{op}")
           for op in ("dropout", "matmul", "spmm", "backward")},
        "entropy.relative_s": total("entropy.relative"),
        "entropy.sequences_s": total("entropy.sequences"),
        "env.step_self_s": total("env.step") - sum(
            inside("env.step", child) for child in fits + ["gnn.evaluate"]
        ),
        "env.steps": steps,
        "core.rewire_s": total("core.rewire"),
        "core.rewire_calls": calls("core.rewire"),
        "env.rewire_miss_frac": ratio(
            inside("env.step", "core.rewire", "calls"), steps * num_envs
        ),
        "rl.update_s": total("rl.update"),
        "rl.update_calls": calls("rl.update"),
        "rl.act_s": total("rl.act"),
        "incremental.predict_s": total("incremental.predict"),
        "incremental.predict_calls": calls("incremental.predict"),
        "stacked.logits_s": total("stacked.logits"),
        "stacked.width_mean": ratio(
            sizes.get("stacked.logits", 0), calls("stacked.logits")
        ),
        "graph.norm_build_s": total("graph.norm_build"),
        "graph.norm_build_calls": calls("graph.norm_build"),
        "serve.score_blocks_s": total("serve.score_blocks"),
        "serve.batch_width_mean": ratio(
            sizes.get("serve.score_blocks", 0), calls("serve.score_blocks")
        ),
        "serve.rewire_miss_frac": ratio(
            inside("serve.rewired", "core.rewire", "calls"),
            calls("serve.rewired"),
        ),
        "serve.decode_s": total("serve.decode"),
        "serve.batches": counters.get("serve.batches", 0),
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.shed": counters.get("serve.shed", 0),
        "stream.churn_s": total("stream.churn"),
        "stream.rebases": calls("stream.rebase"),
        "trace.wall_s": wall_s,
        "trace.overhead": overhead,
    }
    assert set(values) == set(PER_LAYER)
    return values


def _rebind_function(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapper`` (covers ``from x import f`` re-exports)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _method(tracer: Tracer, cls, attr: str, name, size=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, size)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, size))


def _function(tracer: Tracer, module: str, attr: str, name, size=None):
    original = getattr(importlib.import_module(module), attr)
    _rebind_function(original, tracer.wrap(name, original, size))


def _width(args, kwargs, result) -> int:
    return len(args[1])


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Every module that re-exports a wrapped function is imported first, so
    the rebinding reaches all call sites.
    """
    for module in (
        "repro.core.framework", "repro.core.env", "repro.rl.vector.topology",
        "repro.rl.vector.stacked", "repro.gnn.models", "repro.gnn.incremental",
        "repro.serve.session", "repro.serve.server",
    ):
        importlib.import_module(module)
    from repro.core.env import TopologyEnv
    from repro.core.framework import GraphRARE
    from repro.entropy import RelativeEntropy
    from repro.gnn import IncrementalEvaluator, Trainer
    from repro.rl import PPO, NodePolicy
    from repro.rl.vector.stacked import StackedGraphBuilder
    from repro.rl.vector.topology import VecTopologyEnv
    from repro.serve.session import GraphArtifact
    from repro.stream import StreamingGraph
    from repro.tensor import Tensor

    _method(tracer, GraphRARE, "fit", "rare.fit")
    # gnn
    _method(tracer, Trainer, "fit", tracer._fit_name,
            size=lambda a, k, r: r.epochs_run)
    _method(tracer, Trainer, "train_epoch", "gnn.train_epoch")
    _function(tracer, "repro.gnn.trainer", "evaluate", "gnn.evaluate")
    # tensor
    for op in ("dropout", "matmul", "spmm"):
        _function(tracer, "repro.tensor.ops", op, f"tensor.{op}")
    _method(tracer, Tensor, "backward", "tensor.backward")
    # entropy
    _method(tracer, RelativeEntropy, "from_graph", "entropy.relative")
    _function(tracer, "repro.entropy.sequence", "build_entropy_sequences",
              "entropy.sequences")
    # core
    _method(tracer, TopologyEnv, "step", "env.step")
    _method(tracer, VecTopologyEnv, "step", "env.step")
    _function(tracer, "repro.core.rewire", "rewire_graph", "core.rewire")
    # rl
    _method(tracer, PPO, "update", "rl.update")
    _method(tracer, NodePolicy, "act", "rl.act")
    _method(tracer, NodePolicy, "act_batch", "rl.act")
    # gnn.incremental, rl.vector.stacked, graph
    _method(tracer, IncrementalEvaluator, "predict_logits",
            "incremental.predict")
    _method(tracer, StackedGraphBuilder, "stacked_logits", "stacked.logits",
            size=_width)
    _function(tracer, "repro.graph.normalize", "gcn_norm", "graph.norm_build")
    _function(tracer, "repro.graph.normalize", "row_norm", "graph.norm_build")
    # serve, stream
    _method(tracer, GraphArtifact, "score_blocks", "serve.score_blocks",
            size=_width)
    _method(tracer, GraphArtifact, "rewired", "serve.rewired")
    _function(tracer, "repro.serve.protocol", "decode_line", "serve.decode")
    _method(tracer, StreamingGraph, "apply", "stream.churn")
    _method(tracer, StreamingGraph, "rebase", "stream.rebase")
