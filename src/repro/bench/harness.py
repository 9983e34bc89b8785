"""Experiment harness shared by the benchmark modules.

Responsibilities: run a method over several splits and report mean ± std
test accuracy, format tables that show the paper's number next to ours, and
persist results as JSON for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..baselines import build_baseline
from ..core import GraphRARE, RareConfig
from ..gnn import train_backbone
from ..graph import Graph, Split

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "bench_results")


@dataclass
class MethodResult:
    """Mean/std accuracy of one method on one dataset."""

    method: str
    dataset: str
    mean: float
    std: float
    runs: List[float]

    def cell(self) -> str:
        """The Table III cell: mean ± std accuracy in percent."""
        return f"{100 * self.mean:.1f}±{100 * self.std:.1f}"


def run_baseline_method(
    name: str,
    graph: Graph,
    splits: Sequence[Split],
    hidden: int = 64,
    epochs: int = 80,
    patience: int = 15,
    lr: float = 0.05,
    seed: int = 0,
) -> MethodResult:
    """Train baseline ``name`` once per split; aggregate test accuracy."""
    runs = []
    for i, split in enumerate(splits):
        model = build_baseline(
            name, graph, split, hidden=hidden,
            rng=np.random.default_rng(seed + i),
        )
        result = train_backbone(
            model, graph, split, epochs=epochs, patience=patience, lr=lr
        )
        runs.append(result.test_acc)
    return MethodResult(
        method=name,
        dataset="",
        mean=float(np.mean(runs)),
        std=float(np.std(runs)),
        runs=runs,
    )


def run_rare_method(
    backbone: str,
    graph: Graph,
    splits: Sequence[Split],
    config: Optional[RareConfig] = None,
    seed: int = 0,
) -> MethodResult:
    """Run GraphRARE (one fit per split); aggregate test accuracy."""
    runs = []
    for i, split in enumerate(splits):
        cfg = config or RareConfig()
        cfg = RareConfig(**{**cfg.__dict__, "seed": seed + i})
        result = GraphRARE(backbone, cfg).fit(graph, split, train_baseline=False)
        runs.append(result.test_acc)
    return MethodResult(
        method=f"{backbone}-rare",
        dataset="",
        mean=float(np.mean(runs)),
        std=float(np.std(runs)),
        runs=runs,
    )


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------
def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """A plain aligned text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(str(cell)))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def paper_vs_measured_row(
    label: str, paper: Optional[float], measured: float, note: str = ""
) -> List[str]:
    """One 'paper vs ours' table row; accuracies in percent."""
    paper_cell = "-" if paper is None else f"{paper:.1f}"
    return [label, paper_cell, f"{measured:.1f}", note]


def _parse_vmhwm_kb(status_text: str) -> Optional[int]:
    """The ``VmHWM`` line of a ``/proc/<pid>/status`` dump, in KiB.

    Split out from :func:`peak_rss_bytes` so the parsing is unit-testable
    without faking ``/proc``.
    """
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            fields = line.split()
            if len(fields) >= 2 and fields[1].isdigit():
                return int(fields[1])
    return None


def peak_rss_bytes() -> Optional[int]:
    """This process's lifetime peak resident set size, in bytes.

    Primary source is ``resource.getrusage`` (``ru_maxrss`` is KiB on
    Linux); if the ``resource`` module is unavailable or reports nothing,
    falls back to the ``VmHWM`` field of ``/proc/self/status``.  Returns
    ``None`` only when neither source exists (non-Linux without
    ``resource``).  Note this is a monotone high-water mark: benches that
    want a per-phase number must measure in a fresh subprocess.
    """
    try:
        import resource
    except ImportError:
        resource = None
    if resource is not None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if peak_kb > 0:
            return int(peak_kb) * 1024
    try:
        with open("/proc/self/status") as f:
            hwm_kb = _parse_vmhwm_kb(f.read())
    except OSError:
        return None
    return None if hwm_kb is None else hwm_kb * 1024


def save_results(name: str, payload: dict, telemetry=None) -> str:
    """Persist a bench's results to ``bench_results/<name>.json``.

    Every artifact is wrapped in a uniform envelope::

        {"schema": "repro-bench/v2", "bench": <name>,
         "telemetry": <counter/histogram snapshot or null>,
         "peak_rss_bytes": <process high-water mark or null>,
         "results": <payload>}

    ``telemetry`` may be a :class:`repro.telemetry.Telemetry` session (its
    :meth:`~repro.telemetry.Telemetry.snapshot` is embedded) or an
    already-built snapshot dict, so each contract bench ships the metric
    state it ran under next to its numbers.  ``peak_rss_bytes``
    (:func:`peak_rss_bytes`) records how much memory the bench process
    ever held.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    snapshot = telemetry.snapshot() if hasattr(telemetry, "snapshot") else telemetry
    envelope = {
        "schema": "repro-bench/v2",
        "bench": name,
        "telemetry": snapshot,
        "peak_rss_bytes": peak_rss_bytes(),
        "results": payload,
    }
    with open(path, "w") as f:
        json.dump(envelope, f, indent=2, default=float)
    return path
