"""Docstring audit of the documentation-gated public APIs.

Mirrors the CI lint step (``make doclint`` -> ``tools/doclint.py``) so
the gate also runs in the tier-1 suite.
"""

import subprocess
import sys
from pathlib import Path

import repro.gnn as gnn

REPO = Path(__file__).resolve().parents[2]


def test_doclint_passes_on_gated_packages():
    """The dependency-free pydocstyle equivalent reports zero problems
    on every documentation-gated package (the ``make doclint`` set)."""
    packages = (
        "gnn", "tensor", "telemetry", "serve", "stream", "rl", "core", "entropy",
        "nn", "graph", "datasets", "baselines", "bench",
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "doclint.py"),
         *(str(REPO / "src" / "repro" / name) for name in packages)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_gnn_public_api_has_docstrings():
    """Everything exported from ``repro.gnn`` is documented."""
    missing = [
        name for name in gnn.__all__
        if not (getattr(gnn, name).__doc__ or "").strip()
    ]
    assert not missing, f"undocumented exports: {missing}"
