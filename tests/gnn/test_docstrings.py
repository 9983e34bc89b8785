"""Docstring audit of the documentation-gated public APIs.

Mirrors the CI lint step (``make doclint`` -> ``tools/doclint.py``) so
the gate also runs in the tier-1 suite, and pins the stronger
requirement on the incremental engine: every public symbol of
``repro.gnn.incremental`` carries an examples-bearing docstring.
"""

import subprocess
import sys
from pathlib import Path

import repro.gnn as gnn
import repro.gnn.incremental as incremental

REPO = Path(__file__).resolve().parents[2]


def test_doclint_passes_on_gated_packages():
    """The dependency-free pydocstyle equivalent reports zero problems
    on every documentation-gated package (the ``make doclint`` set)."""
    packages = (
        "gnn", "tensor", "telemetry", "serve", "stream", "rl", "core", "entropy",
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


def test_incremental_public_api_has_examples():
    """The engine's public symbols carry examples-bearing docstrings."""
    missing = []
    for name in incremental.__all__:
        doc = getattr(incremental, name).__doc__ or ""
        if ">>>" not in doc:
            missing.append(name)
    assert not missing, f"docstrings without examples: {missing}"


def test_eval_state_hooks_documented():
    """The instrumented per-backbone hooks explain their bitwise claim."""
    for cls in (gnn.GAT, gnn.H2GCN, gnn.MixHop):
        doc = cls.eval_state.__doc__ or ""
        assert "bitwise" in doc, f"{cls.__name__}.eval_state docstring"
