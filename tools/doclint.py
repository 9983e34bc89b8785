"""Docstring lint: every public symbol needs a docstring.

A dependency-free equivalent of ``pydocstyle``'s presence checks
(D100-D103), used by CI and ``make doclint`` on the packages whose
public API is documentation-gated (``src/repro/gnn`` and
``src/repro/tensor`` today).  Rules:

* every module needs a module docstring;
* every public class (name not starting with ``_``) needs a docstring;
* every public function/method needs a docstring, except methods that
  override a documented base-class contract (``forward`` and other names
  in :data:`INHERITED`) and trivial ``__repr__``-style dunders.

Exit status is the number of violations (0 = clean).

Usage:

    python tools/doclint.py src/repro/gnn [more paths ...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Method names whose contract is documented once on the base class.
INHERITED = {"forward", "backward"}


def _has_doc(node: ast.AST) -> bool:
    return ast.get_docstring(node) is not None


def _check_def(node, path: Path, inside_class: bool, problems: list) -> None:
    name = node.name
    if name.startswith("_"):
        return
    if inside_class and name in INHERITED:
        return
    if not _has_doc(node):
        kind = "method" if inside_class else "function"
        problems.append(f"{path}:{node.lineno}: public {kind} "
                        f"'{name}' has no docstring")


def check_file(path: Path) -> list:
    """All docstring violations in one python file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: list = []
    if not _has_doc(tree):
        problems.append(f"{path}:1: module has no docstring")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_def(node, path, False, problems)
        elif isinstance(node, ast.ClassDef):
            if node.name.startswith("_"):
                # Private classes implement an interface documented on
                # their public base (e.g. the ``Function`` subclasses of
                # ``repro.tensor.ops``).
                continue
            if not _has_doc(node):
                problems.append(f"{path}:{node.lineno}: public class "
                                f"'{node.name}' has no docstring")
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _check_def(sub, path, True, problems)
    return problems


def main(argv) -> int:
    """Lint every ``.py`` file under the given paths."""
    roots = [Path(p) for p in argv] or [Path("src/repro/gnn")]
    problems: list = []
    checked = 0
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for f in files:
            problems.extend(check_file(f))
            checked += 1
    for p in problems:
        print(p)
    print(f"doclint: {checked} files checked, {len(problems)} problem(s)")
    return len(problems)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
