"""Every name imported in ``src/redge`` and ``tests`` is used in its module.

A small AST scan stands in for a linter: re-exports in ``__init__.py`` files
and ``__future__`` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never loads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "np.zeros(os.sep)\nd()\n")
    assert unused_imports(source) == [(4, "b")]


def test_no_unused_imports():
    paths = [p for d in ("src/redge", "tests") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert paths
    found = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in paths
             for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)
