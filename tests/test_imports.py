"""Import hygiene: every name imported in ``src/redge`` and ``tests`` is
used in its module, and the package depends on numpy alone: no file of it
imports scipy, and neither loading it nor running its scipy-free
replacements (``transport_slice``, ``clustering_accuracy`` through a GMM run)
pulls in a scipy module.

A small AST scan stands in for a linter: re-exports in ``__init__.py`` files
and ``__future__`` imports are exempt.
"""

import ast
import json
import os
import subprocess
import sys
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


def imported_modules(source: str) -> set:
    """Top-level package of every module the source imports."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_no_unused_imports():
    paths = [p for d in ("src/redge", "tests") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert paths
    found = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in paths
             for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_package_imports_no_scipy():
    assert imported_modules("import scipy.special\nfrom numpy import f\n"
                            "def g():\n    from scipy.optimize import h\n") == {"scipy", "numpy"}
    paths = sorted((ROOT / "src/redge").rglob("*.py"))
    assert paths
    found = [str(p.relative_to(ROOT)) for p in paths
             if "scipy" in imported_modules(p.read_text(encoding="utf-8"))]
    assert not found, "scipy imported in: " + ", ".join(found)


# Run in a fresh interpreter: this process's sys.modules depends on which
# tests ran before.
SCIPY_FREE_RUN = """
import json, sys
import redge, redge.analysis, redge.benchmarks, redge.gradcheck
from redge.analysis import transport_slice
from redge.benchmarks import gmm, runner
from redge.estimators import EstimatorConfig
rows = transport_slice([0.25], [0.5, 0.9], [0.1])
accuracy = gmm.clustering_accuracy([[1.0, 0.0], [0.0, 1.0]], [1, 0])
run = runner.run_benchmark(gmm.gmm_generate(3, size=20, components=4),
                           EstimatorConfig(kind="redge-max"), 2, 0)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"loaded": loaded, "rows": len(rows), "accuracy": accuracy,
                  "run_accuracy": 0.0 <= run.summary["clustering_accuracy"] <= 1.0}))
"""


def test_no_scipy_module_loaded_after_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report == {"loaded": [], "rows": 2, "accuracy": 1.0, "run_accuracy": True}
