"""The package's module graph: what ``import entseq.cli`` loads, and where
the import statements under ``src/entseq`` sit."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "entseq").glob("*.py"))


def test_cli_import_skips_test_only_scipy_modules():
    probe = ("import sys, entseq.cli; "
             "print(sorted(m for m in sys.modules if m in ('scipy.signal', 'scipy.stats')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_imports_sit_at_module_top_and_point_one_way():
    graph = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
        assert nested == [], f"{path.name}: imports inside a block at lines {nested}"
        graph[path.stem] = {
            name
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [a.name for a in node.names])
        }
    # drop modules that import no other package module until none is left
    while graph:
        leaves = {m for m, deps in graph.items() if not deps & graph.keys()}
        assert leaves, f"import cycle among {sorted(graph)}"
        graph = {m: deps for m, deps in graph.items() if m not in leaves}
