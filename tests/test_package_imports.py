"""The package's module graph: what ``import entseq.cli`` loads, where the
import statements under ``src/entseq`` sit and that each is used, and where
the package writes files."""

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


def test_every_imported_name_is_used():
    # __init__ imports to re-export; every other module uses what it imports
    for path in MODULES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def test_files_are_written_only_by_write_atomic():
    # one writer, which replaces each output atomically
    writers = {"open", "write_text", "write_bytes"}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        calls = [(node.lineno, owner.get(id(node))) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", getattr(node.func, "id", None)) in writers]
        assert all(fn == "write_atomic" for _, fn in calls), f"{path.name}: {calls}"
