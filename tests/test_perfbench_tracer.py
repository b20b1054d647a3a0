"""The benchmark tracer wraps package functions and objective methods by
name, and the benchmark scripts import package names; a rename or deletion
would only fail when a benchmark round runs."""

import ast
import importlib
import importlib.util
from pathlib import Path

from entseq.optimizer import SequenceObjective

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = _load_tracer()
    for modname, attr, _ in tracer.FUNCTIONS:
        assert hasattr(importlib.import_module(modname), attr), f"{modname}.{attr}"
    for attr, _ in tracer.METHODS:
        assert attr in vars(SequenceObjective), f"SequenceObjective.{attr}"

    # every ``from entseq... import name`` in the benchmark scripts resolves
    imports = [(node.module, alias.name)
               for path in sorted(PERFBENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.split(".")[0] == "entseq"
               for alias in node.names]
    assert ("entseq.cli", "noise_from_spec") in imports
    assert ("entseq.noise_model", "make_ensemble") in imports
    for modname, attr in imports:
        assert hasattr(importlib.import_module(modname), attr), f"{modname}.{attr}"
