"""The benchmark tracer wraps package functions and objective methods by
name; a rename or deletion would only fail when ``--trace 1`` installs it."""

import importlib
import importlib.util
from pathlib import Path

from entseq.optimizer import SequenceObjective

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
