"""The benchmark's traced run patches hamfix functions by name; every
name it lists must still resolve, or ``--trace 1`` and ``--smoke`` fail."""

import importlib.util
import sys
from pathlib import Path

import hamfix
import hamfix.solver

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

    assert [n for n in tracing.PACKAGE_FUNCTIONS if not callable(getattr(hamfix, n, None))] == []
    assert [n for n in tracing.SOLVER_GLOBALS if not callable(getattr(hamfix.solver, n, None))] == []
    assert isinstance(hamfix.FixedPointData.__dict__["from_weights"], classmethod)
