"""The benchmark's traced run patches hamfix functions by name; every
name it lists must still resolve, or ``--trace 1`` and ``--smoke`` fail.
The search itself calls none of the check chain: placement guarantees
what those checks would test, so its check-chain metrics read 0."""

import importlib.util
import sys
from pathlib import Path

import pytest

import hamfix
import hamfix.solver
from hamfix import RingKind, RingSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracing):
    assert [n for n in tracing.PACKAGE_FUNCTIONS if not callable(getattr(hamfix, n, None))] == []
    assert [n for n in tracing.SOLVER_GLOBALS if not callable(getattr(hamfix.solver, n, None))] == []
    assert isinstance(hamfix.FixedPointData.__dict__["from_weights"], classmethod)


def test_traced_solver_assembles_without_a_check(tracing):
    tracer = tracing.Tracer()
    tracer.install(hamfix)
    try:
        tracer.active = True
        hamfix.enumerate_weight_systems(RingSpec(RingKind.QUADRIC, 3), [-2, -1, 1, 2])
    finally:
        tracer.uninstall()
    spans = tracer.spans
    top = [i for i, s in enumerate(spans) if s.name == "enumerate_weight_systems"]
    assert len(top) == 1
    under = {s.name for s in spans if s.parent == top[0]}
    # Placement guarantees condition D and, by duality, the battery.
    assert "from_weights" in under
    assert under.isdisjoint(tracing.CHECK_CHAIN)
