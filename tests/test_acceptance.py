"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything asserted here is exact; the only tolerances are the stated
wall-clock bounds.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfix import (
    FixedPointData,
    InputDocument,
    RingKind,
    RingSpec,
    c1_coefficient,
    chern_coefficients,
    classify_ring,
    consistency_checks,
    cpn_model,
    enumerate_weight_systems,
    gradient_graph,
    infer_moment_values,
    parse_document,
    quadric_model,
    reference_chern,
    ring_coefficients,
    serialize_document,
    validate,
    vanishing_battery,
)

from conftest import cpn_b_lists, quadric_b_lists
from test_cohomology import cpn_chern_oracle, quadric_chern_oracle
from test_solver import _all_divisor_systems

SEED = 20260810


def _random_cpn_models():
    rng = random.Random(SEED)
    models = []
    for n in range(1, 7):
        for _ in range(20):
            b = rng.sample(range(-8, 9), n + 1)
            models.append((n, cpn_model(b)))
    return models


def _random_quadric_models():
    rng = random.Random(SEED + 1)
    models = []
    for n in (3, 5):
        for _ in range(10):
            mags = rng.sample(range(1, 9), (n + 1) // 2)
            b = [m * rng.choice((1, -1)) for m in mags]
            models.append((n, quadric_model(b)))
    return models


@pytest.fixture(scope="module")
def cpn_models():
    return _random_cpn_models()


@pytest.fixture(scope="module")
def quadric_models():
    return _random_quadric_models()


def test_criterion_1_cpn_models(cpn_models):
    start = time.perf_counter()
    for n, data in cpn_models:
        assert c1_coefficient(data) == n + 1
        assert all(v == 1 for v in ring_coefficients(data).r)
        assert chern_coefficients(data).gamma == cpn_chern_oracle(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"
    print(f"ACCEPTANCE 1: PASS (120 CP^n models, n=1..6, {elapsed:.3f}s)")


def test_criterion_2_quadric_models(quadric_models):
    start = time.perf_counter()
    for n, data in quadric_models:
        half = (n + 1) // 2
        assert c1_coefficient(data) == n
        r = ring_coefficients(data).r
        assert r == tuple(
            Fraction(1) if i < half else Fraction(1, 2) for i in range(n + 1)
        )
        assert chern_coefficients(data).gamma == quadric_chern_oracle(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.3f}s"
    print(f"ACCEPTANCE 2: PASS (20 quadric models, n=3,5, {elapsed:.3f}s)")


def test_criterion_3_localization_battery(cpn_models, quadric_models):
    start = time.perf_counter()
    for _, data in cpn_models:
        report = vanishing_battery(data)
        assert report.failures == ()
        assert report.volume == 1
    for _, data in quadric_models:
        report = vanishing_battery(data)
        assert report.failures == ()
        assert report.volume == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.3f}s"
    print(f"ACCEPTANCE 3: PASS (battery on all 140 models, {elapsed:.3f}s)")


def test_criterion_4_solver_uniqueness_cpn(capsys):
    from hamfix.cli import main

    for n in (1, 2, 3, 4):
        phis = ",".join(str(v) for v in range(n + 1))
        start = time.perf_counter()
        code = main(["verify", "--ring", "cpn", "--phi", phis])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("PASS") == 4
        assert "unique weight system matches the standard model" in out
        assert elapsed < 10.0, f"verify n={n} took {elapsed:.3f}s"
    print("ACCEPTANCE 4: PASS (cpn verify unique, n=1..4)")


def test_criterion_5_solver_uniqueness_quadric(capsys):
    from hamfix.cli import main

    start = time.perf_counter()
    code = main(["verify", "--ring", "quadric", "--phi=-2,-1,1,2"])
    elapsed3 = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("PASS") == 4
    assert elapsed3 < 10.0, f"quadric n=3 took {elapsed3:.3f}s"

    n5_phis = ",".join(str(int(v)) for v in quadric_model((3, 2, 1)).moment_values)
    start = time.perf_counter()
    code = main(["verify", "--ring", "quadric", f"--phi={n5_phis}"])
    elapsed5 = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("PASS") == 4
    assert elapsed5 < 10.0, f"quadric n=5 took {elapsed5:.3f}s"
    print(f"ACCEPTANCE 5: PASS (quadric verify unique, n=3 {elapsed3:.3f}s, n=5 {elapsed5:.3f}s)")


CASE1 = [(1, 2, 3), (-1, 1, 4), (-1, -4, 1), (-1, -2, -3)]
CASE2 = [(1, 2, 3), (-1, 1, 5), (-1, -5, 1), (-1, -2, -3)]


def test_criterion_6_exceptional_six_dimensional_cases():
    start = time.perf_counter()

    phis1 = infer_moment_values(CASE1)
    assert phis1 == [0, 1, 5, 6]
    data1 = FixedPointData.from_weights(phis1, CASE1)
    assert ring_coefficients(data1).r[2] == Fraction(1, 5)
    assert vanishing_battery(data1).passed

    phis2 = infer_moment_values(CASE2)
    assert phis2 == [0, 1, 11, 12]
    data2 = FixedPointData.from_weights(phis2, CASE2)
    assert ring_coefficients(data2).r[2] == Fraction(1, 22)
    assert vanishing_battery(data2).passed

    graph = gradient_graph(data1)
    assert (0, 2) in graph.missing_pairs
    assert len(graph.edges_between(0, 3)) == 2

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 6 took {elapsed:.3f}s"
    print(f"ACCEPTANCE 6: PASS (exceptional cases, {elapsed:.3f}s)")


# --- criterion 7: property suites, >= 200 cases each -------------------------


@settings(max_examples=200)
@given(
    st.lists(st.integers(-6, 6), min_size=2, max_size=5, unique=True),
    st.integers(-30, 30),
)
def test_criterion_7a_translation_invariance(b, c):
    data = cpn_model(b)
    moved = data.translated(c)
    assert validate(moved).is_valid == validate(data).is_valid
    before = vanishing_battery(data)
    after = vanishing_battery(moved)
    assert after.passed == before.passed
    assert after.volume == before.volume


def _assert_model_is_forced(spec, data, c1, volume):
    """The model round-trips through the ring: its moment values and ring
    leave the solver (tied to brute force by 7d) exactly one system, the
    model, which passes every check and has the model's invariants."""
    phis = [int(v) for v in data.moment_values]
    assert enumerate_weight_systems(spec, phis) == [data]
    assert validate(data).is_valid
    battery = vanishing_battery(data)
    assert battery.passed and battery.volume == volume
    assert classify_ring(ring_coefficients(data)) == spec
    assert c1_coefficient(data) == c1
    assert chern_coefficients(data).gamma == reference_chern(spec.kind, spec.n)


@settings(max_examples=200)
@given(cpn_b_lists())
def test_criterion_7b_cpn_round_trip(b):
    data = cpn_model(b)
    spec = RingSpec(RingKind.PROJECTIVE_SPACE, data.n)
    _assert_model_is_forced(spec, data, c1=data.n + 1, volume=1)


@settings(max_examples=200)
@given(quadric_b_lists(ns=(3, 5, 7)))
def test_criterion_7b_quadric_round_trip(b):
    data = quadric_model(b)
    _assert_model_is_forced(RingSpec(RingKind.QUADRIC, data.n), data, c1=data.n, volume=2)


@settings(max_examples=200)
@given(
    st.lists(st.integers(-8, 8), min_size=2, max_size=5, unique=True),
    st.integers(-4, 4),
)
def test_criterion_7c_json_round_trip(b, c):
    doc = InputDocument(cpn_model(b).translated(c))
    text = serialize_document(doc)
    parsed = parse_document(text)
    assert parsed.data == doc.data
    assert serialize_document(parsed) == text


_ORACLE_RINGS = [
    RingSpec(RingKind.PROJECTIVE_SPACE, 1),
    RingSpec(RingKind.PROJECTIVE_SPACE, 2),
    RingSpec(RingKind.PROJECTIVE_SPACE, 3),
    RingSpec(RingKind.QUADRIC, 3),
    RingSpec(RingKind.OTHER, 3, (1, 1, Fraction(1, 5), Fraction(1, 5))),
    RingSpec(RingKind.OTHER, 3, (1, 1, Fraction(1, 22), Fraction(1, 22))),
]


@st.composite
def _oracle_instances(draw):
    """A small ring and moment values with consecutive gaps 1..6 (1..4 at n = 3)."""
    spec = draw(st.sampled_from(_ORACLE_RINGS))
    top = 6 if spec.n < 3 else 4
    gaps = draw(st.lists(st.integers(1, top), min_size=spec.n, max_size=spec.n))
    return spec, list(itertools.accumulate(gaps, initial=draw(st.integers(-10, 10))))


@settings(max_examples=200)
@given(_oracle_instances())
def test_criterion_7d_solver_matches_brute_force(instance):
    spec, phis = instance
    systems = enumerate_weight_systems(spec, phis)
    assert systems == _all_divisor_systems(spec, phis)
    for data in systems:
        assert [c.name for c in consistency_checks(data) if not c.passed] == []


def test_criterion_7_summary():
    print("ACCEPTANCE 7: PASS (four property suites at 200 cases each)")
