"""The package's records are named tuples: their text form, equality,
hashing, immutability and keyword construction, and that a copy, a
pickle round trip or ``_replace`` of a validated record is validated
again."""

import copy
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hamfix import (
    AmbiguousWeight,
    BatteryFailure,
    BatteryReport,
    Check,
    ChernData,
    EquivalenceReport,
    FixedPoint,
    FixedPointData,
    GradientSphereGraph,
    InputDocument,
    RingCoefficients,
    RingKind,
    RingSpec,
    SpecMismatch,
    SphereEdge,
    StructureError,
    ValidationReport,
    Violation,
)

SRC = Path(__file__).resolve().parents[1] / "src"

P0 = FixedPoint(0, 0, (1,))
P1 = FixedPoint(1, 1, (-1,))
P0_TEXT = "FixedPoint(index=0, moment_value=Fraction(0, 1), weights=(1,))"
P1_TEXT = "FixedPoint(index=1, moment_value=Fraction(1, 1), weights=(-1,))"
DATA_TEXT = f"FixedPointData(n=1, points=({P0_TEXT}, {P1_TEXT}))"
CHECK = Check("validate", True, "")
CHECK_TEXT = "Check(name='validate', passed=True, detail='')"
EDGE = SphereEdge(0, 1, 1, True)
EDGE_TEXT = "SphereEdge(lower=0, upper=1, weight=1, paired=True)"

# (record class, keyword arguments, repr of the record they build)
RECORDS = [
    (
        FixedPoint,
        {"index": 1, "moment_value": "1/2", "weights": (3, -1)},
        "FixedPoint(index=1, moment_value=Fraction(1, 2), weights=(-1, 3))",
    ),
    (FixedPointData, {"n": 1, "points": [P0, P1]}, DATA_TEXT),
    (
        Violation,
        {"rule": "nonzero-weights", "point": 0, "message": "zero weight at point 0"},
        "Violation(rule='nonzero-weights', point=0, message='zero weight at point 0')",
    ),
    (
        ValidationReport,
        {"violations": (Violation("monotone-moments", 1, "m"),)},
        "ValidationReport(violations=(Violation(rule='monotone-moments', point=1, message='m'),))",
    ),
    (
        RingSpec,
        {"kind": RingKind.OTHER, "n": 2, "r": (1, 1, "1/2")},
        "RingSpec(kind=<RingKind.OTHER: 'Other'>, n=2,"
        " r=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 2)))",
    ),
    (
        RingCoefficients,
        {"r": (Fraction(1), Fraction(1))},
        "RingCoefficients(r=(Fraction(1, 1), Fraction(1, 1)))",
    ),
    (
        ChernData,
        {"sigma": ((1, 1), (1, -1)), "gamma": (Fraction(2),)},
        "ChernData(sigma=((1, 1), (1, -1)), gamma=(Fraction(2, 1),))",
    ),
    (
        InputDocument,
        {"data": FixedPointData(1, (P0, P1)), "meta": None},
        f"InputDocument(data={DATA_TEXT}, meta=None)",
    ),
    (
        BatteryFailure,
        {"b": 1, "value": Fraction(1, 2)},
        "BatteryFailure(b=1, value=Fraction(1, 2))",
    ),
    (
        BatteryReport,
        {"n": 2, "failures": (), "volume": Fraction(2)},
        "BatteryReport(n=2, failures=(), volume=Fraction(2, 1))",
    ),
    (Check, {"name": "validate", "passed": True, "detail": ""}, CHECK_TEXT),
    (
        EquivalenceReport,
        {"spec": RingSpec(RingKind.PROJECTIVE_SPACE, 1), "lines": (CHECK,), "system_count": 1},
        "EquivalenceReport(spec=RingSpec(kind=<RingKind.PROJECTIVE_SPACE: 'ProjectiveSpace'>,"
        f" n=1, r=None), lines=({CHECK_TEXT},), system_count=1)",
    ),
    (SphereEdge, {"lower": 0, "upper": 1, "weight": 1, "paired": True}, EDGE_TEXT),
    (
        AmbiguousWeight,
        {"point": 1, "weight": -2, "candidates": (0,)},
        "AmbiguousWeight(point=1, weight=-2, candidates=(0,))",
    ),
    (
        GradientSphereGraph,
        {"n": 1, "edges": (EDGE,), "ambiguous": (), "missing_pairs": ()},
        f"GradientSphereGraph(n=1, edges=({EDGE_TEXT},), ambiguous=(), missing_pairs=())",
    ),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_text_equality_hash_and_immutability(cls, fields, text):
    record = cls(**fields)
    assert repr(record) == text
    again = cls(*fields.values())
    assert again == record and hash(again) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, next(iter(fields)), None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_records_order_copy_and_pickle_as_their_tuples(cls, fields, text):
    record = cls(**fields)
    plain = tuple(record)
    assert record == plain and record <= plain and not record < plain
    assert record < plain + (0,) and plain[:-1] < record
    assert record._asdict() == dict(zip(cls._fields, plain))
    first = cls._fields[0]
    for twin in (
        record._replace(**{first: getattr(record, first)}),
        copy.copy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is cls and twin == record and repr(twin) == text


# The records that only carry data are the named tuple itself, no subclass.
DATA_RECORDS = [AmbiguousWeight, BatteryFailure, Check, InputDocument, SphereEdge, Violation]


@pytest.mark.parametrize("cls", DATA_RECORDS, ids=[c.__name__ for c in DATA_RECORDS])
def test_data_records_are_one_class(cls):
    assert cls.__mro__ == (cls, tuple, object)


def test_records_are_named_tuples():
    index, phi, weights = P1
    assert (index, phi, weights) == (1, Fraction(1), (-1,))
    assert P0 == (0, Fraction(0), (1,))
    assert sorted([P1, P0]) == [P0, P1]
    assert P1._asdict() == {"index": 1, "moment_value": Fraction(1), "weights": (-1,)}


@pytest.mark.parametrize(
    "raw, built",
    [
        (tuple.__new__(FixedPoint, (0, 1, (2, -1))), FixedPoint(0, Fraction(1), (-1, 2))),
        (tuple.__new__(FixedPointData, (1, [P0, P1])), FixedPointData(1, (P0, P1))),
        (
            tuple.__new__(RingSpec, (RingKind.OTHER, 1, [1, 1])),
            RingSpec(RingKind.OTHER, 1, (Fraction(1), Fraction(1))),
        ),
    ],
)
def test_copy_and_pickle_build_through_the_checks(raw, built):
    # The raw tuple skipped construction; its copies must not.
    for twin in (copy.copy(raw), pickle.loads(pickle.dumps(raw))):
        assert type(twin) is type(built)
        assert twin == built and tuple(map(type, twin)) == tuple(map(type, built))


@pytest.mark.parametrize(
    "raw, error",
    [
        (tuple.__new__(FixedPoint, (0, 1.5, (1,))), TypeError),
        (tuple.__new__(FixedPoint, (0, 1, (True,))), StructureError),
        (tuple.__new__(FixedPointData, (2, (P0, P1))), StructureError),
        (tuple.__new__(RingSpec, (RingKind.QUADRIC, 2, None)), SpecMismatch),
    ],
)
def test_copy_and_pickle_refuse_bad_values(raw, error):
    with pytest.raises(error):
        copy.copy(raw)
    with pytest.raises(error):
        pickle.loads(pickle.dumps(raw))


def test_replace_builds_through_the_checks():
    assert P1._replace(weights=(2, -3)).weights == (-3, 2)
    with pytest.raises(TypeError):
        P1._replace(moment_value=0.5)
    with pytest.raises(StructureError):
        FixedPointData(1, (P0, P1))._replace(n=2)
    with pytest.raises(SpecMismatch):
        RingSpec(RingKind.PROJECTIVE_SPACE, 3)._replace(kind=RingKind.QUADRIC, n=2)


def test_ring_spec_coerces_r_entries_exactly():
    # Fraction(0.2) is not 1/5: a float entry once made the CASE1 search
    # at phi = 0, 1, 5, 6 come back silently empty.
    spec = RingSpec(RingKind.OTHER, 3, (1, 1, "1/5", Fraction(1, 5)))
    assert spec.r == (1, 1, Fraction(1, 5), Fraction(1, 5))
    assert set(map(type, spec.r)) == {Fraction}
    for bad in (0.2, True):
        with pytest.raises(TypeError):
            RingSpec(RingKind.OTHER, 3, (1, 1, bad, Fraction(1, 5)))


@pytest.mark.parametrize("r", ["115", {1: 2, 2: 3, 3: 4}, 3, range(3)])
def test_ring_spec_takes_r_only_as_a_list_or_tuple(r):
    # A string was read one character at a time ("115" built r = 1, 1, 5),
    # a dict by its keys, and an int escaped as a TypeError from len().
    with pytest.raises(SpecMismatch, match=rf"^r-sequence must be a list or tuple, got {re.escape(repr(r))}$"):
        RingSpec(RingKind.OTHER, 2, r)
    assert RingSpec(RingKind.OTHER, 2, [1, 1, 5]) == RingSpec(RingKind.OTHER, 2, (1, 1, 5))


def test_ring_spec_refuses_a_non_integer_n():
    # A float or bool n once built, and the search then died on a bare
    # TypeError or compared n = True with the moment list.
    for bad in (2.0, True, "2", None):
        with pytest.raises(SpecMismatch, match=rf"^n must be an integer, got {re.escape(repr(bad))}$"):
            RingSpec(RingKind.PROJECTIVE_SPACE, bad)
    with pytest.raises(SpecMismatch, match=r"^n must be >= 1, got 0$"):
        RingSpec(RingKind.PROJECTIVE_SPACE, 0)


def test_fixed_point_data_refuses_a_bool_or_non_int_n():
    # n = True once built, and save_document then wrote "n": True, which
    # is not JSON, so hamfix could not read the file back.
    for bad in (True, 1.0, "1"):
        with pytest.raises(StructureError, match=rf"^n must be a positive integer, got {re.escape(repr(bad))}$"):
            FixedPointData(bad, (P0, P1))
    with pytest.raises(StructureError):
        pickle.loads(pickle.dumps(tuple.__new__(FixedPointData, (True, (P0, P1)))))


def test_fixed_point_refuses_a_bool_or_non_int_index():
    # True, False or 1.0 once passed as the index, since they equal the position.
    for bad in (False, True, 0.0, "0", None):
        with pytest.raises(StructureError, match=rf"^point index must be an integer, got {re.escape(repr(bad))}$"):
            FixedPoint(bad, 0, (1,))
    with pytest.raises(StructureError):
        FixedPointData(1, (P0, P1._replace(index=True)))
    with pytest.raises(StructureError):
        copy.copy(tuple.__new__(FixedPoint, (1.0, 1, (-1,))))


def test_fixed_point_data_refuses_points_that_are_not_fixed_points():
    # An int once raised a bare AttributeError, and a plain tuple a
    # message naming tuple.index, a bound method.
    for bad in (1, (0, 0, (1,)), None):
        with pytest.raises(StructureError, match=rf"^point at position 0 is not a FixedPoint: {re.escape(repr(bad))}$"):
            FixedPointData(1, (bad, P1))
    with pytest.raises(StructureError, match=r"^point at position 1 is not a FixedPoint: 2$"):
        FixedPointData(1, [P0, 2])
    data = FixedPointData(1, (P0, P1))
    assert copy.copy(data) == copy.deepcopy(data) == pickle.loads(pickle.dumps(data)) == data


def test_importing_the_cli_loads_no_dataclasses():
    # pytest itself imports dataclasses, so ask a fresh interpreter.
    code = "import sys, hamfix.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"
