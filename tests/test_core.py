from fractions import Fraction

import pytest
from hypothesis import given

from hamfix import (
    FixedPoint,
    FixedPointData,
    StructureError,
    cpn_model,
    quadric_model,
    rat,
    validate,
)

from conftest import cpn_b_lists, quadric_b_lists


def test_rat_parses_and_canonicalizes():
    assert rat("3/2") == Fraction(3, 2)
    assert rat("-4/2") == Fraction(-2)
    assert rat(5) == Fraction(5)
    v = rat("6/4")
    assert (v.numerator, v.denominator) == (3, 2)


def test_rat_rejects_bool_and_garbage():
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(TypeError):
        rat(1.5)


def test_fixed_point_sorts_weights():
    p = FixedPoint(0, 0, (3, -1, 2))
    assert p.weights == (-1, 2, 3)
    assert p.negative_count == 1


def test_fixed_point_reads_a_one_shot_iterable_once():
    assert FixedPoint(0, 0, iter([2, -1])).weights == (-1, 2)
    assert FixedPoint(0, 0, (w for w in (3, 1))).weights == (1, 3)
    with pytest.raises(StructureError, match="weight 1.5 at point 4"):
        FixedPoint(4, 0, iter([1, 1.5]))


def test_structure_errors():
    with pytest.raises(StructureError):
        FixedPointData(0, (FixedPoint(0, 0, ()),))
    with pytest.raises(StructureError):
        FixedPointData(1, (FixedPoint(0, 0, (1,)),))  # one point missing
    with pytest.raises(StructureError):
        FixedPointData.from_weights([0, 1], [(1, 2), (-1,)])  # wrong weight count
    with pytest.raises(StructureError):
        FixedPointData.from_weights([0, 1], [(1.5,), (-1,)])  # non-integer weight


@pytest.mark.parametrize(
    "phi, message",
    [
        (True, "bool is not a rational value"),
        (1.5, "cannot interpret 1.5 as an exact rational"),
        (None, "cannot interpret None as an exact rational"),
    ],
)
def test_from_weights_refuses_an_inexact_moment_value(phi, message):
    # FixedPoint is the one place a moment value is coerced.
    with pytest.raises(TypeError, match=f"^{message}$"):
        FixedPointData.from_weights([0, phi], [(1,), (-1,)])


def test_validate_cpn_model_is_clean():
    report = validate(cpn_model((0, 1, 2)))
    assert report.is_valid
    assert report.violations == ()


def test_validate_flags_wrong_negative_count():
    base = cpn_model((0, 1, 2))
    points = list(base.points)
    points[1] = FixedPoint(1, points[1].moment_value, (-1, -1))
    report = validate(FixedPointData(2, tuple(points)))
    assert not report.is_valid
    assert any(
        "negative-weight count at P_1 is 2, expected 1" in m for m in report.messages()
    )
    # one fault, one violation
    assert [(v.rule, v.point) for v in report.violations] == [("negative-count", 1)]


def test_validate_flags_equal_moments():
    data = FixedPointData.from_weights([0, 0, 2], [(1, 2), (-1, 1), (-2, -1)])
    report = validate(data)
    assert any("moment values not strictly increasing" in m for m in report.messages())


def test_validate_flags_zero_weight_and_fractional_gap():
    data = FixedPointData.from_weights(["0", "1/2"], [(0,), (-1,)])
    report = validate(data)
    messages = report.messages()
    assert any("zero weight at point 0" in m for m in messages)
    assert any("not an integer" in m for m in messages)
    relaxed = validate(data, require_integral_differences=False)
    assert all("not an integer" not in m for m in relaxed.messages())


def test_gamma_and_lambda_examples():
    data = cpn_model((0, 1, 2))
    assert data.points[0].gamma == 3
    assert data.points[0].lambda_minus == 1  # empty product
    assert data.points[2].lambda_plus == 1
    assert data.points[1].lambda_all == -1
    q = quadric_model((2, 1))
    assert q.points[2].lambda_minus == 3


def test_lambda_all_refuses_a_zero_weight_that_construction_accepts():
    data = FixedPointData.from_weights([0, 1], [[0], [-1]])
    assert [v.rule for v in validate(data).violations] == ["nonzero-weights"]
    assert data.points[0].gamma == 0
    with pytest.raises(StructureError, match=r"^zero weight at point 0$"):
        data.points[0].lambda_all


def test_translated_shifts_only_moments():
    data = cpn_model((0, 1, 2))
    shifted = data.translated("1/1")
    assert shifted.moment_values == (1, 2, 3)
    assert [p.weights for p in shifted.points] == [p.weights for p in data.points]
    assert shifted.normalized() == data


@given(cpn_b_lists())
def test_negative_count_sum_is_triangular(b):
    data = cpn_model(b)
    n = data.n
    assert sum(p.negative_count for p in data.points) == n * (n + 1) // 2


@given(quadric_b_lists())
def test_quadric_models_validate(b):
    report = validate(quadric_model(b))
    assert report.is_valid


@given(cpn_b_lists())
def test_cpn_models_validate(b):
    assert validate(cpn_model(b)).is_valid
