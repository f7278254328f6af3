import enum
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given

from hamfix import (
    FixedPoint,
    FixedPointData,
    HamfixError,
    ParseError,
    RingKind,
    RingSpec,
    StructureError,
    cpn_model,
    quadric_model,
    rat,
    validate,
)

from hamfix.core import _show

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


def test_rat_returns_an_exact_fraction_itself_and_converts_a_subclass():
    half = Fraction(1, 2)
    assert rat(half) is half

    class Tagged(Fraction):
        pass

    value = rat(Tagged(6, 4))
    assert type(value) is Fraction and value == Fraction(3, 2)


def _string_corpus():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    corpus = ["5", "-5", "+5", "-0", "05", " 5 ", "1_000", "\u0665", "", "-", "--5", "0x10"]
    corpus += ["3/2", "-6/4", "1/0", " 2.5e-3 ", "x", "1e5"]
    for digits in (limit - 1, limit, limit + 1):
        corpus += ["9" * digits, "-" + "9" * digits]
    return corpus


def test_rat_reads_a_string_as_fraction_does():
    # The plain-integer fast path must not change a value or an error text:
    # "+5", " 5 ", "1_000" and "\u0665" (Arabic-Indic five) leave it, and so
    # does a digit string past the int digit limit.
    for text in _string_corpus():
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(ParseError) as err:
                rat(text)
            assert str(err.value) == f'not a rational "p/q" string: {exc}', text[:20]
        else:
            value = rat(text)
            assert type(value) is Fraction and value == expected, text[:20]


def test_a_malformed_rational_string_is_a_hamfix_error():
    # rat("x") once raised ValueError and rat("1/0") ZeroDivisionError, and
    # from_weights and RingSpec passed both on.
    for text, detail in (("x", "Invalid literal for Fraction: 'x'"), ("1/0", "Fraction(1, 0)")):
        message = f'^not a rational "p/q" string: {re.escape(detail)}$'
        for build in (
            lambda: rat(text),
            lambda: FixedPointData.from_weights([0, text], [(1,), (-1,)]),
            lambda: RingSpec(RingKind.OTHER, 1, (1, text)),
        ):
            with pytest.raises(ParseError, match=message) as err:
                build()
            assert isinstance(err.value, HamfixError) and err.value.path == ""


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
def test_rat_refuses_a_huge_exponent_before_building_the_value():
    # rat("1e10000000") once built 10**10000000, for about 12 s.
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError, match=rf"^exponent 10000000 exceeds the {limit}-digit limit$"):
        rat("1e10000000")
    assert rat("-0.0e10000000") == 0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_rat_refuses_a_huge_exponent_with_the_digit_limit_off():
    # With the limit at 0 the guard was once skipped: rat("1e10000000")
    # built a 33-million-bit number in about 10 s.  The interpreter's
    # default limit bounds the exponent instead.  A million-digit exponent
    # was once converted whole (5 s) and written whole into the message.
    limit, bound = sys.get_int_max_str_digits(), sys.int_info.default_max_str_digits
    nines = "9" * 10**6
    sys.set_int_max_str_digits(0)
    try:
        start = time.perf_counter()
        for exponent, shown in (("100000000", "100000000"), ("5000", "5000"),
                                (nines, "<1000000 digits>"), ("-" + nines, "-<1000000 digits>"),
                                ("+00_" + nines, "<1000000 digits>")):
            message = rf"^exponent {shown} exceeds the {bound}-digit limit$"
            with pytest.raises(ParseError, match=message) as err:
                rat(f"1e{exponent}")
            assert len(str(err.value)) < 200
        assert rat("0e" + nines) == 0
        assert time.perf_counter() - start < 1
        # the same magnitude written out in digits still reads
        assert rat("1" + "0" * 5000) == 10**5000
        assert rat("-0.0e10000000") == 0
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
def test_show_names_the_digit_count_of_an_integer_past_the_limit():
    limit = sys.get_int_max_str_digits()
    values = [10**k + e for k in (limit, limit + 1, 2 * limit, 10_000) for e in (-1, 0, 1)]
    values += [2**b for b in range(3 * limit, 3 * limit + 40)]
    expected = {}
    sys.set_int_max_str_digits(0)
    try:
        expected = {v: len(str(v)) for v in values}
    finally:
        sys.set_int_max_str_digits(limit)
    for v, digits in expected.items():
        shown = str(v) if digits <= limit else f"<{digits} digits>"
        assert _show(v) == shown and _show(-v) == "-" + shown
    big = 10**limit
    assert _show(Fraction(-3, big + 1)) == f"-3/<{limit + 1} digits>"
    assert _show(Fraction(big, 7)) == f"<{limit + 1} digits>/7"
    assert _show(Fraction(big)) == f"<{limit + 1} digits>"
    assert [_show(v) for v in (0, -5, Fraction(-3, 7), Fraction(4, 2))] == ["0", "-5", "-3/7", "2"]
    # Any other value as repr writes it; a list or tuple past the limit by its items.
    others = (True, 1.5, "x", None, [1, "y"])
    assert [_show(v) for v in others] == ["True", "1.5", "'x'", "None", "[1, 'y']"]
    assert _show([big, Fraction(1, 2)]) == f"[<{limit + 1} digits>, 1/2]"
    assert _show((big, "z")) == f"(<{limit + 1} digits>, 'z')"
    assert _show({"key": big}) == "<dict past the digit limit>"


class _Weight(enum.IntEnum):
    THREE = 3


def test_fixed_point_keeps_int_subclass_weights_and_refuses_bools():
    assert FixedPoint(0, 0, (_Weight.THREE, -1)).weights == (-1, 3)
    with pytest.raises(StructureError, match=r"^weight True at point 2 is not an integer$"):
        FixedPoint(2, 0, (1, True))


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FixedPointData(1, (FixedPoint(1, 0, (1,)), FixedPoint(1, 1, (-1,)))), "point at position 0 has index 1"),
        (lambda: FixedPointData.from_weights([0, 1], [[1]]), "moment values and weight lists differ in length"),
    ],
    ids=["misplaced-index", "short-weight-list"],
)
def test_fixed_point_data_refuses_a_malformed_structure(build, message):
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        build()
