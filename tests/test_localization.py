import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfix import (
    BatteryFailure,
    BatteryReport,
    FixedPoint,
    FixedPointData,
    HamfixError,
    NonConstantC1,
    StructureError,
    abbv_sum,
    c1_coefficient,
    chern_coefficients,
    condition_d_offset,
    cpn_model,
    quadric_model,
    validate,
    vanishing_battery,
)

from conftest import cpn_b_lists, quadric_b_lists


def omega_power(data, b):
    """Restrictions (-phi_P)^b of the b-th power of the equivariant symplectic class."""
    return [(-p.moment_value) ** b for p in data.points]


def c1_omega_monomial(data, a, b):
    """Restrictions Gamma_P^a * (-phi_P)^b of (equivariant c_1)^a * omega^b."""
    return [Fraction(p.gamma) ** a * (-p.moment_value) ** b for p in data.points]


def reference_battery(data):
    """The full monomial battery built term by term from ``abbv_sum``: a
    report whose failures are the nonzero sums as (a, b, value), in lex
    order."""
    n = data.n
    failures = []
    for a in range(n):
        for b in range(n - a):
            value = abbv_sum(data, c1_omega_monomial(data, a, b))
            if value != 0:
                failures.append((a, b, value))
    return BatteryReport(n, tuple(failures), abbv_sum(data, omega_power(data, n)))


def reference_row(reference):
    """A ``reference_battery`` report read as the row battery: its a = 0 entries."""
    failures = tuple(BatteryFailure(b, value) for a, b, value in reference.failures if a == 0)
    return reference._replace(failures=failures)


def test_abbv_sum_cp1_volume():
    data = cpn_model((0, 1))
    coefficients = omega_power(data, 1)
    assert coefficients == [Fraction(0), Fraction(-1)]
    assert abbv_sum(data, coefficients) == 1


def test_abbv_sum_zero_class():
    data = quadric_model((2, 1))
    assert abbv_sum(data, [0, 0, 0, 0]) == 0


def test_abbv_sum_quadric_degree():
    data = quadric_model((2, 1))
    coefficients = omega_power(data, 3)
    assert coefficients == [Fraction(8), Fraction(1), Fraction(-1), Fraction(-8)]
    assert abbv_sum(data, coefficients) == 2


def test_abbv_sum_missing_restriction():
    with pytest.raises(StructureError, match=r"^1 coefficients given for 2 fixed points$"):
        abbv_sum(cpn_model((0, 1)), [1])
    with pytest.raises(StructureError, match=r"^3 coefficients given for 2 fixed points$"):
        abbv_sum(cpn_model((0, 1)), iter([1, 2, 3]))
    assert abbv_sum(cpn_model((0, 1)), (a for a in (1, 0))) == abbv_sum(cpn_model((0, 1)), [1, 0])


def test_zero_weight_is_a_structure_error():
    for phis, weights in (([0, 1], [[1], [0]]), ([0, 1, 2], [[1, 2], [-1, 1], [-2, 0]])):
        data = FixedPointData.from_weights(phis, weights)
        for measure in (vanishing_battery, lambda d: abbv_sum(d, [1] * len(phis)), chern_coefficients):
            with pytest.raises(StructureError, match=f"^zero weight at point {data.n}$"):
                measure(data)


@given(cpn_b_lists(max_n=4), st.integers(-5, 5), st.integers(-5, 5))
def test_abbv_sum_is_linear(b, s, t):
    data = cpn_model(b)
    one = omega_power(data, 1)
    two = omega_power(data, 2)
    mixed = [s * x + t * y for x, y in zip(one, two)]
    assert abbv_sum(data, mixed) == s * abbv_sum(data, one) + t * abbv_sum(data, two)


def test_battery_cpn2():
    report = vanishing_battery(cpn_model((0, 1, 2)))
    assert report.passed
    assert report.failures == ()
    assert report.volume == 1


def test_battery_quadric3():
    report = vanishing_battery(quadric_model((2, 1)))
    assert report.passed
    assert report.volume == 2


def battery_fails():
    """Valid and on the c1 line (C = 5, d = 2), but the omega row fails."""
    return FixedPointData.from_weights([0, 1, 2], [[1, 1], [-4, 1], [-4, -4]])


def test_battery_catches_corrupted_weight():
    # CP^2's weights (-1, 1) at P_1 moved to (-3, 3): Gamma, and so the c1
    # line, stay as they are, and the battery alone sees the change.
    points = list(cpn_model((0, 1, 2)).points)
    points[1] = FixedPoint(1, points[1].moment_value, (-3, 3))
    report = vanishing_battery(FixedPointData(2, tuple(points)))
    assert not report.passed
    assert report.failures  # at least one power fails


def test_battery_failures_in_lex_order():
    failures = vanishing_battery(battery_fails()).failures
    assert BatteryFailure._fields == ("b", "value")
    assert [f.b for f in failures] == [0, 1]


def test_battery_off_the_c1_line_raises_the_c1_error():
    # CP^2 with P_2's weights corrupted to (-3, -1): valid, but Gamma =
    # 3, 0, -4 is not affine in phi, so the battery is not defined.
    points = list(cpn_model((0, 1, 2)).points)
    points[2] = FixedPoint(2, points[2].moment_value, (-3, -1))
    data = FixedPointData(2, tuple(points))
    assert validate(data).is_valid
    for measure in (c1_coefficient, vanishing_battery):
        with pytest.raises(NonConstantC1, match=r"^pair \(0,1\) gives 3 but pair \(0,2\) gives 7/2$"):
            measure(data)


@given(quadric_b_lists())
def test_battery_passes_on_quadric_models(b):
    assert vanishing_battery(quadric_model(b)).passed


@given(cpn_b_lists())
def test_battery_passes_on_cpn_models(b):
    assert vanishing_battery(cpn_model(b)).passed


@given(cpn_b_lists(max_n=4), st.integers(-20, 20))
def test_battery_pass_invariant_under_translation(b, c):
    data = cpn_model(b)
    assert vanishing_battery(data.translated(c)).passed == vanishing_battery(data).passed


@given(st.integers(-20, 20))
def test_battery_failure_invariant_under_translation(c):
    assert not vanishing_battery(battery_fails().translated(c)).passed


def test_battery_fails_on_the_c1_line():
    # Gamma = 3, 0, -3 lies on the line -3 * phi + 3, so validate, c1 and
    # condition D pass, yet two vanishing sums do not vanish.
    data = FixedPointData.from_weights([0, 1, 2], [[1, 2], [-2, 2], [-2, -1]])
    assert validate(data).is_valid
    assert (c1_coefficient(data), condition_d_offset(data)) == (3, 3)
    failures = (BatteryFailure(0, Fraction(3, 4)), BatteryFailure(1, Fraction(-3, 4)))
    assert vanishing_battery(data) == BatteryReport(2, failures, Fraction(7, 4))
    reference = reference_battery(data)
    assert reference.failures == ((0, 0, Fraction(3, 4)), (0, 1, Fraction(-3, 4)))
    assert vanishing_battery(data) == reference_row(reference)


@st.composite
def battery_data(draw):
    """Models (CP^n, n <= 6, and Q^3, Q^5), translated by a fraction, and
    either kept, or changed at one point: one weight replaced by another
    nonzero integer (Gamma leaves the c1 line); t moved from one weight
    to another (Gamma stays on the line, the battery fails); or two
    weights negated (Lambda and so the omega row stay, Gamma leaves the
    line)."""
    if draw(st.booleans()):
        data = cpn_model(draw(cpn_b_lists()))
    else:
        data = quadric_model(draw(quadric_b_lists()))
    data = data.translated(Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 6))))
    change = draw(st.sampled_from(["none", "replace", "move", "negate"]))
    if change == "none" or (change != "replace" and data.n < 2):
        return data
    i = draw(st.integers(0, data.n))
    weights = list(data.points[i].weights)
    if change == "replace":
        k = draw(st.integers(0, data.n - 1))
        weights[k] = draw(st.integers(-9, 9).filter(lambda v: v != 0))
    else:
        k, l = draw(st.lists(st.integers(0, data.n - 1), min_size=2, max_size=2, unique=True))
        if change == "negate":
            weights[k], weights[l] = -weights[k], -weights[l]
        else:
            t = draw(st.integers(-9, 9).filter(lambda v: v and weights[k] + v and weights[l] - v))
            weights[k] += t
            weights[l] -= t
    points = list(data.points)
    points[i] = FixedPoint(i, points[i].moment_value, tuple(weights))
    return FixedPointData(data.n, tuple(points))


@settings(max_examples=300)
@given(battery_data())
def test_battery_equals_abbv_sum_reference(data):
    # On the c1 line every monomial is a combination of the omega row, so
    # the row's failures (a = 0) decide the battery; off it the battery
    # raises the error of the c1 line test.
    try:
        c1_coefficient(data)
    except HamfixError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            vanishing_battery(data)
        return
    report, reference = vanishing_battery(data), reference_battery(data)
    assert report.passed == reference.passed
    assert report == reference_row(reference)
    assert bool(report.failures) == bool(reference.failures)
