import functools
import re
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfix import (
    ChernData,
    FixedPointData,
    HamfixError,
    NonConstantC1,
    NonPositiveC1,
    RingCoefficients,
    RingKind,
    RingSpec,
    SpecMismatch,
    abbv_sum,
    c1_coefficient,
    chern_coefficients,
    classify_ring,
    condition_d_offset,
    consistency_checks,
    cpn_model,
    enumerate_weight_systems,
    expected_weights_quadric,
    quadric_model,
    reference_chern,
    ring_coefficients,
    vanishing_battery,
)

from hamfix.cohomology import _sigma_table

from conftest import cpn_b_lists, model_data, outcome, quadric_b_lists, read_path_data

# --- independent series oracles -------------------------------------------
# Total Chern classes of the model spaces, computed by naive power-series
# convolution so the package's closed forms are checked against a second
# route.


def _series_mul(a, b, upto):
    out = [0] * (upto + 1)
    for i, ai in enumerate(a[: upto + 1]):
        for j, bj in enumerate(b[: upto + 1]):
            if i + j <= upto:
                out[i + j] += ai * bj
    return out


def cpn_chern_oracle(n):
    series = [1]
    for _ in range(n + 1):
        series = _series_mul(series, [1, 1], n)
    return tuple(series[1 : n + 1])


def quadric_chern_oracle(n):
    # 1/(1+2x) = sum (-2x)^k
    inverse = [(-2) ** k for k in range(n + 1)]
    numerator = [1]
    for _ in range(n + 2):
        numerator = _series_mul(numerator, [1, 1], n)
    series = _series_mul(numerator, inverse, n)
    return tuple(series[1 : n + 1])


def test_oracles_self_check():
    assert cpn_chern_oracle(2) == (3, 3)
    assert quadric_chern_oracle(3) == (3, 4, 2)
    # top Chern class integrates to the Euler characteristic n+1:
    # volume 2 for the quadric, so the top coefficient is (n+1)/2
    assert quadric_chern_oracle(5)[-1] * 2 == 6


# --- c1 coefficient ---------------------------------------------------------


def test_c1_cpn2():
    assert c1_coefficient(cpn_model((0, 1, 2))) == 3


def test_c1_quadric3():
    assert c1_coefficient(quadric_model((2, 1))) == 3


def test_c1_non_constant():
    data = FixedPointData.from_weights([0, 1, 2], [(1, 2), (-1, 2), (-2, -1)])
    with pytest.raises(NonConstantC1):
        c1_coefficient(data)


def test_c1_non_positive():
    data = FixedPointData.from_weights([0, 1], [(-1,), (1,)])
    with pytest.raises(NonPositiveC1):
        c1_coefficient(data)


def test_c1_names_first_equal_pair():
    phis = [0, 2, 3, 3, 2]
    data = FixedPointData.from_weights(phis, [(-p - 3, 1, 1, 1) for p in phis])
    for measure in (c1_coefficient, condition_d_offset):
        with pytest.raises(NonConstantC1, match="^equal moment values at P_1 and P_4$"):
            measure(data)


@st.composite
def _fit_data(draw):
    """Weight sums on a line Gamma = -C*phi + d (C = c*lcm(dens)/scale,
    possibly <= 0), or perturbed off it; moment values scale*k/den_i for
    k from a small range, distinct in about half the cases, over one
    denominator or over one per point from 1, 2, 3, 6."""
    n = draw(st.integers(1, 5))
    scale, den = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    per_point = st.lists(st.sampled_from((1, 2, 3, 6)), min_size=n + 1, max_size=n + 1)
    dens = draw(st.one_of(st.just([den] * (n + 1)), per_point))
    distinct = draw(st.booleans())
    steps = draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1, unique=distinct))
    c, d = draw(st.integers(-2, 4)), draw(st.integers(-5, 5))
    sums = [-c * k * (lcm(*dens) // b) + d for k, b in zip(steps, dens)]
    if draw(st.booleans()):
        sums[draw(st.integers(0, n))] += draw(st.sampled_from((-1, 1)))
    weights = []
    for s in sums:
        rest = draw(st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1))
        weights.append([s - sum(rest)] + rest)
    return FixedPointData.from_weights([Fraction(scale * k, b) for k, b in zip(steps, dens)], weights)


@settings(max_examples=200)
@given(_fit_data())
def test_affine_fit_matches_its_definition(data):
    # C is the common quotient (Gamma_i - Gamma_j) / (phi_j - phi_i) over
    # ALL pairs, and must be positive; d = Gamma_i + C*phi_i for every i.
    gs = [p.gamma for p in data.points]
    phis = data.moment_values
    pairs = list(combinations(range(data.n + 1), 2))
    quotients = {
        Fraction(gs[i] - gs[j]) / (phis[j] - phis[i]) for i, j in pairs if phis[i] != phis[j]
    }
    if any(phis[i] == phis[j] for i, j in pairs) or len(quotients) != 1:
        expected = NonConstantC1
    else:
        (c,) = quotients
        expected = NonPositiveC1 if c <= 0 else None
    if expected is None:
        assert c1_coefficient(data) == c
        assert {gs[i] + c * phis[i] for i in range(data.n + 1)} == {condition_d_offset(data)}
    else:
        for measure in (c1_coefficient, condition_d_offset):
            with pytest.raises(HamfixError) as exc:
                measure(data)
            assert type(exc.value) is expected


def test_c1_mismatch_names_fractional_quotients():
    # phi = (0, 4/3, 3/2), Gamma = (3, 1, 0): the quotients are 2/(4/3)
    # and 3/(3/2).
    data = FixedPointData.from_weights(
        [0, Fraction(4, 3), Fraction(3, 2)], [(1, 2), (-1, 2), (-1, 1)]
    )
    for measure in (c1_coefficient, condition_d_offset):
        with pytest.raises(NonConstantC1) as exc:
            measure(data)
        assert str(exc.value) == "pair (0,1) gives 3/2 but pair (0,2) gives 2"


def test_condition_d_examples():
    assert condition_d_offset(cpn_model((0, 1, 2))) == 3
    assert condition_d_offset(quadric_model((2, 1))) == 0
    assert condition_d_offset(cpn_model((0, 1, 2)).translated(5)) == 18


# --- ring coefficients -------------------------------------------------------


def test_ring_cpn3():
    rc = ring_coefficients(cpn_model((0, 1, 2, 3)))
    assert rc.r == (1, 1, 1, 1)


def test_ring_quadric3():
    rc = ring_coefficients(quadric_model((2, 1)))
    assert rc.r == (1, 1, Fraction(1, 2), Fraction(1, 2))


def test_ring_six_dimensional_exceptional_case():
    data = FixedPointData.from_weights(
        [0, 1, 5, 6], [(1, 2, 3), (-1, 1, 4), (-1, -4, 1), (-1, -2, -3)]
    )
    rc = ring_coefficients(data)
    assert rc.r[2] == Fraction(1, 5)
    assert rc.r[3] == Fraction(1, 5)


def test_ring_degenerate_gamma():
    data = FixedPointData.from_weights([0, 1], [(1,), (1,)])
    with pytest.raises(HamfixError, match=r"^Gamma_0 = Gamma_1 = 1$"):
        ring_coefficients(data)


# --- Chern coefficients ------------------------------------------------------


def test_chern_cpn2():
    chern = chern_coefficients(cpn_model((0, 1, 2)))
    assert chern.gamma == cpn_chern_oracle(2)
    assert chern.sigma == ((1, 3, 2), (1, 0, -1), (1, -3, 2))


def test_chern_quadric3():
    chern = chern_coefficients(quadric_model((2, 1)))
    assert chern.gamma == quadric_chern_oracle(3)


def test_chern_sphere():
    chern = chern_coefficients(cpn_model((0, 1)))
    assert chern.gamma == (2,)


# The two interpolation formulas for the scalar s_i with c_i = s_i * alpha_i,
# each product over the Gammas taken afresh, O(n^2) per degree.  Given
# Fractions they are exact; given sympy symbols, symbolic.


def _positive_scalar(i, gs, lambdas, lambda_plus, sigma_i):
    # [Lambda_i^+ / prod_{j>i} (Gamma_i - Gamma_j)]
    # * sum_{k<=i} sigma_i(P_k) * prod_{j>i} (Gamma_k - Gamma_j) / Lambda_k
    upper = [prod(gs[k] - gs[j] for j in range(i + 1, len(gs))) for k in range(i + 1)]
    return lambda_plus / upper[i] * sum(sigma_i[k] * upper[k] / lambdas[k] for k in range(i + 1))


def _negative_scalar(i, gs, lambda_minus, sigma_i):
    # [prod_{j<i} (Gamma_i - Gamma_j) / Lambda_i^-]
    # * sum_{k<=i} sigma_i(P_k) / prod_{j<=i, j!=k} (Gamma_k - Gamma_j)
    lower = [prod(gs[k] - gs[j] for j in range(i + 1) if j != k) for k in range(i + 1)]
    return lower[i] / lambda_minus * sum(sigma_i[k] / lower[k] for k in range(i + 1))


def _cubic_chern_coefficients(data, positive=False):
    # gamma_i = s_i * r_i, by the negative formula (the one hamfix uses)
    # or the positive one.
    r = ring_coefficients(data).r  # raises on equal Gammas
    pts = data.points
    lambdas = [Fraction(p.lambda_all) for p in pts]  # raises on a zero weight
    gs = [Fraction(p.gamma) for p in pts]
    sigma = _sigma_table(data)
    gammas = []
    for i in range(1, data.n + 1):
        sigma_i = [Fraction(row[i]) for row in sigma]
        if positive:
            scalar = _positive_scalar(i, gs, lambdas, Fraction(pts[i].lambda_plus), sigma_i)
        else:
            scalar = _negative_scalar(i, gs, Fraction(pts[i].lambda_minus), sigma_i)
        gammas.append(scalar * r[i])
    return ChernData(sigma, tuple(gammas))


@settings(max_examples=300)
@given(read_path_data())
def test_chern_running_products_match_the_cubic_reference(data):
    # Same gammas and sigma table, or the same exception class and text:
    # equal Gammas or a zero weight.
    assert outcome(chern_coefficients, data) == outcome(_cubic_chern_coefficients, data)


@functools.cache
def _dual_other_ring_systems():
    # Every system the search finds for r = (1,1,a,a) (n = 3) and
    # (1,1,a,a^2,a^2) (n = 4) over a box of moment gaps: both rings have
    # Poincare duality, so the search returns data that passes the checks.
    systems = []
    for n, a, steps in ((3, Fraction(1, 3), (3, 6)), (3, Fraction(1, 4), (2, 4, 6)),
                        (3, Fraction(1, 6), (3, 6)), (4, Fraction(1, 2), (2, 4, 6))):
        r = (1, 1, a, a) if n == 3 else (1, 1, a, a * a, a * a)
        for gaps in product(steps, repeat=n):
            phis = [sum(gaps[:i]) for i in range(n + 1)]
            systems += enumerate_weight_systems(RingSpec(RingKind.OTHER, n, r), phis)
    return systems


_EXCEPTIONAL = (
    FixedPointData.from_weights([0, 1, 5, 6], [(1, 2, 3), (-1, 1, 4), (-1, -4, 1), (-1, -2, -3)]),
    FixedPointData.from_weights([0, 1, 11, 12], [(1, 2, 3), (-1, 1, 5), (-1, -5, 1), (-1, -2, -3)]),
)


@settings(max_examples=200)
@given(
    st.one_of(
        model_data(),
        st.sampled_from(_EXCEPTIONAL),
        st.deferred(lambda: st.sampled_from(_dual_other_ring_systems())),
    )
)
def test_positive_formula_agrees_on_data_passing_the_checks(data):
    # The proof in chern_coefficients' docstring: the battery and
    # condition D make the positive and the negative formula one number.
    assert all(check.passed for check in consistency_checks(data))
    assert _cubic_chern_coefficients(data, positive=True) == chern_coefficients(data)


def _partitions(n, largest=None):
    # The partitions of n, as non-increasing tuples of positive parts.
    if n == 0:
        yield ()
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


@settings(max_examples=100)
@given(st.one_of(model_data(max_n=8), st.sampled_from(_EXCEPTIONAL)))
def test_chern_numbers_match_their_localization_sums(data):
    # Each Chern number c_{i_1}...c_{i_k}[M] (i_1 + ... + i_k = n) two
    # ways: the localization sum sum_P prod_k sigma_{i_k}(P) / Lambda_P,
    # and prod_k gamma_{i_k} times x^n[M], the symplectic volume.  Both
    # are the same integral on a genuine manifold, so the data are the
    # models and the two exceptional Fano threefolds.  Passing the four
    # checks is not enough: the solver's n = 4 systems for
    # r = (1,1,1/2,1/4,1/4) pass them and fail this for c_2^2.
    chern = chern_coefficients(data)
    volume = vanishing_battery(data).volume
    for parts in _partitions(data.n):
        local = abbv_sum(data, [prod(row[i] for i in parts) for row in chern.sigma])
        assert local == prod(chern.gamma[i - 1] for i in parts) * volume, parts


def test_dual_other_ring_systems_are_not_models():
    systems = _dual_other_ring_systems()
    assert len(systems) >= 10
    assert all(classify_ring(ring_coefficients(d)).kind is RingKind.OTHER for d in systems)


def test_positive_formula_disagrees_off_the_c1_line():
    # The standard quadric weights at non-antipodal moment values fail
    # the checks, and there the two formulas differ (c_1: 10/11 vs 2).
    data = expected_weights_quadric([-4, -3, 1, 4])
    assert [check.name for check in consistency_checks(data) if not check.passed] == [
        "c1-coefficient",
        "condition-d",
        "vanishing-battery",
    ]
    plus = _cubic_chern_coefficients(data, positive=True).gamma
    minus = _cubic_chern_coefficients(data).gamma
    assert (plus[0], minus[0]) == (Fraction(10, 11), 2)
    assert minus == chern_coefficients(data).gamma


def test_positive_and_negative_scalars_agree_symbolically():
    # With Lambda_k = K * prod_{j!=k} (Gamma_k - Gamma_j), the relation the
    # battery proves, both formulas are the same rational function.
    sympy = pytest.importorskip("sympy")
    for n in range(2, 5):
        gs = sympy.symbols(f"G0:{n + 1}")
        big_k, lambda_minus = sympy.symbols("K m")
        lambdas = [big_k * prod(gs[k] - gs[j] for j in range(n + 1) if j != k) for k in range(n + 1)]
        for i in range(1, n + 1):
            sigma_i = sympy.symbols(f"s0:{i + 1}")
            plus = _positive_scalar(i, gs, lambdas, lambdas[i] / lambda_minus, sigma_i)
            minus = _negative_scalar(i, gs, lambda_minus, sigma_i)
            assert sympy.cancel(plus - minus) == 0, (n, i)


def test_sigma_table_invariants():
    data = quadric_model((3, 1))
    chern = chern_coefficients(data)
    for i, p in enumerate(data.points):
        assert chern.sigma[i][0] == 1
        prod = 1
        for w in p.weights:
            prod *= w
        assert chern.sigma[i][data.n] == prod


def test_reference_chern_matches_oracles():
    for n in range(1, 7):
        assert reference_chern(RingKind.PROJECTIVE_SPACE, n) == cpn_chern_oracle(n)
    for n in (3, 5):
        assert reference_chern(RingKind.QUADRIC, n) == quadric_chern_oracle(n)


@given(cpn_b_lists())
def test_cpn_invariants(b):
    data = cpn_model(b)
    n = data.n
    assert c1_coefficient(data) == n + 1
    assert all(v == 1 for v in ring_coefficients(data).r)
    assert chern_coefficients(data).gamma == cpn_chern_oracle(n)


@given(quadric_b_lists())
def test_quadric_invariants(b):
    data = quadric_model(b)
    n = data.n
    half = (n + 1) // 2
    assert c1_coefficient(data) == n
    rc = ring_coefficients(data)
    assert rc.r == tuple(
        Fraction(1) if i < half else Fraction(1, 2) for i in range(n + 1)
    )
    assert classify_ring(rc).kind is RingKind.QUADRIC
    assert chern_coefficients(data).gamma == quadric_chern_oracle(n)


@given(cpn_b_lists(max_n=4), st.integers(-10, 10).filter(lambda c: c != 0))
def test_translation_shifts_only_d(b, c):
    data = cpn_model(b)
    moved = data.translated(c)
    assert c1_coefficient(moved) == c1_coefficient(data)
    assert ring_coefficients(moved) == ring_coefficients(data)
    assert chern_coefficients(moved).gamma == chern_coefficients(data).gamma
    shift = c1_coefficient(data) * c
    assert condition_d_offset(moved) == condition_d_offset(data) + shift


def test_gamma1_matches_c1_on_models():
    for data in (cpn_model((0, 2, 5)), quadric_model((3, 2, 1))):
        assert chern_coefficients(data).gamma[0] == c1_coefficient(data)


def test_chern_on_exceptional_data():
    # non-model rings exercise the formula away from the r = 1, 1/2 patterns;
    # the top Chern number gamma_n * volume must equal the fixed point count
    data = FixedPointData.from_weights(
        [0, 1, 5, 6], [(1, 2, 3), (-1, 1, 4), (-1, -4, 1), (-1, -2, -3)]
    )
    chern = chern_coefficients(data)
    assert chern.gamma == (2, Fraction(12, 5), Fraction(4, 5))
    assert chern.gamma[0] == c1_coefficient(data)
    assert chern.gamma[-1] * vanishing_battery(data).volume == 4

    data = FixedPointData.from_weights(
        [0, 1, 11, 12], [(1, 2, 3), (-1, 1, 5), (-1, -5, 1), (-1, -2, -3)]
    )
    chern = chern_coefficients(data)
    assert chern.gamma == (1, Fraction(12, 11), Fraction(2, 11))
    assert chern.gamma[-1] * vanishing_battery(data).volume == 4


@given(cpn_b_lists(max_n=5))
def test_euler_characteristic_from_top_chern(b):
    data = cpn_model(b)
    chi = chern_coefficients(data).gamma[-1] * vanishing_battery(data).volume
    assert chi == data.n + 1


def _assert_unimodular_pairing(data):
    # Poincare duality: the generators alpha_i = r_i x^i pair to
    # integral(alpha_i * alpha_{n-i}) = r_i * r_{n-i} * volume = 1.
    r = ring_coefficients(data).r
    volume = vanishing_battery(data).volume
    n = data.n
    for i in range(n + 1):
        assert r[i] * r[n - i] * volume == 1


@given(cpn_b_lists(max_n=5))
def test_poincare_pairing_unimodular_cpn(b):
    _assert_unimodular_pairing(cpn_model(b))


@given(quadric_b_lists())
def test_poincare_pairing_unimodular_quadric(b):
    _assert_unimodular_pairing(quadric_model(b))


def test_poincare_pairing_unimodular_exceptional():
    for phis, weights in (
        ([0, 1, 5, 6], [(1, 2, 3), (-1, 1, 4), (-1, -4, 1), (-1, -2, -3)]),
        ([0, 1, 11, 12], [(1, 2, 3), (-1, 1, 5), (-1, -5, 1), (-1, -2, -3)]),
    ):
        _assert_unimodular_pairing(FixedPointData.from_weights(phis, weights))


# --- classification ----------------------------------------------------------


def test_classify_projective():
    spec = classify_ring(RingCoefficients((Fraction(1),) * 4))
    assert spec.kind is RingKind.PROJECTIVE_SPACE and spec.n == 3


def test_classify_quadric():
    rc = RingCoefficients((Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)))
    spec = classify_ring(rc)
    assert spec.kind is RingKind.QUADRIC


def test_classify_other():
    rc = RingCoefficients((Fraction(1), Fraction(1), Fraction(1, 5), Fraction(1, 5)))
    spec = classify_ring(rc)
    assert spec.kind is RingKind.OTHER
    assert spec.r == rc.r


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RingSpec(RingKind.OTHER, 2), "Other ring needs an explicit r-sequence of length n+1"),
        (lambda: reference_chern(RingKind.OTHER, 3), "no reference Chern series for an Other ring"),
    ],
    ids=["other-ring-without-r", "other-ring-reference-chern"],
)
def test_an_other_ring_refuses_what_it_does_not_define(build, message):
    with pytest.raises(SpecMismatch, match=f"^{re.escape(message)}$"):
        build()
