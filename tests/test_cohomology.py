from fractions import Fraction
from itertools import combinations
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
    c1_coefficient,
    chern_coefficients,
    classify_ring,
    condition_d_offset,
    cpn_model,
    quadric_model,
    reference_chern,
    ring_coefficients,
)

from hamfix.cohomology import _sigma_table

from conftest import cpn_b_lists, outcome, quadric_b_lists, read_path_data

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
    """Weight sums on a line Gamma = -C*phi + d (C = c*den/scale, possibly
    <= 0), or perturbed off it; moment values from a small range in
    steps of scale/den, distinct in about half the cases."""
    n = draw(st.integers(1, 5))
    scale, den = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    distinct = draw(st.booleans())
    steps = draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1, unique=distinct))
    c, d = draw(st.integers(-2, 4)), draw(st.integers(-5, 5))
    sums = [-c * k + d for k in steps]
    if draw(st.booleans()):
        sums[draw(st.integers(0, n))] += draw(st.sampled_from((-1, 1)))
    weights = []
    for s in sums:
        rest = draw(st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1))
        weights.append([s - sum(rest)] + rest)
    return FixedPointData.from_weights([Fraction(scale * k, den) for k in steps], weights)


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


def _cubic_chern_coefficients(data):
    # The Chern coefficients with every product over the Gammas taken
    # afresh for each degree i and point k, O(n^3) in all.
    n = data.n
    r = ring_coefficients(data).r  # raises on equal Gammas
    gs = [p.gamma for p in data.points]
    lambdas = [p.lambda_all for p in data.points]
    big_l = lcm(*lambdas)
    sigma = _sigma_table(data)

    gammas = []
    for i in range(1, n + 1):
        upper = [prod(gs[k] - gs[j] for j in range(i + 1, n + 1)) for k in range(i + 1)]
        acc = sum(sigma[k][i] * upper[k] * (big_l // lambdas[k]) for k in range(i + 1))
        scalar_plus = Fraction(data.points[i].lambda_plus * acc, upper[i] * big_l)

        lower = [prod(gs[k] - gs[j] for j in range(i + 1) if j != k) for k in range(i + 1)]
        den = lcm(*lower)
        acc = sum(sigma[k][i] * (den // lower[k]) for k in range(i + 1))
        scalar_minus = Fraction(lower[i] * acc, data.points[i].lambda_minus * den)

        if scalar_plus != scalar_minus:
            raise HamfixError(f"c_{i} expressions disagree: {scalar_plus} vs {scalar_minus}")
        gammas.append(scalar_plus * r[i])

    return ChernData(sigma, tuple(gammas))


@settings(max_examples=300)
@given(read_path_data())
def test_chern_running_products_match_the_cubic_reference(data):
    # Same gammas and sigma table, or the same exception class and text:
    # equal Gammas, a zero weight, or the two expressions disagreeing.
    assert outcome(chern_coefficients, data) == outcome(_cubic_chern_coefficients, data)


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


def test_chern_cross_check_on_exceptional_data():
    # non-model rings exercise both closed forms away from the r = 1, 1/2 patterns;
    # the top Chern number gamma_n * volume must equal the fixed point count
    from hamfix import vanishing_battery

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
    from hamfix import vanishing_battery

    data = cpn_model(b)
    chi = chern_coefficients(data).gamma[-1] * vanishing_battery(data).volume
    assert chi == data.n + 1


def _assert_unimodular_pairing(data):
    # Poincare duality: the generators alpha_i = r_i x^i pair to
    # integral(alpha_i * alpha_{n-i}) = r_i * r_{n-i} * volume = 1.
    from hamfix import vanishing_battery

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
