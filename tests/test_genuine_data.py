"""Genuine fixed point data outside the paper's theorem: G_2/P_2, Y_16 and Y_12.

All three are Fano fivefolds with 6 = n + 1 fixed points.  G_2/P_2, the
adjoint variety of G_2 (Mukai's genus-10 fivefold), is taken at the
circle xi = (1, 1) on its simple roots.  Y_16 = LG(3,6) cut by the
hyperplane of e_1^e_2^e_3 + f_1^f_2^f_3 (Mukai's genus-9 fivefold) is
taken at the circles t = (3, -1, -2) and (4, -1, -3) of SL(3); its data
are derived below from LG(3,6)'s fixed points.  Y_12, a codimension-5
linear section of the spinor tenfold S_10 (Mukai's genus-7 fivefold), is
taken at the circle xi = (0, 1, 2, 3, 4) of Spin(10)'s maximal torus;
its data are derived below from S_10's fixed points.  Any check that
refuses one of these data is wrong.  They share c_1 = 3x but not the
ring (r_2 = 1/3, 1/2 and 1, volume 18, 16 and 12): c_1 does not force
the ring here as it does for CP^n and Q^n.  That is measured, not proved.
"""

from collections import Counter, namedtuple
from fractions import Fraction as F
from itertools import product

import pytest

from hamfix import (
    FixedPointData,
    RingKind,
    RingSpec,
    c1_coefficient,
    chern_coefficients,
    classify_ring,
    consistency_checks,
    enumerate_weight_systems,
    infer_moment_values,
    ring_coefficients,
    vanishing_battery,
)

Genuine = namedtuple("Genuine", "phis weights c d volume r gamma")

G2_RING = (1, 1, F(1, 3), F(1, 6), F(1, 18), F(1, 18))
G2_GAMMA = (3, F(13, 3), F(11, 3), F(5, 3), F(1, 3))
Y16_RING = (1, 1, F(1, 2), F(1, 8), F(1, 16), F(1, 16))
Y16_GAMMA = (3, F(9, 2), F(31, 8), F(15, 8), F(3, 8))
Y12_RING = (1, 1, 1, F(1, 12), F(1, 12), F(1, 12))
Y12_GAMMA = (3, 5, F(25, 6), F(5, 2), F(1, 2))
GENUINE = {
    "G2/P2 xi=(1,1)": Genuine(
        [0, 1, 4, 6, 9, 10],
        [[1, 2, 3, 4, 5], [-1, 1, 3, 4, 5], [-4, -1, 1, 2, 5],
         [-5, -2, -1, 1, 4], [-5, -4, -3, -1, 1], [-5, -4, -3, -2, -1]],
        3, 15, 18, G2_RING, G2_GAMMA,
    ),
    "Y16 t=(3,-1,-2)": Genuine(
        [0, 2, 4, 8, 10, 12],
        [[2, 3, 4, 4, 5], [-2, 1, 2, 5, 6], [-4, -1, 1, 4, 6],
         [-6, -4, -1, 1, 4], [-6, -5, -2, -1, 2], [-5, -4, -4, -3, -2]],
        3, 18, 16, Y16_RING, Y16_GAMMA,
    ),
    "Y16 t=(4,-1,-3)": Genuine(
        [0, 2, 6, 10, 14, 16],
        [[2, 4, 5, 6, 7], [-2, 2, 3, 7, 8], [-6, -2, 1, 5, 8],
         [-8, -5, -1, 2, 6], [-8, -7, -3, -2, 2], [-7, -6, -5, -4, -2]],
        3, 24, 16, Y16_RING, Y16_GAMMA,
    ),
    "Y12 xi=(0,1,2,3,4)": Genuine(
        [0, 1, 2, 8, 9, 10],
        [[1, 2, 3, 4, 5], [-1, 1, 2, 3, 7], [-2, -1, 1, 4, 7],
         [-7, -4, -1, 1, 2], [-7, -3, -2, -1, 1], [-5, -4, -3, -2, -1]],
        3, 15, 12, Y12_RING, Y12_GAMMA,
    ),
}


def lg36_section(t):
    """Y_16's fixed point data at the circle t (t_1 + t_2 + t_3 = 0), with
    the smallest moment value at 0.  The torus fixes the 8 coordinate
    Lagrangians, spanned by e_i or f_i as eps_i = 1 or -1; the two with
    all eps_i equal are not on the hyperplane.  With a_i = eps_i * t_i,
    LG(3,6) has the weights -(a_i + a_j), i <= j, and Y_16 drops the
    hyperplane's normal weight -sum(a); the moment value is sum(a)."""
    points = []
    for eps in product((1, -1), repeat=3):
        if len(set(eps)) > 1:
            a = [e * s for e, s in zip(eps, t)]
            weights = [-(a[i] + a[j]) for i in range(3) for j in range(i, 3)]
            weights.remove(-sum(a))
            points.append((sum(a), sorted(weights)))
    points.sort()
    return [phi - points[0][0] for phi, _ in points], [w for _, w in points]


def spinor_section(xi):
    """Y_12's fixed point data at the circle xi, with the smallest moment
    value at 0.  The torus fixes the 16 points L_eps of S_10, eps in
    {1, -1}^5 with an even number of -1; with a_i = eps_i * xi_i, L_eps
    has the moment value sum(a) / 2 and the weights -(a_i + a_j), i < j.
    Each moment value two points share gives one hyperplane z_a + z_b = 0
    that neither point lies on; Y_12 keeps the other points and drops at
    each the hyperplane's normal weight, the shared value minus its own."""
    points = []
    for eps in product((1, -1), repeat=5):
        if eps.count(-1) % 2 == 0:
            a = [e * x for e, x in zip(eps, xi)]
            points.append((F(sum(a), 2), [-(a[i] + a[j]) for i in range(5) for j in range(i + 1, 5)]))
    count = Counter(phi for phi, _ in points)
    shared = [q for q in count if count[q] > 1]
    kept = sorted((phi, weights) for phi, weights in points if count[phi] == 1)
    for phi, weights in kept:
        for q in shared:
            weights.remove(q - phi)
    return [phi - kept[0][0] for phi, _ in kept], [sorted(weights) for _, weights in kept]


@pytest.mark.parametrize("name", GENUINE)
def test_genuine_data_pass_every_check_and_measure_as_recorded(name):
    g = GENUINE[name]
    data = FixedPointData.from_weights(g.phis, g.weights)
    checks = consistency_checks(data)
    assert all(check.passed for check in checks)
    assert [c.detail for c in checks[1:]] == [f"C = {g.c}", f"d = {g.d}", f"volume = {g.volume}"]
    ring = ring_coefficients(data)
    assert ring.r == g.r and classify_ring(ring).kind is RingKind.OTHER
    assert chern_coefficients(data).gamma == g.gamma
    assert infer_moment_values(g.weights) == g.phis
    assert enumerate_weight_systems(RingSpec(RingKind.OTHER, 5, g.r), g.phis) == [data]


@pytest.mark.parametrize("t", [(3, -1, -2), (4, -1, -3)])
def test_y16_data_are_lg36_fixed_points_off_the_hyperplane(t):
    g = GENUINE[f"Y16 t=({t[0]},{t[1]},{t[2]})"]
    assert lg36_section(t) == (g.phis, g.weights)


def test_y12_data_are_s10_fixed_points_off_the_five_hyperplanes():
    g = GENUINE["Y12 xi=(0,1,2,3,4)"]
    assert spinor_section((0, 1, 2, 3, 4)) == (g.phis, g.weights)


def test_g2_and_y16_share_c1_but_not_the_ring():
    # Y_12 too: three rings at c_1 = 3x in dimension 10.
    g2, y16, y12 = (
        FixedPointData.from_weights(g.phis, g.weights)
        for g in (GENUINE["G2/P2 xi=(1,1)"], GENUINE["Y16 t=(3,-1,-2)"], GENUINE["Y12 xi=(0,1,2,3,4)"])
    )
    assert g2.n == y16.n == y12.n == 5
    assert c1_coefficient(g2) == c1_coefficient(y16) == c1_coefficient(y12) == 3
    assert [ring_coefficients(data).r[2] for data in (g2, y16, y12)] == [F(1, 3), F(1, 2), 1]
    assert [vanishing_battery(data).volume for data in (g2, y16, y12)] == [18, 16, 12]
