"""Genuine fixed point data outside the paper's theorem: G_2/P_2 and Y_16.

Both are Fano fivefolds with 6 = n + 1 fixed points.  G_2/P_2, the
adjoint variety of G_2 (Mukai's genus-10 fivefold), is taken at the
circle xi = (1, 1) on its simple roots.  Y_16 = LG(3,6) cut by the
hyperplane of e_1^e_2^e_3 + f_1^f_2^f_3 (Mukai's genus-9 fivefold) is
taken at the circles t = (3, -1, -2) and (4, -1, -3) of SL(3); its data
are derived below from LG(3,6)'s fixed points.  Any check that refuses
one of these data is wrong.  They share c_1 = 3x but not the ring
(r_2 = 1/3 against 1/2, volume 18 against 16): c_1 does not force the
ring here as it does for CP^n and Q^n.  That is measured, not proved.
"""

from collections import namedtuple
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
)

Genuine = namedtuple("Genuine", "phis weights c d volume r gamma")

G2_RING = (1, 1, F(1, 3), F(1, 6), F(1, 18), F(1, 18))
G2_GAMMA = (3, F(13, 3), F(11, 3), F(5, 3), F(1, 3))
Y16_RING = (1, 1, F(1, 2), F(1, 8), F(1, 16), F(1, 16))
Y16_GAMMA = (3, F(9, 2), F(31, 8), F(15, 8), F(3, 8))
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


def test_g2_and_y16_share_c1_but_not_the_ring():
    g2, y16 = (
        FixedPointData.from_weights(g.phis, g.weights)
        for g in (GENUINE["G2/P2 xi=(1,1)"], GENUINE["Y16 t=(3,-1,-2)"])
    )
    assert g2.n == y16.n == 5 and c1_coefficient(g2) == c1_coefficient(y16) == 3
    assert (ring_coefficients(g2).r[2], ring_coefficients(y16).r[2]) == (F(1, 3), F(1, 2))
