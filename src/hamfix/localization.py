"""Fixed point localization sums and the vanishing battery.

For an equivariant class whose restriction to P is a_P * t^d, the
localization sum is  sum_P a_P / Lambda_P  with Lambda_P the product of
all weights at P.  Classes of degree 2d < 2n integrate to zero, so the
sums over monomials in the two canonical degree-2 classes (the
equivariant first Chern class, restricting to Gamma_P * t, and the
equivariant symplectic class, restricting to -phi(P) * t) must all
vanish below the top degree.  The full battery of those vanishing
identities is a cheap, strong consistency filter for candidate data;
the top power of the symplectic class recovers the symplectic volume,
which must be positive.

The battery evaluates each monomial sum as one integer power sum over
a common denominator (see ``vanishing_battery``); ``abbv_sum`` is the
direct rational sum over arbitrary restrictions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import FixedPointData, RatLike, rat


def abbv_sum(data: FixedPointData, coefficients: Sequence[RatLike]) -> Fraction:
    """Exact localization sum  sum_P a_P / Lambda_P.

    ``coefficients`` lists the restrictions a_P of one class in point
    order, one per fixed point; a length mismatch raises ValueError.
    """
    total = Fraction(0)
    for p, a in zip(data.points, coefficients, strict=True):
        total += rat(a) / p.lambda_all
    return total


class BatteryFailure(namedtuple("BatteryFailure", "a b value")):
    __slots__ = ()


class BatteryReport(namedtuple("BatteryReport", "n failures volume")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures and self.volume > 0


def vanishing_battery(data: FixedPointData) -> BatteryReport:
    """Evaluate every monomial localization identity below the top degree.

    For every pair (a, b) with a + b < n the sum
    sum_P Gamma_P^a * (-phi_P)^b / Lambda_P must vanish; failures are
    listed in lexicographic (a, b) order.  The report also carries the
    top value V = sum_P (-phi_P)^n / Lambda_P, the symplectic volume,
    which must be positive for the battery to pass.

    With L = lcm(Lambda_P), q the lcm of the moment value denominators,
    m_P = L / Lambda_P and u_P = -phi_P * q (all integers), each sum is
    (sum_P m_P Gamma_P^a u_P^b) / (L q^b), so it is exact in integers.
    """
    n = data.n
    lambdas = [p.lambda_all for p in data.points]
    big_l = lcm(*lambdas)
    q = lcm(*(p.moment_value.denominator for p in data.points))
    m = [big_l // lam for lam in lambdas]
    u = [-p.moment_value.numerator * (q // p.moment_value.denominator) for p in data.points]
    gs = [p.gamma for p in data.points]

    failures = []
    c1_power = m  # m_P * Gamma_P^a
    for a in range(n):
        terms = c1_power  # m_P * Gamma_P^a * u_P^b
        for b in range(n - a):
            total = sum(terms)
            if total != 0:
                failures.append(BatteryFailure(a, b, Fraction(total, big_l * q**b)))
            terms = [t * x for t, x in zip(terms, u)]
        c1_power = [t * g for t, g in zip(c1_power, gs)]
    volume = Fraction(sum(mp * x**n for mp, x in zip(m, u)), big_l * q**n)
    return BatteryReport(n, tuple(failures), volume)
