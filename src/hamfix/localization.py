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

On the c1 line (condition D: Gamma_P = -C * phi(P) + d) the first Chern
class is C * [omega] + d * t, so the battery reduces exactly to its row
of powers of omega and costs O(n^2), not O(n^3) (see
``vanishing_battery``).  ``abbv_sum`` is the direct rational sum over
arbitrary restrictions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import FixedPointData, RatLike, _integer_moments, rat


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

    The row s_b = sum_P m_P u_P^b (b = 0..n) comes first.  If Gamma is
    affine in u (any slope; tested in integers), Gamma_P^a u_P^b is a
    polynomial in u_P of degree a + b < n, so every sum is a rational
    combination of s_0..s_{n-1}: when those vanish, so does every one.
    Otherwise every monomial is evaluated, so the report is the same.
    """
    n = data.n
    lambdas = [p.lambda_all for p in data.points]
    big_l = lcm(*lambdas)
    q, u = _integer_moments(data)
    u = [-x for x in u]
    m = [big_l // lam for lam in lambdas]
    gs = [p.gamma for p in data.points]

    row = [sum(m)]  # s_b = sum_P m_P * u_P^b
    terms = m
    for _ in range(n):
        terms = [t * x for t, x in zip(terms, u)]
        row.append(sum(terms))
    volume = Fraction(row[n], big_l * q**n)
    du, dg = u[1] - u[0], gs[1] - gs[0]
    if du and not any(row[:n]) and all((g - gs[0]) * du == dg * (x - u[0]) for g, x in zip(gs, u)):
        return BatteryReport(n, (), volume)

    failures = [BatteryFailure(0, b, Fraction(s, big_l * q**b)) for b, s in enumerate(row[:n]) if s]
    c1_power = m  # m_P * Gamma_P^a
    for a in range(1, n):
        c1_power = [t * g for t, g in zip(c1_power, gs)]
        terms = c1_power  # m_P * Gamma_P^a * u_P^b
        for b in range(n - a):
            total = sum(terms)
            if total != 0:
                failures.append(BatteryFailure(a, b, Fraction(total, big_l * q**b)))
            terms = [t * x for t, x in zip(terms, u)]
    return BatteryReport(n, tuple(failures), volume)
