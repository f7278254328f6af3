"""Fixed point localization sums and the vanishing battery.

For an equivariant class whose restriction to P is a_P * t^d, the
localization sum is  sum_P a_P / Lambda_P  with Lambda_P the product of
all weights at P (Atiyah-Bott 1984, Berline-Vergne 1982).  Classes of
degree 2d < 2n integrate to zero, so the sums over monomials in the two
canonical degree-2 classes (the equivariant first Chern class,
restricting to Gamma_P * t, and the equivariant symplectic class,
restricting to -phi(P) * t) must all vanish below the top degree; the
top power of the symplectic class gives the symplectic volume, which
must be positive.

With b_2 = 1 the first Chern class is C * [omega] + d * t, which is the
c1 line Gamma_P = -C * phi(P) + d (condition D).  On it every monomial
identity is a combination of the row of powers of omega, so the
battery is that row, O(n^2), summed over the one common denominator of
the moment values that hamfix builds, and only on the line; off it
condition D has already failed and the battery is not defined (see
``vanishing_battery``).  ``abbv_sum`` sums arbitrary restrictions directly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Iterable

from .cohomology import _affine_fit
from .core import FixedPointData, RatLike, rat
from .errors import StructureError


def abbv_sum(data: FixedPointData, coefficients: Iterable[RatLike]) -> Fraction:
    """Exact localization sum  sum_P a_P / Lambda_P.

    ``coefficients`` is any iterable of the restrictions a_P of one class
    in point order, one per fixed point; another count raises
    StructureError naming both counts.
    """
    values = tuple(coefficients)
    if len(values) != data.n + 1:
        raise StructureError(f"{len(values)} coefficients given for {data.n + 1} fixed points")
    return sum((rat(a) / p.lambda_all for p, a in zip(data.points, values)), Fraction(0))


BatteryFailure = namedtuple("BatteryFailure", "b value")
BatteryFailure.__doc__ = "A power b < n whose sum s_b = sum_P (-phi_P)^b / Lambda_P is ``value`` != 0."


class BatteryReport(namedtuple("BatteryReport", "n failures volume")):
    """The battery's failing powers, in increasing b, and the symplectic volume."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures and self.volume > 0


def vanishing_battery(data: FixedPointData) -> BatteryReport:
    """Evaluate the localization identities below the top degree.

    The battery is defined on the c1 line (condition D), tested by the
    ``_affine_fit`` that ``c1_coefficient`` uses: a zero weight raises
    StructureError, and data off the line raises that fit's
    NonConstantC1 or NonPositiveC1, with the text ``c1_coefficient``
    gives.  On the line Gamma_P = C * (-phi_P) + d, so every sum
    sum_P Gamma_P^a * (-phi_P)^b / Lambda_P with a + b < n is a rational
    combination of the row s_k = sum_P (-phi_P)^k / Lambda_P, k <= a + b:
    all of them vanish exactly when s_0..s_{n-1} do.  The failures are
    the powers b < n with s_b nonzero, in increasing b.  The report
    also carries the top value V = sum_P (-phi_P)^n / Lambda_P, the
    symplectic volume, which must be positive for the battery to pass.

    With L = lcm(Lambda_P), m_P = L / Lambda_P, q the lcm of the moment
    value denominators and u_P = q * phi_P, the row entry s_b is
    (sum_P m_P (-u_P)^b) / (L q^b), so it is exact in integers.  Once
    the fit has passed, q divides |Gamma_0 - Gamma_1| * lcm(den phi_0,
    den phi_1), as phi_P = phi_0 + (Gamma_0 - Gamma_P) / C on the line.
    """
    n = data.n
    lambdas = [p.lambda_all for p in data.points]  # StructureError on a zero weight
    _affine_fit(data)  # NonConstantC1 or NonPositiveC1 off the c1 line
    q = lcm(*(phi.denominator for phi in data.moment_values))
    u = [phi.numerator * (q // phi.denominator) for phi in data.moment_values]
    big_l = lcm(*lambdas)
    terms = [big_l // lam for lam in lambdas]  # m_P * (-u_P)^b
    row = [sum(terms)]
    for _ in range(n):
        terms = [-t * x for t, x in zip(terms, u)]
        row.append(sum(terms))
    failures = tuple(BatteryFailure(b, Fraction(s, big_l * q**b)) for b, s in enumerate(row[:n]) if s)
    return BatteryReport(n, failures, Fraction(row[n], big_l * q**n))
