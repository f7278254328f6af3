"""Cohomology-ring and Chern-class invariants read off the fixed point data.

With b_2 = 1, the weight sums lie on one line Gamma_i = C*(-phi_i) + d:
C is the coefficient with c_1(M) = C*[omega], the common value of
(Gamma_i - Gamma_j)/(phi_j - phi_i) over all point pairs, and d is the
"condition D" offset; one affine fit gives both.  Each group H^{2i} is
freely generated by a class alpha_i expressible through the weights
alone:

    alpha_i = [Lambda_i^- / (Lambda_1^-)^i]
              * [(Gamma_1 - Gamma_0)^i / prod_{j<i} (Gamma_i - Gamma_j)]
              * (alpha_1)^i,

so the ring is captured by the rationals r_i with alpha_i = r_i * x^i,
x = alpha_1 = [omega].  CP^n and the odd quadric Q^n, the hypersurfaces of
degree d = 1 and 2 in CP^{n+1}, have r_i = 1 below degree (n+1)/2 and 1/d
from there on, c = (1+x)^{n+2} / (1+dx), c_1 = (n+2-d) x and volume d.

The Chern classes c_i(M) = gamma_i * x^i follow from the restrictions
sigma_i(weights at P_k) * t^i of the equivariant Chern classes by an
interpolation formula in the negative weights.  ``chern_coefficients``
proves the positive-weight one equal on data that passes the consistency
checks; on other data, ring and Chern results mean nothing.

Fixed point localization sums and the vanishing battery.

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

import enum
from collections import namedtuple
from fractions import Fraction
from math import comb, lcm, prod
from typing import Iterable

from .core import FixedPointData, RatLike, _show, rat
from .errors import HamfixError, NonConstantC1, NonPositiveC1, SpecMismatch, StructureError


class RingKind(enum.Enum):
    """The three kinds of target ring: projective space, odd quadric, other."""

    PROJECTIVE_SPACE = "ProjectiveSpace"
    QUADRIC = "Quadric"
    OTHER = "Other"

    def __str__(self) -> str:
        return self.value


_DEGREE = {RingKind.PROJECTIVE_SPACE: 1, RingKind.QUADRIC: 2}


class RingSpec(namedtuple("RingSpec", "kind n r")):
    """A target cohomology ring: projective space, odd quadric, or a bare
    r-sequence (a list or tuple) for anything else, its entries coerced
    with ``rat``.  A kind that is not a ``RingKind`` raises SpecMismatch."""

    __slots__ = ()

    def __new__(cls, kind: RingKind, n: int, r: tuple[Fraction, ...] | None = None):
        if not isinstance(kind, RingKind):
            raise SpecMismatch(f"ring kind must be a RingKind, got {_show(kind)}")
        if isinstance(n, bool) or not isinstance(n, int):
            raise SpecMismatch(f"n must be an integer, got {_show(n)}")
        if n < 1:
            raise SpecMismatch(f"n must be >= 1, got {_show(n)}")
        if kind is RingKind.QUADRIC and (n < 3 or n % 2 == 0):
            raise SpecMismatch(f"quadric ring requires odd n >= 3, got n = {_show(n)}")
        if kind is RingKind.OTHER:
            if r is not None and not isinstance(r, (list, tuple)):
                raise SpecMismatch(f"r-sequence must be a list or tuple, got {_show(r)}")
            if r is None or len(r) != n + 1:
                raise SpecMismatch("Other ring needs an explicit r-sequence of length n+1")
            r = tuple(rat(v) for v in r)
        elif r is not None:
            raise SpecMismatch(f"{kind} ring takes no explicit r-sequence")
        return super().__new__(cls, kind, n, r)

    # ``_replace`` builds through ``_make``, so that validates too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def r_sequence(self) -> tuple[Fraction, ...]:
        """The ratios r_0..r_n: an Other ring's own, else 1 then 1/d from degree (n+1)/2."""
        if self.kind is RingKind.OTHER:
            return self.r
        step = (self.n + 1) // 2
        return (Fraction(1),) * step + (Fraction(1, _DEGREE[self.kind]),) * (self.n + 1 - step)


class RingCoefficients(namedtuple("RingCoefficients", "r")):
    """The measured ratios r_i with alpha_i = r_i * x^i (r_0 = r_1 = 1)."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.r) - 1


class ChernData(namedtuple("ChernData", "sigma gamma")):
    """Per-point symmetric functions of the weights and the global
    coefficients gamma_i with c_i(M) = gamma_i * x^i.

    ``sigma[i][k]`` is the k-th elementary symmetric polynomial of the
    weights at P_i, i.e. the coefficient of the k-th equivariant Chern
    class restricted to P_i; sigma[i][0] = 1 and sigma[i][n] is the
    product of all weights there.  ``gamma`` lists gamma_1..gamma_n; for
    data with a consistent moment scale gamma_1 equals the c1 constant C.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.gamma)


def _affine_fit(data: FixedPointData) -> tuple[Fraction, Fraction]:
    """(C, d) with Gamma_i = C * (-phi_i) + d for all i, and C > 0.

    If every pair (0, j) gives the quotient C, the points lie on one
    line, so every pair with distinct moment values does too.  Errors
    name the first failing pair in lexicographic order.

    Each pair is compared in integers on its own numerators and
    denominators, phi = a/b in lowest terms: with run = (phi_1 - phi_0) *
    b_0 * b_1 and dist_j = (phi_j - phi_0) * b_0 * b_j, pair (0, j) gives
    pair (0, 1)'s C = rise * b_0 * b_1 / run, rise = Gamma_0 - Gamma_1,
    exactly when (Gamma_0 - Gamma_j) * run * b_j == rise * dist_j * b_1.
    Fractions are built only for (C, d) and for error messages.
    """
    gs = [p.gamma for p in data.points]
    phis = data.moment_values
    nums, dens = [phi.numerator for phi in phis], [phi.denominator for phi in phis]
    g0, a0, b0, b1 = gs[0], nums[0], dens[0], dens[1]
    rise, run = g0 - gs[1], nums[1] * b0 - a0 * b1
    for j in range(1, data.n + 1):
        dist = nums[j] * b0 - a0 * dens[j]
        if not dist:
            raise NonConstantC1(f"equal moment values at P_0 and P_{j}")
        if (g0 - gs[j]) * run * dens[j] != rise * dist * b1:
            c, cj = Fraction(rise * b0 * b1, run), (g0 - gs[j]) / (phis[j] - phis[0])
            raise NonConstantC1(f"pair (0,1) gives {_show(c)} but pair (0,{j}) gives {_show(cj)}")
    if len(set(zip(nums, dens))) <= data.n:
        i = next(i for i, phi in enumerate(phis) if phi in phis[i + 1 :])
        raise NonConstantC1(f"equal moment values at P_{i} and P_{phis.index(phis[i], i + 1)}")
    c = Fraction(rise * b0 * b1, run)
    if rise * run <= 0:
        raise NonPositiveC1(f"common c1 coefficient {_show(c)} is not positive")
    return c, Fraction(g0 * run + rise * a0 * b1, run)


def c1_coefficient(data: FixedPointData) -> Fraction:
    """The constant C with c_1(M) = C * [omega].

    C is (Gamma_i - Gamma_j) / (phi_j - phi_i) for ANY pair i != j; all
    pairs must agree and the common value must be positive, otherwise
    the datum cannot come from a Hamiltonian action with b_2 = 1.
    """
    return _affine_fit(data)[0]


def condition_d_offset(data: FixedPointData) -> Fraction:
    """The constant d with Gamma_i = C * (-phi_i) + d for all i; it
    exists exactly when ``c1_coefficient`` does."""
    return _affine_fit(data)[1]


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


def _distinct_gammas(data: FixedPointData) -> list[int]:
    gs = [p.gamma for p in data.points]
    seen: dict[int, int] = {}
    for i, g in enumerate(gs):
        if g in seen:
            raise HamfixError(f"Gamma_{seen[g]} = Gamma_{i} = {_show(g)}")
        seen[g] = i
    return gs


def ring_coefficients(data: FixedPointData) -> RingCoefficients:
    """Measure r_i = alpha_i / x^i from the weights.

    r_0 = r_1 = 1 identically;  for i >= 2

        r_i = Lambda_i^- * (Gamma_1 - Gamma_0)^i
              / [(Lambda_1^-)^i * prod_{j<i} (Gamma_i - Gamma_j)].

    Two points with equal Gamma make a denominator zero (HamfixError).
    """
    gs = _distinct_gammas(data)
    pts = data.points
    rise, lam1 = gs[1] - gs[0], pts[1].lambda_minus
    rise_i, lam1_i = rise, lam1  # (Gamma_1 - Gamma_0)^i and (Lambda_1^-)^i
    r = [Fraction(1), Fraction(1)]  # r_0 = r_1 = 1 by normalization
    for i in range(2, data.n + 1):
        rise_i *= rise
        lam1_i *= lam1
        den = lam1_i * prod(gs[i] - gs[j] for j in range(i))
        r.append(Fraction(pts[i].lambda_minus * rise_i, den))
    return RingCoefficients(tuple(r))


def _sigma_table(data: FixedPointData) -> tuple[tuple[int, ...], ...]:
    # Coefficients of prod_k (1 + w_k * t) give the elementary symmetric
    # polynomials of the weights.
    table = []
    for p in data.points:
        coeffs = [1] + [0] * data.n
        for deg, w in enumerate(p.weights, start=1):
            for k in range(deg, 0, -1):
                coeffs[k] += w * coeffs[k - 1]
        table.append(tuple(coeffs))
    return tuple(table)


def chern_coefficients(data: FixedPointData) -> ChernData:
    """Compute gamma_1..gamma_n with c_i(M) = gamma_i * x^i.

    c_i(M) = s_i * alpha_i, with s_i read off the negative weights:

        s_i = [prod_{j<i} (Gamma_i - Gamma_j) / Lambda_i^-]
              * sum_{k<=i} sigma_i(P_k) / prod_{j<=i, j!=k} (Gamma_k - Gamma_j).

    In gamma_i = s_i * r_i the factor before the sum cancels, so
    gamma_i = acc * (Gamma_1 - Gamma_0)^i / (den * (Lambda_1^-)^i), with
    acc / den the sum over its integer common denominator.  The products
    are kept running from i = 1 up, O(n^2) in all.

    The positive-weight formula gives the same s_i on data that passes
    ``consistency_checks``:

        s_i = [Lambda_i^+ / prod_{j>i} (Gamma_i - Gamma_j)]
              * sum_{k<=i} sigma_i(P_k) * prod_{j>i} (Gamma_k - Gamma_j) / Lambda_k,

    Lambda_k the product of all weights at P_k.  Proof: the Gammas are
    distinct; the battery makes sum_k phi_k^b / Lambda_k vanish for b < n,
    and that row's kernel is spanned by 1 / prod_{j!=k} (phi_k - phi_j),
    so with condition D, Lambda_k = K * prod_{j!=k} (Gamma_k - Gamma_j) for
    one K.  Each positive term is then sigma_i(P_k) / (K * prod_{j<=i, j!=k}
    (Gamma_k - Gamma_j)), and the two s_i differ by the factor
    Lambda_i^+ * Lambda_i^- / (K * prod_{j!=i} (Gamma_i - Gamma_j)) = 1.
    Elsewhere the result means nothing, as with ``ring_coefficients``.
    Equal Gammas raise HamfixError, and a zero weight StructureError.
    """
    n = data.n
    gs = _distinct_gammas(data)
    sigma = _sigma_table(data)
    for k, row in enumerate(sigma):
        if not row[n]:  # sigma_n(P_k) = Lambda_k
            raise StructureError(f"zero weight at point {k}")

    # lower[k] = prod_{j<=i, j!=k} (Gamma_k - Gamma_j), for k <= i.
    lower = [1]
    rise, lam1 = gs[1] - gs[0], data.points[1].lambda_minus
    rise_i, lam1_i = 1, 1  # (Gamma_1 - Gamma_0)^i and (Lambda_1^-)^i
    gammas: list[Fraction] = []
    for i in range(1, n + 1):
        g = gs[i]
        lower = [low * (gs[k] - g) for k, low in enumerate(lower)]
        lower.append(prod(g - gs[j] for j in range(i)))
        den = lcm(*lower)
        acc = sum(sigma[k][i] * (den // lower[k]) for k in range(i + 1))
        rise_i *= rise
        lam1_i *= lam1
        gammas.append(Fraction(acc * rise_i, den * lam1_i))

    return ChernData(sigma, tuple(gammas))


def classify_ring(rc: RingCoefficients) -> RingSpec:
    """Recognize the r-sequence as projective space, odd quadric, or other:
    the first model ring of dimension n whose ``r_sequence`` it equals."""
    for kind in _DEGREE:
        try:
            spec = RingSpec(kind, rc.n)
        except SpecMismatch:  # no model ring of this kind in dimension n
            continue
        if spec.r_sequence() == tuple(rc.r):
            return spec
    return RingSpec(RingKind.OTHER, rc.n, rc.r)


def reference_chern(kind: RingKind, n: int) -> tuple[int, ...]:
    """Total Chern class coefficients (degrees 1..n) of the model space of
    degree d: the series (1+x)^{n+2} / (1+dx), so c_0 = 1 and
    c_k = binomial(n+2, k) - d * c_{k-1}; for d = 1 it is (1+x)^{n+1}."""
    if kind not in (RingKind.PROJECTIVE_SPACE, RingKind.QUADRIC):
        raise SpecMismatch("no reference Chern series for an Other ring")
    d, c = _DEGREE[kind], [1]
    for k in range(1, n + 1):
        c.append(comb(n + 2, k) - d * c[-1])
    return tuple(c[1:])
