"""Standard fixed point data: projective spaces and odd quadrics.

``cpn_model(b)`` is the diagonal circle action on CP^n with pairwise
distinct exponents b_i, P_i at moment value b_i.  ``quadric_model(b)`` is
the rotation action on the Grassmannian of oriented 2-planes in R^{n+2}
(the smooth quadric in CP^{n+1}), n odd: each parameter b_i produces an
antipodal pair of fixed points at moment values -b_i and b_i.

Both are the standard action on the degree-d hypersurface of CP^{n+1}
(d = 1 for CP^n, 2 for Q^n), one formula: P_i carries its moment gaps
{phi_j - phi_i : j != i}, the gap to its antipode P_{n-i} divided by d.
``expected_weights_cpn`` / ``expected_weights_quadric`` build it from
moment values: the unique weight system a datum with that ring carries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import FixedPointData, _show
from .errors import SpecMismatch, StructureError


def _ints(values: Iterable[int], what: str, error: type = SpecMismatch) -> list[int]:
    try:
        out = list(values)
    except TypeError:
        raise error(f"{what} must be a sequence of integers, got {_show(values)}") from None
    for v in out:
        if isinstance(v, bool) or not isinstance(v, int):
            raise error(f"{what} must be integers, got {_show(v)}")
    return out


def _check_increasing_ints(phis: Sequence[int]) -> list[int]:
    out = _ints(phis, "moment values")
    for a, b in zip(out, out[1:]):
        if b <= a:
            raise SpecMismatch(
                f"moment values must be strictly increasing: {_show(a)} then {_show(b)}"
            )
    if len(out) < 2:
        raise SpecMismatch("need at least two moment values")
    return out


def _standard(vals: Sequence[int], d: int) -> FixedPointData:
    """The standard action at increasing ints ``vals``: P_i's moment gaps,
    the gap to its antipode P_{n-i} over d, which must divide it."""
    n = len(vals) - 1
    weights = [[q - p for j, q in enumerate(vals) if j != i] for i, p in enumerate(vals)]
    if d > 1:
        for i, ws in enumerate(weights):
            gap = vals[n - i] - vals[i]
            if gap % d:
                shown = f"phi(P_{n - i}) - phi(P_{i}) = {_show(gap)}"
                raise SpecMismatch(f"moment gap {shown} is odd; its half-weight is not an integer")
            ws[n - i - (n - i > i)] = gap // d  # P_{n-i}'s slot once P_i's own is skipped
    return FixedPointData.from_weights(vals, weights)


def cpn_model(b: Sequence[int]) -> FixedPointData:
    """Projective space fixed point data for exponents ``b``.

    ``b`` (distinct ints, not bools) is sorted ascending first; P_i then
    has moment value b_i and weights {b_j - b_i : j != i}.
    """
    given = _ints(b, "exponents")
    bs = sorted(given)
    if len(set(bs)) != len(bs):
        shown = ", ".join(map(_show, given))
        raise SpecMismatch(f"exponents must be pairwise distinct, got [{shown}]")
    if len(bs) < 2:
        raise StructureError("need at least two exponents")
    return _standard(bs, 1)


def quadric_model(b: Sequence[int]) -> FixedPointData:
    """Oriented 2-plane Grassmannian data for rotation exponents ``b``.

    ``b`` holds (n+1)/2 nonzero ints (not bools) with pairwise distinct
    absolute values; signs are absorbed (reorienting a plane) and the
    values are used as b_0 > b_1 > ... > 0, which lists the moment values
    -b_0 < ... < -b_last < b_last < ... < b_0 in increasing order.
    """
    given = _ints(b, "exponents")
    if 0 in given:
        raise SpecMismatch("exponents must be nonzero")
    bs = sorted((abs(v) for v in given), reverse=True)
    if len(set(bs)) != len(bs):
        shown = ", ".join(map(_show, given))
        raise SpecMismatch(f"exponents must have distinct absolute values, got [{shown}]")
    if len(bs) < 2:
        raise StructureError("need at least two exponents")
    return _standard([-v for v in bs] + bs[::-1], 2)


def expected_weights_cpn(phis: Sequence[int]) -> FixedPointData:
    """The weight system forced by a projective-space cohomology ring: the
    standard action (module docstring) at ``phis`` with d = 1."""
    return _standard(_check_increasing_ints(phis), 1)


def expected_weights_quadric(phis: Sequence[int]) -> FixedPointData:
    """The weight system forced by an odd-quadric cohomology ring: the
    standard action (module docstring) at ``phis`` with d = 2."""
    vals = _check_increasing_ints(phis)
    n = len(vals) - 1
    if n % 2 == 0:
        raise SpecMismatch(f"quadric weights require odd n, got {n}")
    if n < 3:
        raise StructureError(f"quadric weights require n >= 3, got {n}")
    return _standard(vals, 2)
