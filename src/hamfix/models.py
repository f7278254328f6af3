"""Standard fixed point data: projective spaces and odd quadrics.

``cpn_model(b)`` is the diagonal circle action on CP^n with pairwise
distinct exponents b_i: P_i sits at moment value b_i and carries the
weights {b_j - b_i}.  ``quadric_model(b)`` is the rotation action on the
Grassmannian of oriented 2-planes in R^{n+2} (the smooth quadric in
CP^{n+1}), n odd: each parameter b_i produces an antipodal pair of fixed
points at moment values -b_i and b_i with weights
{b_j + b_i, -b_j + b_i}_{j != i} + {b_i}  and their negatives.

``expected_weights_cpn`` / ``expected_weights_quadric`` build, from the
moment values alone, the unique weight system a datum with the
corresponding cohomology ring must carry: all pairwise moment gaps, with
the antipodal gap halved in the quadric case.  These are the models'
weights, so the model constructors only check their parameters and
call ``expected_weights_*``: one construction path per ring.
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
    return expected_weights_cpn(bs)


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
    return expected_weights_quadric([-v for v in bs] + bs[::-1])


def expected_weights_cpn(phis: Sequence[int]) -> FixedPointData:
    """The weight system forced by a projective-space cohomology ring:
    P_i carries exactly the moment gaps {phi_j - phi_i : j != i}."""
    vals = _check_increasing_ints(phis)
    return FixedPointData.from_weights(
        vals, [[q - p for j, q in enumerate(vals) if j != i] for i, p in enumerate(vals)]
    )


def expected_weights_quadric(phis: Sequence[int]) -> FixedPointData:
    """The weight system forced by an odd-quadric cohomology ring:
    P_i carries the moment gaps to every non-antipodal point plus half
    the gap to its antipode P_{n-i}."""
    vals = _check_increasing_ints(phis)
    n = len(vals) - 1
    if n % 2 == 0:
        raise SpecMismatch(f"quadric weights require odd n, got {n}")
    if n < 3:
        raise StructureError(f"quadric weights require n >= 3, got {n}")
    for i in range(n + 1):
        if (vals[n - i] - vals[i]) % 2 != 0:
            raise SpecMismatch(
                f"moment gap phi(P_{n - i}) - phi(P_{i}) = {_show(vals[n - i] - vals[i])} "
                "is odd; its half-weight is not an integer"
            )
    weights = [
        [q - p for j, q in enumerate(vals) if j != i and j != n - i] + [(vals[n - i] - p) // 2]
        for i, p in enumerate(vals)
    ]
    return FixedPointData.from_weights(vals, weights)
