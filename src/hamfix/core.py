"""Exact fixed point data of a Hamiltonian circle action and its validation.

A compact Hamiltonian circle manifold of dimension 2n with the minimal
number n+1 of isolated fixed points is recorded purely combinatorially:
each fixed point P_i carries a moment value phi(P_i) and the multiset of
n nonzero integer weights of the circle representation on its tangent
space.  All arithmetic is exact: moment values are ``fractions.Fraction``
(the canonical-form rational scalar used throughout the package) and
weights are arbitrary-precision ints.  No floats appear anywhere.

A structurally well-formed datum (right counts everywhere) may still be
geometrically impossible; ``validate`` reports every violated rule
instead of raising, so a single pass can name all problems in a file.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence, Union

from .errors import ParseError, StructureError

RatLike = Union[int, Fraction, str]

# "<mantissa>e<exponent>" as Fraction reads it, with trailing space.
_EXPONENT = re.compile(r"(.*)e([-+]?\d+(?:_\d+)*)(\s*)", re.IGNORECASE | re.DOTALL)


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational.

    An exact ``Fraction`` is returned itself; a malformed string raises ``ParseError``.

    >>> rat("3/2")
    Fraction(3, 2)
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {_show(value)} as an exact rational")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    digits = value[1:] if value[:1] == "-" else value
    if digits.isdigit() and digits.isascii() and (not limit or len(digits) <= limit):
        return Fraction(int(value))  # a plain integer, as Fraction reads it
    try:
        # With no limit set, the interpreter's default bounds the exponent.
        bound = limit or getattr(sys.int_info, "default_max_str_digits", 4300)
        m = _EXPONENT.fullmatch(value)
        # |exponent|'s digits; more than the bound are past it unconverted.
        e = m[2].lstrip("+-").replace("_", "").lstrip("0") if m else ""
        if m and (len(e) > bound or int(e or "0") > bound + len(m[1])):
            # Fraction would build 10**|exponent|; past this bound the value
            # is 0 or passes the bound, so read it with exponent 0 first.
            try:
                if Fraction(f"{m[1]}e0{m[3]}") == 0:
                    return Fraction(0)
                shown = m[2] if len(m[2]) <= bound else f"{'-' * (m[2][0] == '-')}<{len(e)} digits>"
                raise ParseError("", f"exponent {shown} exceeds the {bound}-digit limit")
            except ValueError:  # then Fraction(value) fails too, at once
                pass
        out = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        why = str(exc).replace(repr(value), _show(value))  # Fraction writes the literal whole
        raise ParseError("", f"not a rational \"p/q\" string: {why}") from None
    big = max(abs(out.numerator), out.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise ParseError("", f"numerator or denominator past the {limit}-digit limit")
    return out


# A caller's text longer than this is shown as its beginning and its length.
_TEXT_BOUND = 200


def _clip(text: str) -> str:
    """``text``, or past ``_TEXT_BOUND`` characters its beginning and its
    length, such as ``'xxx... <1000002 characters>``."""
    return text if len(text) <= _TEXT_BOUND else f"{text[:_TEXT_BOUND]}... <{len(text)} characters>"


def _show(value: object) -> str:
    """An int or Fraction as ``str`` writes it and any other value as
    ``repr`` does, but past the interpreter's digit limit an integer part
    as a placeholder that names its size, such as ``<4301 digits>``, a list
    or tuple item by item, and any other value as its type, such as
    ``<dict past the digit limit>``.  A non-number's text is cut by ``_clip``."""
    if not isinstance(value, (list, tuple)):
        return _shown(value)
    try:
        return _clip(repr(value))
    except ValueError:  # the digit limit
        left, right = "[]" if isinstance(value, list) else "()"
        return _clip(left + ", ".join(map(_shown, value)) + right)


def _shown(value: object) -> str:
    """``_show`` of one value: a list or tuple past the limit shows its type."""
    number = isinstance(value, (int, Fraction))
    try:
        return str(value) if number else _clip(repr(value))
    except ValueError:  # the digit limit
        if not number:
            return f"<{type(value).__name__} past the digit limit>"
    texts = []
    for part in (value.numerator, value.denominator):
        try:
            texts.append(str(part))
        except ValueError:
            size = abs(part)
            digits = (size.bit_length() - 1) * 301029995 // 10**9 + 1  # 0.301029995 < log10(2)
            while size >= 10**digits:
                digits += 1
            texts.append(f"{'-' if part < 0 else ''}<{digits} digits>")
    return texts[0] if value.denominator == 1 else "/".join(texts)


def _past_digit_limit(what: str) -> str:
    """Why ``what`` cannot be written out: an integer past the digit limit."""
    limit = sys.get_int_max_str_digits()  # str() fails only under a limit
    return f"{what} holds an integer past the {limit}-digit limit; set PYTHONINTMAXSTRDIGITS"


class FixedPoint(namedtuple("FixedPoint", "index moment_value weights")):
    """One isolated fixed point: position, moment value, weight multiset.

    The moment value is coerced with ``rat`` here and nowhere else.
    Weights are stored sorted ascending so equal multisets compare equal.
    Gamma_P and the Lambda_P products are computed on access, so a point
    with a zero weight still builds and ``validate`` can report it.
    """

    __slots__ = ()

    def __new__(cls, index: int, moment_value: RatLike, weights: Iterable[int]):
        if isinstance(index, bool) or not isinstance(index, int):
            raise StructureError(f"point index must be an integer, got {_show(index)}")
        moment_value = rat(moment_value)
        weights = tuple(weights)  # a one-shot iterable is read once
        for w in weights:
            if type(w) is not int and (isinstance(w, bool) or not isinstance(w, int)):
                raise StructureError(f"weight {_show(w)} at point {_show(index)} is not an integer")
        return super().__new__(cls, index, moment_value, tuple(sorted(weights)))

    # ``_replace`` builds through ``_make``, so that validates too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def negative_count(self) -> int:
        return sum(1 for w in self.weights if w < 0)

    @property
    def gamma(self) -> int:
        """Gamma_P: the sum of the weights."""
        return sum(self.weights)

    @property
    def lambda_all(self) -> int:
        """Lambda_P: the product of all weights; StructureError if one is zero."""
        if 0 in self.weights:
            raise StructureError(f"zero weight at point {self.index}")
        return prod(self.weights)

    @property
    def lambda_minus(self) -> int:
        """Lambda_P^-: the product of the negative weights (1 if there are none)."""
        return prod(w for w in self.weights if w < 0)

    @property
    def lambda_plus(self) -> int:
        """Lambda_P^+: the product of the positive weights (1 if there are none)."""
        return prod(w for w in self.weights if w > 0)


class FixedPointData(namedtuple("FixedPointData", "n points")):
    """n plus the ordered list of n+1 fixed points.

    Construction enforces only structure: n >= 1, exactly n+1 FixedPoints
    with indices 0..n, and n weights per point.  Everything value-level
    (monotone moments, integral gaps, nonzero weights, Morse counts) is
    the job of ``validate``.
    """

    __slots__ = ()

    def __new__(cls, n: int, points: Iterable[FixedPoint]):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise StructureError(f"n must be a positive integer, got {_show(n)}")
        pts = tuple(points)
        if len(pts) != n + 1:
            raise StructureError(f"expected {_show(n + 1)} points, got {len(pts)}")
        for i, p in enumerate(pts):
            if not isinstance(p, FixedPoint):
                raise StructureError(f"point at position {i} is not a FixedPoint: {_show(p)}")
            if p.index != i:
                raise StructureError(f"point at position {i} has index {_show(p.index)}")
            if len(p.weights) != n:
                raise StructureError(f"point {i} has {len(p.weights)} weights, expected {n}")
        return super().__new__(cls, n, pts)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_weights(
        cls,
        moment_values: Sequence[RatLike],
        weights: Sequence[Iterable[int]],
    ) -> "FixedPointData":
        """Build data from parallel lists of moment values and weight lists.

        This is the one place ``hamfix`` builds fixed point data: models,
        documents and ``translated`` all come through here.
        """
        if len(moment_values) != len(weights):
            raise StructureError("moment values and weight lists differ in length")
        n = len(moment_values) - 1
        pts = tuple(
            FixedPoint(i, phi, tuple(ws))
            for i, (phi, ws) in enumerate(zip(moment_values, weights))
        )
        return cls(n, pts)

    @property
    def moment_values(self) -> tuple[Fraction, ...]:
        return tuple(p.moment_value for p in self.points)

    def translated(self, c: RatLike) -> "FixedPointData":
        """The same datum with every moment value shifted by ``c``."""
        shift = rat(c)
        return self.from_weights(
            [p.moment_value + shift for p in self.points], [p.weights for p in self.points]
        )

    def normalized(self) -> "FixedPointData":
        """Translate so the smallest moment value is 0."""
        return self.translated(-self.points[0].moment_value)


Violation = namedtuple("Violation", "rule point message")
Violation.__doc__ = "One broken ``validate`` rule, at the point it names, with its message."


class ValidationReport(namedtuple("ValidationReport", "violations")):
    """Every ``Violation`` found by ``validate``, in rule order; empty if valid."""

    __slots__ = ()

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def messages(self) -> list[str]:
        return [v.message for v in self.violations]


def validate(data: FixedPointData, *, require_integral_differences: bool = True) -> ValidationReport:
    """Check every consistency rule a genuine circle action must satisfy.

    Rules, each reported independently:

    * moment values strictly increasing along the point order;
    * all pairwise moment differences are integers (the symplectic class
      is normalized to be primitive integral; disable with
      ``require_integral_differences=False`` for exploratory input);
    * no weight is zero;
    * P_i has exactly i negative weights (Morse index 2i).

    Violations are collected, never raised, one per fault; an empty
    report means valid.
    """
    found: list[Violation] = []
    phis = data.moment_values

    for i in range(1, data.n + 1):
        if phis[i] <= phis[i - 1]:
            found.append(
                Violation(
                    "monotone-moments",
                    i,
                    "moment values not strictly increasing: "
                    f"phi(P_{i - 1}) = {_show(phis[i - 1])} vs phi(P_{i}) = {_show(phis[i])}",
                )
            )

    if require_integral_differences:
        # Consecutive integrality implies it for all pairs.
        for i in range(1, data.n + 1):
            diff = phis[i] - phis[i - 1]
            if diff.denominator != 1:
                found.append(
                    Violation(
                        "integral-differences",
                        i,
                        f"moment difference phi(P_{i}) - phi(P_{i - 1}) = {_show(diff)} "
                        "is not an integer",
                    )
                )

    for p in data.points:
        if 0 in p.weights:
            found.append(Violation("nonzero-weights", p.index, f"zero weight at point {p.index}"))

    for p in data.points:
        k = p.negative_count
        if k != p.index:
            found.append(
                Violation(
                    "negative-count",
                    p.index,
                    f"negative-weight count at P_{p.index} is {k}, expected {p.index}",
                )
            )

    return ValidationReport(tuple(found))
