"""Deduce weight systems from a prescribed cohomology ring.

Given a target ring and the moment values, the product of the negative
weights at each point is pinned down exactly:

    Lambda_i^-  =  r_i * prod_{j<i} (phi_j - phi_i),

with r the ring's generator ratios (1, then 1/d from degree (n+1)/2 on,
d = 1 for projective space and 2 for the odd quadric).  The search runs on the
paired-sphere ansatz: every negative weight at P_i belongs to an
invariant gradient sphere down to exactly one lower point P_j, the
weight divides the moment gap phi_i - phi_j, and the matching positive
weight at P_j is forced.  For the projective-space and quadric rings
this ansatz is a theorem; for other rings it can genuinely fail (a
6-dimensional example with ring Z[x,y]/(x^2-5y, y^2) has no sphere
joining P_0 and P_2 at all), so results for those rings are a filter,
never a uniqueness claim.  ``enumerate_weight_systems`` describes the
search, its budget, and why it needs no check once a system is placed.

``consistency_checks`` is the one verdict on whether data is genuine
fixed point data; the CLI and ``infer_moment_values`` use it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Sequence

from .cohomology import (
    _DEGREE,
    RingKind,
    RingSpec,
    c1_coefficient,
    chern_coefficients,
    classify_ring,
    condition_d_offset,
    reference_chern,
    ring_coefficients,
    vanishing_battery,
)
from .core import FixedPointData, _show, validate
from .errors import (
    HamfixError,
    InconsistentGamma,
    SearchBudgetExceeded,
    SpecMismatch,
    StructureError,
)
from .models import _check_increasing_ints, _ints, _standard

DEFAULT_BUDGET = 200_000


def _checked_phis(spec: RingSpec, phis: Sequence[int]) -> list[int]:
    if len(phis) != spec.n + 1:
        raise SpecMismatch(f"ring has n = {_show(spec.n)} but {len(phis)} moment values were given")
    return _check_increasing_ints(phis)


# Miller-Rabin on the primes up to 41 is exact below the least strong
# pseudoprime to all of them (the primes up to 37 alone fail at
# 318,665,857,834,031,151,167,461).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(m: int) -> bool:
    """Whether m is a prime below ``_MR_BOUND`` (False from the bound on)."""
    if m >= _MR_BOUND or m < 2 or any(m % a == 0 for a in _MR_BASES):
        return m in _MR_BASES
    s = ((m - 1) & -(m - 1)).bit_length() - 1  # m - 1 = d * 2^s, d odd
    for a in _MR_BASES:
        x = pow(a, (m - 1) >> s, m)
        if x == 1:
            continue
        for _ in range(s):
            if x == m - 1:
                break
            x = x * x % m
        else:
            return False
    return True


def _divisors(m: int) -> list[int]:
    """The divisors of m in ascending order: [1, m] at once for a prime
    below ``_MR_BOUND``, else by trial division up to sqrt(m)."""
    assert m > 0
    if _is_prime(m):
        return [1, m]
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _negative_assignments(
    gaps: Sequence[int], cofactor: int, budget: int, divisors: dict[int, list[int]]
) -> list[tuple[int, ...]]:
    """All tuples (w_0..w_{k-1}) of negative integers w_j = gaps[j] / m_j
    (every gap negative) whose positive integers m_j multiply to
    ``cofactor``, in ascending lexicographic order of (|w_0|, .., |w_{k-1}|).

    For P_i's bucket of last weight w the gaps are P_i's first i - 1 and
    the cofactor is 1 / r_i over w's factor.  Each slot takes m_j from the
    divisors of gcd(what is left of the cofactor, |gaps[j]|), in
    descending order (ascending |w_j|).  Once the cofactor left is 1
    every later slot takes its own gap, and the last slot, if any, takes
    its gap over what is left if that divides.  So the work depends on the cofactor, not on the size of the
    gaps: one result and no divisor listing for projective space, one
    halved even gap for the quadric.  ``divisors`` maps a positive int to
    its ``_divisors``; the caller passes one dict to every call of a
    search, and missing keys are added.
    """
    k = len(gaps)
    results: list[tuple[int, ...]] = []
    # (the weights of slots 0..j-1, cofactor still to place).  Children are
    # pushed in ascending m, so they pop in descending m: ascending |w|.
    stack = [((), cofactor)]
    while stack:
        head, remaining = stack.pop()
        j = len(head)
        if remaining == 1:
            head += tuple(gaps[j:])
        elif j < k - 1:
            gap = gaps[j]
            key = gcd(remaining, gap)
            if key not in divisors:
                divisors[key] = _divisors(key)
            stack += [(head + (gap // d,), remaining // d) for d in divisors[key]]
            continue
        elif j < k and gaps[j] % remaining == 0:  # the last slot takes what is left
            head += (gaps[j] // remaining,)
        else:
            continue
        results.append(head)
        if len(results) > budget:
            raise SearchBudgetExceeded(f"more than {_show(budget)} weight assignments at one point")
    return results


def _assemble(
    phis: Sequence[int], combo: Sequence[tuple[int, ...]], n: int
) -> FixedPointData:
    # combo[i-1] maps each lower point j to the negative weight of the
    # sphere from P_i down to P_j; the sphere's positive pole forces the
    # mirrored weight at P_j.
    weights: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        assignment = combo[i - 1]
        weights[i].extend(assignment)
        for j, w in enumerate(assignment):
            weights[j].append(-w)
    return FixedPointData.from_weights(phis, weights)


Check = namedtuple("Check", "name passed detail")
Check.__doc__ = """One named verdict and its reason: a consistency check or an
implication of ``verify_equivalence``."""


def consistency_checks(
    data: FixedPointData, *, require_integral_differences: bool = True
) -> tuple[Check, ...]:
    """The checks genuine fixed point data passes, in order: validate,
    the c1 coefficient, the condition-D offset and the vanishing battery.

    When validate fails the other three are not run (their formulas
    assume valid data) and fail with "not run: validation failed"; when
    the c1 line does not exist the battery, which is defined on it, fails
    with "not run: condition D failed".
    ``require_integral_differences`` is passed to ``validate``.
    """
    report = validate(data, require_integral_differences=require_integral_differences)
    checks = [Check("validate", report.is_valid, "; ".join(report.messages()))]
    if not report.is_valid:
        for name in ("c1-coefficient", "condition-d", "vanishing-battery"):
            checks.append(Check(name, False, "not run: validation failed"))
        return tuple(checks)
    try:
        c, d = _show(c1_coefficient(data)), _show(condition_d_offset(data))
    except HamfixError as exc:
        checks += [Check(name, False, str(exc)) for name in ("c1-coefficient", "condition-d")]
        checks.append(Check("vanishing-battery", False, "not run: condition D failed"))
        return tuple(checks)
    checks += [Check("c1-coefficient", True, f"C = {c}"), Check("condition-d", True, f"d = {d}")]
    battery = vanishing_battery(data)
    detail = f"volume = {_show(battery.volume)}"
    if battery.failures:
        powers = ", ".join(str(f.b) for f in battery.failures)
        detail = f"non-vanishing powers {powers}; {detail}"
    checks.append(Check("vanishing-battery", battery.passed, detail))
    return tuple(checks)


def enumerate_weight_systems(
    spec: RingSpec, phis: Sequence[int], *, budget: int | None = None
) -> list[FixedPointData]:
    """All fixed point data consistent with the paired-sphere ansatz.

    For each point P_i the i negative weights are assigned bijectively
    to the points below, each dividing its moment gap; positive weights
    are the forced mirrors.  The ring's x^i is alpha_i / r_i, so 1 / r_i
    is a positive integer, P_i's cofactor: the weights at P_i divide
    their gaps by factors that multiply to it, and the positive weights
    at P_i divide theirs by factors that multiply to 1 / r_{n-i}, so no
    product of gaps is formed.  Points are placed depth first from P_n
    down to P_1, on a stack that holds only the placed assignments.
    Every weight is paired (-w at P_i, +w at P_j), so sum_i Gamma_i = 0,
    and on the c1 line Gamma_i = Gamma_n + C * (phi_n - phi_i) that
    fixes C = -(n+1) * Gamma_n / span, span = sum_i (phi_n - phi_i) > 0,
    once P_n is placed.  Placing P_i forces its weight w to P_{i-1},
    whose cofactor it completes, and for i < n its weight sum.  P_i's
    assignments ending in w are one bucket, searched when a placement
    first reads it and kept for the call: m = (phi_{i-1} - phi_i) / w
    must be an integer dividing 1 / r_i, and ``_negative_assignments``
    splits (1 / r_i) / m over the other i - 1 gaps, at a cost set by the
    cofactors, not by the size of the gaps.  w, their gap over what is
    left of P_{i-1}'s cofactor, is read by floor division: if it is not
    an integer, the floor makes |w| too large and P_{i-1}'s positive
    factors multiply to less than 1 / r_{n-i+1}.  But each sphere's
    factor counts once at each pole and each point's negative factors
    multiply to its cofactor, so on a full placement the positive
    factors multiply to prod_i 1 / r_i = prod_i 1 / r_{n-i}, and no
    point is short.  The one cut is a line's Gamma_i that is not an
    integer.  Gamma_n < 0 (P_n's weights are all negative), so C > 0.
    The line's values sum to (n+1) * Gamma_n + C * span = 0, as the
    Gamma_i do, so Gamma_1..Gamma_n on it put Gamma_0 on it too.  A full
    placement so passes ``validate`` and condition D by construction,
    and its Lambda_i is r_i * r_{n-i} * prod_{j!=i} (phi_j - phi_i).  On
    that line the battery is the row sum_i phi_i^b / Lambda_i (b < n),
    whose kernel is spanned by 1 / prod_{j!=i} (phi_i - phi_j); so it
    passes, with volume 1 / r_n, exactly when r_i * r_{n-i} = r_n for
    every i (Poincare duality).  A ring without duality, or with a
    1 / r_i that is not an integer, returns [] before any search, and
    nothing is checked after assembly.  The result is deduplicated and
    sorted by flattened weight lists.

    An Other ring must have r_0 = r_1 = 1 and every r_i > 0, as every
    genuine ring does; otherwise SpecMismatch names the first bad entry.

    ``budget`` (a nonnegative int, default 200000; ``--budget`` on the
    command line) caps the assignments one bucket search finds and the
    assignments placed in all; exceeding either raises
    SearchBudgetExceeded rather than truncating.
    """
    vals = _checked_phis(spec, phis)
    n = spec.n
    if budget is None:
        budget = DEFAULT_BUDGET
    elif isinstance(budget, bool) or not isinstance(budget, int):
        raise SpecMismatch(f"budget must be an integer, got {_show(budget)}")
    elif budget < 0:
        raise SpecMismatch(f"budget must be nonnegative, got {_show(budget)}")
    r = spec.r_sequence()
    if spec.kind is RingKind.OTHER:
        # alpha_0 = 1 and alpha_1 = x, and Lambda_i^- has the sign of the
        # gap product, so every genuine ring has r_0 = r_1 = 1 and r_i > 0.
        for i, v in enumerate(r):
            if v <= 0 or (i < 2 and v != 1):
                need = "1" if i < 2 else "positive"
                raise SpecMismatch(f"r-sequence entry r_{i} must be {need}, got {_show(v)}")

    # x^i = alpha_i / r_i with alpha_i a generator of H^{2i}(M; Z), so
    # 1 / r_i is an integer: the point's cofactor, or None (no assignment).
    cofactors = [v.denominator if v.numerator == 1 else None for v in r]
    if None in cofactors or any(a * b != cofactors[n] for a, b in zip(cofactors, cofactors[::-1])):
        return []
    span = sum(vals[n] - v for v in vals)
    # The buckets of one call share their cofactor-gap gcds, so each
    # distinct gcd's divisors are listed once per call.
    divisors: dict[int, list[int]] = {}
    # (i, w) -> P_i's assignments ending in w, by weight sum below P_n.
    buckets: dict[tuple[int, int], dict] = {}
    placements = 0
    found: set[FixedPointData] = set()
    # (i, the assignments of P_{i+1}..P_n).  A bucket is pushed in
    # reverse, so it pops in the search's order.
    stack = [(n, ())]
    while stack:
        i, placed = stack.pop()
        if i == 0:
            found.add(_assemble(vals, placed, n))
            continue
        # P_{i-1}'s positive weights so far divide their gaps by `used`;
        # P_i's weight to P_{i-1} divides theirs by the rest of 1 / r_{n-i+1}.
        low, gap = vals[i - 1], vals[i - 1] - vals[i]
        used = prod([(low - v) // a[i - 1] for v, a in zip(vals[i + 1 :], placed)])
        w = gap * used // cofactors[n - i + 1]
        total = None  # P_n's weight sum is free
        if i < n:
            # Gamma_i = Gamma_n + C * (phi_n - phi_i), C = -(n + 1) * Gamma_n
            # / span; P_i's positive weights so far sum to -sum(a[i]).
            gamma_n = sum(placed[-1])
            offset, rest = divmod(-(n + 1) * gamma_n * (vals[n] - vals[i]), span)
            if rest:
                continue
            total = gamma_n + offset + sum([a[i] for a in placed])
        bucket = buckets.get((i, w))
        if bucket is None:
            bucket = buckets[i, w] = {}
            m, off = divmod(gap, w)
            if not off and cofactors[i] % m == 0:
                gaps = [v - vals[i] for v in vals[: i - 1]]
                for a in _negative_assignments(gaps, cofactors[i] // m, budget, divisors):
                    bucket.setdefault(sum(a) + w if i < n else None, []).append(a + (w,))
        children = bucket.get(total, ())
        placements += len(children)
        if placements > budget:
            raise SearchBudgetExceeded(f"more than {_show(budget)} weight assignments placed")
        stack += [(i - 1, (a,) + placed) for a in reversed(children)]
    return sorted(found)


class EquivalenceReport(namedtuple("EquivalenceReport", "spec lines system_count")):
    """The ring, one ``Check`` per implication, and how many systems the search found."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)


def verify_equivalence(
    spec: RingSpec, phis: Sequence[int], *, budget: int | None = None
) -> EquivalenceReport:
    """Check the four ring/Chern/weight equivalences on one instance.

    (2)=>(4): the search returns exactly one weight system and it equals
    the standard one built from the moment values; (4)=>(2): that
    system's measured ring classifies back to the requested ring;
    (4)=>(3): its Chern coefficients match the reference series;
    (4)=>(1): its c1 coefficient is the degree-1 term of that series,
    n + 2 - d (n+1 for CP^n, n for Q^n).  A standard system that cannot
    be built, or that fails ``consistency_checks`` (its ring and Chern
    classes would mean nothing), fails every line with the reason; one
    that passes them is always measurable.  ``budget`` is passed to
    ``enumerate_weight_systems``.
    """
    if spec.kind is RingKind.OTHER:
        raise SpecMismatch("equivalence verification is defined for the model rings only")
    systems = enumerate_weight_systems(spec, phis, budget=budget)
    count, names = len(systems), ("(2)=>(4)", "(4)=>(2)", "(4)=>(3)", "(4)=>(1)")
    try:
        standard = _standard(phis, _DEGREE[spec.kind])  # the search checked phis
    except HamfixError as exc:
        reason = f"not constructible: {exc}"
    else:
        found = standard in systems
        # Every system the search returns passes the checks; this one may not.
        checks = () if found else consistency_checks(standard)
        reason = next((f"fails {c.name}: {c.detail}" for c in checks if not c.passed), "")
    if reason:
        lines = tuple(Check(name, False, f"standard weight system {reason}") for name in names)
        return EquivalenceReport(spec, lines, count)
    reference = reference_chern(spec.kind, spec.n)
    measured = classify_ring(ring_coefficients(standard))
    gamma = chern_coefficients(standard).gamma
    c, c_ref = c1_coefficient(standard), reference[0]  # c1 is the degree-1 term of the series
    same = f"unique weight system {'matches' if found else 'differs from'} the standard model"
    c1 = f", expected {c_ref}" if c != c_ref else " = n+1" if c == spec.n + 1 else " = n"
    verdicts = (
        (count == 1 and found, same if count == 1 else f"{count} consistent weight systems found"),
        (measured == spec, f"measured ring classifies as {measured.kind}"),
        (gamma == reference, f"Chern coefficients {', '.join(map(_show, gamma))}"),
        (c == c_ref, f"C = {_show(c)}{c1}"),
    )
    lines = tuple(Check(name, *verdict) for name, verdict in zip(names, verdicts))
    return EquivalenceReport(spec, lines, count)


def infer_moment_values(weight_multisets: Sequence[Iterable[int]]) -> list[Fraction]:
    """Recover moment values (with phi(P_0) = 0) from bare weight multisets.

    The multisets are ordered by decreasing weight sum Gamma; the affine
    relation Gamma_i = -C*phi_i + d then determines phi up to the scale
    C.  Matching the measured product of negative weights at P_2 against
    r_2 * (phi_0 - phi_2)(phi_1 - phi_2), with r_2 read off the same
    weights, collapses algebraically to C = (Gamma_0 - Gamma_1) / |w|
    where w is the single negative weight at P_1.

    The multisets at the inferred moment values must then pass every
    ``consistency_checks`` check; otherwise InconsistentGamma names the
    first failing check and its detail, as it names a non-int weight.
    """
    multisets = [tuple(sorted(_ints(ws, "weights", InconsistentGamma))) for ws in weight_multisets]
    n = len(multisets) - 1
    if n < 1:
        raise InconsistentGamma("need at least two weight multisets")
    for ws in multisets:
        if len(ws) != n:
            raise InconsistentGamma(
                f"every multiset must have {n} weights, got {len(ws)}"
            )

    ordered = sorted(multisets, key=lambda ws: (-sum(ws), ws))
    gammas = [sum(ws) for ws in ordered]
    for i in range(n):
        if gammas[i] == gammas[i + 1]:
            raise InconsistentGamma(
                f"two multisets share the weight sum {_show(gammas[i])}; "
                "no strictly monotone moment assignment exists"
            )
    for i, ws in enumerate(ordered):
        k = sum(1 for w in ws if w < 0)
        if k != i:
            raise InconsistentGamma(
                f"multiset ranked {i} by weight sum has {k} negative weights, expected {i}"
            )

    # C > 0: Gamma_0 > Gamma_1 (sorted, no ties) and lam1 < 0.
    lam1 = next(w for w in ordered[1] if w < 0)
    c = Fraction(gammas[0] - gammas[1], -lam1)
    phis = [Fraction(gammas[0] - g) / c for g in gammas]
    data = FixedPointData.from_weights(phis, ordered)
    for check in consistency_checks(data):
        if not check.passed:
            raise InconsistentGamma(
                f"inferred moment values fail {check.name}: {check.detail}"
            )
    return phis


SphereEdge = namedtuple("SphereEdge", "lower upper weight paired")
SphereEdge.__doc__ = """A gradient-sphere edge between P_lower and P_upper carrying |w|;
-w is a weight at the upper point and, if paired, +w at the lower."""

AmbiguousWeight = namedtuple("AmbiguousWeight", "point weight candidates")
AmbiguousWeight.__doc__ = "A weight left unmatched with no unique divisibility-feasible pole."


class GradientSphereGraph(namedtuple("GradientSphereGraph", "n edges ambiguous missing_pairs")):
    """The sphere edges, the unmatched weights and the point pairs no edge joins."""

    __slots__ = ()

    def edges_between(self, lower: int, upper: int) -> list[SphereEdge]:
        return [e for e in self.edges if e.lower == lower and e.upper == upper]


def gradient_graph(data: FixedPointData) -> GradientSphereGraph:
    """Pair weights into gradient-sphere edges in one upward pass.

    A paired edge needs -w at the upper point P_i, +w at a lower P_j,
    and w dividing phi_i - phi_j: with phi = a/b in lowest terms, the two
    share b and their a agree modulo b*w.  For each such residue (|w|,
    b, a mod b*|w|), the lower points still holding an open +w form a
    stack; each -w at P_i takes the top (the nearest open +w below, as a
    closing parenthesis takes the nearest open one), then P_i pushes its
    own +w.  This is the closest-first greedy: two candidates at equal
    distance never share an endpoint, so their order is immaterial.
    Leftover weights become unpaired edges when a single feasible pole
    remains, and are flagged ambiguous otherwise.  ``missing_pairs``
    lists point pairs with no edge at all.  A zero weight raises
    StructureError.
    """
    n = data.n
    a = [p.moment_value.numerator for p in data.points]  # phi = a/b in lowest terms
    b = [p.moment_value.denominator for p in data.points]
    # (|w|, b, a mod b*|w|) -> the points below with an open +w, nearest last
    open_poles: dict[tuple[int, int, int], list[int]] = {}
    keys: list[tuple[int, int, int, bool]] = []  # (lower, upper, |w|, not paired)
    unmatched: dict[tuple[int, int], int] = {}  # (i, |w|) -> how many -w found no +w
    for p in data.points:
        k = p.index
        for w in p.weights:  # ascending: every -w is matched before P_k opens a +w
            if w < 0:
                stack = open_poles.get((-w, b[k], a[k] % (b[k] * -w)))
                if stack:
                    keys.append((stack.pop(), k, -w, False))
                else:
                    unmatched[k, -w] = unmatched.get((k, -w), 0) + 1
            elif w:
                open_poles.setdefault((w, b[k], a[k] % (b[k] * w)), []).append(k)
            else:
                raise StructureError(f"zero weight at point {k}")

    ambiguous: list[AmbiguousWeight] = []
    unopened: dict[tuple[int, int], int] = {}  # (j, |w|) -> how many +w stayed open
    for (w, _, _), stack in open_poles.items():
        for j in stack:
            unopened[j, w] = unopened.get((j, w), 0) + 1
    for sign, leftovers in ((-1, unmatched), (1, unopened)):
        for (k, w), count in sorted(leftovers.items()):
            poles = range(k) if sign < 0 else range(k + 1, n + 1)
            feasible = tuple(m for m in poles if b[m] == b[k] and (a[k] - a[m]) % (b[k] * w) == 0)
            if len(feasible) == 1:
                keys += [(min(k, feasible[0]), max(k, feasible[0]), w, True)] * count
            else:
                ambiguous += [AmbiguousWeight(k, sign * w, feasible)] * count

    keys.sort()
    covered = {(j, i) for j, i, _, _ in keys}
    missing = () if len(covered) == n * (n + 1) // 2 else tuple(  # covered holds only j < i
        (j, i) for j in range(n + 1) for i in range(j + 1, n + 1) if (j, i) not in covered
    )
    edges = tuple(SphereEdge(j, i, w, not unpaired) for j, i, w, unpaired in keys)
    return GradientSphereGraph(n, edges, tuple(ambiguous), missing)
