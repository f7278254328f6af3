import functools
import itertools
import math
import re
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamfix import (
    AmbiguousWeight,
    FixedPoint,
    FixedPointData,
    GradientSphereGraph,
    InconsistentGamma,
    NonConstantC1,
    RingKind,
    RingSpec,
    SearchBudgetExceeded,
    SpecMismatch,
    SphereEdge,
    StructureError,
    c1_coefficient,
    condition_d_offset,
    cpn_model,
    enumerate_weight_systems,
    gradient_graph,
    infer_moment_values,
    quadric_model,
    validate,
    vanishing_battery,
    verify_equivalence,
)
from hamfix.errors import HamfixError
from hamfix.solver import DEFAULT_BUDGET, _assemble, _checked_phis, _divisors, _negative_assignments

from conftest import cpn_b_lists, model_data, outcome, quadric_b_lists, read_path_data

CASE1_WEIGHTS = [(1, 2, 3), (-1, 1, 4), (-1, -4, 1), (-1, -2, -3)]
CASE2_WEIGHTS = [(1, 2, 3), (-1, 1, 5), (-1, -5, 1), (-1, -2, -3)]


# --- product targets ---------------------------------------------------------
# The solver reads only the cofactors 1 / r_i and never forms these
# products; they are the rational formulas its systems must meet.


def lambda_minus_targets(spec, phis):
    """Required product of the negative weights at each point:
    r_i * prod_{j<i} (phi_j - phi_i)."""
    vals = _checked_phis(spec, phis)
    r = spec.r_sequence()
    return [r[i] * math.prod(vals[j] - vals[i] for j in range(i)) for i in range(spec.n + 1)]


def positive_targets(spec, phis):
    """Required product of the positive weights at each point, the mirror
    of ``lambda_minus_targets`` under phi -> -phi, which reverses the
    point order:  r_{n-i} * prod_{j>i} (phi_j - phi_i)."""
    vals = _checked_phis(spec, phis)
    r = spec.r_sequence()
    n = spec.n
    return [
        r[n - i] * math.prod(vals[j] - vals[i] for j in range(i + 1, n + 1)) for i in range(n + 1)
    ]


# --- independent exhaustive oracle ------------------------------------------
# Enumerate EVERY assignment of a negative divisor of each moment gap,
# with no product-based pruning, then keep the assignments that hit the
# ring's product targets and survive the full check battery.  This is the
# dumb reference the solver's pruned search must reproduce.


def _all_divisor_systems(spec, phis):
    n = spec.n
    targets = lambda_minus_targets(spec, phis)
    pos = positive_targets(spec, phis)
    per_point = []
    for i in range(1, n + 1):
        gap_divisors = []
        for j in range(i):
            gap = phis[i] - phis[j]
            gap_divisors.append([-d for d in range(1, gap + 1) if gap % d == 0])
        per_point.append(list(itertools.product(*gap_divisors)))

    found = []
    for combo in itertools.product(*per_point):
        ok = True
        for i in range(1, n + 1):
            prod = 1
            for w in combo[i - 1]:
                prod *= w
            if prod != targets[i]:
                ok = False
        for j in range(n + 1):
            prod = 1
            for i in range(j + 1, n + 1):
                prod *= -combo[i - 1][j]
            if prod != pos[j]:
                ok = False
        if not ok:
            continue
        weights = [[] for _ in range(n + 1)]
        for i in range(1, n + 1):
            weights[i].extend(combo[i - 1])
            for j, w in enumerate(combo[i - 1]):
                weights[j].append(-w)
        data = FixedPointData.from_weights(phis, weights)
        if not validate(data).is_valid:
            continue
        try:
            c1_coefficient(data)
            condition_d_offset(data)
        except HamfixError:
            continue
        if vanishing_battery(data).passed:
            found.append(data)
    unique = {tuple(p.weights for p in d.points): d for d in found}
    return [unique[k] for k in sorted(unique)]


# --- targets -----------------------------------------------------------------


def test_lambda_minus_targets_cpn():
    spec = RingSpec(RingKind.PROJECTIVE_SPACE, 2)
    assert lambda_minus_targets(spec, [0, 1, 2]) == [1, -1, 2]


def test_lambda_minus_targets_quadric():
    spec = RingSpec(RingKind.QUADRIC, 3)
    targets = lambda_minus_targets(spec, [-2, -1, 1, 2])
    assert targets[0] == 1  # empty product
    assert targets[2] == 3  # half of (-3)(-2)
    assert targets == [1, -1, 3, -6]


def test_positive_targets_examples():
    spec = RingSpec(RingKind.PROJECTIVE_SPACE, 2)
    assert positive_targets(spec, [0, 1, 2]) == [2, 1, 1]
    qspec = RingSpec(RingKind.QUADRIC, 3)
    assert positive_targets(qspec, [-2, -1, 1, 2])[1] == 3
    assert positive_targets(qspec, [-2, -1, 1, 2])[3] == 1


def test_targets_spec_mismatch():
    spec = RingSpec(RingKind.PROJECTIVE_SPACE, 2)
    with pytest.raises(SpecMismatch):
        lambda_minus_targets(spec, [0, 1])
    with pytest.raises(SpecMismatch):
        lambda_minus_targets(spec, [0, 2, 1])


def test_other_ring_targets_reproduce_exceptional_products():
    r = (Fraction(1), Fraction(1), Fraction(1, 5), Fraction(1, 5))
    spec = RingSpec(RingKind.OTHER, 3, r)
    phis = [0, 1, 5, 6]
    data = FixedPointData.from_weights(phis, CASE1_WEIGHTS)
    minus = lambda_minus_targets(spec, phis)
    plus = positive_targets(spec, phis)
    for i in range(4):
        lm = 1
        lp = 1
        for w in data.points[i].weights:
            if w < 0:
                lm *= w
            else:
                lp *= w
        assert lm == minus[i]
        assert lp == plus[i]


# --- enumeration -------------------------------------------------------------


def test_enumerate_cp1():
    spec = RingSpec(RingKind.PROJECTIVE_SPACE, 1)
    systems = enumerate_weight_systems(spec, [0, 1])
    assert len(systems) == 1
    assert [p.weights for p in systems[0].points] == [(1,), (-1,)]


def test_enumerate_cp2_unique():
    spec = RingSpec(RingKind.PROJECTIVE_SPACE, 2)
    systems = enumerate_weight_systems(spec, [0, 1, 2])
    assert systems == [cpn_model((0, 1, 2))]
    assert systems == _all_divisor_systems(spec, [0, 1, 2])


def test_enumerate_quadric3_unique():
    spec = RingSpec(RingKind.QUADRIC, 3)
    systems = enumerate_weight_systems(spec, [-2, -1, 1, 2])
    assert systems == [quadric_model((2, 1))]
    assert systems == _all_divisor_systems(spec, [-2, -1, 1, 2])


def test_enumerate_matches_oracle_on_spread_moments():
    spec = RingSpec(RingKind.PROJECTIVE_SPACE, 2)
    for phis in ([0, 1, 3], [0, 2, 4], [1, 3, 4]):
        assert enumerate_weight_systems(spec, phis) == _all_divisor_systems(spec, phis)
    qspec = RingSpec(RingKind.QUADRIC, 3)
    for phis in ([-3, -1, 1, 3], [-4, -2, 2, 4]):
        assert enumerate_weight_systems(qspec, phis) == _all_divisor_systems(qspec, phis)


def test_enumerate_quadric_odd_gap_is_empty():
    spec = RingSpec(RingKind.QUADRIC, 3)
    assert enumerate_weight_systems(spec, [-2, -1, 1, 3]) == []


def test_enumerate_other_ring_is_filter_only():
    # The true weight system for the x^2-5y ring exists (it passes the
    # battery) but violates the paired-sphere ansatz: no sphere joins
    # P_0 and P_2, so the ansatz search must come up empty rather than
    # claim a wrong system.
    r = (Fraction(1), Fraction(1), Fraction(1, 5), Fraction(1, 5))
    spec = RingSpec(RingKind.OTHER, 3, r)
    assert enumerate_weight_systems(spec, [0, 1, 5, 6]) == []
    true_system = FixedPointData.from_weights([0, 1, 5, 6], CASE1_WEIGHTS)
    assert vanishing_battery(true_system).passed


TWO_SYSTEMS = (RingSpec(RingKind.OTHER, 4, (1, 1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))), [0, 2, 4, 6, 8])


def test_enumerate_returns_each_system_once_in_weight_order():
    # The two systems differ only at P_2: (-4, -1, 1, 4) and (-2, -2, 2, 2).
    # Each is returned once, ordered as data and as flattened weight lists.
    systems = enumerate_weight_systems(*TWO_SYSTEMS)
    flat = [[w for p in data.points for w in p.weights] for data in systems]
    assert len(systems) == 2 and systems[0] < systems[1] and flat[0] < flat[1]
    assert [data.points[2].weights for data in systems] == [(-4, -1, 1, 4), (-2, -2, 2, 2)]


@pytest.mark.parametrize(
    "r, phis, detail",
    [
        ((1, Fraction(1, 2)), [0, 2], "r_1 must be 1, got 1/2"),
        ((Fraction(1, 2), 1, 1), [0, 1, 2], "r_0 must be 1, got 1/2"),
        ((1, 1, 0, 0), [0, 1, 2, 3], "r_2 must be positive, got 0"),
        ((1, 1, 1, -1), [0, 1, 2, 3], "r_3 must be positive, got -1"),
        ((1, 1, Fraction(1, 5), Fraction(-1, 5)), [0, 1, 5, 6], "r_3 must be positive, got -1/5"),
    ],
)
def test_enumerate_refuses_a_meaningless_r_sequence(r, phis, detail):
    spec = RingSpec(RingKind.OTHER, len(r) - 1, r)  # the spec itself is allowed
    with pytest.raises(SpecMismatch, match=rf"^r-sequence entry {re.escape(detail)}$"):
        enumerate_weight_systems(spec, phis)


def test_enumerate_results_pass_all_checks():
    spec = RingSpec(RingKind.QUADRIC, 5)
    systems = enumerate_weight_systems(spec, [-3, -2, -1, 1, 2, 3])
    assert len(systems) == 1
    for data in systems:
        assert validate(data).is_valid
        assert vanishing_battery(data).passed
        c1_coefficient(data)


def test_enumerate_budget_exceeded():
    spec = RingSpec(RingKind.PROJECTIVE_SPACE, 2)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_weight_systems(spec, [0, 1, 2], budget=0)


def test_enumerate_refuses_a_bool_or_non_int_budget():
    # True and 1.5 once ran as a budget of 1.
    spec = RingSpec(RingKind.PROJECTIVE_SPACE, 2)
    for bad in (True, False, 1.5, "1"):
        with pytest.raises(SpecMismatch, match=rf"^budget must be an integer, got {re.escape(repr(bad))}$"):
            enumerate_weight_systems(spec, [0, 1, 2], budget=bad)
        with pytest.raises(SpecMismatch):
            verify_equivalence(spec, [0, 1, 2], budget=bad)
    with pytest.raises(SpecMismatch, match=r"^budget must be nonnegative, got -1$"):
        enumerate_weight_systems(spec, [0, 1, 2], budget=-1)


def test_enumerate_deeper_than_the_recursion_limit():
    # Both searches are loops, so a search 200 points and slots deep
    # needs no stack frame per level.
    expected = [cpn_model(range(201))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        found = enumerate_weight_systems(RingSpec(RingKind.PROJECTIVE_SPACE, 200), range(201))
    finally:
        sys.setrecursionlimit(limit)
    assert found == expected


@pytest.mark.parametrize(
    "spec, phis, placements, expected",
    [
        # P_3's bucket holds (-3,-4,-2) and (-6,-2,-2).  The second puts
        # Gamma_2 off the c1 line (Gamma_3 = -10, span = 12), so only the
        # first goes on: one placement each at P_2 and P_1.
        (RingSpec(RingKind.QUADRIC, 3), [-3, -1, 1, 3], 4, quadric_model((3, 1))),
        # one assignment per point
        (RingSpec(RingKind.PROJECTIVE_SPACE, 3), [0, 1, 2, 3], 3, cpn_model(range(4))),
        # The README's Q^11 example: 332,640 combinations of its per-point
        # assignments, 20 placements.
        (RingSpec(RingKind.QUADRIC, 11), list(range(-11, 12, 2)), 20, quadric_model(range(11, 0, -2))),
    ],
    ids=["q3", "cp3", "q11"],
)
def test_enumerate_budget_caps_the_placements_exactly(spec, phis, placements, expected):
    over = rf"^more than {placements - 1} weight assignments placed$"
    with pytest.raises(SearchBudgetExceeded, match=over):
        enumerate_weight_systems(spec, phis, budget=placements - 1)
    assert enumerate_weight_systems(spec, phis, budget=placements) == [expected]


def test_only_the_buckets_a_placement_reads_are_searched(monkeypatch):
    # Q^3 at -3,-1,1,3 (above): one bucket read at each level, so three
    # cofactor searches, each over the gaps below the forced weight.
    searches = []

    def recorded(gaps, cofactor, budget, divisors):
        searches.append((list(gaps), cofactor))
        return _negative_assignments(gaps, cofactor, budget, divisors)

    monkeypatch.setattr("hamfix.solver._negative_assignments", recorded)
    enumerate_weight_systems(RingSpec(RingKind.QUADRIC, 3), [-3, -1, 1, 3])
    assert searches == [([-6, -4], 2), ([-4], 1), ([], 1)]
    # An Other ring with composite cofactors reads the same buckets again
    # and again: searched once each, that is 19 searches; searched on every
    # read, 806 (and about 16 times as slow).  No system exists.
    searches.clear()
    spec = RingSpec(RingKind.OTHER, 5, (1, 1, "1/12", "1/144", "1/1728", "1/1728"))
    assert enumerate_weight_systems(spec, [0, 720, 1440, 2160, 2880, 3600]) == []
    assert len(searches) == 19


@pytest.mark.parametrize("g", [10**18, 10**39 + 7])
def test_enumerate_huge_gaps_without_listing_their_divisors(g):
    # The cofactor is 1 for CP^n and at most 2 for Q^n, so no gap is
    # factored: a divisor listing of a gap near 1e18 would take minutes.
    start = time.perf_counter()
    cpn = enumerate_weight_systems(RingSpec(RingKind.PROJECTIVE_SPACE, 3), [0, g, 2 * g, 3 * g], budget=3)
    quadric = enumerate_weight_systems(RingSpec(RingKind.QUADRIC, 3), [-3 * g, -g, g, 3 * g])
    assert time.perf_counter() - start < 1
    assert cpn == [cpn_model([0, g, 2 * g, 3 * g])]
    assert quadric == [quadric_model((3 * g, g))]


# --- the bounded divisor search ----------------------------------------------


def _unbounded_negative_assignments(gaps, target, budget):
    # The search without the suffix bound: every divisor branch is
    # followed to the last slot.
    if target.denominator != 1:
        return []
    t = target.numerator
    k = len(gaps)
    if t == 0 or (t < 0) != (k % 2 == 1):
        return []
    choices = [_divisors(-g) for g in gaps]
    results = []
    stack = []

    def extend(j, remaining):
        if j == k:
            if remaining == 1:
                results.append(tuple(-d for d in stack))
                if len(results) > budget:
                    raise SearchBudgetExceeded(
                        f"more than {budget} weight assignments at one point"
                    )
            return
        for d in choices[j]:
            if remaining % d == 0:
                stack.append(d)
                extend(j + 1, remaining // d)
                stack.pop()

    extend(0, abs(t))
    return results


def _int_target_search(gaps, target, budget):
    # The search takes the cofactor prod|gaps| / |target|; a target that
    # is not an int, is 0 or has the wrong sign, or whose cofactor is not
    # an integer, has no assignment.
    if target.denominator != 1 or target == 0 or (target < 0) != (len(gaps) % 2 == 1):
        return []
    cofactor = abs(math.prod(gaps) / target)
    if cofactor.denominator != 1:
        return []
    return _negative_assignments(gaps, cofactor.numerator, budget, {})


def _outcome(search, gaps, target, budget):
    try:
        return search(gaps, target, budget)
    except SearchBudgetExceeded as exc:
        return str(exc)


@st.composite
def _assignment_problems(draw):
    gaps = draw(st.lists(st.integers(-24, -1), max_size=5))
    # Half the targets are products of divisors (so results exist), the
    # rest arbitrary, including zero and fractions.
    if draw(st.booleans()):
        target = Fraction((-1) ** len(gaps) * math.prod(draw(st.sampled_from(_divisors(-g))) for g in gaps))
    else:
        target = Fraction(draw(st.integers(-2000, 2000)), draw(st.sampled_from([1, 1, 1, 2, 3])))
    return gaps, target, draw(st.integers(0, 12))


@settings(max_examples=300)
@given(_assignment_problems())
def test_bounded_assignments_match_the_unbounded_search(problem):
    gaps, target, budget = problem
    assert _outcome(_int_target_search, gaps, target, budget) == _outcome(
        _unbounded_negative_assignments, gaps, target, budget
    )


@st.composite
def _many_divisor_problems(draw):
    # Few slots but gaps with many divisors, so the cofactor splits
    # several ways and the order of the results is exercised.
    gaps = draw(st.lists(st.integers(-720, -1), max_size=3))
    cofactor = math.prod(draw(st.sampled_from(_divisors(-g))) for g in gaps)
    if draw(st.booleans()):
        cofactor *= draw(st.integers(1, 6))
    target = Fraction(math.prod(gaps), cofactor)  # the sign of k negative gaps
    return gaps, target, draw(st.sampled_from([0, 1, 3, 50, DEFAULT_BUDGET]))


@settings(max_examples=300, deadline=None)
@given(_many_divisor_problems())
def test_cofactor_splits_match_the_unbounded_search(problem):
    gaps, target, budget = problem
    assert _outcome(_int_target_search, gaps, target, budget) == _outcome(
        _unbounded_negative_assignments, gaps, target, budget
    )


@pytest.mark.parametrize(
    "gaps, target, expected",
    [
        # The least useful divisor ceil(12 / 4) = 3 is itself a divisor.
        ((-6, -4), 12, [(-3, -4), (-6, -2)]),
        # The cofactor 54 / 12 is not an integer.
        ((-6, -9), 12, []),
        ((-6, -9), 18, [(-2, -9), (-6, -3)]),
        # target +-1, and one with the wrong sign for its slot count
        ((-3,), -1, [(-1,)]),
        ((-3, -5), 1, [(-1, -1)]),
        ((-3,), 1, []),
        ((-2, -2), -1, []),
        # a single slot: the product must divide its gap
        ((-12,), -4, [(-4,)]),
        ((-12,), -5, []),
        ((-12,), -24, []),
        ((), 1, [()]),
        ((), 2, []),
        # cofactor 6, split as m = (2,3,1), (2,1,3), (1,6,1), (1,2,3)
        ((-4, -6, -9), -36, [(-2, -2, -9), (-2, -6, -3), (-4, -1, -9), (-4, -3, -3)]),
    ],
)
def test_bounded_assignments_edge_cases(gaps, target, expected):
    assert _int_target_search(gaps, Fraction(target), 10) == expected
    assert _unbounded_negative_assignments(gaps, Fraction(target), 10) == expected


@pytest.mark.parametrize(
    "gaps, cofactor",
    [
        # 9 is divisible by neither the 4 nor the 2 left after the first slot.
        ((-6, -9), 4),
        # a single slot: the cofactor must divide its gap
        ((-12,), 5),
        # no slot: only the cofactor 1 is split (this once raised IndexError)
        ((), 2),
    ],
)
def test_a_cofactor_no_split_divides_has_no_assignment(gaps, cofactor):
    assert _negative_assignments(gaps, cofactor, 10, {}) == []
    assert _unbounded_negative_assignments(gaps, Fraction(math.prod(gaps), cofactor), 10) == []


def test_bounded_assignments_budget_counts_every_result():
    over = "^more than {} weight assignments at one point$"
    for gaps, cofactor in (((), 1), ((-6, -9), 3)):
        with pytest.raises(SearchBudgetExceeded, match=over.format(0)):
            _negative_assignments(gaps, cofactor, 0, {})
    assert len(_negative_assignments((-6, -9), 3, 2, {})) == 2
    with pytest.raises(SearchBudgetExceeded, match=over.format(1)):
        _negative_assignments((-6, -9), 3, 1, {})
    with pytest.raises(SearchBudgetExceeded, match=over.format(3)):
        _negative_assignments((-4, -6, -9), 6, 3, {})


# --- placement by lookup -----------------------------------------------------


def _flat_scan_weight_systems(spec, phis, *, accepted):
    # The placement that scans every assignment of a point and tests the
    # forced last weight and the line for each: the reference the
    # bucketed lookup must match, on Fraction targets and the unbounded
    # divisor search, with no budget.  Each candidate its checks accept
    # is appended to ``accepted``.
    vals = list(phis)
    n = spec.n
    targets = lambda_minus_targets(spec, vals)
    pos_targets = positive_targets(spec, vals)
    per_point = []
    for i in range(1, n + 1):
        gaps = [vals[j] - vals[i] for j in range(i)]
        per_point.append(_unbounded_negative_assignments(gaps, targets[i], math.inf))

    if pos_targets[n] != 1 or any(t.denominator != 1 or t <= 0 for t in pos_targets):
        return []
    pos = [t.numerator for t in pos_targets]
    top_gap = vals[n] - vals[n - 1]

    def on_line(gammas, k):
        rise = gammas[n - 1] - gammas[n]
        if k == n - 1:
            return rise > 0
        return (gammas[k] - gammas[n]) * top_gap == rise * (vals[n] - vals[k])

    unique = {}
    placed = [()] * n

    def place(i, products, gammas):
        if i == 0:
            data = _assemble(vals, placed, n)
            try:
                condition_d_offset(data)
            except HamfixError:
                return
            if vanishing_battery(data).passed:
                unique.setdefault(tuple(p.weights for p in data.points), data)
                accepted.append(data)
            return
        for assignment in per_point[i - 1]:
            below = [p * -w for p, w in zip(products, assignment)]
            if below[i - 1] != pos[i - 1] or any(pos[j] % below[j] for j in range(i - 1)):
                continue
            sums = [g - w for g, w in zip(gammas, assignment)]
            sums += [gammas[i] + sum(assignment), *gammas[i + 1 :]]
            if (i < n and not on_line(sums, i)) or (i == 1 and not on_line(sums, 0)):
                continue
            placed[i - 1] = assignment
            place(i - 1, below, sums)

    place(n, [1] * n, [0] * (n + 1))
    return [unique[k] for k in sorted(unique)]


def _counted_search(search, spec, phis):
    # (systems or the exception's class and text, from_weights calls)
    calls = []
    from_weights = FixedPointData.from_weights.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return from_weights(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FixedPointData, "from_weights", classmethod(counting))
        try:
            result = search(spec, phis)
        except HamfixError as exc:
            result = f"{type(exc).__name__}: {exc}"
    return result, len(calls)


_OTHER_R = (1, Fraction(1, 2), Fraction(1, 3), 2, Fraction(1, 5))


@st.composite
def _placement_instances(draw):
    """CP^n (n <= 6), Q^n (n <= 7) or an Other ring with r_0 = r_1 = 1,
    at model-shaped or random increasing moment values, and a budget."""
    kind = draw(st.sampled_from(["cpn", "quadric", "other"]))
    if kind == "cpn":
        spec = RingSpec(RingKind.PROJECTIVE_SPACE, draw(st.integers(1, 6)))
    elif kind == "quadric":
        spec = RingSpec(RingKind.QUADRIC, draw(st.sampled_from([3, 5, 7])))
    else:
        n = draw(st.integers(1, 5))
        r = (1, 1) + tuple(draw(st.sampled_from(_OTHER_R)) for _ in range(n - 1))
        spec = RingSpec(RingKind.OTHER, n, r[: n + 1])
    n = spec.n
    start = draw(st.integers(-10, 10))
    if draw(st.booleans()):
        if kind == "quadric":
            h = (n + 1) // 2
            magnitudes = st.lists(st.integers(1, 4 * h + 2), min_size=h, max_size=h, unique=True)
            mags = sorted(draw(magnitudes))
            phis = [start - m for m in reversed(mags)] + [start + m for m in mags]
        else:
            step = draw(st.integers(1, 4))
            phis = [start + step * i for i in range(n + 1)]
    else:
        top = 6 if n <= 4 else 4
        steps = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
        phis = list(itertools.accumulate(steps, initial=start))
    return spec, phis, draw(st.sampled_from([None, None, 0, 1, 3, 50]))


# Other rings where a placement of P_n..P_2 on the line through Gamma_n
# and Gamma_{n-1} completes at P_1 with Gamma_0 off it.  Their Gamma_i
# still sum to 0, so the C that sum fixes is not that line's, and the
# search refuses these placements below P_n.
GAMMA_0_CUT = [
    (RingSpec(RingKind.OTHER, 3, (1, 1, Fraction(1, 6), Fraction(1, 6))), [12, 23, 32, 33]),
    (RingSpec(RingKind.OTHER, 4, (1, 1, Fraction(1, 3), Fraction(1, 9), Fraction(1, 9))), [7, 14, 23, 29, 34]),
]


@pytest.mark.parametrize("spec, phis", GAMMA_0_CUT)
def test_the_gamma_0_cut_refuses_a_placement_off_the_c1_line(spec, phis):
    assert enumerate_weight_systems(spec, phis) == []


def test_the_placement_the_gamma_0_cut_refuses_fails_c1():
    # What the first search above places on the line through Gamma_3 and
    # Gamma_2: valid, with the ring's negative products, but Gamma_0 = 28
    # is off the line of the rest.  The sum-zero C = 13/8 makes Gamma_2
    # a non-integer, so the search never places this P_2.
    weights = [(7, 10, 11), (-11, 3, 5), (-10, -3, 1), (-7, -5, -1)]
    data = FixedPointData.from_weights([12, 23, 32, 33], weights)
    assert validate(data).is_valid
    with pytest.raises(NonConstantC1, match=r"^pair \(0,1\) gives 31/11 but pair \(0,2\) gives 2$"):
        c1_coefficient(data)


# A ring without Poincare duality: the oracle assembles one candidate,
# [(1, 1), (-1, 1), (-1, -1)], its battery rejects it at (0,0) and (0,1),
# and the solver assembles none.
@example((RingSpec(RingKind.OTHER, 2, (1, 1, Fraction(1, 2))), [0, 1, 2], None))
@example((*GAMMA_0_CUT[0], None))
# The solve-deep benchmark's Q^7 shape, where P_n's choice branches.
@example((RingSpec(RingKind.QUADRIC, 7), [-30, -24, -12, -6, 6, 12, 24, 30], None))
# A dual ring whose targets 12 and -108 are integers while 1 / r_2 = 3/2
# is not: no point P_2 has an assignment.
@example((RingSpec(RingKind.OTHER, 3, (1, 1, Fraction(2, 3), Fraction(2, 3))), [0, 3, 6, 9], None))
# P_4's weight to P_3 is not an integer on two branches, and its floor
# keys a one-assignment bucket at level 4; that leaves P_3 short of its
# cofactor, so neither branch completes and both sides return ([], 0).
@example(
    (
        RingSpec(RingKind.OTHER, 5, (1, 1, Fraction(1, 4), Fraction(1, 3), Fraction(1, 12), Fraction(1, 12))),
        [0, 2, 4, 6, 8, 10],
        None,
    )
)
# Two systems, which the oracle orders by their flattened weight lists.
@example((*TWO_SYSTEMS, None))
@settings(max_examples=300)
@given(_placement_instances())
def test_placement_by_lookup_matches_the_flat_scan(instance):
    # At the default budget: the same systems in the same order, and the
    # solver assembles exactly the candidates the oracle's checks accept.
    # At a drawn budget the search returns those systems or refuses.
    spec, phis, budget = instance
    accepted = []
    oracle = functools.partial(_flat_scan_weight_systems, accepted=accepted)
    expected, _ = _counted_search(oracle, spec, phis)
    assert _counted_search(enumerate_weight_systems, spec, phis) == (expected, len(accepted))
    if budget is not None:
        try:
            assert enumerate_weight_systems(spec, phis, budget=budget) == expected
        except SearchBudgetExceeded:
            pass


# Here Gamma_3 = -7 and span = 10, so the line's Gamma_2 = -7 + 14/5 is
# not an integer; a search that placed P_2 anyway returns one system off
# the c1 line.
@example((RingSpec(RingKind.QUADRIC, 3), [0, 3, 5, 6], None))
@settings(max_examples=200)
@given(_placement_instances())
def test_every_system_has_the_sum_zero_c1_coefficient(instance):
    # Paired weights make the Gamma_i sum to 0, so the c1 line's C is
    # -(n+1) * Gamma_n / span, span = sum_i (phi_n - phi_i).  The search
    # forms no product of weights or gaps, so every system's Lambda_i^-
    # and Lambda_i^+ are checked against the ring's targets here.
    spec, phis, budget = instance
    try:
        systems = enumerate_weight_systems(spec, phis, budget=budget)
    except HamfixError:
        return
    n = spec.n
    span = sum(phis[n] - v for v in phis)
    for data in systems:
        assert sum(p.gamma for p in data.points) == 0
        assert c1_coefficient(data) == Fraction(-(n + 1) * data.points[n].gamma, span)
        assert [p.lambda_minus for p in data.points] == lambda_minus_targets(spec, phis)
        assert [p.lambda_plus for p in data.points] == positive_targets(spec, phis)


# --- verify ------------------------------------------------------------------


def test_verify_cpn():
    report = verify_equivalence(RingSpec(RingKind.PROJECTIVE_SPACE, 3), [0, 1, 2, 3])
    assert report.passed
    assert [line.name for line in report.lines] == [
        "(2)=>(4)",
        "(4)=>(2)",
        "(4)=>(3)",
        "(4)=>(1)",
    ]


def test_verify_quadric_reports_c1():
    report = verify_equivalence(RingSpec(RingKind.QUADRIC, 3), [-2, -1, 1, 2])
    assert report.passed
    assert report.lines[3].detail == "C = 3 = n"


def test_verify_quadric_odd_gap_fails_2_implies_4():
    report = verify_equivalence(RingSpec(RingKind.QUADRIC, 3), [-2, -1, 1, 3])
    assert not report.passed
    assert not report.lines[0].passed
    assert report.system_count == 0


def test_verify_reports_an_unmeasurable_standard_system():
    # The standard quadric weights at these non-antipodal moment values
    # are off the c1 line, so their ring and Chern classes mean nothing;
    # every line fails with the first failing check, not an error.
    report = verify_equivalence(RingSpec(RingKind.QUADRIC, 3), [-4, -3, 1, 4])
    assert not report.passed and report.system_count == 0
    detail = "standard weight system fails c1-coefficient: pair (0,1) gives 2 but pair (0,2) gives 14/5"
    assert [(line.passed, line.detail) for line in report.lines] == [(False, detail)] * 4


def test_verify_compares_the_standard_with_the_search_once(monkeypatch):
    compared = []

    class Counted(FixedPointData):
        __slots__ = ()
        __hash__ = FixedPointData.__hash__

        def __eq__(self, other):
            compared.append(other)
            return tuple(self) == tuple(other)

    found = [Counted(*cpn_model((0, 1, 2)))]
    monkeypatch.setattr("hamfix.solver.enumerate_weight_systems", lambda *a, **k: found)
    report = verify_equivalence(RingSpec(RingKind.PROJECTIVE_SPACE, 2), [0, 1, 2])
    assert report.passed and compared == [cpn_model((0, 1, 2))]


def test_verify_rejects_other_rings():
    r = (Fraction(1),) * 3
    with pytest.raises(SpecMismatch):
        verify_equivalence(RingSpec(RingKind.OTHER, 2, r), [0, 1, 2])


# --- moment inference --------------------------------------------------------


def test_infer_case1():
    assert infer_moment_values(CASE1_WEIGHTS) == [0, 1, 5, 6]


def test_infer_case2():
    assert infer_moment_values(CASE2_WEIGHTS) == [0, 1, 11, 12]


def test_infer_round_trip_on_model():
    data = cpn_model((0, 1, 2))
    phis = infer_moment_values([p.weights for p in data.points])
    assert phis == [0, 1, 2]


def test_infer_orders_by_weight_sum():
    shuffled = [CASE1_WEIGHTS[2], CASE1_WEIGHTS[0], CASE1_WEIGHTS[3], CASE1_WEIGHTS[1]]
    assert infer_moment_values(shuffled) == [0, 1, 5, 6]


@pytest.mark.parametrize("bad", ["a", -1.0, True])
def test_infer_rejects_a_weight_that_is_not_an_int(bad):
    # Neither a TypeError from deep inside nor a bool read as 1.
    with pytest.raises(InconsistentGamma, match=rf"^weights must be integers, got {re.escape(repr(bad))}$"):
        infer_moment_values([[1], [bad]])


def test_infer_rejects_tied_gamma():
    with pytest.raises(InconsistentGamma):
        infer_moment_values([(1, 2), (-1, 4), (-2, -1)])


def test_infer_rejects_bad_counts():
    # sums 5, 3, -3 are distinct, but the middle multiset has no negative weight
    with pytest.raises(InconsistentGamma):
        infer_moment_values([(1, 2), (2, 3), (-2, -1)])


def test_infer_rejects_inconsistent_multisets():
    # phi = 0, 1, 8 passes validate, but the battery's sums of powers 0 and 1
    # do not vanish
    with pytest.raises(
        InconsistentGamma,
        match=r"fail vanishing-battery: non-vanishing powers 0, 1; volume = 31/3$",
    ):
        infer_moment_values([(1, 2), (-1, 3), (-2, -3)])
    # phi = 0, 2, 26/5 has a non-integral moment gap
    with pytest.raises(InconsistentGamma, match="fail validate: moment difference"):
        infer_moment_values([(2, 4), (-2, 3), (-3, -4)])
    with pytest.raises(InconsistentGamma, match="fail validate: zero weight at point 1$"):
        infer_moment_values([(1, 1), (-1, 0), (-3, -1)])


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5, unique=True))
def test_infer_round_trip_property(b):
    data = cpn_model(b).normalized()
    phis = infer_moment_values([p.weights for p in data.points])
    assert phis == list(data.moment_values)


# --- gradient graph ----------------------------------------------------------


def test_gradient_graph_cpn2():
    graph = gradient_graph(cpn_model((0, 1, 2)))
    assert [(e.lower, e.upper, e.weight) for e in graph.edges] == [
        (0, 1, 1),
        (0, 2, 2),
        (1, 2, 1),
    ]
    assert all(e.paired for e in graph.edges)
    assert graph.missing_pairs == ()


def test_gradient_graph_quadric3_antipodal_edge():
    graph = gradient_graph(quadric_model((2, 1)))
    antipodal = graph.edges_between(0, 3)
    assert [(e.weight, e.paired) for e in antipodal] == [(2, True)]
    assert graph.missing_pairs == ()


def test_gradient_graph_case1_flags():
    data = FixedPointData.from_weights([0, 1, 5, 6], CASE1_WEIGHTS)
    graph = gradient_graph(data)
    assert graph.missing_pairs == ((0, 2), (1, 3))
    assert len(graph.edges_between(0, 3)) == 2
    assert {e.weight for e in graph.edges_between(0, 3)} == {2, 3}


def test_gradient_graph_unpaired_edge():
    # -2 at the top has no +2 partner below, but P_0 is its only feasible pole
    data = FixedPointData.from_weights([0, 2], [(1,), (-2,)])
    graph = gradient_graph(data)
    unpaired = [e for e in graph.edges if not e.paired]
    assert [(e.lower, e.upper, e.weight) for e in unpaired] == [(0, 1, 1), (0, 1, 2)]


def test_gradient_graph_ambiguous_weight():
    # +1 at P_0 can pair with no one; both P_1 and P_2 are feasible poles
    data = FixedPointData.from_weights(
        [0, 1, 2], [(1, 1), (-2, 2), (-2, -1)]
    )
    graph = gradient_graph(data)
    assert any(a.point == 0 and a.weight == 1 for a in graph.ambiguous)


def test_gradient_graph_zero_weight_is_a_structure_error():
    data = FixedPointData.from_weights([0, 1, 2], [[1, 0], [-1, 1], [-1, -2]])
    with pytest.raises(StructureError, match=r"^zero weight at point 0$"):
        gradient_graph(data)


@given(st.one_of(
    cpn_b_lists(max_n=9, bound=20).map(lambda b: (cpn_model(b), False)),
    quadric_b_lists(ns=(3, 5, 7, 9), bound=20).map(lambda b: (quadric_model(b), True)),
))
def test_gradient_graph_of_models_is_the_standard_sphere_set(model):
    # One paired sphere per point pair carrying the moment gap, halved
    # between quadric antipodes P_j and P_{n-j}.
    data, quadric = model
    n, phis = data.n, data.moment_values
    expected = [
        (j, i, (phis[i] - phis[j]) / (2 if quadric and i == n - j else 1), True)
        for j in range(n + 1)
        for i in range(j + 1, n + 1)
    ]
    graph = gradient_graph(data)
    assert [(e.lower, e.upper, e.weight, e.paired) for e in graph.edges] == expected
    assert graph.ambiguous == ()
    assert graph.missing_pairs == ()


def _all_pairs_gradient_graph(data):
    # The closest-first greedy: for each |w|, largest first, every (upper,
    # lower) point pair tested for the gap, sorted by distance and consumed
    # with a Counter.  The reference the upward pass must match.
    n = data.n
    q = math.lcm(*(p.moment_value.denominator for p in data.points))
    u = [p.moment_value.numerator * (q // p.moment_value.denominator) for p in data.points]
    neg, pos = {}, {}
    for p in data.points:
        for w in p.weights:
            if w == 0:
                raise StructureError(f"zero weight at point {p.index}")
            (neg if w < 0 else pos).setdefault(abs(w), Counter())[p.index] += 1

    edges = []
    for w in sorted(neg.keys() & pos.keys(), reverse=True):
        uppers, lowers = neg[w], pos[w]
        candidates = sorted(
            (i - j, j, i)
            for i in uppers
            for j in lowers
            if j < i and (u[i] - u[j]) % (q * w) == 0
        )
        for _, j, i in candidates:
            count = min(uppers[i], lowers[j])
            uppers[i] -= count
            lowers[j] -= count
            edges += [SphereEdge(j, i, w, True)] * count

    ambiguous = []
    for sign, table in ((-1, neg), (1, pos)):
        leftovers = sorted((k, w, c) for w, at in table.items() for k, c in at.items() if c)
        for k, w, count in leftovers:
            poles = range(k) if sign < 0 else range(k + 1, n + 1)
            feasible = tuple(m for m in poles if (u[k] - u[m]) % (q * w) == 0)
            if len(feasible) == 1:
                edges += [SphereEdge(*sorted((k, feasible[0])), w, False)] * count
            else:
                ambiguous += [AmbiguousWeight(k, sign * w, feasible)] * count

    edges.sort(key=lambda e: (e.lower, e.upper, e.weight, not e.paired))
    covered = {(e.lower, e.upper) for e in edges}
    missing = tuple(
        (j, i) for j in range(n + 1) for i in range(j + 1, n + 1) if (j, i) not in covered
    )
    return GradientSphereGraph(n, tuple(edges), tuple(ambiguous), missing)


@st.composite
def repeated_weight_data(draw):
    """Random data whose weights repeat: each drawn from +-1, +-2, +-3,
    moment values in halves or thirds, or over a denominator per point
    from 1, 2, 3, 6 (so points with different denominators meet), not
    always increasing."""
    n = draw(st.integers(1, 8))
    den = draw(st.sampled_from((1, 2, 3)))
    per_point = st.lists(st.sampled_from((1, 2, 3, 6)), min_size=n + 1, max_size=n + 1)
    dens = draw(st.one_of(st.just([den] * (n + 1)), per_point))
    phis = draw(st.lists(st.integers(-12, 12), min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        phis.sort()
    weight = st.sampled_from((-3, -2, -1, 1, 2, 3))
    weights = draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=n + 1, max_size=n + 1))
    return FixedPointData.from_weights([Fraction(p, b) for p, b in zip(phis, dens)], weights)


@settings(max_examples=400)
@given(st.one_of(read_path_data(), model_data(max_n=16), repeated_weight_data()))
def test_gradient_graph_upward_pass_matches_the_all_pairs_reference(data):
    # Same edges, ambiguous weights and missing pairs in the same order,
    # or the same exception class and text.
    assert outcome(gradient_graph, data) == outcome(_all_pairs_gradient_graph, data)


@settings(max_examples=300)
@given(st.one_of(read_path_data(), model_data(max_n=9), repeated_weight_data()))
@example(FixedPointData.from_weights([0, 1, 5, 6], CASE1_WEIGHTS))
def test_gradient_graph_missing_pairs_are_the_pairs_no_edge_joins(data):
    # missing_pairs skips its scan when the edges cover n(n+1)/2 pairs.
    # CASE1 has that many edges, but two join P_0 and P_3, so two pairs
    # are missing and the scan must run.
    try:
        graph = gradient_graph(data)
    except StructureError:  # a zero weight
        return
    n = data.n
    brute = tuple(
        (j, i) for j in range(n + 1) for i in range(j + 1, n + 1) if not graph.edges_between(j, i)
    )
    assert graph.missing_pairs == brute


def test_gradient_graph_builds_no_common_scale_of_the_moment_values():
    # phi_i = i + 1/d_i with distinct 600-digit d_i: no two moment values
    # differ by an integer, so no sphere joins any pair.  Reducing every
    # phi over the lcm of all 200 denominators, about 120,000 digits,
    # took 9.4 s on a 2-vCPU VM.
    n, base = 199, 10**599
    phis = [i + Fraction(1, base + 2 * i + 1) for i in range(n + 1)]
    data = FixedPointData.from_weights(phis, [[-1] * i + [1] * (n - i) for i in range(n + 1)])
    start = time.perf_counter()
    graph = gradient_graph(data)
    elapsed = time.perf_counter() - start
    assert graph.edges == ()
    assert len(graph.ambiguous) == n * (n + 1) and len(graph.missing_pairs) == n * (n + 1) // 2
    assert elapsed < 1.0, f"gradient_graph took {elapsed:.3f}s"


def test_gradient_graph_nearest_open_pole_is_the_closest_first_greedy():
    # Every count vector of -1 and +1 weights in {0, 1, 2} on five points
    # at phi = 0..4, where 1 divides every gap: one residue class, so the
    # pass is pure parenthesis matching.  The padding, -5 on the lower
    # points and +5 on the upper ones, never pairs.
    closest_first = sorted((i - j, j, i) for i in range(5) for j in range(i))
    points = {
        (k, a, b): FixedPoint(k, k, (-1,) * a + (1,) * b + (5 if k > 2 else -5,) * (4 - a - b))
        for k in range(5)
        for a in range(3)
        for b in range(3)
    }
    for counts in itertools.product(range(3), repeat=10):
        neg, pos = list(counts[:5]), list(counts[5:])
        data = FixedPointData(4, [points[k, neg[k], pos[k]] for k in range(5)])
        expected = []
        for _, j, i in closest_first:
            count = min(neg[i], pos[j])
            neg[i] -= count
            pos[j] -= count
            expected += [(j, i)] * count
        paired = [(j, i) for j, i, w, paired in gradient_graph(data).edges if paired and w == 1]
        assert paired == sorted(expected), counts
