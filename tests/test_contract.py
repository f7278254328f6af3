"""The error contract, by search: on values of the right types, every
public function returns or raises a ``HamfixError`` subclass, never
another exception."""

from fractions import Fraction
from itertools import accumulate

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import model_data, model_data_with_one_weight_changed, read_path_data
from hamfix import (
    HamfixError,
    RingKind,
    RingSpec,
    abbv_sum,
    c1_coefficient,
    chern_coefficients,
    classify_ring,
    condition_d_offset,
    consistency_checks,
    cpn_model,
    enumerate_weight_systems,
    expected_weights_cpn,
    expected_weights_quadric,
    gradient_graph,
    infer_moment_values,
    quadric_model,
    ring_coefficients,
    validate,
    vanishing_battery,
    verify_equivalence,
)


def measured_ring(data):
    return classify_ring(ring_coefficients(data))


def search(kind, n, r, phis, budget):
    return enumerate_weight_systems(RingSpec(kind, n, r), phis, budget=budget)


def verify(kind, n, r, phis, budget):
    return verify_equivalence(RingSpec(kind, n, r), phis, budget=budget)


READ_PATH = (
    validate,
    c1_coefficient,
    condition_d_offset,
    vanishing_battery,
    measured_ring,
    chern_coefficients,
    gradient_graph,
    consistency_checks,
)
MODELS = (cpn_model, quadric_model, expected_weights_cpn, expected_weights_quadric)

small_rationals = st.builds(Fraction, st.integers(-3, 12), st.integers(1, 12))


@st.composite
def read_path_calls(draw):
    data = draw(read_path_data())
    fn = draw(st.sampled_from(READ_PATH + (abbv_sum,)))
    if fn is not abbv_sum:
        return fn, (data,)
    size = data.n + 1 + draw(st.integers(-1, 1))
    return fn, (data, draw(st.lists(small_rationals, min_size=size, max_size=size)))


def increasing(size):
    steps = st.lists(st.integers(1, 5), min_size=size - 1, max_size=size - 1)
    start = st.integers(-8, 8)
    return st.builds(lambda s, steps: list(accumulate(steps, initial=s)), start, steps)


@st.composite
def search_calls(draw):
    """A ring that fits its kind at increasing moment values half the
    time; otherwise any kind and n, an r-sequence that may be missing,
    short, zero, negative or unreadable, and moment values that may be
    tied, decreasing or non-integral.  Any budget."""
    kind = draw(st.sampled_from(RingKind))
    if draw(st.booleans()):
        n = draw(st.sampled_from([3, 5]) if kind is RingKind.QUADRIC else st.integers(1, 5))
        units = st.sampled_from([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)])
        r = None
        if kind is RingKind.OTHER:
            r = [1, 1, *draw(st.lists(units, min_size=n - 1, max_size=n - 1))]
        phis = draw(increasing(n + 1))
    else:
        n = draw(st.integers(-1, 6))
        entries = st.one_of(st.just(1), small_rationals, st.sampled_from(["1/2", "x", "1/0"]))
        r = draw(st.none() | st.lists(entries, min_size=max(n, 0), max_size=n + 2))
        values = st.integers(-8, 16) | small_rationals
        phis = draw(st.lists(values, min_size=max(n, 0), max_size=n + 2))
    budget = draw(st.sampled_from([None, None, -1, 0, 1, 3, 50]))
    return draw(st.sampled_from((search, verify))), (kind, n, r, phis, budget)


# Model weights (P_n first), model weights with one changed, or random ones.
multisets = st.one_of(
    st.builds(lambda d: [p.weights for p in reversed(d.points)], model_data()),
    st.builds(lambda d: [p.weights for p in d.points], model_data_with_one_weight_changed()),
    st.lists(st.lists(st.integers(-6, 6), max_size=5), max_size=5),
)
exponents = st.lists(st.integers(-8, 16), max_size=7) | st.integers(2, 7).flatmap(increasing)


@settings(max_examples=800)
@given(
    read_path_calls()
    | search_calls()
    | st.tuples(st.just(infer_moment_values), st.tuples(multisets))
    | st.tuples(st.sampled_from(MODELS), st.tuples(exponents))
)
def test_only_hamfix_errors_escape_the_public_functions(call):
    fn, args = call
    try:
        fn(*args)
    except HamfixError:
        pass
