"""The error contract, by search: on values of the right types, every
public function returns or raises a ``HamfixError`` subclass, never
another exception.  Numbers past the interpreter's digit limit, which no
search draws, are checked case by case."""

import json
import sys
from fractions import Fraction
from itertools import accumulate

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import model_data, model_data_with_one_weight_changed, read_path_data
from hamfix import (
    FixedPoint,
    FixedPointData,
    HamfixError,
    RingKind,
    RingSpec,
    SpecMismatch,
    abbv_sum,
    c1_coefficient,
    chern_coefficients,
    classify_ring,
    condition_d_offset,
    consistency_checks,
    cpn_model,
    document_from_json,
    enumerate_weight_systems,
    expected_weights_cpn,
    expected_weights_quadric,
    gradient_graph,
    infer_moment_values,
    parse_document,
    quadric_model,
    rat,
    ring_coefficients,
    validate,
    vanishing_battery,
    verify_equivalence,
)
from hamfix.cli import main


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


@pytest.mark.parametrize("kind, n", [("x", 1), (None, 2)])
def test_ring_spec_refuses_a_kind_that_is_not_a_ring_kind(kind, n):
    # Such a spec once built, and the search on it raised a bare AssertionError.
    with pytest.raises(SpecMismatch, match=rf"^ring kind must be a RingKind, got {kind!r}$"):
        RingSpec(kind, n)


H = 10**5000  # 5,001 digits: past the interpreter's default limit of 4,300
PROJECTIVE_H = (RingKind.PROJECTIVE_SPACE, H, None, [0, 1], None)
PAST_THE_LIMIT = {
    # values of the right types
    "data-n": (FixedPointData, H, []),
    "data-index": (FixedPointData, 1, [FixedPoint(H, 0, [1]), FixedPoint(1, 1, [-1])]),
    "quadric-n": (RingSpec, RingKind.QUADRIC, H),
    "kind": (RingSpec, H, 1, [1, 1]),
    "search-n": (search, *PROJECTIVE_H),
    "verify-n": (verify, *PROJECTIVE_H),
    "budget": (search, RingKind.PROJECTIVE_SPACE, 1, None, [0, 1], -H),
    "document-n": (document_from_json, {"n": -H}),
    "document-points": (document_from_json, {"n": H, "points": []}),
    # values of the wrong types, whose repr passes the limit
    "cpn-int": (cpn_model, H),
    "cpn-fraction": (cpn_model, [Fraction(H)]),
    "quadric-int": (quadric_model, H),
    "expected-cpn-fraction": (expected_weights_cpn, [0, Fraction(H)]),
    "expected-quadric-int": (expected_weights_quadric, H),
    "infer-int": (infer_moment_values, [H]),
    "infer-fraction": (infer_moment_values, [[Fraction(H)]]),
    "point-weight": (FixedPoint, 0, 0, [Fraction(H, 3)]),
    "point-index": (FixedPoint, Fraction(H, 3), 0, [1]),
    "data-n-fraction": (FixedPointData, Fraction(H, 3), []),
    "data-point": (FixedPointData, 1, [H, 1]),
    "other-n": (RingSpec, RingKind.OTHER, Fraction(H, 3)),
    "other-r": (RingSpec, RingKind.OTHER, 1, H),
    "budget-fraction": (search, RingKind.PROJECTIVE_SPACE, 1, None, [0, 1], Fraction(H, 3)),
    "rat": (rat, [H]),
}


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() not in range(1, 5001),
    reason="needs an int digit limit below 5,001 digits",
)
@pytest.mark.parametrize("call", PAST_THE_LIMIT.values(), ids=PAST_THE_LIMIT)
def test_messages_show_a_number_past_the_digit_limit_as_a_placeholder(call):
    fn, *args = call
    with pytest.raises(TypeError if fn is rat else HamfixError, match="<5001 digits>"):
        fn(*args)


LONG = "x" * 10**6
QUOTED, BARE = len(repr(LONG)), len(LONG)  # shown as repr writes it, or as a bare key
LONG_TEXT = {
    "rat": (rat, [LONG], QUOTED),
    "ring-kind": (RingSpec, [LONG, 1], QUOTED),
    "document-key": (parse_document, [json.dumps({LONG: 1})], BARE),
    "point-key": (parse_document, [json.dumps({"n": 1, "points": [{LONG: 1}, {}]})], BARE),
    "cli-phi": (main, [["solve", "--ring", "cpn", "--phi", LONG]], QUOTED),
    "cli-r": (main, [["solve", "--ring", "other", "--phi", "0,1", "--r", LONG]], QUOTED),
}


@pytest.mark.parametrize("fn, args, size", LONG_TEXT.values(), ids=LONG_TEXT)
def test_messages_show_a_long_caller_string_as_its_beginning_and_length(fn, args, size, capsys):
    # Each message once held the whole string, a million characters.
    if fn is main:
        assert main(*args) == 2
        message = capsys.readouterr().err
    else:
        with pytest.raises(HamfixError) as info:
            fn(*args)
        message = str(info.value)
    assert len(message) < 300 and f"... <{size} characters>" in message


LONG_ARG = "x" * 10**5  # argv caps one string at 128 KiB
LONG_ARGUMENT = {
    "budget": ["solve", "--ring", "cpn", "--phi", "0,1", "--budget", LONG_ARG],
    "ring": ["solve", "--ring", LONG_ARG, "--phi", "0,1"],
    "model-kind": ["model", LONG_ARG, "--b", "0,1"],
    "file": ["check", LONG_ARG],
}


def _exit_code(argv):
    """``main``'s exit code, argparse's usage error included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", LONG_ARGUMENT.values(), ids=LONG_ARGUMENT)
def test_the_cli_shows_a_long_argument_or_path_as_its_beginning_and_length(
    argv, capsys, tmp_path, monkeypatch
):
    # argparse's usage error and the file opener's error once held it whole.
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 2
    message = capsys.readouterr().err
    assert len(message.encode()) < 1000 and " characters>" in message


@pytest.mark.parametrize(
    "argv, line",
    [
        (["solve", "--ring", "cpn", "--phi", "0,1", "--budget", "x"],
         "hamfix solve: error: argument --budget: invalid int value: 'x'"),
        (["check", "missing.json"], "error: [Errno 2] No such file or directory: 'missing.json'"),
    ],
)
def test_the_cli_writes_a_short_argument_or_path_whole(argv, line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 2 and capsys.readouterr().err.splitlines()[-1] == line
