import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamfix import (
    FixedPointData,
    InconsistentGamma,
    SpecMismatch,
    StructureError,
    cpn_model,
    expected_weights_cpn,
    expected_weights_quadric,
    infer_moment_values,
    quadric_model,
    validate,
)

from conftest import cpn_b_lists, quadric_b_lists


def test_cpn_model_cp2():
    data = cpn_model((0, 1, 2))
    assert data.moment_values == (0, 1, 2)
    assert [p.weights for p in data.points] == [(1, 2), (-1, 1), (-2, -1)]


def test_cpn_model_sphere():
    data = cpn_model((0, 1))
    assert [p.weights for p in data.points] == [(1,), (-1,)]


def test_cpn_model_sorts_b():
    assert cpn_model((2, 0, 1)) == cpn_model((0, 1, 2))


def test_cpn_model_duplicate_b():
    with pytest.raises(SpecMismatch, match="exponents must be pairwise distinct"):
        cpn_model((0, 0, 1))


def test_quadric_model_q3():
    data = quadric_model((2, 1))
    assert data.moment_values == (-2, -1, 1, 2)
    assert [p.weights for p in data.points] == [
        (1, 2, 3),
        (-1, 1, 3),
        (-3, -1, 1),
        (-3, -2, -1),
    ]


def test_quadric_model_absorbs_signs_and_order():
    assert quadric_model((-1, 2)) == quadric_model((2, 1))


@pytest.mark.parametrize("model", [cpn_model, quadric_model])
@pytest.mark.parametrize("b, bad", [([True, 2], True), (["a"], "a"), (["a", 1], "a"), ([1, 2.0], 2.0)])
def test_model_exponents_must_be_ints(model, b, bad):
    # Checked first: a bool is not read as 1, and a str or float raises no TypeError.
    with pytest.raises(SpecMismatch, match=rf"^exponents must be integers, got {re.escape(repr(bad))}$"):
        model(b)


@pytest.mark.parametrize(
    "build, values, error, message",
    [
        (cpn_model, 5, SpecMismatch, "exponents must be a sequence of integers, got 5"),
        (quadric_model, 5, SpecMismatch, "exponents must be a sequence of integers, got 5"),
        (expected_weights_cpn, 5, SpecMismatch, "moment values must be a sequence of integers, got 5"),
        (infer_moment_values, [1, 2], InconsistentGamma, "weights must be a sequence of integers, got 1"),
    ],
)
def test_a_list_that_is_not_iterable_raises_its_error(build, values, error, message):
    # Not "TypeError: 'int' object is not iterable" from inside the reader.
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(values)


def test_quadric_model_errors():
    with pytest.raises(SpecMismatch, match="exponents must be nonzero"):
        quadric_model((2, 0))
    with pytest.raises(SpecMismatch, match="exponents must have distinct absolute values"):
        quadric_model((2, -2))
    with pytest.raises(StructureError, match="need at least two exponents"):
        quadric_model((2,))
    with pytest.raises(SpecMismatch, match="quadric weights require odd n, got 4"):
        expected_weights_quadric((-2, -1, 1, 2, 3))


def test_expected_weights_cpn_gaps():
    data = expected_weights_cpn((0, 2, 5))
    assert data.points[1].weights == (-2, 3)


def test_expected_weights_cpn_non_increasing():
    with pytest.raises(SpecMismatch, match="moment values must be strictly increasing: 1 then 1"):
        expected_weights_cpn((1, 1, 2))


def test_expected_weights_quadric_odd_gap():
    with pytest.raises(SpecMismatch, match=r"moment gap phi\(P_3\) - phi\(P_0\) = 5 is odd; its half-weight"):
        expected_weights_quadric((-2, -1, 1, 3))


def test_expected_weights_quadric_asymmetric_moments():
    data = expected_weights_quadric((-4, -1, 1, 4))
    assert data.points[1].weights == (-3, 1, 5)
    assert validate(data).is_valid


def _diagonal_action(b):
    """Weights of the diagonal action on CP^n: {b_j - b_i} at P_i."""
    bs = sorted(b)
    return FixedPointData.from_weights(bs, [[c - a for c in bs if c != a] for a in bs])


def _rotation_action(b):
    """Weights of the rotation action on the 2-plane Grassmannian: at the
    fixed point -b_i, {b_j + b_i, -b_j + b_i}_{j != i} + {b_i}; at +b_i,
    their negatives."""
    bs = sorted((abs(v) for v in b), reverse=True)
    low = {-a: [s * c + a for c in bs if c != a for s in (1, -1)] + [a] for a in bs}
    phis = sorted(low) + sorted(-p for p in low)
    weights = [low[p] if p < 0 else [-w for w in low[-p]] for p in phis]
    return FixedPointData.from_weights(phis, weights)


@given(cpn_b_lists())
def test_expected_weights_cpn_round_trip(b):
    # The action's weights are the ones its moment values force, and the model's.
    action = _diagonal_action(b)
    assert expected_weights_cpn([int(v) for v in action.moment_values]) == action
    assert cpn_model(b) == action


@given(quadric_b_lists(ns=(3, 5, 7)))
def test_expected_weights_quadric_round_trip(b):
    action = _rotation_action(b)
    assert expected_weights_quadric([int(v) for v in action.moment_values]) == action
    assert quadric_model(b) == action


@st.composite
def quadric_moment_lists(draw):
    """Increasing ints for odd n from 3 to 9 whose antipodal gaps are all
    even, in general not symmetric about any point."""
    n = draw(st.sampled_from((3, 5, 7, 9)))
    phis = [draw(st.integers(-20, 20))]
    for i, step in enumerate(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)), 1):
        phis.append(phis[-1] + step)
        if i > n - i and (phis[i] - phis[n - i]) % 2:
            phis[i] += 1  # P_{n-i} is placed: make the antipodal gap even
    return phis


def _quadric_weights(phis):
    """The quadric's weights as first written, on their own: the gaps to
    the non-antipodal points, plus the halved antipodal gap."""
    n = len(phis) - 1
    weights = [
        [q - p for j, q in enumerate(phis) if j != i and j != n - i] + [(phis[n - i] - p) // 2]
        for i, p in enumerate(phis)
    ]
    return FixedPointData.from_weights(phis, weights)


@given(quadric_moment_lists())
def test_standard_weights_at_asymmetric_moment_lists(phis):
    # The round trips above build only lists symmetric about 0.
    assert expected_weights_quadric(phis) == _quadric_weights(phis)
    assert expected_weights_cpn(phis) == _diagonal_action(phis)


@given(st.lists(st.integers(-8, 8), min_size=2, max_size=7, unique=True))
def test_cpn_model_always_validates(b):
    assert validate(cpn_model(b)).is_valid


@pytest.mark.parametrize(
    "build, values, message",
    [
        (quadric_model, [3], "need at least two exponents"),
        (expected_weights_quadric, [0, 2], "quadric weights require n >= 3, got 1"),
    ],
)
def test_quadric_refuses_too_few_points(build, values, message):
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        build(values)
