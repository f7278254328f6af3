from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from hamfix import FixedPointData, cpn_model, quadric_model

settings.register_profile(
    "hamfix",
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("hamfix")


def cpn_b_lists(min_n=1, max_n=6, bound=8):
    """Admissible exponent lists for the projective-space model."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.integers(-bound, bound), min_size=n + 1, max_size=n + 1, unique=True
        )
    )


@st.composite
def quadric_b_lists(draw, ns=(3, 5), bound=8):
    """Admissible exponent lists for the quadric model (distinct |b_i| != 0)."""
    n = draw(st.sampled_from(ns))
    k = (n + 1) // 2
    mags = draw(st.lists(st.integers(1, bound), min_size=k, max_size=k, unique=True))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    return [m * s for m, s in zip(mags, signs)]


@st.composite
def model_data(draw, max_n=12):
    """CP^n or Q^n models with n <= max_n, translated by 1/3 half the time."""
    if draw(st.booleans()):
        data = cpn_model(draw(cpn_b_lists(max_n=max_n, bound=20)))
    else:
        ns = tuple(range(3, max_n + 1, 2))
        data = quadric_model(draw(quadric_b_lists(ns=ns, bound=20)))
    if draw(st.booleans()):
        data = data.translated(Fraction(1, 3))
    return data


@st.composite
def model_data_with_one_weight_changed(draw):
    data = draw(model_data())
    weights = [list(p.weights) for p in data.points]
    i, k = draw(st.integers(0, data.n)), draw(st.integers(0, data.n - 1))
    weights[i][k] = draw(st.integers(-30, 30).filter(lambda w: w != weights[i][k]))
    return FixedPointData.from_weights(data.moment_values, weights)


@st.composite
def rough_data(draw):
    """Random data with zero weights, tied Gammas (in half the cases) and
    moment values in thirds or halves, not always increasing or distinct."""
    n = draw(st.integers(1, 6))
    den = draw(st.sampled_from((1, 2, 3)))
    phis = draw(st.lists(st.integers(-12, 12), min_size=n + 1, max_size=n + 1))
    weights = draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n + 1, max_size=n + 1
        )
    )
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True))
        weights[b][0] += sum(weights[a]) - sum(weights[b])
    return FixedPointData.from_weights([Fraction(p, den) for p in phis], weights)


def read_path_data():
    """Models, models with one weight changed, and rough random data."""
    return st.one_of(model_data(), model_data_with_one_weight_changed(), rough_data())


def outcome(fn, *args):
    """repr of the result, or the exception's class name and text."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
