"""Library results on a seeded corpus, pinned input by input.

Each record is one call, written out as its label, and a digest: the
first 16 hex digits of the sha256 of the result's ``repr``, or of
``"<exception type>: <message>"`` when the call raises.  A change that
moves any reported number, order or message moves a digest, and the
test names the first input that moved.  The inputs come from one seed:
the model rings CP^1..7 and Q^3..9 at consecutive, antipodal and random
increasing moment values; Other rings with and without Poincare
duality; hostile inputs; every model ring's r-sequence and Chern series
up to n = 40; and the model builders and standard weights on the model
rings' moment lists, their upper halves and hostile inputs.  A
regenerated golden is a deliberate output change, to be listed record
by record.  To rewrite it:

    PYTHONPATH=src python tests/test_exactness.py
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from hamfix import (
    FixedPointData,
    RingKind,
    RingSpec,
    chern_coefficients,
    consistency_checks,
    cpn_model,
    enumerate_weight_systems,
    expected_weights_cpn,
    expected_weights_quadric,
    quadric_model,
    reference_chern,
    ring_coefficients,
    verify_equivalence,
)
from hamfix.cohomology import _affine_fit
from hamfix.core import _show

GOLDEN = Path(__file__).parent / "data" / "exactness.golden.json"
SEED = 31

CPN, QUADRIC, OTHER = RingKind.PROJECTIVE_SPACE, RingKind.QUADRIC, RingKind.OTHER
BUILDERS = (expected_weights_cpn, expected_weights_quadric, cpn_model, quadric_model)
F = Fraction
G2_RING = [1, 1, F(1, 3), F(1, 6), F(1, 18), F(1, 18)]  # G_2/P_2
Y16_RING = [1, 1, F(1, 2), F(1, 8), F(1, 16), F(1, 16)]  # LG(3,6) cut by a hyperplane
# (r-sequence, moment values at which a genuine datum of that ring is known)
OTHER_RINGS = [
    ([1, 1, F(1, 5), F(1, 5)], [[0, 1, 5, 6]]),
    ([1, 1, F(1, 22), F(1, 22)], [[0, 1, 11, 12]]),
    (G2_RING, [[0, 1, 4, 6, 9, 10], [0, 2, 5, 9, 12, 14]]),
    (Y16_RING, [[0, 2, 4, 8, 10, 12], [0, 2, 6, 10, 14, 16]]),
    ([1, 1, 1, 1], []),  # projective space, written out
    ([1, 1, F(1, 2), F(1, 2)], []),  # the quadric Q^3, written out
    ([1, 1, F(1, 2), F(1, 3)], []),  # no Poincare duality
    ([1, 1, F(1, 3), F(1, 2), F(1, 6)], []),  # no Poincare duality
    ([1, 1, F(2, 3), F(2, 3)], []),  # 1 / r_2 is not an integer
    ([1, 2, 1, 1], []),  # r_1 != 1
    ([1, 1, F(-1, 2), F(1, 2)], []),  # r_2 < 0
    ([1, 1, 0, 1], []),  # r_2 = 0
]


def _search(kind, n, r, phis, budget=None):
    return enumerate_weight_systems(RingSpec(kind, n, r), phis, budget=budget)


def _verify(kind, n, r, phis, budget=None):
    return verify_equivalence(RingSpec(kind, n, r), phis, budget=budget)


def _r_sequence(kind, n):
    return RingSpec(kind, n).r_sequence()


def _fit(phis, weights):
    return _affine_fit(FixedPointData.from_weights(phis, weights))


def _at_default_limit(fn, values):
    """``fn(values)``'s weights, built and shown under the interpreter's
    default digit limit, so a number past it reads the same whatever limit
    the tests run under."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        return [[_show(w) for w in p.weights] for p in fn(values).points]
    finally:
        sys.set_int_max_str_digits(limit)


def _label(value):
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_label, value)) + "]"
    return str(value) if isinstance(value, (int, Fraction, RingKind)) else repr(value)


def _increasing(rng, size, step=6):
    phis = [rng.randint(-6, 6)]
    for _ in range(size - 1):
        phis.append(phis[-1] + rng.randint(1, step))
    return phis


def _moment_lists(rng, n):
    """Consecutive, antipodal, random antipodal (odd n) and random increasing."""
    lists = [list(range(n + 1)), [2 * i - n for i in range(n + 1)]]
    for _ in range(3 if n % 2 else 0):
        half = sorted(rng.sample(range(1, 3 * n + 1), (n + 1) // 2))
        lists.append([-b for b in reversed(half)] + half)
    lists += [_increasing(rng, n + 1) for _ in range(6)]
    return [list(phis) for phis in dict.fromkeys(map(tuple, lists))]


class Corpus:
    def __init__(self):
        self.records = {}

    def call(self, label, fn, *args, **kwargs):
        """Record ``fn(*args, **kwargs)`` under ``label``; return its result or None."""
        try:
            result = fn(*args, **kwargs)
            text = repr(result)
        except Exception as exc:
            result, text = None, f"{type(exc).__name__}: {exc}"
        assert label not in self.records, label
        self.records[label] = hashlib.sha256(text.encode()).hexdigest()[:16]
        return result

    def ring(self, kind, n, r, phis, budgets=(None,)):
        """The search and verification at each budget, then every system
        the search at the first budget found, measured."""
        head = f"{_label(kind)}, {n}, {_label(r)}, {_label(phis)}"
        found = []
        for budget in budgets:
            args = (kind, n, r, phis, budget)
            found.append(self.call(f"search({head}, budget={budget})", _search, *args))
            self.call(f"verify({head}, budget={budget})", _verify, *args)
        for k, data in enumerate(found[0] or ()):
            self.system(f"search({head}) system {k}", data)

    def system(self, label, data):
        rng = random.Random(label)  # the same inputs whatever came before
        for fn in (consistency_checks, ring_coefficients, chern_coefficients):
            self.call(f"{fn.__name__}({label})", fn, data)
        # the c1 fit on rational moment values: translated, scaled, one moved
        weights = [p.weights for p in data.points]
        values = data.moment_values
        shift = F(rng.randint(-9, 9), rng.randint(1, 7))
        scale = F(rng.randint(1, 9), rng.randint(1, 7))
        moved = list(values)
        moved[rng.randrange(len(moved))] += F(rng.randint(1, 5), rng.randint(2, 7))
        for phis in ([v + shift for v in values], [v * scale for v in values], moved):
            self.call(f"_affine_fit({label} at {_label(phis)})", _fit, phis, weights)


def corpus():
    rng = random.Random(SEED)
    c = Corpus()
    model_lists = {}
    for kind, ns in ((CPN, range(1, 8)), (QUADRIC, range(3, 10, 2))):
        for n in ns:
            for j, phis in enumerate(_moment_lists(rng, n)):
                model_lists.update(dict.fromkeys([tuple(phis), tuple(phis[len(phis) // 2:])]))
                c.ring(kind, n, None, phis, (None, 0, 1) if j == 0 else (None,))
    for r, known in OTHER_RINGS:
        n = len(r) - 1
        lists = known + [[3 * v + rng.randint(-9, 9) for v in phis] for phis in known]
        lists += [list(range(n + 1))] + [_increasing(rng, n + 1, 3) for _ in range(6)]
        for j, phis in enumerate(lists):
            c.ring(OTHER, n, r, phis, (None, 0, 1) if j == 0 else (None,))

    # Hostile inputs: wrong lengths, moment values unsorted, tied or not
    # ints, budgets that are not nonnegative ints, dimensions no ring has.
    for phis in ([0, 1, 2], [0, 1, 2, 3, 4], [0, 2, 1, 3], [0, 1, 1, 2], [0, 1.5, 2, 3],
                 [0, F(1, 2), 1, 2], [0, True, 2, 3], [0, "1", 2, 3], [3, 2, 1, 0]):
        c.ring(CPN, 3, None, phis)
        c.ring(QUADRIC, 3, None, phis)
    for budget in (-1, True, 1.5, "5"):
        c.ring(CPN, 2, None, [0, 1, 2], (budget,))
    for kind, n, r in ((CPN, 0, None), (CPN, -1, None), (QUADRIC, 1, None), (QUADRIC, 4, None),
                       (CPN, 1.0, None), (CPN, True, None), (CPN, 1, [1, 1]), (OTHER, 1, None),
                       (OTHER, 1, [1]), (OTHER, 1, "11"), (OTHER, 1, {1: 1})):
        c.ring(kind, n, r, [0, 1])
    # Kinds that are not a RingKind.  RingSpec once built them, and the
    # search then failed in r_sequence with a bare AssertionError; these
    # records pin RingSpec's SpecMismatch that replaced it.
    for kind in ("x", None):
        for n in (1, 2, 3):
            c.ring(kind, n, None, list(range(n + 1)))
            c.call(f"r_sequence({kind!r}, {n})", _r_sequence, kind, n)
            c.call(f"reference_chern({kind!r}, {n})", reference_chern, kind, n)
        c.ring(kind, 1, [1, 1], [0, 1])

    for kind in RingKind:
        for n in range(41):
            c.call(f"r_sequence({kind}, {n})", _r_sequence, kind, n)
            c.call(f"reference_chern({kind}, {n})", reference_chern, kind, n)

    # The model builders and the standard weights on every model-ring
    # moment list and its upper half, then hostile inputs: even n, n = 1,
    # an odd antipodal gap, unsorted, tied, bool, non-int and non-iterable
    # values, zero and repeated exponents, and ints past the digit limit.
    hostile = [[0, 1, 2, 3, 4], [0, 1], [-1, 1], [0, 1, 2, 5], [-5, -1, 1, 4], [0, 2, 1, 3],
               [3, 2, 1, 0], [0, 1, 1, 2], [1, 1], [0, True, 2, 3], [True, 2], [False, 1],
               [0, 1.5, 2, 3], [0, F(1, 2), 1, 2], [0, "1", 2, 3], [], [4], 5, None, "0123",
               [2, -2, 1, -1], [0, 2, 1], [3, -1, 2]]
    inputs = {_label(values): values for values in [list(phis) for phis in model_lists] + hostile}
    for label, values in inputs.items():
        for fn in BUILDERS:
            c.call(f"{fn.__name__}({label})", fn, values)
    huge = 10**5000
    for label, values in (("[0, 1, 2, 10**5000]", [0, 1, 2, huge]),
                          ("[0, 2, 4, 10**5000]", [0, 2, 4, huge]),
                          ("[0, 1, 2, 10**5000 + 1]", [0, 1, 2, huge + 1]),
                          ("[10**5000, 1]", [huge, 1]), ("[1, 10**5000, 3]", [1, huge, 3])):
        for fn in BUILDERS:
            c.call(f"{fn.__name__}({label})", _at_default_limit, fn, values)
    return c.records


def test_library_results_match_their_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = corpus()
    for label, digest in expected.items():
        assert actual.get(label) == digest, f"first input that moved: {label}"
    assert list(actual) == list(expected)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(corpus(), indent=1) + "\n", encoding="utf-8")
