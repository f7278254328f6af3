"""The four workloads: seeded inputs, the timed call each item makes into
hamfix, and the exact oracle each result is checked against.

Every builder takes the freshly imported ``hamfix`` package ``hf``, a
seeded ``random.Random`` and a ``smoke`` flag (smallest size), and
returns ``(items, warmup)``.  An item's ``call`` is the only timed
part; ``check`` runs afterwards and raises ``Mismatch`` when the result
differs from the oracle.

Inputs are varied by the seed only in ways that keep the amount of work
per pass nearly fixed (translations of moment values, exponents drawn
from narrow ranges, shapes drawn from cost-matched groups), so that
run-to-run figures from different seeds are comparable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


class Mismatch(Exception):
    """An item's outcome differs from its oracle."""


@dataclass
class Item:
    id: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def expect(condition: bool, detail: str):
    if not condition:
        raise Mismatch(detail)


# --- independent oracles -------------------------------------------------


def cpn_chern(n: int) -> tuple[Fraction, ...]:
    """(1+x)^{n+1}: binomial(n+1, i) for i = 1..n."""
    return tuple(Fraction(comb(n + 1, i)) for i in range(1, n + 1))


def quadric_chern(n: int) -> tuple[Fraction, ...]:
    """(1+x)^{n+2} / (1+2x) by series division: c_k = C(n+2, k) - 2 c_{k-1}."""
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs.append(comb(n + 2, k) - 2 * coeffs[-1])
    return tuple(Fraction(c) for c in coeffs[1:])


def check_graph_complete(graph, n: int):
    """Every pair of fixed points joined by exactly one paired sphere."""
    expect(graph.missing_pairs == (), f"missing sphere pairs {graph.missing_pairs}")
    expect(graph.ambiguous == (), f"ambiguous weights {graph.ambiguous}")
    expect(all(e.paired for e in graph.edges), "unpaired gradient-sphere edge")
    expect(len(graph.edges) == n * (n + 1) // 2, f"{len(graph.edges)} edges for n = {n}")


# --- analyze -------------------------------------------------------------

# Seven size classes with equal counts: the median document then sits
# inside the fourth class by cost (Q^9), two places below its middle
# (the four cheap extra documents are below it), away from the CP^8 and
# CP^12 classes on either side.
ANALYZE_CLASSES = (("cpn", 4), ("quadric", 5), ("cpn", 8), ("quadric", 9), ("cpn", 12), ("quadric", 15), ("cpn", 16))
ANALYZE_PER_CLASS = 16

# The two exceptional 6-dimensional systems (rings Z[x,y]/(x^2-5y, y^2)
# and Z[x,y]/(x^2-22y, y^2)): weights, inferred moment values, r_2, C, d
# and volume.  Both have two spheres joining P_0 and P_3 and none joining
# P_0 to P_2 or P_1 to P_3.
EXCEPTIONAL = (
    ("case1", ((1, 2, 3), (-1, 1, 4), (-1, -4, 1), (-1, -2, -3)), (0, 1, 5, 6), Fraction(1, 5), 2, 6, 5),
    ("case2", ((1, 2, 3), (-1, 1, 5), (-1, -5, 1), (-1, -2, -3)), (0, 1, 11, 12), Fraction(1, 22), 1, 6, 22),
)


def _model(hf, rng, family: str, n: int):
    """A seeded model and its exact invariants (C, d, volume, Chern)."""
    # Exponents come from a window only one wider than needed, so every
    # model of a class has nearly the same gaps and the same cost.
    if family == "cpn":
        low = rng.randrange(-3, 4) - n // 2
        b = rng.sample(range(low, low + n + 2), n + 1)
        return hf.cpn_model(b), {"kind": hf.RingKind.PROJECTIVE_SPACE, "C": n + 1, "d": sum(b), "volume": 1, "gamma": cpn_chern(n)}
    half = (n + 1) // 2
    b = [m * rng.choice((1, -1)) for m in rng.sample(range(1, half + 2), half)]
    return hf.quadric_model(b), {"kind": hf.RingKind.QUADRIC, "C": n, "d": 0, "volume": 2, "gamma": quadric_chern(n)}


def _analyze_data(hf, data):
    """The read path after parsing: every invariant of one datum."""
    report = hf.validate(data)
    if not report.is_valid:
        return {"violations": report.violations}
    return {
        "C": hf.c1_coefficient(data),
        "d": hf.condition_d_offset(data),
        "battery": hf.vanishing_battery(data),
        "ring": hf.classify_ring(hf.ring_coefficients(data)),
        "chern": hf.chern_coefficients(data),
        "graph": hf.gradient_graph(data),
    }


def _analyze_document(hf, text: str):
    doc = hf.parse_document(text)
    out = _analyze_data(hf, doc.data)
    if "violations" not in out:
        out["text"] = hf.serialize_document(hf.InputDocument(doc.data, doc.meta))
    return out


def _check_model(text: str, n: int, want: dict):
    def check(out):
        expect("violations" not in out, f"valid model refused: {out.get('violations')}")
        expect(out["C"] == want["C"], f"C = {out['C']}, expected {want['C']}")
        expect(out["d"] == want["d"], f"d = {out['d']}, expected {want['d']}")
        battery = out["battery"]
        expect(battery.failures == () and battery.volume == want["volume"], f"battery {battery}")
        expect(out["ring"].kind is want["kind"] and out["ring"].n == n, f"ring {out['ring']}")
        expect(tuple(out["chern"].gamma) == want["gamma"], f"gamma {out['chern'].gamma}")
        check_graph_complete(out["graph"], n)
        expect(out["text"] == text, "serialized document differs from its input")

    return check


def _invalid_documents(hf, rng):
    """Documents that must fail ``validate``, with the exact (rule, point) list."""
    c = rng.randrange(-50, 51)
    no_negative = hf.FixedPointData.from_weights([c, c + 1, c + 2], [[1, 2], [1, 3], [-2, -1]])
    data = hf.cpn_model(rng.sample(range(-5, 6), 4))
    i = rng.randrange(3)
    weights = [list(p.weights) for p in data.points]
    weights[i][-1] = 0  # the largest weight at P_i (i < n) is positive
    zero = hf.FixedPointData.from_weights(data.moment_values, weights)
    return (
        ("invalid-no-negative", no_negative, (("negative-count", 1),)),
        ("invalid-zero-weight", zero, (("nonzero-weights", i),)),
    )


def _check_refused(expected):
    def check(out):
        got = tuple((v.rule, v.point) for v in out.get("violations", ()))
        expect(got == expected, f"violations {got}, expected {expected}")

    return check


def _check_exceptional(hf, phis, r2, c, d, volume):
    def check(out):
        expect(out["phis"] == [Fraction(v) for v in phis], f"inferred phi {out['phis']}")
        expect("violations" not in out, "exceptional system refused")
        expect(out["C"] == c and out["d"] == d, f"C = {out['C']}, d = {out['d']}")
        expect(out["battery"].passed and out["battery"].volume == volume, f"battery {out['battery']}")
        ring = out["ring"]
        expect(ring.kind is hf.RingKind.OTHER and ring.r == (1, 1, r2, r2), f"ring {ring}")
        gamma = out["chern"].gamma
        # gamma_1 is C, and the top Chern number is the Euler characteristic n+1.
        expect(gamma[0] == c and gamma[-1] * volume == 4, f"gamma {gamma}")
        graph = out["graph"]
        expect(len(graph.edges_between(0, 3)) == 2, "spheres between P_0 and P_3")
        expect(all(e.paired for e in graph.edges) and graph.ambiguous == (), "unpaired sphere")
        expect(graph.missing_pairs == ((0, 2), (1, 3)), f"missing pairs {graph.missing_pairs}")

    return check


def build_analyze(hf, rng, smoke: bool):
    per_class = 1 if smoke else ANALYZE_PER_CLASS
    classes = ANALYZE_CLASSES[:3] if smoke else ANALYZE_CLASSES
    models = {cls: [_model(hf, rng, *cls) for _ in range(per_class)] for cls in classes}
    items = []
    # Interleave the classes so every pass (and every prefix of one) has
    # the same mix.
    for k in range(per_class):
        for (family, n) in classes:
            data, want = models[(family, n)][k]
            text = hf.serialize_document(hf.InputDocument(data, {"name": f"{family}-{n}-{k}"}))
            items.append(
                Item(f"{family}{n}-{k}", f"{family}{n}", lambda t=text: _analyze_document(hf, t), _check_model(text, n, want))
            )

    def exceptional(weights):
        phis = hf.infer_moment_values(weights)
        out = _analyze_data(hf, hf.FixedPointData.from_weights(phis, weights))
        out["phis"] = phis
        return out

    for name, weights, *expected in EXCEPTIONAL:
        items.append(Item(name, "exceptional", lambda w=weights: exceptional(w), _check_exceptional(hf, *expected)))
    for name, data, violations in _invalid_documents(hf, rng):
        text = hf.serialize_document(hf.InputDocument(data))
        items.append(Item(name, "invalid", lambda t=text: _analyze_document(hf, t), _check_refused(violations)))
    # Every document takes the same code path, so the two cheapest classes
    # and the four extra items warm up all of it.
    warmup = items[:2] + items[-4:]
    return items, warmup


# --- solver instances ----------------------------------------------------


def _check_unique(expected):
    def check(systems):
        expect(len(systems) == 1, f"{len(systems)} systems, expected exactly 1")
        expect(systems[0] == expected, "the unique system differs from the standard one")

    return check


def _solve_item(hf, item_id: str, kind, phis: list[int]) -> Item:
    spec = hf.RingSpec(kind, len(phis) - 1)
    if kind is hf.RingKind.PROJECTIVE_SPACE:
        expected = hf.expected_weights_cpn(phis)
    else:
        expected = hf.expected_weights_quadric(phis)
    return Item(item_id, f"solve-{kind.value}-{len(phis) - 1}", lambda: hf.enumerate_weight_systems(spec, phis), _check_unique(expected))


def _quadric_phis(b) -> list[int]:
    mags = sorted(b, reverse=True)
    return [-m for m in mags] + [m for m in reversed(mags)]


def build_solve_deep(hf, rng, smoke: bool):
    P, Q = hf.RingKind.PROJECTIVE_SPACE, hf.RingKind.QUADRIC

    def shift(phis):
        c = rng.randrange(-500, 501)
        return [v + c for v in phis]

    warmup = [_solve_item(hf, "warm-cp3", P, [0, 6, 12, 18]), _solve_item(hf, "warm-q3", Q, [-4, -2, 2, 4])]
    if smoke:
        instances = [("cp6-gap12", P, [12 * i for i in range(7)]), ("q7-b24", Q, _quadric_phis((24, 18, 12, 6)))]
        return [_solve_item(hf, name, kind, phis) for name, kind, phis in instances], warmup
    # The two named instances, untranslated, and seeded instances of the
    # same shape: CP^6 and CP^7 with a gap drawn from a cost-matched
    # group, and five translates of one Q^7 shape.  The seeded CP^6 and
    # CP^7 cost less than a Q^7 translate and the named ones more, so the
    # median item is the middle translate whichever gaps the seed drew.
    g6 = rng.choice((12, 18, 20))
    g7 = rng.choice((6, 8))
    q7 = [(f"q7-b30-{k}", Q, shift(_quadric_phis((30, 24, 12, 6)))) for k in range(5)]
    seeded = [q7[0], (f"cp6-gap{g6}", P, shift([g6 * i for i in range(7)])), q7[1], q7[2], q7[3],
              (f"cp7-gap{g7}", P, shift([g7 * i for i in range(8)])), q7[4]]
    seeded_items = [_solve_item(hf, name, kind, phis) for name, kind, phis in seeded]
    # The named instances take seconds and the seeded ones a fraction of a
    # second, so each seeded item runs after each named one: it is timed
    # twice per pass, seconds apart.
    items = [_solve_item(hf, "cpn-gap60", P, [60 * i for i in range(7)]), *seeded_items,
             _solve_item(hf, "quadric-60", Q, [-60, -36, -24, -12, 12, 24, 36, 60]), *seeded_items]
    return items, warmup


# Quadric shapes for solve-wide, given as (n, smallest exponent, steps
# between consecutive exponents); every step is 1 or 2.  Shapes within
# one group assemble the same number of candidates and take about the
# same time, so drawing shapes per group keeps the work per pass nearly
# fixed across seeds.  At full speed on one core of a 2-vCPU VM the
# groups take about 10, 26, 140, 50, 68, 94 and 340 ms.
WIDE_GROUPS = (
    ((9, 1, (1, 1, 1, 1)), (9, 1, (1, 2, 1, 1)), (9, 1, (2, 1, 1, 1)), (9, 2, (1, 1, 2, 1)), (9, 2, (2, 1, 1, 1))),
    ((9, 2, (1, 1, 2, 2)), (9, 2, (2, 1, 1, 2))),
    ((9, 1, (2, 2, 2, 2)),),
    ((11, 1, (1, 1, 1, 2, 1)), (11, 1, (1, 2, 1, 1, 1)), (11, 1, (2, 1, 1, 1, 2))),
    ((11, 1, (2, 1, 1, 1, 1)), (11, 1, (2, 2, 1, 1, 1))),
    ((11, 1, (1, 1, 1, 1, 2)), (11, 2, (1, 1, 1, 1, 2))),
    ((11, 1, (2, 2, 2, 1, 1)),),
)

# How often each group is drawn per pass.  The 12 quick items (ten
# verify runs, two Other rings) and the three draws of group 0 are
# cheaper than group 1, and the 15 draws of groups 2-6 dearer, so the
# median item is a middle draw of group 1, a solve of about 25 ms, with
# classes well apart from it on either side.
WIDE_DRAWS = (3, 12, 3, 3, 3, 3, 3)

OTHER_RINGS = (
    ("other-v5", (1, 1, Fraction(1, 5), Fraction(1, 5)), (0, 1, 5, 6)),
    ("other-v22", (1, 1, Fraction(1, 22), Fraction(1, 22)), (0, 1, 11, 12)),
)


def _check_verified(report):
    expect(report.passed, "; ".join(f"{l.name}: {l.detail}" for l in report.lines if not l.passed))


def _check_sound(hf, r, phis):
    # The solver is a filter for Other rings: whatever it returns must be
    # consistent and re-measure to the requested ring.
    def check(systems):
        for data in systems:
            expect(list(data.moment_values) == [Fraction(v) for v in phis], "moment values changed")
            expect(hf.validate(data).is_valid, "returned system fails validate")
            expect(hf.vanishing_battery(data).passed, "returned system fails the battery")
            expect(hf.ring_coefficients(data).r == r, "returned system has another ring")

    return check


def _interleave(slow: list[Item], quick: list[Item]) -> list[Item]:
    """Spread the quick items evenly between the slow ones."""
    out = []
    for i, item in enumerate(slow):
        out.append(item)
        out.extend(quick[len(quick) * i // len(slow):len(quick) * (i + 1) // len(slow)])
    return out


def build_solve_wide(hf, rng, smoke: bool):
    P, Q = hf.RingKind.PROJECTIVE_SPACE, hf.RingKind.QUADRIC
    draws = (1,) if smoke else WIDE_DRAWS
    # Draw k of a group drawn d times sits at (k + 1/2) / d of the pass,
    # so that each cost class is sampled evenly across the pass.
    order = sorted(((k + 0.5) / d, g, k) for g, d in enumerate(draws) for k in range(d))
    slow = []
    for _, g, k in order:
        n, low, steps = rng.choice(WIDE_GROUPS[g])
        b = [low]
        for s in steps:
            b.append(b[-1] + s)
        c = rng.randrange(-500, 501)
        slow.append(_solve_item(hf, f"wide{g}.{k}-q{n}", Q, [v + c for v in _quadric_phis(b)]))

    def verify_item(item_id, kind, phis):
        spec = hf.RingSpec(kind, len(phis) - 1)
        return Item(item_id, f"verify-{kind.value}", lambda: hf.verify_equivalence(spec, phis), _check_verified)

    c = rng.randrange(-500, 501)
    quick = []
    cpn_sizes = (2, 3) if smoke else range(2, 9)
    for n in cpn_sizes:
        quick.append(verify_item(f"verify-cp{n}", P, [c + i for i in range(n + 1)]))
    for b in ((2, 1),) if smoke else ((2, 1), (3, 2, 1), (4, 3, 2, 1)):
        quick.append(verify_item(f"verify-q{2 * len(b) - 1}", Q, [c + v for v in _quadric_phis(b)]))
    for name, r, phis in OTHER_RINGS:
        spec = hf.RingSpec(hf.RingKind.OTHER, len(phis) - 1, r)
        shifted = [c + v for v in phis]
        quick.append(Item(name, "other", lambda s=spec, p=shifted: hf.enumerate_weight_systems(s, p), _check_sound(hf, r, shifted)))
    warmup = [quick[-1], verify_item("warm-cp2", P, [0, 1, 2])]
    return _interleave(slow, quick), warmup


# --- cli -----------------------------------------------------------------


class Children:
    """Runs `python -m hamfix` and bare interpreters from the checkout root."""

    def __init__(self, root: Path):
        self.root = root
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv: list[str], *, importtime: bool = False) -> subprocess.CompletedProcess:
        flags = ["-X", "importtime"] if importtime else []
        return subprocess.run(
            [sys.executable, *flags, *argv], cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )

    def hamfix(self, args: list[str], **kw) -> subprocess.CompletedProcess:
        return self.run(["-m", "hamfix", *args], **kw)

    def interpreter(self) -> subprocess.CompletedProcess:
        return self.run(["-c", "pass"])


def import_ms(stderr: str) -> float:
    """Cumulative `-X importtime` cost of the hamfix package plus hamfix.cli."""
    total_us = 0
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if fields[-1].strip() in ("hamfix", "hamfix.cli"):
                total_us += int(fields[1])
    return total_us / 1000.0


def _expect_exit(proc, code: int):
    expect(proc.returncode == code, f"exit {proc.returncode}, expected {code}: {proc.stderr.strip()[-200:]}")


def _check_cli(code: int, verify_output: Callable[[subprocess.CompletedProcess], None] | None = None):
    def check(proc):
        _expect_exit(proc, code)
        if verify_output is not None:
            verify_output(proc)

    return check


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _points_text(data) -> list[str]:
    return [f"  P_{p.index}: {', '.join(str(w) for w in p.weights)}" for p in data.points]


def cli_cases(hf, rng, root: Path, tmp: Path, smoke: bool):
    """(id, command, argv, check) for one pass of the cli mix."""
    golden = root / "tests" / "data"
    c = rng.randrange(-50, 51)

    b_cpn = rng.sample(range(-6, 7), 4)
    b_q = [m * rng.choice((1, -1)) for m in rng.sample(range(1, 6), 3)]
    model_cpn, model_q = tmp / "model_cpn.json", tmp / "model_quadric.json"

    def check_model_file(path, name, expected):
        def verify(proc):
            text = path.read_text(encoding="utf-8")
            doc = hf.parse_document(text)
            expect(doc.data == expected, f"{path.name}: weights differ from the standard model")
            expect(doc.meta == {"name": name}, f"{path.name}: meta {doc.meta}")
            expect(hf.serialize_document(doc) == text, f"{path.name}: not in canonical form")

        return verify

    q_phis = sorted([-abs(v) for v in b_q] + [abs(v) for v in b_q])
    valid_cp, _ = _model(hf, rng, "cpn", 6)
    valid_q, q_want = _model(hf, rng, "quadric", 5)
    invalid = dict((name, data) for name, data, _ in _invalid_documents(hf, rng))
    files = {
        "valid_cp6.json": valid_cp,
        "valid_q5.json": valid_q,
        "invalid_zero.json": invalid["invalid-zero-weight"],
        "invalid_ring.json": invalid["invalid-no-negative"],
    }
    for name, data in files.items():
        hf.save_document(hf.InputDocument(data), str(tmp / name))
    zero_point = next(p.index for p in invalid["invalid-zero-weight"].points if 0 in p.weights)

    def stdout_is(text):
        def verify(proc):
            expect(proc.stdout == text, f"stdout {proc.stdout[:200]!r}")

        return verify

    def stdout_has(*parts):
        def verify(proc):
            for part in parts:
                expect(part in proc.stdout, f"{part!r} not in stdout {proc.stdout[:200]!r}")

        return verify

    def chern_json(proc):
        payload = json.loads(proc.stdout)
        expect(tuple(Fraction(g) for g in payload["gamma"]) == q_want["gamma"], f"gamma {payload['gamma']}")

    solve_cpn_phis = [c + i for i in range(4)]
    expected_cpn = hf.expected_weights_cpn(solve_cpn_phis)
    solve_q_phis = [c + v for v in _quadric_phis((2, 1))]
    expected_q = hf.expected_weights_quadric(solve_q_phis)

    def solve_json(proc):
        payload = json.loads(proc.stdout)
        expect(payload["count"] == 1, f"{payload['count']} systems")
        found = hf.document_from_json(payload["systems"][0]).data
        expect(found == expected_q, "solved system differs from the standard quadric")

    b_text = _csv(b_cpn)
    bq_text = _csv(b_q)
    cases = [
        ("model-cpn", "model", ["model", "cpn", f"--b={b_text}", "--out", str(model_cpn)],
         _check_cli(0, check_model_file(model_cpn, f"cpn b={b_text}", hf.expected_weights_cpn(sorted(b_cpn))))),
        ("model-quadric", "model", ["model", "quadric", f"--b={bq_text}", "--out", str(model_q)],
         _check_cli(0, check_model_file(model_q, f"quadric b={bq_text}", hf.expected_weights_quadric(q_phis)))),
        ("check-golden", "check", ["check", str(golden / "cp2.golden.json"), "--json"],
         _check_cli(0, stdout_is((golden / "check_cp2.golden.json").read_text(encoding="utf-8")))),
        ("check-valid", "check", ["check", str(tmp / "valid_cp6.json")],
         _check_cli(0, stdout_has("C = 7", "volume = 1", "all checks passed"))),
        ("check-invalid", "check", ["check", str(tmp / "invalid_zero.json")],
         _check_cli(1, stdout_has(f"FAIL  validate: zero weight at point {zero_point}", "some checks failed"))),
        ("ring-golden", "ring", ["ring", str(golden / "q3_meta.golden.json")],
         _check_cli(0, stdout_is("r = 1, 1, 1/2, 1/2\nclassification: Quadric\n"))),
        # Documented behaviour: a file that fails validate exits 1.  This
        # item is kept in the mix while hamfix still exits 0 here.
        ("ring-invalid", "ring", ["ring", str(tmp / "invalid_ring.json")], _check_cli(1)),
        ("chern-json", "chern", ["chern", str(tmp / "valid_q5.json"), "--json"], _check_cli(0, chern_json)),
        ("solve-cpn", "solve", ["solve", "--ring", "cpn", f"--phi={_csv(solve_cpn_phis)}"],
         _check_cli(0, stdout_is("\n".join(["1 system found", f"system 1: phi = {', '.join(str(v) for v in solve_cpn_phis)}", *_points_text(expected_cpn)]) + "\n"))),
        ("solve-quadric", "solve", ["solve", "--ring", "quadric", f"--phi={_csv(solve_q_phis)}", "--json"],
         _check_cli(0, solve_json)),
        ("verify-cpn", "verify", ["verify", "--ring", "cpn", f"--phi={_csv([c + i for i in range(5)])}"],
         _check_cli(0, stdout_has("equivalences verified"))),
        ("verify-quadric", "verify", ["verify", "--ring", "quadric", f"--phi={_csv([c + v for v in _quadric_phis((3, 2, 1))])}"],
         _check_cli(0, stdout_has("equivalences verified"))),
    ]
    if smoke:
        # One invocation per command, and the ring item on an invalid file.
        keep = {"model-cpn", "check-golden", "ring-golden", "ring-invalid", "chern-json", "solve-cpn", "verify-cpn"}
        cases = [case for case in cases if case[0] in keep]
    return cases


def build_cli(hf, rng, smoke: bool, root: Path, tmp: Path, children: Children):
    cases = cli_cases(hf, rng, root, tmp, smoke)
    items = []
    # A bare-interpreter run before every second invocation, so that the
    # start-up time subtracted from each invocation is measured alongside
    # it, and often enough for its median to be steady.
    for k, (item_id, command, argv, check) in enumerate(cases):
        if k % 2 == 0:
            items.append(Item(f"interpreter-{k}", "cli.interpreter", children.interpreter, lambda proc: _expect_exit(proc, 0)))
        items.append(Item(item_id, f"cli.{command}", lambda a=argv: children.hamfix(a), check))
    # No warm-up: the in-process import of the set-up has already written
    # the bytecode the children load, and a child's start-up varies too
    # much to belong to the set-up time.
    return items, []


# --- the fixed probe of the traced run -------------------------------------


def run_probe(hf, children: Children, tracer, root: Path, tmp: Path):
    """One tiny call into every layer, so that no per-layer figure is empty.

    The probe is the same for every workload and seed, so the counts it
    adds are fixed.  Child processes are recorded as ``cli.*`` spans.
    """
    tracer.item = "probe"
    tracer.active = True
    data = hf.cpn_model((0, 1, 2))
    hf.quadric_model((2, 1))
    hf.expected_weights_quadric([-2, -1, 1, 2])
    out = _analyze_document(hf, hf.serialize_document(hf.InputDocument(data)))
    _check_model(out["text"], 2, {"kind": hf.RingKind.PROJECTIVE_SPACE, "C": 3, "d": 3, "volume": 1, "gamma": cpn_chern(2)})(out)
    expect(hf.infer_moment_values(EXCEPTIONAL[0][1]) == list(EXCEPTIONAL[0][2]), "probe: infer_moment_values")
    spec = hf.RingSpec(hf.RingKind.PROJECTIVE_SPACE, 2)
    _check_unique(hf.expected_weights_cpn([0, 1, 2]))(hf.enumerate_weight_systems(spec, [0, 1, 2]))
    _check_verified(hf.verify_equivalence(spec, [0, 1, 2]))

    golden = root / "tests" / "data"
    runs = [
        ("check", ["check", str(golden / "cp2.golden.json"), "--json"]),
        ("ring", ["ring", str(golden / "q3_meta.golden.json")]),
        ("chern", ["chern", str(golden / "cp2.golden.json"), "--json"]),
        ("model", ["model", "cpn", "--b", "0,1,2", "--out", str(tmp / "probe_model.json")]),
        ("solve", ["solve", "--ring", "cpn", "--phi", "0,1,2"]),
        ("verify", ["verify", "--ring", "cpn", "--phi", "0,1,2"]),
    ]
    for _ in range(3):
        timed_child(tracer, "cli.interpreter", children.interpreter)
    for command, argv in runs:
        proc = timed_child(tracer, f"cli.{command}", lambda a=argv: children.hamfix(a))
        _expect_exit(proc, 0)
    start = perf_counter()
    proc = children.hamfix(runs[0][1], importtime=True)
    tracer.record("cli.importtime", start, perf_counter(), {"import_ms": import_ms(proc.stderr)})
    _expect_exit(proc, 0)


def timed_child(tracer, name: str, call):
    start = perf_counter()
    proc = call()
    tracer.record(name, start, perf_counter())
    return proc
