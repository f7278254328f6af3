import json
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hamfix.cli
import hamfix.solver
from hamfix import (
    Check,
    FixedPointData,
    InputDocument,
    NonConstantC1,
    RingKind,
    RingSpec,
    c1_coefficient,
    consistency_checks,
    cpn_model,
    quadric_model,
    serialize_document,
    validate,
    verify_equivalence,
)
from hamfix.cli import _build_parser, _chern_polynomial, main

DATA_DIR = Path(__file__).parent / "data"


def golden(name):
    return (DATA_DIR / name).read_text(encoding="utf-8")


def write_model(tmp_path, data, name="data.json"):
    path = tmp_path / name
    path.write_text(serialize_document(InputDocument(data)), encoding="utf-8")
    return str(path)


def test_check_passes_on_model(tmp_path, capsys):
    path = write_model(tmp_path, cpn_model((0, 1, 2)))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "PASS  validate" in out
    assert "C = 3" in out


def test_check_json_golden(tmp_path, capsys):
    path = write_model(tmp_path, cpn_model((0, 1, 2)))
    assert main(["check", path, "--json"]) == 0
    assert capsys.readouterr().out == golden("check_cp2.golden.json")


def test_document_golden_bytes():
    doc = InputDocument(cpn_model((0, 1, 2)))
    assert serialize_document(doc) == golden("cp2.golden.json")
    meta_doc = InputDocument(
        quadric_model((2, 1)), {"name": "quadric b=2,1", "source": "golden fixture"}
    )
    assert serialize_document(meta_doc) == golden("q3_meta.golden.json")


def test_check_zero_weight_exits_1(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(
        '{"n": 1, "points": [{"phi": "0", "weights": [1]}, {"phi": "1", "weights": [0]}]}',
        encoding="utf-8",
    )
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "zero weight at point 1" in out


def test_check_malformed_phi_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"n": 1, "points": [{"phi": "1/0", "weights": [1]}, {"phi": "1", "weights": [-1]}]}',
        encoding="utf-8",
    )
    assert main(["check", str(path)]) == 2
    assert "points[0].phi" in capsys.readouterr().err


def test_check_missing_file_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2


def test_check_non_utf8_file_exits_2(tmp_path, capsys):
    # Once a UnicodeDecodeError traceback and exit 1 ("check failed").
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: $: not UTF-8 text: ")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
def test_check_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.loads raises a plain ValueError here, not a JSONDecodeError.
    path = tmp_path / "big.json"
    path.write_text('{"n": ' + "9" * (sys.get_int_max_str_digits() + 1) + "}", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: $: unreadable JSON: Exceeds the limit")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
@pytest.mark.parametrize("phi", ["1e5000", "1e10000000", "-2.5e-10000000", "1e4400"])
def test_check_phi_exponent_past_the_digit_limit_exits_2(tmp_path, capsys, phi):
    # "1e5000" once parsed and then made str() raise a ValueError
    # traceback, exit 1; "1e10000000" first spent seconds building 10**10000000.
    path = tmp_path / "big.json"
    path.write_text(
        '{"n": 1, "points": [{"phi": "0", "weights": [1]}, {"phi": "%s", "weights": [-1]}]}' % phi,
        encoding="utf-8",
    )
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: points[1].phi: ") and "digit limit" in err


def test_check_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: $: unreadable JSON: ")


# Numbers that the program computes may pass the interpreter's int-to-str
# digit limit although every number in the input is below it.  Each case
# below once ended in a ValueError traceback and exit 1.
past_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
LIMIT_ERROR = "holds an integer past the {}-digit limit; set PYTHONINTMAXSTRDIGITS\n"


@past_digit_limit
def test_check_writes_a_placeholder_for_a_difference_past_the_digit_limit(tmp_path, capsys):
    # phi_1 - phi_0 = 2 / ((10^4000 + 1)(10^4000 + 3)), an 8001-digit denominator
    big = 10**4000
    phis = [Fraction(1, big + 3), Fraction(1, big + 1), 5]
    data = FixedPointData.from_weights(phis, [(1, 1), (-1, 1), (-1, -1)])
    assert main(["check", write_model(tmp_path, data)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(
        "FAIL  validate: moment difference phi(P_1) - phi(P_0) = 2/<8001 digits> is not an integer; "
    )
    assert out[1:] == [
        "FAIL  c1-coefficient: not run: validation failed",
        "FAIL  condition-d: not run: validation failed",
        "FAIL  vanishing-battery: not run: validation failed",
        "some checks failed",
    ]
    # The library calls keep their verdicts and exception types.
    assert "= 2/<8001 digits> is not an integer" in validate(data).messages()[0]
    with pytest.raises(NonConstantC1, match=r"^pair \(0,1\) gives <8001 digits> but pair \(0,2\) gives "):
        c1_coefficient(data)
    checks = consistency_checks(data, require_integral_differences=False)
    assert [c.passed for c in checks] == [True, False, False, False]
    assert checks[1].detail.startswith("pair (0,1) gives <8001 digits> but")


def _volume_past_the_limit(n=10):
    # phi_i = i + 1/(10^600 + 1): on the c1 line (C = 2), but the battery
    # fails, and its volume has a 6001-digit denominator.
    phis = [i + Fraction(1, 10**600 + 1) for i in range(n + 1)]
    return FixedPointData.from_weights(phis, [[-1] * i + [1] * (n - i) for i in range(n + 1)])


@past_digit_limit
@pytest.mark.parametrize("command", ["check", "ring", "chern"])
def test_battery_volume_past_the_digit_limit_is_a_placeholder(tmp_path, capsys, command):
    path = write_model(tmp_path, _volume_past_the_limit())
    assert main([command, path, "--no-integrality"]) == 1
    captured = capsys.readouterr()
    detail = "non-vanishing powers 0, 1, 2, 3, 4, 5, 6, 7, 8, 9; volume = <6010 digits>/<6001 digits>"
    if command == "check":
        assert captured.out.splitlines()[-2:] == [f"FAIL  vanishing-battery: {detail}", "some checks failed"]
    else:
        assert (captured.out, captured.err) == ("", f"error: {detail}\n")


@past_digit_limit
@pytest.mark.parametrize("argv", [[], ["--json"], ["--out", "out.txt"]], ids=["text", "json", "out"])
def test_chern_result_past_the_digit_limit_exits_2(tmp_path, capsys, monkeypatch, argv):
    # A genuine CP^5 at gaps of 10^900: sigma_5 at P_0 has 4,503 digits.
    monkeypatch.chdir(tmp_path)
    path = write_model(tmp_path, cpn_model([i * 10**900 for i in range(6)]))
    assert main(["chern", path, *argv]) == 2
    captured = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert (captured.out, captured.err) == ("", "error: the result " + LIMIT_ERROR.format(limit))
    assert not (tmp_path / "out.txt").exists()


@past_digit_limit
def test_verify_names_an_odd_quadric_gap_past_the_digit_limit(capsys):
    # The odd gap phi_3 - phi_0 between two 4,300-digit values has 4,301 digits.
    top = 10 ** sys.get_int_max_str_digits() - 1
    assert main(["verify", "--ring", "quadric", f"--phi=-{top},-2,2,{top - 1}"]) == 1
    reason = (
        "standard weight system not constructible: moment gap phi(P_3) - phi(P_0) = "
        f"<{sys.get_int_max_str_digits() + 1} digits> is odd; its half-weight is not an integer"
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"FAIL  {name}: {reason}" for name in ("(2)=>(4)", "(4)=>(2)", "(4)=>(3)", "(4)=>(1)")] + [
        "verification failed"
    ]


@past_digit_limit
@pytest.mark.parametrize(
    "argv",
    [["solve", "--ring", "cpn", "--phi"], ["solve", "--json", "--ring", "cpn", "--phi"], ["model", "cpn", "--b"]],
    ids=["solve", "solve-json", "model"],
)
def test_weight_past_the_digit_limit_exits_2(tmp_path, capsys, monkeypatch, argv):
    # Both moment values have 4,300 digits; the weight between them has 4,301.
    # `model` writes a document, which names the point; `solve` writes no
    # document, for text and --json alike.
    monkeypatch.chdir(tmp_path)
    nines = "9" * sys.get_int_max_str_digits()
    where = "the result " if argv[0] == "solve" else "points[0]: the point "
    limit_error = "error: " + where + LIMIT_ERROR.format(sys.get_int_max_str_digits())
    for out in ([], ["--out", "out.txt"]):
        assert main([*argv[:-1], f"{argv[-1]}=-{nines},{nines}", *out]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", limit_error)
    assert not (tmp_path / "out.txt").exists()


def test_main_reraises_a_value_error_that_is_not_the_digit_limit(monkeypatch):
    def boom(data):
        raise ValueError("boom")

    monkeypatch.setattr(hamfix.cli, "ring_coefficients", boom)
    with pytest.raises(ValueError, match="^boom$"):
        main(["ring", str(DATA_DIR / "cp2.golden.json")])


def test_check_invalid_json_message_is_kept(tmp_path, capsys):
    path = tmp_path / "trailing.json"
    path.write_text("{} x", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: $: invalid JSON: Extra data: line 1 column 4 (char 3)\n"


def test_check_no_integrality_flag(tmp_path, capsys):
    path = tmp_path / "frac.json"
    path.write_text(
        '{"n": 1, "points": [{"phi": "0", "weights": [1]}, {"phi": "1/2", "weights": [-1]}]}',
        encoding="utf-8",
    )
    assert main(["check", str(path)]) == 1
    capsys.readouterr()
    assert main(["check", str(path), "--no-integrality"]) == 0


def test_check_refuses_data_off_the_c1_line_before_scaling_it(tmp_path, capsys):
    # phi_i = i + 1/d_i with distinct 600-digit d_i: the lcm of all 400
    # denominators has about 240,000 digits, and building it before the
    # first pair was compared took seconds.  No point on the line through
    # P_0 and P_1 can have P_2's denominator, so the fit stops at P_2.
    n, base = 399, 10**599
    phis = [i + Fraction(1, base + 2 * i + 1) for i in range(n + 1)]
    data = FixedPointData.from_weights(phis, [[-1] * i + [1] * (n - i) for i in range(n + 1)])
    path = write_model(tmp_path, data)
    start = time.perf_counter()
    assert main(["check", path, "--no-integrality"]) == 1
    elapsed = time.perf_counter() - start
    # Gamma_i = n - 2i
    fit = f"pair (0,1) gives {2 / (phis[1] - phis[0])} but pair (0,2) gives {4 / (phis[2] - phis[0])}"
    assert capsys.readouterr().out == (
        "PASS  validate\n"
        f"FAIL  c1-coefficient: {fit}\n"
        f"FAIL  condition-d: {fit}\n"
        "FAIL  vanishing-battery: not run: condition D failed\n"
        "some checks failed\n"
    )
    assert elapsed < 1.0, f"check took {elapsed:.3f}s"


def test_check_normalize_flag(tmp_path, capsys):
    path = write_model(tmp_path, cpn_model((5, 6, 7)))
    assert main(["check", path, "--normalize"]) == 0
    out = capsys.readouterr().out
    assert "d = 3" in out  # normalized offset equals the b=(0,1,2) model's


def test_ring_quadric(tmp_path, capsys):
    path = write_model(tmp_path, quadric_model((2, 1)))
    assert main(["ring", path]) == 0
    out = capsys.readouterr().out
    assert "1, 1, 1/2, 1/2" in out
    assert "Quadric" in out


def test_ring_exceptional_case(tmp_path, capsys):
    path = tmp_path / "case1.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "points": [
                    {"phi": "0", "weights": [1, 2, 3]},
                    {"phi": "1", "weights": [-1, 1, 4]},
                    {"phi": "5", "weights": [-4, -1, 1]},
                    {"phi": "6", "weights": [-3, -2, -1]},
                ],
            }
        ),
        encoding="utf-8",
    )
    assert main(["ring", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1, 1, 1/5, 1/5" in out
    assert "Other" in out


def test_ring_degenerate_exits_1(tmp_path, capsys):
    path = tmp_path / "deg.json"
    path.write_text(
        '{"n": 1, "points": [{"phi": "0", "weights": [1]}, {"phi": "1", "weights": [1]}]}',
        encoding="utf-8",
    )
    assert main(["ring", str(path)]) == 1


def test_ring_and_chern_refuse_data_failing_validate(tmp_path, capsys):
    # P_1 has no negative weight; the ring formula would still give r_2 = 1/21
    data = FixedPointData.from_weights([0, 1, 2], [(1, 2), (1, 3), (-2, -1)])
    path = write_model(tmp_path, data)
    for command in (["ring", path], ["chern", path], ["ring", path, "--json"]):
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative-weight count at P_1 is 0, expected 1" in captured.err


def test_ring_and_chern_refuse_data_failing_only_the_battery(tmp_path, capsys):
    # Valid, with C = 5 and d = 2, but the omega row of the localization
    # sums does not vanish; on the c1 line the battery reports that row only
    data = FixedPointData.from_weights([0, 1, 2], [(1, 1), (-4, 1), (-4, -4)])
    path = write_model(tmp_path, data)
    for command in (["ring", path], ["chern", path], ["ring", path, "--json"]):
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-vanishing powers 0, 1; volume = 0\n"


def test_ring_and_chern_refuse_non_constant_c1(tmp_path, capsys):
    # CP^2 weights at phi = 0, 1, 3 pass validate but have no constant c1
    weights = [p.weights for p in cpn_model((0, 1, 2)).points]
    path = write_model(tmp_path, FixedPointData.from_weights([0, 1, 3], weights))
    for command in ("ring", "chern"):
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pair (0,2) gives 2" in captured.err


def test_ring_honours_no_integrality(tmp_path, capsys):
    path = tmp_path / "frac.json"
    path.write_text(
        '{"n": 1, "points": [{"phi": "0", "weights": [1]}, {"phi": "1/2", "weights": [-1]}]}',
        encoding="utf-8",
    )
    assert main(["ring", str(path)]) == 1
    assert "is not an integer" in capsys.readouterr().err
    assert main(["ring", str(path), "--no-integrality"]) == 0
    assert "classification: ProjectiveSpace" in capsys.readouterr().out


def test_each_command_takes_only_the_flags_it_reads():
    flags = {
        "--json": [],
        "--out": ["report.txt"],
        "--normalize": [],
        "--no-integrality": [],
        "--budget": ["5"],
        "--jobs": ["2"],
        "--n": ["3"],
    }
    file_flags = {"--json", "--out", "--normalize", "--no-integrality"}
    solver_flags = {"--json", "--out", "--budget"}
    commands = {
        "check": (["check", "f.json"], file_flags),
        "ring": (["ring", "f.json"], file_flags),
        "chern": (["chern", "f.json"], file_flags),
        "model": (["model", "cpn", "--b", "0,1"], {"--out"}),
        "solve": (["solve", "--ring", "cpn", "--phi", "0,1"], solver_flags),
        "verify": (["verify", "--ring", "cpn", "--phi", "0,1"], solver_flags),
    }
    parser = _build_parser()
    for argv, accepted in commands.values():
        for flag, value in flags.items():
            if flag in accepted:
                parser.parse_args(argv + [flag, *value])
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv + [flag, *value])
                assert exc.value.code == 2


def test_chern_line(tmp_path, capsys):
    path = write_model(tmp_path, cpn_model((0, 1, 2)))
    assert main(["chern", path]) == 0
    out = capsys.readouterr().out
    assert "c = 1 + 3x + 3x^2" in out
    assert "sigma P_2: 1, -3, 2" in out


def test_chern_polynomial_skips_zero_and_unit_coefficients():
    assert _chern_polynomial((1, 0, Fraction(-1, 2), -1)) == "1 + x - (1/2)x^3 - x^4"


def test_chern_line_of_the_exceptional_case(tmp_path, capsys):
    data = FixedPointData.from_weights([0, 1, 11, 12], [(1, 2, 3), (-1, 1, 5), (-1, -5, 1), (-1, -2, -3)])
    assert main(["chern", write_model(tmp_path, data)]) == 0
    assert "c = 1 + x + (12/11)x^2 + (2/11)x^3\n" in capsys.readouterr().out


def test_model_cpn_round_trips_through_check(tmp_path, capsys):
    out_path = tmp_path / "model.json"
    assert main(["model", "cpn", "--b", "0,1,2", "--out", str(out_path)]) == 0
    assert main(["check", str(out_path)]) == 0


def test_model_quadric_document(tmp_path, capsys):
    assert main(["model", "quadric", "--b", "2,1"]) == 0
    doc = capsys.readouterr().out
    obj = json.loads(doc)
    assert obj["n"] == 3
    assert obj["points"][0] == {"phi": "-2", "weights": [1, 2, 3]}


def test_model_invalid_params_exit_2(capsys):
    assert main(["model", "cpn", "--b", "0,0,1"]) == 2
    assert main(["model", "quadric", "--b", "2"]) == 2
    assert main(["model", "quadric", "--b", "2,0"]) == 2
    assert main(["model", "cpn", "--b", "0,1,zzz"]) == 2


def test_empty_list_entries_exit_2(capsys):
    assert main(["solve", "--ring", "cpn", "--phi", "0,,1"]) == 2
    assert "--phi: expected comma-separated integers" in capsys.readouterr().err
    assert main(["model", "cpn", "--b", "0,,1"]) == 2
    assert "--b: expected comma-separated integers" in capsys.readouterr().err


def test_solve_unique(capsys):
    assert main(["solve", "--ring", "cpn", "--phi", "0,1,2"]) == 0
    out = capsys.readouterr().out
    assert "1 system found" in out
    assert "P_2: -2, -1" in out


def test_solve_empty(capsys):
    assert main(["solve", "--ring", "quadric", "--phi=-2,-1,1,3"]) == 0
    assert "0 systems found" in capsys.readouterr().out


def test_solve_json(capsys):
    assert main(["solve", "--ring", "quadric", "--phi=-2,-1,1,2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["systems"][0]["points"][0]["weights"] == [1, 2, 3]


def test_solve_other_ring(capsys):
    code = main(
        ["solve", "--ring", "other", "--r", "1,1,1/5,1/5", "--phi", "0,1,5,6", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ring"] == "Other"


def test_solve_other_ring_states_its_ansatz(capsys):
    # CASE1 is a genuine system at these values, yet the paired-sphere
    # search finds none: the output must not read as a proof.
    ansatz = (
        "searched under the paired-sphere ansatz only: systems outside it are not listed, "
        "and a count of 0 does not prove that none exist"
    )
    argv = ["solve", "--ring", "other", "--r", "1,1,1/5,1/5", "--phi", "0,1,5,6"]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"0 systems found\n{ansatz}\n"
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ansatz"] == ansatz
    # a model ring's search is exhaustive, and says nothing more
    assert main(["solve", "--ring", "cpn", "--phi", "0,1,2", "--json"]) == 0
    assert "ansatz" not in json.loads(capsys.readouterr().out)


def test_solve_other_requires_r(capsys):
    assert main(["solve", "--ring", "other", "--phi", "0,1,2"]) == 2


@pytest.mark.parametrize(
    "r, phi, detail",
    [
        ("1,1/2", "0,2", "r_1 must be 1, got 1/2"),
        ("1,1,0,0", "0,1,2,3", "r_2 must be positive, got 0"),
        ("1,1,-1,-1", "0,1,2,3", "r_2 must be positive, got -1"),
        ("2,1,1", "0,1,2", "r_0 must be 1, got 2"),
    ],
)
def test_solve_other_refuses_a_meaningless_r_sequence(capsys, r, phi, detail):
    # No fixed point data has such a ring, so a search result would be
    # meaningless: (1, 1/2) once returned P_0: 1, P_1: -1, whose ring is (1, 1).
    assert main(["solve", "--ring", "other", "--r", r, "--phi", phi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: r-sequence entry {detail}\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
def test_solve_refuses_a_huge_r_exponent_at_once(capsys):
    # --r once went through a bare Fraction, which built 10**10000000, and
    # the search then ran for about 10 s and exited 0.
    r = "1,1,1e10000000"
    assert main(["solve", "--ring", "other", "--r", r, "--phi", "0,1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --r: expected comma-separated rationals, got {r!r}\n"


def test_model_ring_refuses_r(capsys):
    # --r is read whenever it is given, and a model ring takes none
    for argv, kind in (
        (["solve", "--ring", "cpn", "--phi", "0,1,2"], "ProjectiveSpace"),
        (["verify", "--ring", "quadric", "--phi=-2,-1,1,2"], "Quadric"),
    ):
        assert main(argv + ["--r", "1,1,1,1"]) == 2
        assert capsys.readouterr().err == f"error: {kind} ring takes no explicit r-sequence\n"


def test_solve_budget_exit_3(capsys):
    assert main(["solve", "--ring", "cpn", "--phi", "0,1,2", "--budget", "0"]) == 3


def test_search_deeper_than_the_recursion_limit_exits_0(capsys):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        code = main(["solve", "--ring", "cpn", "--phi", ",".join(map(str, range(201)))])
    finally:
        sys.setrecursionlimit(limit)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.splitlines()[0] == "1 system found"


def test_budget_env_var(capsys, monkeypatch):
    # the budget comes from --budget or budget= only; the environment is not read
    monkeypatch.setenv("HAMFIX_BUDGET", "0")
    assert main(["solve", "--ring", "cpn", "--phi", "0,1,2"]) == 0
    assert "1 system found" in capsys.readouterr().out


def test_verify_cpn_exit_0(capsys):
    assert main(["verify", "--ring", "cpn", "--phi", "0,1,2,3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_verify_quadric_c1_line(capsys):
    assert main(["verify", "--ring", "quadric", "--phi=-2,-1,1,2"]) == 0
    assert "C = 3 = n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [
        ["--ring", "cpn", "--phi", "0,60,120,180,240,300,360"],
        ["--ring", "quadric", "--phi=-60,-36,-24,-12,12,24,36,60"],
    ],
)
def test_verify_wide_moment_gaps_is_fast(flags, capsys):
    # The unbounded divisor search took 5-7 s on each of these.
    start = time.perf_counter()
    assert main(["verify", *flags]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert out.count("PASS  ") == 4
    assert "unique weight system matches the standard model" in out
    assert elapsed < 2.0, f"verify took {elapsed:.3f}s"


@pytest.mark.parametrize(
    "phi",
    [
        # the README's Q^11 example, and Q^15 at b = 1..8 and Q^13 at
        # b = 2, 4, ..., 14: 332,640, 705,600 and 8,648,640 combinations
        # of their per-point assignments, but 20, 21 and 24 placements
        "-11,-9,-7,-5,-3,-1,1,3,5,7,9,11",
        "-8,-7,-6,-5,-4,-3,-2,-1,1,2,3,4,5,6,7,8",
        "-14,-12,-10,-8,-6,-4,-2,2,4,6,8,10,12,14",
    ],
    ids=["q11", "q15", "q13"],
)
def test_quadric_examples_verify_at_the_default_budget(phi, capsys):
    # The budget caps placements, not the product of the per-point
    # counts, which once refused each of these with exit 3.
    assert main(["verify", "--ring", "quadric", f"--phi={phi}"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("PASS  ") == 4
    assert captured.out.endswith("equivalences verified\n")


def test_verify_failure_exit_1(capsys):
    assert main(["verify", "--ring", "quadric", "--phi=-2,-1,1,3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


_CP2_LINES = {
    "(2)=>(4)": "PASS  (2)=>(4): unique weight system matches the standard model",
    "(4)=>(2)": "PASS  (4)=>(2): measured ring classifies as ProjectiveSpace",
    "(4)=>(3)": "PASS  (4)=>(3): Chern coefficients 3, 3",
    "(4)=>(1)": "PASS  (4)=>(1): C = 3 = n+1",
}


def _verify_cp2_fails_one_line(capsys, name, detail):
    report = verify_equivalence(RingSpec(RingKind.PROJECTIVE_SPACE, 2), [0, 1, 2])
    assert report.passed is False
    assert [line for line in report.lines if not line.passed] == [Check(name, False, detail)]
    assert main(["verify", "--ring", "cpn", "--phi", "0,1,2"]) == 1
    lines = {**_CP2_LINES, name: f"FAIL  {name}: {detail}"}
    assert capsys.readouterr().out == "\n".join([*lines.values(), "verification failed"]) + "\n"


@pytest.mark.parametrize(
    "found, detail",
    [
        ((), "0 consistent weight systems found"),
        (((0, 1, 2), (0, 2, 3)), "2 consistent weight systems found"),
        (((0, 2, 3),), "unique weight system differs from the standard model"),
    ],
    ids=["0", "2", "1-other"],
)
def test_verify_fails_2_implies_4_unless_one_system_is_found(monkeypatch, capsys, found, detail):
    # The line that reports the uniqueness half of the theorem failing.
    systems = [cpn_model(b) for b in found]
    monkeypatch.setattr(hamfix.solver, "enumerate_weight_systems", lambda *a, **k: systems)
    _verify_cp2_fails_one_line(capsys, "(2)=>(4)", detail)


def test_verify_fails_4_implies_1_on_a_c1_off_the_reference(monkeypatch, capsys):
    monkeypatch.setattr(hamfix.solver, "c1_coefficient", lambda data: Fraction(3 + 1))
    _verify_cp2_fails_one_line(capsys, "(4)=>(1)", "C = 4, expected 3")


def test_verify_bad_phi_exit_2(capsys):
    assert main(["verify", "--ring", "cpn", "--phi", "0,2,1"]) == 2
    capsys.readouterr()
    assert main(["verify", "--ring", "cpn", "--phi", "nope"]) == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    path = write_model(tmp_path, cpn_model((0, 1)))
    assert main(["check", path, "--out", str(target)]) == 0
    assert "PASS  validate" in target.read_text(encoding="utf-8")
    assert capsys.readouterr().out == ""


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hamfix", "verify", "--ring", "cpn", "--phi", "0,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 4


def _readme_block(heading, language):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line, comments=True)
        for line in _readme_block("CLI", "sh").splitlines()
        if line.startswith("hamfix ")
    ]
    assert commands
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
    exec(_readme_block("Library", "python"), {})
