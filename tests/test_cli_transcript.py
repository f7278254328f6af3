"""Every command's exact output, pinned in one golden transcript.

Each case runs ``hamfix.cli.main`` in a directory holding the documents
below and records argv, exit code, stdout and stderr.  Paths are
relative, so the transcript does not depend on where it runs.  To
rewrite the golden after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"
GOLDEN = DATA_DIR / "cli_transcript.golden.json"

CASE1 = [(1, 2, 3), (-1, 1, 4), (-1, -4, 1), (-1, -2, -3)]


def _document(phis, weights):
    points = [{"phi": str(p), "weights": sorted(w)} for p, w in zip(phis, weights)]
    return json.dumps({"n": len(points) - 1, "points": points})


DOCUMENTS = {
    "case1.json": _document([0, 1, 5, 6], CASE1),
    # P_1 has no negative weight: fails validate
    "no_negative.json": _document([0, 1, 2], [(1, 2), (1, 3), (-2, -1)]),
    # CP^2 weights at phi = 0, 1, 3: valid, but Gamma is not affine in phi
    "non_affine.json": _document([0, 1, 3], [(1, 2), (-1, 1), (-2, -1)]),
    # valid, C = 5 and d = 2, but fails the vanishing battery
    "battery_fails.json": _document([0, 1, 2], [(1, 1), (-4, 1), (-4, -4)]),
    # two validate violations: P_1 and P_2 each lack a negative weight
    "two_violations.json": _document([0, 1, 3], [(1, 2), (1, 3), (-2, 1)]),
}
COPIES = {"cp2.json": "cp2.golden.json", "q3.json": "q3_meta.golden.json"}

CASES = (
    [
        [command, file, *json_flag]
        for command in ("check", "ring", "chern")
        for file in ("cp2.json", "q3.json", "case1.json")
        for json_flag in ([], ["--json"])
    ]
    + [
        [command, file, *json_flag]
        for command in ("ring", "chern")
        for file in ("no_negative.json", "non_affine.json")
        for json_flag in ([], ["--json"])
    ]
    + [
        ["check", "no_negative.json"],
        ["check", "q3.json", "--normalize"],
        ["check", "non_affine.json", "--json"],
        ["check", "absent.json"],
        ["model", "cpn", "--b", "0,1,2"],
        ["model", "quadric", "--b", "2,1"],
        ["model", "quadric", "--b=-3,1,2"],
    ]
    + [
        [command, *ring, *json_flag]
        for command in ("solve", "verify")
        for ring in (
            ["--ring", "cpn", "--phi", "0,1,2,3"],
            ["--ring", "quadric", "--phi=-2,-1,1,2"],
            ["--ring", "quadric", "--phi=-2,-1,1,3"],
            ["--ring", "other", "--r", "1,1,1/5,1/5", "--phi", "0,1,5,6"],
        )
        for json_flag in ([], ["--json"])
    ]
    + [
        [command, "--ring", "cpn", "--phi", "0,1,2", "--budget", budget]
        for command in ("solve", "verify")
        for budget in ("0", "-1")
    ]
    + [
        ["solve", "--ring", "other", "--phi", "0,1,2"],
        ["solve", "--ring", "other", "--r", "1,x", "--phi", "0,1"],
        ["verify", "--ring", "cpn", "--phi", "0,2,1"],
        ["verify", "--ring", "quadric", "--phi", "0,1,2"],
        ["ring", "battery_fails.json"],
        ["chern", "battery_fails.json"],
        ["ring", "battery_fails.json", "--json"],
        ["ring", "two_violations.json"],
        # the standard system is off the c1 line, so fails its consistency
        # checks: every line FAILs with the first failing check, exit 1
        ["verify", "--ring", "quadric", "--phi=-4,-3,1,4"],
        ["verify", "--ring", "quadric", "--phi=-4,-3,1,4", "--json"],
    ]
)


def _record(argv):
    from hamfix.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def transcript(workdir):
    for name, text in DOCUMENTS.items():
        (Path(workdir) / name).write_text(text, encoding="utf-8")
    for name, source in COPIES.items():
        shutil.copy(DATA_DIR / source, Path(workdir) / name)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return [_record(argv) for argv in CASES]
    finally:
        os.chdir(cwd)


def test_cli_transcript_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = transcript(tmp_path)
    assert [case["argv"] for case in actual] == [case["argv"] for case in expected]
    for got, want in zip(actual, expected):
        assert got == want, got["argv"]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        records = transcript(workdir)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
