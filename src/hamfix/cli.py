"""Command line surface: check, ring, chern, model, solve, verify.

Each report command builds one payload and one list of text lines and
hands both to ``_report``, which writes the JSON object under ``--json``
and the lines otherwise; ``model`` writes its document directly.

Exit codes are a contract: 0 all checks passed, 1 some check or
implication failed, 2 unreadable or invalid input, 3 search budget
exceeded.  ``main`` maps every error to its code in one place.
``ring`` and ``chern`` refuse (exit 1) data that fails any of
``consistency_checks``, since their formulas are meaningless there.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .cohomology import RingKind, RingSpec, chern_coefficients, classify_ring, ring_coefficients
from .core import FixedPointData, _clip, _past_digit_limit, _show, rat
from .documents import InputDocument, load_document, serialize_document
from .errors import HamfixError, ParseError, SearchBudgetExceeded
from .models import cpn_model, quadric_model
from .solver import (
    DEFAULT_BUDGET,
    Check,
    consistency_checks,
    enumerate_weight_systems,
    verify_equivalence,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3

_MODELS = {"cpn": cpn_model, "quadric": quadric_model}
_RINGS = {"cpn": RingKind.PROJECTIVE_SPACE, "quadric": RingKind.QUADRIC, "other": RingKind.OTHER}
_OTHER_RING_ANSATZ = (
    "searched under the paired-sphere ansatz only: systems outside it are not listed, "
    "and a count of 0 does not prove that none exist"
)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with a caller's value in a usage error cut by ``_clip``;
    ``add_subparsers`` builds the subcommands' parsers from this class too."""

    def error(self, message: str):
        super().error(_clip(message))


def _build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    report = argparse.ArgumentParser(add_help=False, parents=[out])
    report.add_argument("--json", action="store_true", help="emit a machine-readable report")
    document = argparse.ArgumentParser(add_help=False, parents=[report])
    document.add_argument(
        "--normalize", action="store_true", help="translate moment values so phi(P_0) = 0"
    )
    document.add_argument(
        "--no-integrality",
        action="store_true",
        help="do not require integral moment differences",
    )
    search = argparse.ArgumentParser(add_help=False, parents=[report])
    search.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="solver cap on the weight assignments one search finds and on "
        f"the number of assignments placed (default {DEFAULT_BUDGET})",
    )

    parser = _Parser(
        prog="hamfix",
        description="Fixed point data of Hamiltonian circle actions: "
        "consistency checks, ring/Chern invariants, weight-system search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, run, text in (
        ("check", _cmd_check, "run all consistency checks on a file"),
        ("ring", _cmd_ring, "ring coefficients and classification"),
        ("chern", _cmd_chern, "Chern coefficients and sigma tables"),
    ):
        p = sub.add_parser(name, parents=[document], help=text)
        p.set_defaults(run=run)
        p.add_argument("file")

    p = sub.add_parser("model", parents=[out], help="write a standard model document")
    p.set_defaults(run=_cmd_model)
    p.add_argument("kind", choices=list(_MODELS))
    p.add_argument("--b", required=True, metavar="LIST", help="comma-separated exponents")

    for name, run, text in (
        ("solve", _cmd_solve, "enumerate consistent weight systems"),
        ("verify", _cmd_verify, "verify the four ring equivalences"),
    ):
        p = sub.add_parser(name, parents=[search], help=text)
        p.set_defaults(run=run)
        p.add_argument("--ring", required=True, choices=list(_RINGS))
        p.add_argument("--phi", required=True, metavar="LIST", help="comma-separated moment values")
        p.add_argument("--r", metavar="LIST", help="r-sequence for --ring other, e.g. 1,1,1/5,1/5")

    return parser


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise ParseError(flag, f"expected comma-separated integers, got {_show(raw)}") from None


def _ring_spec(args) -> tuple[RingSpec, list[int]]:
    phis = _parse_int_list(args.phi, "--phi")
    if args.ring == "other" and not args.r:
        raise ParseError("--r", "an r-sequence is required with --ring other")
    r = None
    if args.r is not None:  # a model ring refuses it in RingSpec
        try:
            r = tuple(rat(part.strip()) for part in args.r.split(","))
        except ParseError:
            shown = _show(args.r)
            raise ParseError("--r", f"expected comma-separated rationals, got {shown}") from None
    return RingSpec(_RINGS[args.ring], len(phis) - 1, r), phis


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _report(args, payload: dict, lines: list[str], code: int = EXIT_OK) -> int:
    """Write ``payload`` as JSON under ``--json``, else the text lines."""
    if args.json:
        _emit(args, json.dumps({"command": args.command, **payload}, indent=2) + "\n")
    else:
        _emit(args, "\n".join(lines) + "\n")
    return code


def _load(args) -> tuple[FixedPointData, tuple[Check, ...]]:
    """The file's data and its ``consistency_checks``."""
    data = load_document(args.file).data
    if args.normalize:
        data = data.normalized()
    return data, consistency_checks(data, require_integral_differences=not args.no_integrality)


def _checked(args) -> FixedPointData:
    """The file's data, or a HamfixError with the first failing check's
    detail, which ``main`` reports as exit 1."""
    data, checks = _load(args)
    failed = next((c for c in checks if not c.passed), None)
    if failed is not None:
        raise HamfixError(failed.detail)
    return data


def _check_line(check: Check) -> str:
    return f"{'PASS' if check.passed else 'FAIL'}  {check.name}" + (
        f": {check.detail}" if check.detail else ""
    )


def _format_rat_list(values) -> str:
    return ", ".join(str(v) for v in values)


def _chern_polynomial(gamma) -> str:
    text = "1"
    for i, g in enumerate(gamma, start=1):
        if g:
            mag = abs(g)
            coefficient = "" if mag == 1 else str(mag) if mag.denominator == 1 else f"({mag})"
            text += (" + " if g > 0 else " - ") + coefficient + ("x" if i == 1 else f"x^{i}")
    return text


def _cmd_check(args) -> int:
    data, checks = _load(args)
    passed = all(c.passed for c in checks)
    lines = [_check_line(c) for c in checks]
    lines.append("all checks passed" if passed else "some checks failed")
    payload = {"n": data.n, "passed": passed, "checks": [c._asdict() for c in checks]}
    return _report(args, payload, lines, EXIT_OK if passed else EXIT_CHECK_FAILED)


def _cmd_ring(args) -> int:
    data = _checked(args)
    rc = ring_coefficients(data)
    kind = classify_ring(rc).kind
    payload = {"n": rc.n, "r": [str(v) for v in rc.r], "classification": str(kind), "passed": True}
    return _report(args, payload, [f"r = {_format_rat_list(rc.r)}", f"classification: {kind}"])


def _cmd_chern(args) -> int:
    data = _checked(args)
    chern = chern_coefficients(data)
    polynomial = _chern_polynomial(chern.gamma)
    payload = {
        "n": chern.n,
        "polynomial": polynomial,
        "gamma": [str(v) for v in chern.gamma],
        "sigma": [list(row) for row in chern.sigma],
        "passed": True,
    }
    lines = [f"c = {polynomial}", f"gamma = {_format_rat_list(chern.gamma)}"]
    lines += [f"sigma P_{i}: {_format_rat_list(row)}" for i, row in enumerate(chern.sigma)]
    return _report(args, payload, lines)


def _cmd_model(args) -> int:
    b = _parse_int_list(args.b, "--b")
    name = f"{args.kind} b={','.join(str(v) for v in b)}"
    doc = InputDocument(_MODELS[args.kind](b), {"name": name})
    _emit(args, serialize_document(doc))
    return EXIT_OK


def _cmd_solve(args) -> int:
    spec, phis = _ring_spec(args)
    systems = enumerate_weight_systems(spec, phis, budget=args.budget)
    count = len(systems)
    documents = []  # each system as the object its serialized document holds
    lines = [f"{count} system found" if count == 1 else f"{count} systems found"]
    for k, data in enumerate(systems, start=1):
        points = [{"phi": str(p.moment_value), "weights": p.weights} for p in data.points]
        documents.append({"n": data.n, "points": points})
        lines.append(f"system {k}: phi = {_format_rat_list(data.moment_values)}")
        lines += [f"  P_{p.index}: {_format_rat_list(p.weights)}" for p in data.points]
    payload = {"ring": str(spec.kind), "n": spec.n, "count": count, "systems": documents}
    if spec.kind is RingKind.OTHER:  # for the model rings the ansatz is a theorem
        payload["ansatz"] = _OTHER_RING_ANSATZ
        lines.append(_OTHER_RING_ANSATZ)
    return _report(args, payload, lines)


def _cmd_verify(args) -> int:
    spec, phis = _ring_spec(args)
    report = verify_equivalence(spec, phis, budget=args.budget)
    payload = {
        "ring": str(spec.kind),
        "n": spec.n,
        "passed": report.passed,
        "count": report.system_count,
        "implications": [line._asdict() for line in report.lines],
    }
    lines = [_check_line(line) for line in report.lines]
    lines.append("equivalences verified" if report.passed else "verification failed")
    return _report(args, payload, lines, EXIT_OK if report.passed else EXIT_CHECK_FAILED)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # all output is built before any is written
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: {_past_digit_limit('the result')}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (HamfixError, OSError) as exc:
        # an OSError's text holds the caller's path whole
        print(f"error: {_clip(str(exc)) if isinstance(exc, OSError) else exc}", file=sys.stderr)
        if isinstance(exc, SearchBudgetExceeded):
            return EXIT_BUDGET
        # Bad parameters to generators and solvers are input errors; a file
        # that parses but defeats the invariant formulas is a failed check.
        if isinstance(exc, (ParseError, OSError)) or args.command in ("model", "solve", "verify"):
            return EXIT_INPUT_ERROR
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
