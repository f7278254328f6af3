"""Command line surface: check, ring, chern, model, solve, verify.

Exit codes are a contract: 0 all checks passed, 1 some check or
implication failed, 2 unreadable or invalid input, 3 search budget
exceeded.  ``ring`` and ``chern`` refuse (exit 1) data that fails
``validate`` or condition D, since their formulas are meaningless there.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from .cohomology import (
    RingKind,
    RingSpec,
    c1_coefficient,
    chern_coefficients,
    classify_ring,
    condition_d_offset,
    ring_coefficients,
)
from .core import validate
from .documents import InputDocument, load_document, serialize_document
from .errors import HamfixError, ParseError, SearchBudgetExceeded
from .localization import vanishing_battery
from .models import cpn_model, quadric_model
from .solver import enumerate_weight_systems, verify_equivalence

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3

_MODELS = {"cpn": cpn_model, "quadric": quadric_model}


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
        "--budget", type=int, default=None, metavar="N", help="candidate budget for the solver"
    )

    parser = argparse.ArgumentParser(
        prog="hamfix",
        description="Fixed point data of Hamiltonian circle actions: "
        "consistency checks, ring/Chern invariants, weight-system search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[document], help="run all consistency checks on a file")
    p.add_argument("file")

    p = sub.add_parser("ring", parents=[document], help="ring coefficients and classification")
    p.add_argument("file")

    p = sub.add_parser("chern", parents=[document], help="Chern coefficients and sigma tables")
    p.add_argument("file")

    p = sub.add_parser("model", parents=[out], help="write a standard model document")
    p.add_argument("kind", choices=list(_MODELS))
    p.add_argument("--b", required=True, metavar="LIST", help="comma-separated exponents")

    p = sub.add_parser("solve", parents=[search], help="enumerate consistent weight systems")
    _add_ring_args(p)

    p = sub.add_parser("verify", parents=[search], help="verify the four ring equivalences")
    _add_ring_args(p)

    return parser


def _add_ring_args(p: argparse.ArgumentParser):
    p.add_argument("--ring", required=True, choices=["cpn", "quadric", "other"])
    p.add_argument("--phi", required=True, metavar="LIST", help="comma-separated moment values")
    p.add_argument("--r", metavar="LIST", help="r-sequence for --ring other, e.g. 1,1,1/5,1/5")


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise ParseError(flag, f"expected comma-separated integers, got {raw!r}") from None


def _ring_spec(args) -> tuple[RingSpec, list[int]]:
    phis = _parse_int_list(args.phi, "--phi")
    n = len(phis) - 1
    if args.ring == "cpn":
        spec = RingSpec(RingKind.PROJECTIVE_SPACE, n)
    elif args.ring == "quadric":
        spec = RingSpec(RingKind.QUADRIC, n)
    else:
        if not args.r:
            raise ParseError("--r", "an r-sequence is required with --ring other")
        try:
            r = tuple(Fraction(part.strip()) for part in args.r.split(","))
        except (ValueError, ZeroDivisionError):
            raise ParseError("--r", f"expected comma-separated rationals, got {args.r!r}") from None
        spec = RingSpec(RingKind.OTHER, n, r)
    return spec, phis


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> InputDocument:
    doc = load_document(args.file)
    if args.normalize:
        doc = InputDocument(doc.data.normalized(), doc.meta)
    return doc


def _refuse_inconsistent(args, data) -> bool:
    """Name each validate violation on stderr and return True if there are
    any; otherwise raise if condition D fails (``main`` reports it)."""
    problems = validate(data, require_integral_differences=not args.no_integrality).messages()
    for message in problems:
        print(f"error: {message}", file=sys.stderr)
    if not problems:
        condition_d_offset(data)
    return bool(problems)


def _format_rat_list(values) -> str:
    return ", ".join(str(v) for v in values)


def _chern_polynomial(gamma) -> str:
    text = "1"
    for i, g in enumerate(gamma, start=1):
        if g == 0:
            continue
        sign = " + " if g > 0 else " - "
        mag = abs(g)
        var = "x" if i == 1 else f"x^{i}"
        if mag == 1:
            term = var
        elif mag.denominator == 1:
            term = f"{mag}{var}"
        else:
            term = f"({mag}){var}"
        text += sign + term
    return text


def _cmd_check(args) -> int:
    doc = _load(args)
    data = doc.data
    checks: list[dict] = []

    report = validate(data, require_integral_differences=not args.no_integrality)
    checks.append(
        {
            "name": "validate",
            "passed": report.is_valid,
            "detail": "; ".join(report.messages()),
        }
    )

    if report.is_valid:
        for name, runner in (
            ("c1-coefficient", lambda: f"C = {c1_coefficient(data)}"),
            ("condition-d", lambda: f"d = {condition_d_offset(data)}"),
        ):
            try:
                checks.append({"name": name, "passed": True, "detail": runner()})
            except HamfixError as exc:
                checks.append({"name": name, "passed": False, "detail": str(exc)})
        battery = vanishing_battery(data)
        detail = f"volume = {battery.volume}"
        if battery.failures:
            pairs = ", ".join(f"({f.a},{f.b})" for f in battery.failures)
            detail = f"non-vanishing pairs {pairs}; " + detail
        checks.append({"name": "vanishing-battery", "passed": battery.passed, "detail": detail})
    else:
        for name in ("c1-coefficient", "condition-d", "vanishing-battery"):
            checks.append({"name": name, "passed": False, "detail": "not run: validation failed"})

    passed = all(c["passed"] for c in checks)
    if args.json:
        _emit(args, _json_report({"command": "check", "n": data.n, "passed": passed, "checks": checks}))
    else:
        lines = []
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            suffix = f": {c['detail']}" if c["detail"] else ""
            lines.append(f"{status}  {c['name']}{suffix}")
        lines.append("all checks passed" if passed else "some checks failed")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_ring(args) -> int:
    doc = _load(args)
    if _refuse_inconsistent(args, doc.data):
        return EXIT_CHECK_FAILED
    rc = ring_coefficients(doc.data)
    spec = classify_ring(rc)
    if args.json:
        _emit(
            args,
            _json_report(
                {
                    "command": "ring",
                    "n": rc.n,
                    "r": [str(v) for v in rc.r],
                    "classification": str(spec.kind),
                    "passed": True,
                }
            ),
        )
    else:
        _emit(
            args,
            f"r = {_format_rat_list(rc.r)}\nclassification: {spec.kind}\n",
        )
    return EXIT_OK


def _cmd_chern(args) -> int:
    doc = _load(args)
    if _refuse_inconsistent(args, doc.data):
        return EXIT_CHECK_FAILED
    chern = chern_coefficients(doc.data)
    if args.json:
        _emit(
            args,
            _json_report(
                {
                    "command": "chern",
                    "n": chern.n,
                    "polynomial": _chern_polynomial(chern.gamma),
                    "gamma": [str(v) for v in chern.gamma],
                    "sigma": [list(row) for row in chern.sigma],
                    "passed": True,
                }
            ),
        )
    else:
        lines = [f"c = {_chern_polynomial(chern.gamma)}"]
        lines.append(f"gamma = {_format_rat_list(chern.gamma)}")
        for i, row in enumerate(chern.sigma):
            lines.append(f"sigma P_{i}: {_format_rat_list(row)}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_model(args) -> int:
    b = _parse_int_list(args.b, "--b")
    name = f"{args.kind} b={','.join(str(v) for v in b)}"
    doc = InputDocument(_MODELS[args.kind](b), {"name": name})
    _emit(args, serialize_document(doc))
    return EXIT_OK


def _cmd_solve(args) -> int:
    spec, phis = _ring_spec(args)
    systems = enumerate_weight_systems(spec, phis, budget=args.budget)
    if args.json:
        payload = {
            "command": "solve",
            "ring": str(spec.kind),
            "n": spec.n,
            "count": len(systems),
            "systems": [
                json.loads(serialize_document(InputDocument(d))) for d in systems
            ],
        }
        _emit(args, _json_report(payload))
    else:
        count = len(systems)
        lines = [f"{count} system found" if count == 1 else f"{count} systems found"]
        for k, data in enumerate(systems, start=1):
            lines.append(f"system {k}: phi = {_format_rat_list(data.moment_values)}")
            for p in data.points:
                lines.append(f"  P_{p.index}: {_format_rat_list(p.weights)}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec, phis = _ring_spec(args)
    report = verify_equivalence(spec, phis, budget=args.budget)
    if args.json:
        payload = {
            "command": "verify",
            "ring": str(spec.kind),
            "n": spec.n,
            "passed": report.passed,
            "count": report.system_count,
            "implications": [
                {"name": line.name, "passed": line.passed, "detail": line.detail}
                for line in report.lines
            ],
        }
        _emit(args, _json_report(payload))
    else:
        lines = []
        for line in report.lines:
            status = "PASS" if line.passed else "FAIL"
            lines.append(f"{status}  {line.name}: {line.detail}")
        lines.append("equivalences verified" if report.passed else "verification failed")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _json_report(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


_COMMANDS = {
    "check": _cmd_check,
    "ring": _cmd_ring,
    "chern": _cmd_chern,
    "model": _cmd_model,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except HamfixError as exc:
        code = _error_exit_code(args.command)
        print(f"error: {exc}", file=sys.stderr)
        return code


def _error_exit_code(command: str) -> int:
    # Bad parameters to generators and solvers are input errors; a file
    # that parses but defeats the invariant formulas is a failed check.
    return EXIT_INPUT_ERROR if command in ("model", "solve", "verify") else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
