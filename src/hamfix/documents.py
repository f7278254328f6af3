"""Canonical JSON documents for fixed point data.

The on-disk form is UTF-8 JSON with keys ``n``, ``points`` and an
optional ``meta`` object.  Each point is ``{"phi": <string>, "weights":
[<int>...]}``.  Moment values travel as strings ("5", "-2", "3/2") so
exactness survives the trip; bare JSON numbers are accepted on input
only when integral.  Writing always canonicalizes: points in index
order (so a document re-parses to the same data even when its moment
values are out of order), weights ascending, two-space indentation,
trailing newline.  Parsing checks structure only; value-level
validation is the job of the ``check`` command.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from typing import Any

from .core import FixedPointData, _clip, _past_digit_limit, _show, rat
from .errors import ParseError


InputDocument = namedtuple("InputDocument", "data meta", defaults=(None,))
InputDocument.__doc__ = "Fixed point data and the document's optional ``meta`` object."


def _parse_phi(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(path, "expected a rational string or integer, got a bool")
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise ParseError(path, f"non-integral number {_show(value)}; use a \"p/q\" string")
    if isinstance(value, (int, str)):
        try:
            return rat(value)
        except ParseError as exc:
            raise ParseError(path, str(exc)) from None
    raise ParseError(path, f"expected a rational string or integer, got {type(value).__name__}")


def _check_meta(meta: Any) -> None:
    """The one rule on ``meta``, for reading and writing: absent or an object."""
    if meta is not None and not isinstance(meta, dict):
        raise ParseError("meta", "expected an object")


def document_from_json(obj: Any) -> InputDocument:
    """Build a document from already-decoded JSON, naming bad paths."""
    if not isinstance(obj, dict):
        raise ParseError("$", f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - {"n", "points", "meta"}
    if unknown:
        raise ParseError(_clip(str(min(unknown, key=str))), "unknown key")

    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError("n", f"expected a positive integer, got {_show(n)}")

    raw_points = obj.get("points")
    if not isinstance(raw_points, list):
        raise ParseError("points", "expected an array of points")
    if len(raw_points) != n + 1:
        expected = f"expected {_show(n + 1)} points for n = {_show(n)}"
        raise ParseError("points", f"{expected}, got {len(raw_points)}")

    phis, weights = [], []
    for i, entry in enumerate(raw_points):
        base = f"points[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(base, "expected an object with phi and weights")
        unknown = set(entry) - {"phi", "weights"}
        if unknown:
            raise ParseError(f"{base}.{_clip(str(min(unknown, key=str)))}", "unknown key")
        if "phi" not in entry:
            raise ParseError(f"{base}.phi", "missing")
        phis.append(_parse_phi(entry["phi"], f"{base}.phi"))
        raw_weights = entry.get("weights")
        if not isinstance(raw_weights, list):
            raise ParseError(f"{base}.weights", "expected an array of integers")
        if len(raw_weights) != n:
            raise ParseError(
                f"{base}.weights", f"expected {n} weights for n = {n}, got {len(raw_weights)}"
            )
        for k, w in enumerate(raw_weights):
            if type(w) is not int:
                shown = _show(w)
                raise ParseError(f"{base}.weights[{k}]", f"expected an integer weight, got {shown}")
        weights.append(raw_weights)

    meta = obj.get("meta")
    _check_meta(meta)
    return InputDocument(FixedPointData.from_weights(phis, weights), meta)  # counts checked above


def parse_document(text: str) -> InputDocument:
    """Parse JSON text to a document; bad JSON or structure raises ParseError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # an int past the digit limit, deep nesting
        raise ParseError("$", f"unreadable JSON: {exc}") from None
    return document_from_json(obj)


def serialize_document(doc: InputDocument) -> str:
    """Canonical text form; stable byte-for-byte for equal documents.

    Points go one per line in index order, weights ascending, meta keys
    sorted.  Point lines are formatted directly, yet byte-equal to
    ``json.dumps``: it escapes none of the ``-0123456789/`` a
    ``str(Fraction)`` holds, and writes an int (subclass) by ``int.__repr__``.
    A meta that ``parse_document`` would refuse, or that ``json`` cannot
    encode, raises ``ParseError`` at path ``meta``, and a point whose
    numbers pass the interpreter's digit limit at its path ``points[i]``.

    >>> data = FixedPointData.from_weights(["-1/2", "1/2"], [[1], [-1]])
    >>> print(serialize_document(InputDocument(data)), end="")
    {
      "n": 1,
      "points": [
        {"phi": "-1/2", "weights": [1]},
        {"phi": "1/2", "weights": [-1]}
      ]
    }
    """
    _check_meta(doc.meta)
    try:
        meta = "" if doc.meta is None else ',\n  "meta": ' + json.dumps(doc.meta, sort_keys=True)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ParseError("meta", f"cannot be written as JSON: {exc}") from None
    lines = []
    for p in doc.data.points:
        try:
            weights = ", ".join(map(int.__repr__, p.weights))
            lines.append(f'    {{"phi": "{p.moment_value}", "weights": [{weights}]}}')
        except ValueError:  # str() of an int past the digit limit
            raise ParseError(f"points[{p.index}]", _past_digit_limit("the point")) from None
    point_lines = ",\n".join(lines)
    text = "{\n" + f'  "n": {doc.data.n},\n' + '  "points": [\n' + point_lines + "\n  ]"
    return text + meta + "\n}\n"


def load_document(path: str) -> InputDocument:
    """Read and parse the UTF-8 document at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError("$", f"not UTF-8 text: {exc}") from None
    return parse_document(text)


def save_document(doc: InputDocument, path: str):
    """Write the canonical text of ``doc`` to ``path``."""
    text = serialize_document(doc)  # first: open(path, "w") empties the file
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
