import enum
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfix import (
    FixedPointData,
    InputDocument,
    ParseError,
    cpn_model,
    document_from_json,
    parse_document,
    load_document,
    quadric_model,
    save_document,
    serialize_document,
    validate,
)

from conftest import cpn_b_lists, quadric_b_lists

CANONICAL_CP2 = """{
  "n": 2,
  "points": [
    {"phi": "0", "weights": [1, 2]},
    {"phi": "1", "weights": [-1, 1]},
    {"phi": "2", "weights": [-2, -1]}
  ]
}
"""


def test_serialize_is_canonical():
    doc = InputDocument(cpn_model((0, 1, 2)))
    assert serialize_document(doc) == CANONICAL_CP2


def test_parse_serialize_round_trip():
    doc = parse_document(CANONICAL_CP2)
    assert doc.data == cpn_model((0, 1, 2))
    assert serialize_document(doc) == CANONICAL_CP2


REVERSED_CP2 = """{
  "n": 2,
  "points": [
    {"phi": "2", "weights": [-2, -1]},
    {"phi": "1", "weights": [-1, 1]},
    {"phi": "0", "weights": [1, 2]}
  ]
}
"""


def test_round_trip_keeps_point_order():
    # Out-of-order moment values are invalid data; writing must not
    # reorder the points into a valid CP^2.
    doc = parse_document(REVERSED_CP2)
    assert serialize_document(doc) == REVERSED_CP2
    assert parse_document(serialize_document(doc)).data == doc.data
    assert not validate(doc.data).is_valid


def test_parse_accepts_integral_numbers_and_fraction_strings():
    text = json.dumps(
        {
            "n": 1,
            "points": [
                {"phi": 0, "weights": [1]},
                {"phi": "3/1", "weights": [-1]},
            ],
        }
    )
    doc = parse_document(text)
    assert doc.data.moment_values == (0, 3)


def test_parse_rejects_zero_denominator():
    text = json.dumps(
        {"n": 1, "points": [{"phi": "1/0", "weights": [1]}, {"phi": "1", "weights": [-1]}]}
    )
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.path == "points[0].phi"


def _phi_document(phi):
    return json.dumps({"n": 1, "points": [{"phi": "0", "weights": [1]}, {"phi": phi, "weights": [-1]}]})


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
def test_parse_refuses_a_phi_past_the_digit_limit_and_keeps_the_rest():
    limit = sys.get_int_max_str_digits()
    kept = {
        "12.5e-3": Fraction(1, 80),
        "1_0E1_0 ": Fraction(10**11),
        f"1e{limit - 1}": Fraction(10 ** (limit - 1)),
        f"2.5e-{limit}": Fraction(1, 4 * 10 ** (limit - 1)),
        "-0.00e10000000": Fraction(0),  # zero, without building 10**10000000
    }
    for phi, value in kept.items():
        assert parse_document(_phi_document(phi)).data.moment_values[1] == value, phi
    for phi in (f"1e{limit}", f"1e-{limit}", "3e99999", "9" * limit + ".9", "7e10000000"):
        with pytest.raises(ParseError, match=r"^points\[1\]\.phi: .*digit limit"):
            parse_document(_phi_document(phi))
    # A bad string with a huge exponent keeps the message it had.
    with pytest.raises(ParseError, match=r"^points\[1\]\.phi: not a rational \"p/q\" string: Invalid literal for Fraction: '1x2e99999'$"):
        parse_document(_phi_document("1x2e99999"))


def test_parse_rejects_non_integral_number():
    text = json.dumps(
        {"n": 1, "points": [{"phi": 0.5, "weights": [1]}, {"phi": 1, "weights": [-1]}]}
    )
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.path == "points[0].phi"


def test_parse_rejects_bad_weights():
    text = json.dumps(
        {"n": 1, "points": [{"phi": 0, "weights": [1.5]}, {"phi": 1, "weights": [-1]}]}
    )
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.path == "points[0].weights[0]"
    text = json.dumps(
        {"n": 1, "points": [{"phi": 0, "weights": [True]}, {"phi": 1, "weights": [-1]}]}
    )
    with pytest.raises(ParseError):
        parse_document(text)


@pytest.mark.parametrize(("bad", "shown"), [(True, "True"), (2.0, "2.0")])
def test_parse_names_a_bad_weight_at_a_later_index(bad, shown):
    # Valid weights before it are not checked one by one, but a bool or a
    # float further on is still refused with its own path.
    obj = json.loads(CANONICAL_CP2)
    obj["points"][2]["weights"][1] = bad
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(obj))
    assert err.value.path == "points[2].weights[1]"
    assert str(err.value) == f"points[2].weights[1]: expected an integer weight, got {shown}"


def test_parse_rejects_wrong_counts():
    text = json.dumps({"n": 2, "points": [{"phi": 0, "weights": [1, 2]}]})
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.path == "points"
    text = json.dumps(
        {
            "n": 2,
            "points": [
                {"phi": 0, "weights": [1, 2]},
                {"phi": 1, "weights": [-1]},
                {"phi": 2, "weights": [-2, -1]},
            ],
        }
    )
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.path == "points[1].weights"


def test_parse_rejects_unknown_keys_and_bad_json():
    with pytest.raises(ParseError):
        parse_document('{"n": 1, "points": [], "extra": 1}')
    with pytest.raises(ParseError) as err:
        parse_document("{not json")
    assert err.value.path == "$"


def test_meta_survives_round_trip():
    doc = InputDocument(cpn_model((0, 1)), {"name": "sphere", "source": "unit test"})
    again = parse_document(serialize_document(doc))
    assert again.meta == {"name": "sphere", "source": "unit test"}


def test_save_and_load_round_trip(tmp_path):
    path = tmp_path / "cp2.json"
    save_document(InputDocument(cpn_model((0, 1, 2))), str(path))
    assert path.read_text(encoding="utf-8") == CANONICAL_CP2
    assert load_document(str(path)).data == cpn_model((0, 1, 2))


def test_save_keeps_the_old_file_when_serializing_fails(tmp_path):
    path = tmp_path / "kept.json"
    path.write_text(CANONICAL_CP2, encoding="utf-8")
    with pytest.raises(ParseError, match="^meta: cannot be written as JSON: "):
        save_document(InputDocument(cpn_model((0, 1)), {"k": {1, 2}}), str(path))
    assert path.read_text(encoding="utf-8") == CANONICAL_CP2


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
def test_save_refuses_a_point_past_the_digit_limit_at_its_path(tmp_path):
    # Such a document could not be read back; writing it once raised ValueError.
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "kept.json"
    path.write_text(CANONICAL_CP2, encoding="utf-8")
    big = 10**limit
    for phis, weights, at in (
        ([0, Fraction(1, big), 2], [(1, 2), (-1, 1), (-2, -1)], 1),
        ([0, 1, 2], [(1, 2), (-1, 1), (-big, -1)], 2),
    ):
        doc = InputDocument(FixedPointData.from_weights(phis, weights))
        message = f"points[{at}]: the point holds an integer past the {limit}-digit limit; set PYTHONINTMAXSTRDIGITS"
        with pytest.raises(ParseError) as err:
            save_document(doc, str(path))
        assert (err.value.path, str(err.value)) == (f"points[{at}]", message)
    assert path.read_text(encoding="utf-8") == CANONICAL_CP2


@pytest.mark.parametrize("meta", [[1, 2], "x", 3], ids=["list", "str", "int"])
def test_save_refuses_a_meta_the_reader_refuses(tmp_path, meta):
    # Once written, such a document could not be read back.
    with pytest.raises(ParseError, match="^meta: expected an object$"):
        parse_document(json.dumps(_one_sphere(meta=meta)))
    path = tmp_path / "kept.json"
    path.write_text(CANONICAL_CP2, encoding="utf-8")
    with pytest.raises(ParseError, match="^meta: expected an object$") as err:
        save_document(InputDocument(cpn_model((0, 1)), meta), str(path))
    assert err.value.path == "meta"
    assert path.read_text(encoding="utf-8") == CANONICAL_CP2


def _circular_meta():
    meta = {}
    meta["self"] = meta
    return meta


def _nested_lists(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "meta, reason",
    [
        ({"x": Fraction(1, 2)}, "Object of type Fraction is not JSON serializable"),
        pytest.param(
            {"x": 10**5000},
            "Exceeds the limit",
            marks=pytest.mark.skipif(
                not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
            ),
        ),
        ({1: "a", "b": 2}, "'<' not supported between instances of "),
        (_circular_meta(), "Circular reference detected"),
        ({"a": _nested_lists(100_000)}, "maximum recursion depth exceeded"),
    ],
    ids=["fraction", "huge-int", "mixed-keys", "circular", "deep"],
)
def test_save_refuses_a_meta_json_cannot_encode(tmp_path, meta, reason):
    path = tmp_path / "kept.json"
    path.write_text(CANONICAL_CP2, encoding="utf-8")
    with pytest.raises(ParseError, match=f"^meta: cannot be written as JSON: {re.escape(reason)}") as err:
        save_document(InputDocument(cpn_model((0, 1)), meta), str(path))
    assert err.value.path == "meta"
    assert path.read_text(encoding="utf-8") == CANONICAL_CP2


def _json_dumps_renderer(doc):
    # The renderer serialize_document had before it formatted point lines
    # itself: each point through json.dumps.  The oracle for its bytes.
    point_lines = ",\n".join(
        "    " + json.dumps({"phi": str(p.moment_value), "weights": list(p.weights)})
        for p in doc.data.points
    )
    text = "{\n" + f'  "n": {doc.data.n},\n' + '  "points": [\n' + point_lines + "\n  ]"
    if doc.meta is not None:
        text += ',\n  "meta": ' + json.dumps(doc.meta, sort_keys=True)
    return text + "\n}\n"


class _Weight(enum.IntEnum):
    THREE = 3


@st.composite
def _documents(draw):
    """Data of every shape a document holds: negative and fractional
    moment values, big and int-subclass weights, unicode meta."""
    n = draw(st.integers(1, 5))
    phi = st.one_of(
        st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
        st.integers(-(10**40), 10**40).map(Fraction),
    )
    weight = st.one_of(st.integers(-(10**30), 10**30), st.just(_Weight.THREE))
    data = FixedPointData.from_weights(
        draw(st.lists(phi, min_size=n + 1, max_size=n + 1)),
        draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=n + 1, max_size=n + 1)),
    )
    value = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6))
    meta = st.one_of(st.none(), st.dictionaries(st.text(max_size=6), value, max_size=3))
    return InputDocument(data, draw(meta))


@settings(max_examples=60)
@given(_documents())
def test_serialize_has_the_bytes_of_the_json_dumps_renderer(doc):
    text = serialize_document(doc)
    assert text == _json_dumps_renderer(doc)
    assert parse_document(text) == doc


@given(cpn_b_lists())
def test_round_trip_cpn_documents(b):
    doc = InputDocument(cpn_model(b))
    text = serialize_document(doc)
    parsed = parse_document(text)
    assert parsed.data == doc.data
    assert serialize_document(parsed) == text


@given(quadric_b_lists(), st.integers(-9, 9))
def test_round_trip_translated_quadric_documents(b, c):
    doc = InputDocument(quadric_model(b).translated(c))
    text = serialize_document(doc)
    parsed = parse_document(text)
    assert parsed.data == doc.data
    assert serialize_document(parsed) == text


def _one_sphere(**changes):
    """CP^1 as decoded JSON, with top-level keys or point 0's keys changed."""
    point = {"phi": "0", "weights": [1]}
    point.update(changes.pop("point", {}))
    doc = {"n": 1, "points": [point, {"phi": "1", "weights": [-1]}]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "$: expected an object, got list"),
        (_one_sphere(n=True), "n: expected a positive integer, got True"),
        (_one_sphere(n=0), "n: expected a positive integer, got 0"),
        (_one_sphere(points={}), "points: expected an array of points"),
        (_one_sphere(points=[5, {"phi": "1", "weights": [-1]}]), "points[0]: expected an object with phi and weights"),
        (_one_sphere(point={"x": 1}), "points[0].x: unknown key"),
        (_one_sphere(points=[{"weights": [1]}, {"phi": "1", "weights": [-1]}]), "points[0].phi: missing"),
        (_one_sphere(point={"phi": True}), "points[0].phi: expected a rational string or integer, got a bool"),
        (_one_sphere(point={"phi": None}), "points[0].phi: expected a rational string or integer, got NoneType"),
        (_one_sphere(point={"weights": "1"}), "points[0].weights: expected an array of integers"),
        (_one_sphere(meta=[]), "meta: expected an object"),
    ],
)
def test_parse_refuses_each_malformed_shape_by_path(obj, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_document(json.dumps(obj))


@pytest.mark.parametrize(
    "obj, message",
    [
        ({1: 0, "a": 0}, "1: unknown key"),
        (_one_sphere(point={2: 0, "x": 0}), "points[0].2: unknown key"),
    ],
)
def test_unknown_keys_of_mixed_types_name_the_first_by_text(obj, message):
    # A Python caller's dict may mix key types, which sorted() cannot order.
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        document_from_json(obj)


def test_parse_reads_an_integral_float_phi_as_an_integer():
    doc = parse_document(json.dumps(_one_sphere(point={"phi": 0.0})))
    assert doc.data == FixedPointData.from_weights([0, 1], [[1], [-1]])
    assert type(doc.data.points[0].moment_value) is Fraction
