"""The package's public names and exception classes, pinned: a change to
the API edits these lists on purpose."""

import inspect
from types import ModuleType

import hamfix
import hamfix.errors

PUBLIC_NAMES = [
    "AmbiguousWeight",
    "BatteryFailure",
    "BatteryReport",
    "Check",
    "ChernData",
    "EquivalenceReport",
    "FixedPoint",
    "FixedPointData",
    "GradientSphereGraph",
    "HamfixError",
    "InconsistentGamma",
    "InputDocument",
    "NonConstantC1",
    "NonPositiveC1",
    "ParseError",
    "RingCoefficients",
    "RingKind",
    "RingSpec",
    "SearchBudgetExceeded",
    "SpecMismatch",
    "SphereEdge",
    "StructureError",
    "ValidationReport",
    "Violation",
    "abbv_sum",
    "c1_coefficient",
    "chern_coefficients",
    "classify_ring",
    "condition_d_offset",
    "consistency_checks",
    "cpn_model",
    "document_from_json",
    "enumerate_weight_systems",
    "expected_weights_cpn",
    "expected_weights_quadric",
    "gradient_graph",
    "infer_moment_values",
    "load_document",
    "parse_document",
    "quadric_model",
    "rat",
    "reference_chern",
    "ring_coefficients",
    "save_document",
    "serialize_document",
    "validate",
    "vanishing_battery",
    "verify_equivalence",
]

ERROR_CLASSES = [
    "HamfixError",
    "InconsistentGamma",
    "NonConstantC1",
    "NonPositiveC1",
    "ParseError",
    "SearchBudgetExceeded",
    "SpecMismatch",
    "StructureError",
]


def test_public_names():
    names = sorted(n for n in hamfix.__all__ if not isinstance(getattr(hamfix, n), ModuleType))
    assert names == PUBLIC_NAMES


def test_error_classes():
    defined = sorted(
        name
        for name, obj in vars(hamfix.errors).items()
        if inspect.isclass(obj) and obj.__module__ == hamfix.errors.__name__
    )
    assert defined == ERROR_CLASSES
    assert all(issubclass(getattr(hamfix.errors, n), hamfix.HamfixError) for n in defined)


def test_public_classes_and_functions_have_docstrings():
    # A class's __doc__ is its own: a subclass without one reads None, and a
    # bare named tuple reads the one namedtuple generates from its fields.
    objects = {name: getattr(hamfix, name) for name in PUBLIC_NAMES}
    assert all(inspect.isclass(obj) or inspect.isfunction(obj) for obj in objects.values())
    assert [name for name, obj in objects.items() if not (obj.__doc__ or "").strip()] == []
    generated = [
        name
        for name, obj in objects.items()
        if hasattr(obj, "_fields") and obj.__doc__ == f"{name}({', '.join(obj._fields)})"
    ]
    assert generated == []
