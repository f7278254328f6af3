"""Exact combinatorial toolkit for Hamiltonian circle actions whose fixed
point set is the minimal number of isolated points.

A manifold enters only through its fixed point data: one moment value
and one integer weight multiset per fixed point.  From that shadow the
package validates every consistency rule such an action must obey,
evaluates localization sums, measures the cohomology ring and Chern
classes, and conversely enumerates the weight systems a prescribed ring
allows.
"""

from .cohomology import (
    ChernData,
    RingCoefficients,
    RingKind,
    RingSpec,
    c1_coefficient,
    chern_coefficients,
    classify_ring,
    condition_d_offset,
    reference_chern,
    ring_coefficients,
)
from .core import (
    FixedPoint,
    FixedPointData,
    ValidationReport,
    Violation,
    rat,
    validate,
)
from .documents import (
    InputDocument,
    document_from_json,
    load_document,
    parse_document,
    save_document,
    serialize_document,
)
from .errors import (
    HamfixError,
    InconsistentGamma,
    NonConstantC1,
    NonPositiveC1,
    ParseError,
    SearchBudgetExceeded,
    SpecMismatch,
    StructureError,
)
from .localization import (
    BatteryFailure,
    BatteryReport,
    abbv_sum,
    vanishing_battery,
)
from .models import (
    cpn_model,
    expected_weights_cpn,
    expected_weights_quadric,
    quadric_model,
)
from .solver import (
    AmbiguousWeight,
    Check,
    EquivalenceReport,
    GradientSphereGraph,
    SphereEdge,
    consistency_checks,
    enumerate_weight_systems,
    gradient_graph,
    infer_moment_values,
    verify_equivalence,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
