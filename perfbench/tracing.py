"""In-memory spans around hamfix's public functions, and the per-layer
metrics computed from them.

Tracing wraps functions from outside the package: the public names the
benchmark calls on the ``hamfix`` package, the check-chain names that
``hamfix.solver`` imports (so the solver's stages can be counted without
editing it), and ``FixedPointData.from_weights`` (one call per assembled
solver candidate).  The wrappers exist only while a ``Tracer`` is
installed, which happens in the traced run alone.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter

# Public functions the benchmark calls, by the layer (module) they
# belong to.  Span names are the function names.
PACKAGE_FUNCTIONS = (
    "parse_document",
    "serialize_document",
    "validate",
    "c1_coefficient",
    "condition_d_offset",
    "ring_coefficients",
    "classify_ring",
    "chern_coefficients",
    "vanishing_battery",
    "gradient_graph",
    "infer_moment_values",
    "enumerate_weight_systems",
    "verify_equivalence",
    "cpn_model",
    "quadric_model",
    "expected_weights_cpn",
    "expected_weights_quadric",
)

# Names hamfix.solver looks up in its own module globals: the candidate
# check chain, and enumerate_weight_systems (which verify_equivalence
# calls).
SOLVER_GLOBALS = (
    "validate",
    "c1_coefficient",
    "condition_d_offset",
    "vanishing_battery",
    "enumerate_weight_systems",
)

CHECK_CHAIN = frozenset({"validate", "c1_coefficient", "condition_d_offset", "vanishing_battery"})
MODEL_BUILDERS = ("cpn_model", "quadric_model", "expected_weights_cpn", "expected_weights_quadric")
CLI_COMMANDS = ("check", "ring", "chern", "model", "solve", "verify")


def _attrs_for(name: str, args, result) -> dict | None:
    if name == "vanishing_battery":
        return {"n": args[0].n}
    if name == "enumerate_weight_systems":
        return {"systems": len(result)}
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str
    attrs: dict | None = None


@dataclass
class Tracer:
    """Records spans in memory while ``active``; ``item`` tags each span.

    Oracle checks run with ``active`` false, so only the work being
    measured is traced.
    """

    spans: list[Span] = field(default_factory=list)
    item: str = "setup"
    active: bool = False
    _stack: list[int] = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.item)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            span.attrs = _attrs_for(name, args, result)
            return result

        return traced

    def record(self, name: str, start: float, end: float, attrs: dict | None = None):
        """Add a finished span measured by the caller (a child process)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, self.item, attrs))

    def install(self, hf):
        """Wrap the traced names on the package ``hf`` and on hamfix.solver."""
        solver = hf.solver
        for name in PACKAGE_FUNCTIONS:
            self._patch(hf, name)
        for name in SOLVER_GLOBALS:
            self._patch(solver, name)
        cls = hf.FixedPointData
        original = cls.__dict__["from_weights"]
        traced = self.wrap("from_weights", original.__func__)
        setattr(cls, "from_weights", classmethod(traced))
        self._restore.append((cls, "from_weights", original))

    def _patch(self, owner, name: str):
        original = getattr(owner, name)
        setattr(owner, name, self.wrap(name, original))
        self._restore.append((owner, name, original))

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "item": s.item,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer counts and self times (ms) from a list of spans.

    Self time is a span's duration minus the durations of its direct
    child spans.  ``solver.enumerate_ms`` and ``solver.verify_ms`` are
    inclusive; ``solver.search_assemble_ms`` is enumerate's time outside
    the check chain (search, candidate assembly and the positive-product
    filter) and ``solver.check_chain_ms`` the check chain under it.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        count[s.name] = count.get(s.name, 0) + 1
        total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start - child_time[i])

    def ms(*names):
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names)

    def calls(*names):
        return sum(count.get(n, 0) for n in names)

    under_enumerate = [s for s in spans if s.parent is not None and spans[s.parent].name == "enumerate_weight_systems"]
    check_chain_s = sum(s.end - s.start for s in under_enumerate if s.name in CHECK_CHAIN)
    candidates = sum(1 for s in under_enumerate if s.name == "from_weights")
    systems = sum(s.attrs["systems"] for s in spans if s.name == "enumerate_weight_systems" and s.attrs)
    battery_terms = sum(
        (s.attrs["n"] + 1) * (s.attrs["n"] * (s.attrs["n"] + 1) // 2 + 1)
        for s in spans
        if s.name == "vanishing_battery" and s.attrs
    )
    battery_ms = ms("vanishing_battery")
    enumerate_ms = 1000.0 * total_s.get("enumerate_weight_systems", 0.0)

    metrics = {
        "documents.parse_ms": (ms("parse_document"), "ms"),
        "documents.serialize_ms": (ms("serialize_document"), "ms"),
        "documents.calls": (calls("parse_document", "serialize_document"), "count"),
        "core.validate_ms": (ms("validate"), "ms"),
        "core.validate_calls": (calls("validate"), "count"),
        "cohomology.c1_ms": (ms("c1_coefficient"), "ms"),
        "cohomology.c1_calls": (calls("c1_coefficient"), "count"),
        "cohomology.condition_d_ms": (ms("condition_d_offset"), "ms"),
        "cohomology.ring_ms": (ms("ring_coefficients", "classify_ring"), "ms"),
        "cohomology.chern_ms": (ms("chern_coefficients"), "ms"),
        "localization.battery_ms": (battery_ms, "ms"),
        "localization.battery_calls": (calls("vanishing_battery"), "count"),
        "localization.battery_terms": (battery_terms, "count"),
        "localization.battery_us_per_term": (1000.0 * battery_ms / battery_terms if battery_terms else 0.0, "us"),
        "solver.graph_ms": (ms("gradient_graph"), "ms"),
        "solver.infer_ms": (ms("infer_moment_values"), "ms"),
        "solver.enumerate_ms": (enumerate_ms, "ms"),
        "solver.verify_ms": (1000.0 * total_s.get("verify_equivalence", 0.0), "ms"),
        "solver.search_assemble_ms": (enumerate_ms - 1000.0 * check_chain_s, "ms"),
        "solver.check_chain_ms": (1000.0 * check_chain_s, "ms"),
        "solver.candidates": (candidates, "count"),
        "solver.battery_reached": (
            sum(1 for s in under_enumerate if s.name == "vanishing_battery"),
            "count",
        ),
        "solver.systems": (systems, "count"),
        "solver.useful_ratio": (systems / candidates if candidates else 0.0, "ratio"),
        "models.build_ms": (ms(*MODEL_BUILDERS), "ms"),
    }
    metrics.update(_cli_metrics(spans))
    return metrics


def _cli_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    # Child-process spans: "cli.interpreter" is a bare `python -c pass`,
    # "cli.<command>" one `python -m hamfix <command>` invocation.  A
    # command's time is its wall time net of the median interpreter time.
    interpreter = statistics.median(
        s.end - s.start for s in spans if s.name == "cli.interpreter"
    )
    metrics = {}
    for command in CLI_COMMANDS:
        net = [s.end - s.start - interpreter for s in spans if s.name == f"cli.{command}"]
        metrics[f"cli.{command}_ms_p50"] = (1000.0 * statistics.median(net), "ms")
    imports = [s.attrs["import_ms"] for s in spans if s.attrs and "import_ms" in s.attrs]
    metrics["cli.import_ms"] = (statistics.median(imports), "ms")
    metrics["cli.interpreter_ms"] = (1000.0 * interpreter, "ms")
    return metrics
