"""Exception hierarchy shared by all hamfix modules."""


class HamfixError(Exception):
    """Base class for every error raised by this package."""


class StructureError(HamfixError):
    """Fixed point data is not structurally well formed (wrong counts)."""


class NonConstantC1(HamfixError):
    """The pairwise weight-sum quotients disagree; no constant C exists."""


class NonPositiveC1(HamfixError):
    """The common quotient C exists but is not positive."""


class SpecMismatch(HamfixError):
    """Ring description, moment values or model exponents do not fit
    together (for example duplicate exponents, or an odd antipodal gap)."""


class SearchBudgetExceeded(HamfixError):
    """The weight-system search would find or place more assignments than its budget."""


class InconsistentGamma(HamfixError):
    """Weight multisets cannot be ordered into consistent fixed point data."""


class ParseError(HamfixError):
    """A document or a rational string could not be parsed.

    ``path`` names the JSON location, e.g. ``points[1].phi``, or is "" (``rat``).
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
