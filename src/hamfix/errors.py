"""Exception hierarchy shared by all hamfix modules."""


class HamfixError(Exception):
    """Base class for every error raised by this package."""


class StructureError(HamfixError):
    """Fixed point data is not structurally well formed (wrong counts)."""


class IndexOutOfRange(HamfixError, IndexError):
    """A point index outside 0..n was requested."""


class NonConstantC1(HamfixError):
    """The pairwise weight-sum quotients disagree; no constant C exists."""


class NonPositiveC1(HamfixError):
    """The common quotient C exists but is not positive."""


class DegenerateGamma(HamfixError):
    """Two points share the same weight sum; generator formulas divide by zero."""


class CrossCheckFailed(HamfixError):
    """The two independent Chern coefficient expressions disagree."""


class DuplicateB(HamfixError):
    """Projective-space model parameters must be pairwise distinct."""


class EvenN(HamfixError):
    """Quadric constructions require odd n."""


class ZeroB(HamfixError):
    """Quadric model parameters must be nonzero."""


class DuplicateAbsB(HamfixError):
    """Quadric model parameters must have pairwise distinct absolute values."""


class OddHalfWeight(HamfixError):
    """An antipodal moment gap is odd, so its half-weight is not an integer."""


class SpecMismatch(HamfixError):
    """Ring description and moment values do not fit together."""


class NonIncreasing(SpecMismatch):
    """Moment values must be strictly increasing integers."""


class SearchBudgetExceeded(HamfixError):
    """The weight-system search would exceed its candidate budget."""


class InconsistentGamma(HamfixError):
    """Weight multisets cannot be ordered into consistent fixed point data."""


class ParseError(HamfixError):
    """A document could not be parsed.

    ``path`` names the offending JSON location, e.g. ``points[1].phi``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
