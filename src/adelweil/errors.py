"""Exception taxonomy shared by all modules.

Every failure mode is loud: callers either get an exact answer or an
exception from this hierarchy.  The CLI maps subclasses to exit codes
(see cli.main), so new exceptions should subclass one of the groups
below rather than Exception.
"""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EngineError):
    """Malformed input: series grammar, JSON schema, CLI payloads."""


class PrecisionError(EngineError):
    """A computation would need more series precision than is available."""


class CapError(EngineError):
    """A configured search cap or weight cap was exhausted or unstable."""


class CheckFailed(EngineError):
    """An exact identity that should hold did not."""


# -- arithmetic / linear algebra --------------------------------------------

class NotAUnit(EngineError):
    """Inversion of a ring element with no inverse (zero constant term)."""


class DimensionMismatch(EngineError):
    """Incompatible shapes, variable sets, or contexts."""


class NotFinite(CapError):
    """Artinian length did not stabilise below the cap."""


class PrecisionExhausted(PrecisionError):
    """Truncation order is too small for the requested coefficient."""


# -- differential forms ------------------------------------------------------

class ContextMismatch(DimensionMismatch):
    """Operands built over different DG contexts."""


class DegreeError(EngineError):
    """An operation received a form of the wrong homogeneous degree."""


class OddEntries(DegreeError):
    """Determinant-like operation on a matrix with odd-degree entries."""


# -- simplicial --------------------------------------------------------------

class NotAComplex(EngineError):
    """A coboundary square is nonzero."""


class CapInsufficient(CapError):
    """A cohomology class is reached only above the weight cap."""


class CapExceeded(CapError):
    """Requested degree or weight is past the configured hard cap."""


# -- adelic ------------------------------------------------------------------

class MissingPoint(EngineError):
    """A chain refers to a point with no frame or chart data."""


class NonInvertibleFrame(EngineError):
    """A frame matrix has vanishing determinant on its chain."""


class NoNonvanishing(EngineError):
    """No vector-field component is nonzero at the requested point."""


class IdentityFailed(CheckFailed):
    """A localization identity that should hold exactly did not."""


# -- residues ----------------------------------------------------------------

class NotSimple(EngineError):
    """Simple-zero closed form applied to a degenerate zero."""


class NotInvertibleChange(EngineError):
    """Coordinate change with singular linear part."""


# -- scenarios / CLI ---------------------------------------------------------

class RepeatedWeights(EngineError):
    """Torus weights must be pairwise distinct."""


class UnknownChain(MissingPoint):
    """A requested chain uses labels absent from the scenario."""


class DegreeMismatch(EngineError):
    """Invariant polynomial degree does not match the scenario dimension."""
