"""Exception hierarchy.

Every failure mode that a caller can meaningfully distinguish gets its own
class; all inherit from DetchainError so the CLI can map any numerical
failure to a single exit code.
"""


class DetchainError(Exception):
    """Base class for all library errors."""


class InvalidInterval(DetchainError):
    """Degenerate or non-finite interval (a >= b)."""


class DuplicateNode(DetchainError):
    """Grid points must be pairwise distinct."""


class InvalidWeight(DetchainError):
    """Nonpositive quadrature weight / point mass, or non-finite weight entry."""


class ShapeError(DetchainError):
    """Array shapes inconsistent with the grids or with each other."""


class DegenerateBasis(DetchainError):
    """Endpoint basis tables are rank deficient."""


class OverlapError(DetchainError):
    """Indicator intervals on one level overlap."""


class CompositionInconsistency(DetchainError):
    """Two equivalent evaluations of the same pairing disagree beyond tolerance,
    signalling a broken tabulation."""


class SingularPairing(DetchainError):
    """Pairing matrix is singular or numerically near-singular."""


class StateError(DetchainError):
    """Kernel used in a state it is not in (e.g. transfer part already subtracted)."""


class NotAProbability(DetchainError):
    """Total configuration mass is nonpositive or non-finite."""


class SignedDensityError(DetchainError):
    """Encountered a negative density value; the instance is not a probability
    ensemble and sampling is aborted."""
