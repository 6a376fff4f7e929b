"""Exception types shared across the package.

Every domain error is a subclass of :class:`AplineError`, so callers can
catch the whole family at once; the CLI relies on this to surface library
errors verbatim.
"""


class AplineError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(AplineError, ValueError):
    """Operands have incompatible or unsupported dimensions."""


class DecodeError(AplineError, ValueError):
    """A JSON input does not decode: a missing key, a malformed or non-finite entry."""


class SingularError(AplineError, ValueError):
    """A matrix that must be invertible is singular (within tolerance)."""


class NonFiniteError(AplineError, ValueError):
    """An input that must be finite has an infinite or NaN entry."""


class NotInChartError(AplineError, ValueError):
    """The point is not transversal to the horizon of the requested chart."""


class NotTransversalError(AplineError, ValueError):
    """Two subspaces required to be transversal are not."""


class NotHermitianError(AplineError, ValueError):
    """A chart representative required to be Hermitian is not."""


class ResamplingExhausted(AplineError, RuntimeError):
    """A rejection sampler failed to produce an admissible draw."""


class NoCommonChartError(AplineError, RuntimeError):
    """No point transversal to both arguments was found."""


class NotRankOneError(AplineError, ValueError):
    """The pair of points is not at arithmetic distance one."""


class NotInUniverseError(AplineError, ValueError):
    """The point does not belong to the real unitary universe."""


class NotUnitaryError(AplineError, ValueError):
    """The matrix is not unitary (within tolerance)."""


class UnknownSpaceError(AplineError, ValueError):
    """A space name that membership does not know: R, Rprime and RNS are the names."""


# --- obstate construction (each names the violated clause) ---------------

class ObstateError(AplineError, ValueError):
    """An obstate invariant is violated."""


class TransversalityError(ObstateError):
    """A transversality clause of the obstate definition fails."""


class MembershipError(ObstateError):
    """A membership clause (R or R') of the obstate definition fails."""


class NotAntipodalError(ObstateError):
    """A strong obstate's reference state is not the antipode of A0."""


class NotPureError(ObstateError):
    """The state pair is not rank one."""


class NotStrongError(ObstateError):
    """The operation is defined only for strong obstates."""


class NonUniqueCompletionError(AplineError, RuntimeError):
    """The non-transversality locus on an intrinsic line is not a single point."""


# --- classical / scalar layer --------------------------------------------

class IndeterminateError(AplineError, ArithmeticError):
    """0/0 or an unresolvable 0*inf arose in extended arithmetic."""


class ValueOverflowError(AplineError, ArithmeticError):
    """Finite inputs gave a result beyond the float range."""


class DegenerateError(AplineError, ValueError):
    """Coincident arguments where distinct ones are required."""


class DegenerateReferenceError(DegenerateError):
    """A reference triple of functions collides at the evaluation point."""


class ZeroWeightError(AplineError, ValueError):
    """A density operation needs a strictly positive measure."""


class NegativeWeightError(AplineError, ValueError):
    """A measure has a negative weight."""


class NotARealError(AplineError, ValueError):
    """A classical value or weight is no real number: a string, a bool, None or a complex."""


class NotAPermutationError(AplineError, ValueError):
    """The images of a bijection are not a permutation of the sites 0..m-1."""
