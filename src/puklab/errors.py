"""Exception types shared across the package."""


class PuklabError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(PuklabError, ValueError):
    """A matrix is incompatible with the traced-algebra shape it was paired with."""


class NotAbelianError(PuklabError, ValueError):
    """An operation requiring an abelian algebra received a non-abelian one."""


class DegenerateSampleError(PuklabError, RuntimeError):
    """Random sampling failed to separate the minimal projections after all retries."""


class NotMasaError(PuklabError, ValueError):
    """Generators do not span a maximal abelian subalgebra of their ambient algebra."""


class NotInAlgebraError(PuklabError, ValueError):
    """A projection does not lie in the span of the algebra it was cut from."""


class ResourceGuardError(PuklabError, RuntimeError):
    """A requested computation needs more workspace or work than its budget allows."""


class RestrictionRangeError(PuklabError, ValueError):
    """Multi-index restriction targets an invalid (level, length) pair."""


class CountCapError(PuklabError, OverflowError):
    """A requested enumeration is larger than the configured cap."""


class InvalidLambdaError(PuklabError, ValueError):
    """A pair-value specification is malformed (asymmetric, bad diagonal, bad carrier)."""


class EmptyInputError(PuklabError, ValueError):
    """An operation requiring non-empty value sets received an empty one."""


class OracleGapError(PuklabError, LookupError):
    """A cutdown oracle has no entry at the requested level or index pair."""


class NonSingletonInfiniteError(PuklabError, ValueError):
    """The infinite tensor rule is only defined for singleton factors."""


class InvalidInputError(PuklabError, ValueError):
    """A planner received a target set outside its documented domain."""
