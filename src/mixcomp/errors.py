"""Exception types shared across the package.

Every exception message names the violated invariant or precondition so that
CLI error reporting can surface it verbatim.
"""


class MixcompError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(MixcompError, ValueError):
    """A value failed one of its type invariants."""


class NotHermitian(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class NotPSD(ValidationError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NotOrthonormal(ValidationError):
    """Supplied vectors are not orthonormal within tolerance."""


class NotCommuting(ValidationError):
    """Operators do not commute within tolerance."""


class DimensionMismatch(ValidationError):
    """Operand dimensions are incompatible."""


class LengthMismatch(ValidationError):
    """Vector lengths are incompatible."""


class ProbabilityMismatch(ValidationError):
    """Ensemble probability vectors differ where they must agree."""


class DimensionOverflow(MixcompError):
    """An array or sweep would exceed one of the package's fixed size bounds."""


class DomainError(ValidationError):
    """Scalar argument outside its documented domain."""


class NoConvergence(MixcompError):
    """The iterative eigensolver failed to converge."""


class InvalidPovm(ValidationError):
    """POVM elements are not PSD or do not resolve the identity."""


class TauMismatch(ValidationError):
    """Block-diagonal ensemble's lower blocks differ where they must coincide."""


class ParseError(MixcompError):
    """Input file could not be parsed into the expected JSON schema."""
