"""Exception types shared across the package."""


class ConespecError(Exception):
    """Base class for all package errors."""


class ParseError(ConespecError):
    """Domain expression does not conform to the grammar.

    Carries the byte offset of the failure and the set of tokens that
    would have been accepted there.
    """

    def __init__(self, offset: int, expected: set[str], found: str = ""):
        self.offset = offset
        self.expected = set(expected)
        self.found = found
        exp = ", ".join(sorted(self.expected))
        msg = f"parse error at offset {offset}: expected one of {{{exp}}}"
        if found:
            msg += f", found {found!r}"
        super().__init__(msg)


class DimensionError(ConespecError):
    """A domain's dimension or angle lies outside its allowed range."""


class DimensionMismatch(ConespecError):
    """Scaling requires target and reference of equal ambient dimension."""


class UnsupportedAtom(ConespecError):
    """Atom has no closed-form spectral function."""


class UnsupportedDomain(ConespecError):
    """Requested operation is not available for this domain."""


class NonIntegerMultiplicity(ConespecError):
    """Series expansion produced a coefficient that is not a positive integer."""


class CutoffExceeded(ConespecError):
    """Counting-function argument lies beyond the series cutoff."""


class InsufficientModes(ConespecError):
    """Reference series has fewer modes than requested."""


class NegativeDiscriminant(ConespecError):
    """Quadratic estimate has no real root for the given mode."""

    def __init__(self, mode: int, value: float):
        self.mode = mode
        self.value = value
        super().__init__(f"negative discriminant {value:g} at mode {mode}")


class RootNotBracketed(ConespecError):
    """A Neumann quadratic estimate has no nonnegative root."""


class QuadratureFailure(ConespecError):
    """Successive quadrature refinements failed to agree."""


class ToleranceNotMet(ConespecError):
    """A numeric residual exceeded its target tolerance."""


class NotPositiveDefinite(ConespecError):
    """Correlation matrix is not positive-definite."""


class DomainError(ConespecError):
    """Argument outside the mathematical domain of a special function."""
