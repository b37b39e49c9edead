"""Exception types shared across the package."""


class NqtensorError(Exception):
    """Base class for all package-specific errors."""


class UsageError(NqtensorError):
    """Bad command line usage or unreadable input file (exit code 2)."""


class FormatError(UsageError):
    """Malformed artifact file; carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimMismatch(NqtensorError):
    pass


class ArityMismatch(UsageError):
    """Wrong number of input strings, or one out of range (exit code 2)."""


class SizeCapExceeded(NqtensorError):
    pass


class ConvergenceFailure(NqtensorError):
    """The SVD kernel did not converge within its iteration cap."""


class PatternMismatch(NqtensorError):
    """A tensor's zero pattern does not match the required boolean function."""


class DegenerateN(NqtensorError):
    """The certificate construction degenerates for this bit width."""


class DecompositionMismatch(NqtensorError):
    """A claimed decomposition does not materialize to the given tensor."""


class NonUnitary(NqtensorError):
    """A generated turn matrix failed the unitarity check."""


class NormalizationError(NqtensorError):
    """A compressed protocol state had zero norm where an accepting input exists."""


class PremiseViolation(NqtensorError):
    """A protocol handed to a certificate is not strongly nondeterministic for f."""


class CoefficientNotFound(NqtensorError):
    """Coefficient sampling exhausted its attempt budget."""


class CheckFailure(NqtensorError):
    """One or more asserted report rows failed (exit code 1)."""
