"""Exception types shared across the package.

The type of an error carries the CLI's exit-code policy: a
``ValidationError`` (bad input: a value outside the paper's domain, a
malformed plan, an infeasible configuration) exits 2, and anything else,
the runtime failures below as well as any error the program did not raise
on purpose, exits 3.  ``ValidationError`` is also a ``ValueError``, so
library callers may catch either.
"""


class SearchLabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SearchLabError, ValueError):
    """Bad input: the base of every error that exits 2."""


class NonIntegerLocationCount(ValidationError):
    """B/delta is not an integer to within the snapping tolerance."""


class InvalidEpsilon(ValidationError):
    """Reliability target epsilon outside (0, 1)."""


class InvalidNoiseModel(ValidationError):
    """Noise model parameters are malformed (bad gamma, empty table, ...)."""


class NonMonotoneNoise(ValidationError):
    """Noise variance fails to be positive and non-decreasing in probe count."""


class ProbeCountOutOfRange(ValidationError):
    """Probe width outside (0, M], or past a noise table's last entry."""


class QuadratureNonConvergence(SearchLabError):
    """Adaptive quadrature failed to reach tolerance within the panel cap."""


class NoRootInBracket(SearchLabError):
    """Root bracketing for the threshold parameter exceeded the search cap."""


class EtaTooLarge(ValidationError):
    """Slack eta is not strictly below the relevant capacity term."""


class NoFeasibleAlpha(ValidationError):
    """No section fraction alpha is feasible for this configuration."""


class InvalidAlpha(ValidationError):
    """Section fraction alpha is not of the form 1/s with s | M and s >= 2."""


class SizeOne(ValidationError):
    """Operation undefined on a single-cell posterior."""


class StepLimitExceeded(SearchLabError):
    """A single trial exceeded the hard step budget."""


class ParseError(ValidationError):
    """Plan text is not valid JSON."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col
