"""Exception types raised across the package.

All of them derive from :class:`ChromlcError` so callers (the CLI in
particular) can distinguish bad inputs and failed contracts from genuine
bugs.
"""


class ChromlcError(Exception):
    """Base class for every error this package raises on purpose."""


class NotHermitian(ChromlcError, ValueError):
    """Matrix fails the Hermitian check at the requested tolerance."""


class NotUnitary(ChromlcError, ValueError):
    """Matrix fails the unitarity check at the requested tolerance."""


class DimensionMismatch(ChromlcError, ValueError):
    """Operands have incompatible shapes."""


class TooLarge(ChromlcError, ValueError):
    """Input exceeds a size cap (qubits, samples, generated terms, trials) or the float range."""


class OutOfRange(ChromlcError, ValueError):
    """Time, pair or basis index outside the valid domain."""


class BadParams(ChromlcError, ValueError):
    """Parameter combination violates a documented precondition."""


class ParseError(ChromlcError, ValueError):
    """Schedule or gate document is malformed; message names the locus."""


class SchemaVersionMismatch(ParseError):
    """Document declares a format/version this code does not speak."""


class EpsilonTooLarge(ChromlcError, ValueError):
    """Compilation step exceeds the shortest schedule segment."""


class NotConstant(ChromlcError, ValueError):
    """Operation requires a time-independent single-segment schedule."""


class ToleranceUnreachable(ChromlcError, RuntimeError):
    """The integrator cannot meet its tolerance within its work cap."""


class NormDrift(ChromlcError, RuntimeError):
    """State norm drifted beyond the silent-renormalization limit."""
