"""Exception types shared across the toolkit.

Index errors reuse the builtin IndexError; input and usage errors derive
from MortonLabError so the CLI can map them to exit code 2 uniformly.  A
polynomial that breaks the Morton-Franks-Williams bound is a failed
verification (exit 1), so MFWViolationError is a RuntimeError instead.
"""


class MortonLabError(Exception):
    """Base class for all toolkit errors."""

    code = "ERROR"


class ParseError(MortonLabError):
    """PD text does not match the grammar."""

    code = "PARSE_ERROR"


class InvalidPDError(MortonLabError):
    """PD text parses but violates a structural invariant (label counts,
    orientation consistency, planarity, empty link)."""

    code = "INVALID_PD"


class DisconnectedError(MortonLabError):
    """Operation requires a connected diagram."""

    code = "DISCONNECTED"


class NotAKnotError(MortonLabError):
    """Operation requires a one-component diagram."""

    code = "NOT_A_KNOT"


class TooLargeError(MortonLabError):
    """Diagram exceeds the configured limit for an exponential-cost routine."""

    code = "TOO_LARGE"


class NegativeZDegreeError(MortonLabError):
    """Alexander specialization of a polynomial with a negative z-exponent
    (signals a link, not a knot)."""

    code = "NEGATIVE_Z_DEGREE"


class TableError(MortonLabError):
    """Knot-table ingestion failure (I/O, empty table, duplicate names)."""

    code = "IO_ERROR"


class EmptyTableError(TableError):
    code = "EMPTY_TABLE"


class DuplicateNameError(TableError):
    code = "DUPLICATE_NAME"


class UnsupportedFormatError(MortonLabError):
    code = "UNSUPPORTED_FORMAT"


class UsageError(MortonLabError):
    code = "USAGE_ERROR"


class CacheIOError(MortonLabError):
    """A polynomial cache file that cannot be read or written."""

    code = "IO_ERROR"


class MFWViolationError(RuntimeError):
    """A polynomial outside the Morton-Franks-Williams v-degree bound of
    its diagram."""
