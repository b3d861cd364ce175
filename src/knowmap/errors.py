"""Exception types shared across the package."""


class KnowmapError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(KnowmapError, ValueError):
    """A config value is of the wrong type, not finite or out of range; still a ValueError."""


class NonFiniteValueError(KnowmapError):
    """A knowledge map to be written, or a plot's points, workloads or extent, is not finite."""


class EmptyInputError(KnowmapError):
    """An aggregation was called with no vectors."""


class DimensionMismatchError(KnowmapError):
    """Vectors or matrices with incompatible dimensions were combined."""


class DegenerateInputError(KnowmapError):
    """All input rows are identical; no principal directions exist."""


class TooFewRowsError(KnowmapError):
    """Not enough data rows to fit a projection model."""


class MalformedCsvError(KnowmapError):
    """A CSV input file is empty or does not match the expected schema."""
