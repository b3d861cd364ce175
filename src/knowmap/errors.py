"""Exception types shared across the package."""


class KnowmapError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateNodeError(KnowmapError):
    """A node id was inserted twice into the same graph."""


class MissingEndpointError(KnowmapError):
    """A link referenced a node position that is not in the graph."""


class DuplicateEdgeError(KnowmapError):
    """A link was given twice, or joins a node to itself."""


class UnknownNodeError(KnowmapError):
    """A node id is empty, or names no node of the graph."""


class InvalidSizeError(KnowmapError):
    """A size or count is not an integer or out of range, or a topology exceeds MAX_EDGES."""


class InvalidTopologyError(KnowmapError):
    """A topology is not a TopologyKind member (ring, full or line)."""


class InvalidConfigError(KnowmapError, ValueError):
    """A workload, tolerance or node metric is out of range or not a number; still a ValueError."""


class MagnitudeOutOfRangeError(KnowmapError):
    """Fluctuation magnitude not a real number in the supported [0, 0.1) range."""


class InvalidSeedError(KnowmapError):
    """A seed is negative or not an integer."""


class NonFiniteValueError(KnowmapError):
    """A configuration value is NaN or infinite."""


class EmptyInputError(KnowmapError):
    """An aggregation was called with no vectors."""


class DimensionMismatchError(KnowmapError):
    """Vectors or matrices with incompatible dimensions were combined."""


class ZeroVectorError(KnowmapError):
    """Normalization hit an exactly-zero vector (degenerate layer output)."""


class DegenerateInputError(KnowmapError):
    """All input rows are identical; no principal directions exist."""


class TooFewRowsError(KnowmapError):
    """Not enough data rows to fit a projection model."""


class MalformedCsvError(KnowmapError):
    """A CSV input file is empty or does not match the expected schema."""
