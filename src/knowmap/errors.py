"""Exception types shared across the package."""


class KnowmapError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(KnowmapError, ValueError):
    """A config value is of the wrong type, not finite or out of range; still a ValueError."""


class InvalidDataError(KnowmapError):
    """Input data is empty, misshapen, not finite or malformed: a plot's points, a CSV file."""


class DegenerateInputError(KnowmapError):
    """All input rows are identical; no principal directions exist."""
