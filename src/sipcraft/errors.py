"""Exception types shared across the package; each is bad input, so a ``ValueError``."""


class SipcraftError(ValueError):
    """Base class for every error raised by this package."""


class SeriesFormatError(SipcraftError):
    """Malformed input file; the message names the offending 1-based line."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class SimulationError(SipcraftError):
    """Simulation aborted; the message names the offending month."""


class DegenerateSampleError(SipcraftError):
    """A statistic is undefined for the sample: too few pairs, or no variation."""
