"""Exception types shared across the package; each is bad input, so a ``ValueError``.
A statistic undefined for a sample is no error but a not-applicable battery cell."""


class SipcraftError(ValueError):
    """Base class for every error raised by this package."""


class SeriesFormatError(SipcraftError):
    """Malformed input file; the message names the offending 1-based line."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class SimulationError(SipcraftError):
    """Simulation aborted; the message names the offending month."""
