"""Exception types shared across the package."""


class SipcraftError(Exception):
    """Base class for every error raised by this package."""


class SeriesFormatError(SipcraftError, ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class SimulationError(SipcraftError):
    """Simulation aborted; the message names the offending month."""


class InsufficientDataError(SipcraftError, ValueError):
    """Sample too small for the requested statistic."""


class DegenerateSampleError(SipcraftError, ValueError):
    """Sample has no variation, so the requested statistic is undefined."""
