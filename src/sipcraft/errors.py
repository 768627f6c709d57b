"""Exception types shared across the package."""

from __future__ import annotations

from datetime import date as Date


class SipcraftError(Exception):
    """Base class for every error raised by this package."""


class SeriesFormatError(SipcraftError, ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class NotTradingDayError(SipcraftError, LookupError):
    """A date lookup missed; ``hint`` is the nearest preceding trading day."""

    def __init__(self, date: Date, hint: Date | None):
        self.date = date
        self.hint = hint
        if hint is not None:
            msg = f"{date.isoformat()} is not a trading day (previous trading day: {hint.isoformat()})"
        else:
            msg = f"{date.isoformat()} is not a trading day (no earlier trading day in series)"
        super().__init__(msg)


class SimulationError(SipcraftError):
    """Simulation aborted; the message names the offending month."""


class InsufficientDataError(SipcraftError, ValueError):
    """Sample too small for the requested statistic."""


class DegenerateSampleError(SipcraftError, ValueError):
    """Sample has no variation, so the requested statistic is undefined."""
