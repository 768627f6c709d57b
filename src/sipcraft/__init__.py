"""sipcraft: monthly SIP backtesting against a daily index series, with a
statistical battery comparing first-trading-day vs previous-month-expiry
execution schedules.
"""

from ._version import VERSION as __version__
