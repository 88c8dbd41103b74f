"""Small shared utilities: timing, table rendering, validation."""

from repro.utils.timing import Timer
from repro.utils.tables import format_table, format_series
from repro.utils.validation import (
    require,
    require_positive,
    require_non_negative,
)

__all__ = [
    "Timer",
    "format_table",
    "format_series",
    "require",
    "require_positive",
    "require_non_negative",
]
