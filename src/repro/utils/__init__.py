"""Small shared utilities: timing reports, table rendering, validation."""

from repro.utils.tables import format_table, format_series
from repro.utils.validation import (
    require,
    require_positive,
    require_non_negative,
)

__all__ = [
    "format_table",
    "format_series",
    "require",
    "require_positive",
    "require_non_negative",
]
