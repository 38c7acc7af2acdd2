"""Shared helpers: byte units, formatting, validation, atomic file writes,
distinct values of an array."""

import numpy as np

from .io import atomic_write_json, atomic_write_text
from .parsing import csv_list, parse_size
from .units import GB, KB, MB, STRIPE_UNIT, fmt_bytes, fmt_seconds
from .validation import check_nonneg, check_positive, check_range, sanitize_filename

__all__ = [
    "KB",
    "MB",
    "GB",
    "STRIPE_UNIT",
    "csv_list",
    "parse_size",
    "fmt_bytes",
    "fmt_seconds",
    "check_nonneg",
    "check_positive",
    "check_range",
    "sanitize_filename",
    "atomic_write_text",
    "atomic_write_json",
    "distinct",
]


def distinct(values: np.ndarray) -> np.ndarray:
    """Ascending distinct values by one sort (``np.unique`` hashes: slower on
    integer keys, and its first call imports numpy.ma)."""
    values = np.sort(values)
    return np.concatenate([values[:1], values[1:][values[1:] != values[:-1]]])
