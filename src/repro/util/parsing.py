"""Parsing helpers shared by the CLI, campaign specs and benches."""

from __future__ import annotations

from .units import GB, KB, MB

__all__ = ["parse_size", "csv_list"]

_SIZE_SUFFIXES = {"KB": KB, "MB": MB, "GB": GB, "B": 1}


def parse_size(text: str) -> int:
    """A byte count like ``64MB``, ``1.5GB`` or a plain integer (the option
    that takes it checks its range).

    >>> parse_size("64MB") == 64 * MB
    True
    >>> parse_size("1024")
    1024
    """
    raw = str(text).strip().upper()
    for suffix, mult in _SIZE_SUFFIXES.items():
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)]
            break
    else:
        mult = 1
    try:
        return int(float(raw) * mult)
    except (OverflowError, ValueError):
        raise ValueError(
            f"bad size {text!r} (expected e.g. 64MB, 1GB or a byte count)"
        ) from None


def csv_list(text: str) -> list[str]:
    """Split a comma-separated option value, dropping empty items.

    >>> csv_list("a, b,,c")
    ['a', 'b', 'c']
    """
    return [item for item in (part.strip() for part in str(text).split(",")) if item]
