"""General I/O statistics computed off-line from event traces (§3.1):
means, variances, minima, maxima and distributions of operation durations
and sizes, plus a bimodality check for the paper's recurring 'request
sizes are bimodal' observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pablo.events import Op
from ..pablo.trace import Trace

__all__ = ["Distribution", "op_size_distribution", "op_duration_distribution", "bimodality_coefficient"]


def median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a non-empty float array, bit for bit,
    without the ``numpy.ma`` import ``np.median`` pays on its first call."""
    half, odd = divmod(len(values), 2)
    middle = [half] if odd else [half - 1, half]
    part = np.partition(values, middle + [-1])
    if np.isnan(part[-1]):
        return float("nan")
    # np.median means the middle values, summing from 0.0 (a -0.0 median is 0.0).
    return sum(part[middle].tolist(), 0.0) / len(middle)


@dataclass(frozen=True)
class Distribution:
    """Descriptive statistics of one sample set."""

    n: int
    mean: float
    variance: float
    minimum: float
    maximum: float
    median: float

    @classmethod
    def of(cls, values: np.ndarray) -> "Distribution":
        values = np.asarray(values, dtype=float)
        if len(values) == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            n=int(len(values)),
            mean=float(values.mean()),
            variance=float(values.var(ddof=1)) if len(values) > 1 else 0.0,
            minimum=float(values.min()),
            maximum=float(values.max()),
            median=median(values),
        )

    def format(self, unit: str = "") -> str:
        u = f" {unit}" if unit else ""
        return (
            f"n={self.n}, mean={self.mean:.4g}{u}, var={self.variance:.4g}, "
            f"min={self.minimum:.4g}{u}, max={self.maximum:.4g}{u}, "
            f"median={self.median:.4g}{u}"
        )


def _select(trace: Trace, op: Op) -> np.ndarray:
    ev = trace.events
    return ev[ev["op"] == int(op)] if len(ev) else ev


def op_size_distribution(trace: Trace, op: Op) -> Distribution:
    """Distribution of request sizes for one operation type."""
    return Distribution.of(_select(trace, op)["nbytes"])


def op_duration_distribution(trace: Trace, op: Op) -> Distribution:
    """Distribution of call durations for one operation type."""
    return Distribution.of(_select(trace, op)["duration"])


def bimodality_coefficient(values: np.ndarray) -> float:
    """Sarle's bimodality coefficient: (skew^2 + 1) / kurtosis.

    Values above ~0.555 (the uniform distribution's coefficient) suggest
    bimodality.  Degenerate samples return 0.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 4:
        return 0.0
    mean = values.mean()
    centered = values - mean
    m2 = float((centered**2).mean())
    if m2 == 0:
        return 0.0
    skew = float((centered**3).mean()) / m2**1.5
    excess_kurt = float((centered**4).mean()) / m2**2 - 3.0
    # Sample-size corrected denominator (standard definition).
    denom = excess_kurt + 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    return (skew**2 + 1.0) / denom if denom else 0.0
