"""Core time-series containers, chronological splitting, and standardization.

Every other module works on :class:`TimeSeries`: an immutable float64 array
of shape ``(length, channels)`` plus optional channel labels. Values are
validated once, at construction through :func:`validate_series`, and all
operations here are pure functions returning new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    LabelCountMismatchError,
    NonFiniteValueError,
    SegmentTooShortError,
    ZeroStdError,
)

_FRACTION_TOL = 1e-9


def _round_fraction(n: int, fraction: float, rounding) -> int:
    """``rounding(n * fraction)`` robust to binary-float fuzz.

    ``rounding`` is ``math.ceil`` or ``math.floor``; a product within 1e-9 of
    an integer is that integer (``35 * 0.2 -> 7``, ``100 * 0.29 -> 29``).
    """
    x = n * fraction
    nearest = round(x)
    if abs(x - nearest) < _FRACTION_TOL:
        return int(nearest)
    return int(rounding(x))


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly sampled multivariate sequence.

    Attributes:
        values: float64 array of shape (length, channels); read-only.
        channel_names: optional tuple with one label per channel.
    """

    values: np.ndarray
    channel_names: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        arr = np.array(arr, dtype=np.float64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.channel_names is not None:
            object.__setattr__(self, "channel_names", tuple(str(c) for c in self.channel_names))

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    def segment(self, start: int, stop: int) -> "TimeSeries":
        """Contiguous sub-series over rows [start, stop)."""
        return TimeSeries(self.values[start:stop], self.channel_names)

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Same labels, new value array."""
        return TimeSeries(values, self.channel_names)


@dataclass(frozen=True)
class ForecastTask:
    """Outer forecasting problem: read ``input_length`` steps, predict ``output_length``."""

    input_length: int
    output_length: int

    def __post_init__(self):
        if self.input_length < 1 or self.output_length < 1:
            raise ValueError("input_length and output_length must be >= 1")


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test proportions. The test set is the most recent slice."""

    test_fraction: float = 0.2
    val_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.test_fraction + self.val_fraction >= 1.0:
            raise ValueError("test_fraction + val_fraction must be < 1")


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and standard deviation used for standardization."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64).reshape(-1))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64).reshape(-1))

    @classmethod
    def from_series(cls, series: TimeSeries) -> "ChannelStats":
        """Population statistics (ddof=0) of each channel."""
        return cls(series.values.mean(axis=0), series.values.std(axis=0))


def validate_series(
    raw: Sequence | np.ndarray,
    names: Sequence[str] | None = None,
) -> TimeSeries:
    """Validate a raw array into a TimeSeries.

    Rejects empty input, non-finite entries (reporting the first offending
    row/channel), and label lists whose length does not match the channel
    count. Values are copied, never mutated.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.size == 0:
        raise EmptyInputError("expected a non-empty 2-D array")
    bad = ~np.isfinite(arr)
    if bad.any():
        row, channel = np.argwhere(bad)[0]
        raise NonFiniteValueError(int(row), int(channel))
    if names is not None and len(names) != arr.shape[1]:
        raise LabelCountMismatchError(
            f"{len(names)} labels for {arr.shape[1]} channels"
        )
    return TimeSeries(arr, tuple(names) if names is not None else None)


def chronological_split(
    series: TimeSeries, spec: SplitSpec
) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
    """Split into contiguous train/val/test segments, test at the tail.

    Segment sizes resolve ties by ceiling on test first, then validation,
    with the remainder going to train. The three segments concatenate back
    to the original series exactly.
    """
    n = series.length
    n_test = _round_fraction(n, spec.test_fraction, math.ceil)
    n_val = _round_fraction(n, spec.val_fraction, math.ceil) if spec.val_fraction > 0.0 else 0
    n_train = n - n_val - n_test
    if n_train < 1 or n_test < 1 or (spec.val_fraction > 0.0 and n_val < 1):
        raise SegmentTooShortError(
            f"split of n={n} gives train={n_train}, val={n_val}, test={n_test}"
        )
    train = series.segment(0, n_train)
    val = series.segment(n_train, n_train + n_val)
    test = series.segment(n_train + n_val, n)
    return train, val, test


def standardize(series: TimeSeries, stats: ChannelStats) -> TimeSeries:
    """Per channel ``(x - mean) / std``; every channel's std must be above 0."""
    if stats.mean.shape[0] != series.channels or stats.std.shape[0] != series.channels:
        raise LabelCountMismatchError(
            f"stats cover {stats.mean.shape[0]} channels, series has {series.channels}"
        )
    degenerate = np.flatnonzero(~(stats.std > 0.0))
    if degenerate.size:
        raise ZeroStdError(int(degenerate[0]))
    return series.with_values((series.values - stats.mean) / stats.std)
