"""Corruption models and smoothing filters for robustness experiments.

Five corruption kinds: additive Gaussian noise at every point, a constant
offset at a random subset of points, missing values (overwritten by a fill
value) at a random subset, an added sinusoid, and full replacement by a
sinusoid. Two filters: truncated-Gaussian kernel smoothing and first-order
exponential moving average. All operations are deterministic given the spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidSpecError
from .series import TimeSeries, _round_fraction

# each corruption kind and the parameters it reads besides its seed
NOISE_PARAMETERS = {"gaussian": ("sigma",), "constant": ("contamination", "epsilon"),
                    "missing": ("contamination", "epsilon"), "freq_add": ("amplitude", "frequency"),
                    "freq_replace": ("amplitude", "frequency")}
NOISE_KINDS = tuple(NOISE_PARAMETERS)
FILTER_KINDS = ("gaussian_kernel", "ema")


@dataclass(frozen=True)
class NoiseSpec:
    """Parameterization of one corruption model.

    ``epsilon`` is the additive offset for ``constant`` (default: 3x the
    channel std) and the fill value for ``missing`` (default: 0).
    ``contamination`` is the fraction of points touched by constant/missing.
    ``amplitude`` defaults to 1x the channel std for the freq kinds;
    ``frequency`` is in cycles per series length.
    """

    kind: str
    sigma: float = 0.0
    epsilon: float | None = None
    contamination: float = 0.1
    amplitude: float | None = None
    frequency: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidSpecError(f"unknown noise kind {self.kind!r}")
        for key in ("sigma", "epsilon", "amplitude", "frequency"):
            if not math.isfinite(getattr(self, key) or 0.0):  # None: the kind's default
                raise InvalidSpecError(f"{key} must be finite, got {getattr(self, key)!r}")
        if self.sigma < 0.0:
            raise InvalidSpecError("sigma must be >= 0")
        if not 0.0 <= self.contamination <= 1.0:
            raise InvalidSpecError("contamination must lie in [0, 1]")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class FilterSpec:
    """Parameterization of one smoothing filter."""

    kind: str
    kernel_sigma: float = 1.0
    alpha: float = 0.3

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise InvalidSpecError(f"unknown filter kind {self.kind!r}")
        for key in ("kernel_sigma", "alpha"):
            if not math.isfinite(getattr(self, key)):
                raise InvalidSpecError(f"{key} must be finite, got {getattr(self, key)!r}")
        if self.kind == "gaussian_kernel" and self.kernel_sigma <= 0.0:
            raise InvalidSpecError("kernel_sigma must be > 0")
        if self.kind == "ema" and not 0.0 < self.alpha <= 1.0:
            raise InvalidSpecError("alpha must lie in (0, 1]")


def inject_noise(series: TimeSeries, spec: NoiseSpec) -> TimeSeries:
    """Corrupt a series according to ``spec``; untouched points are bitwise equal.

    Randomness comes from one ``numpy.random.default_rng(spec.seed)`` stream:
    Gaussian noise is a single draw over the full (length, channels) array;
    constant/missing position subsets are drawn channel by channel, in
    channel order, via ``rng.choice(n, floor(contamination*n), replace=False)``.
    """
    if spec.kind == "gaussian":
        if spec.sigma == 0.0:
            return series  # its values are read-only
        rng = np.random.default_rng(spec.seed)
        return series.with_values(series.values + rng.normal(0.0, spec.sigma, size=series.values.shape))

    values = series.values.copy()
    n, d = values.shape

    if spec.kind in ("constant", "missing"):
        rng = np.random.default_rng(spec.seed)
        count = _round_fraction(n, spec.contamination, math.floor)
        channel_std = series.values.std(axis=0)
        for c in range(d):
            positions = rng.choice(n, size=count, replace=False)
            if spec.kind == "constant":
                offset = spec.epsilon if spec.epsilon is not None else 3.0 * channel_std[c]
                values[positions, c] += offset
            else:
                fill = spec.epsilon if spec.epsilon is not None else 0.0
                values[positions, c] = fill
        return series.with_values(values)

    # freq_add / freq_replace
    t = np.arange(n, dtype=np.float64)
    wave = np.sin(2.0 * np.pi * spec.frequency * t / n)
    channel_std = series.values.std(axis=0)
    for c in range(d):
        amp = spec.amplitude if spec.amplitude is not None else channel_std[c]
        if spec.kind == "freq_add":
            values[:, c] += amp * wave
        else:
            values[:, c] = amp * wave
    return series.with_values(values)


def gaussian_kernel_weights(kernel_sigma: float) -> np.ndarray:
    """Normalized Gaussian weights truncated at radius ceil(3 * sigma)."""
    radius = int(math.ceil(3.0 * kernel_sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    weights = np.exp(-0.5 * (offsets / kernel_sigma) ** 2)
    return weights / weights.sum()


def apply_filter(series: TimeSeries, spec: FilterSpec) -> TimeSeries:
    """Smooth each channel with the configured filter.

    ``gaussian_kernel`` convolves with normalized truncated-Gaussian weights
    using replicate padding, so output length equals input length and a
    constant series passes through unchanged. ``ema`` applies
    ``y[0] = x[0]; y[t] = alpha*x[t] + (1-alpha)*y[t-1]``.
    """
    values = series.values
    n, d = values.shape
    if spec.kind == "gaussian_kernel":
        weights = gaussian_kernel_weights(spec.kernel_sigma)
        radius = (len(weights) - 1) // 2
        padded = np.pad(values, ((radius, radius), (0, 0)), mode="edge")
        windows = sliding_window_view(padded, len(weights), axis=0)  # (n, d, k)
        smoothed = windows @ weights
        return series.with_values(smoothed)

    out = np.empty_like(values)
    out[0] = values[0]
    for t in range(1, n):
        out[t] = spec.alpha * values[t] + (1.0 - spec.alpha) * out[t - 1]
    return series.with_values(out)
