"""Concrete forecasters pluggable into the evaluation protocols.

The single-shot linear forecaster refits on every input window it is asked
about; the LLM forecaster serializes each channel into a prompt, samples
completions, and aggregates them by elementwise median. The naive baselines
(last-value repeat, seasonal repeat) are sanity anchors, and the
unregularized polynomial extrapolator is a deliberately noise-brittle
reference used to demonstrate that the harness detects robustness contrasts.
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ShapeMismatchError
from .eval import Forecaster
from .linear import FittedLinearModel, LinearModelConfig, fit_single_shot
from .linear import predict as linear_predict
from .llm.adapters import LlmAdapter, TranscriptWriter
from .llm.decode import DecodingConfig, aggregate_median
from .llm.prompts import PROMPT_STYLES, ScalingConfig, build_prompt
from .llm.sampling import sample_forecasts
from .series import ForecastTask, validate_series


def _as_window(window: np.ndarray) -> np.ndarray:
    arr = np.asarray(window, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeMismatchError("input window must be a non-empty (I, d) array")
    return arr


class LastValueForecaster(Forecaster):
    """Repeats the final observation for the whole horizon."""

    def __init__(self, name: str = "last-value"):
        self.name = name

    def predict(self, window: np.ndarray, horizon: int) -> np.ndarray:
        arr = _as_window(window)
        return np.tile(arr[-1:], (horizon, 1))


class SeasonalRepeatForecaster(Forecaster):
    """Tiles the last ``period`` observations cyclically across the horizon."""

    def __init__(self, period: int = 24, name: str = "seasonal-repeat"):
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self.name = name

    def predict(self, window: np.ndarray, horizon: int) -> np.ndarray:
        arr = _as_window(window)
        if arr.shape[0] < self.period:
            raise ShapeMismatchError(
                f"window has {arr.shape[0]} rows, period needs {self.period}"
            )
        season = arr[-self.period :]
        reps = -(-horizon // self.period)
        return np.tile(season, (reps, 1))[:horizon]


@functools.lru_cache(maxsize=8)
def _polynomial_design(n: int, degree: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``(lhs, scl, rcond)`` of ``polyfit`` on ``n`` points of [0, 1]: the Vandermonde matrix
    with unit-norm columns, the norms and ``n * eps``, built as ``polyfit`` builds them."""
    t = np.arange(n, dtype=np.float64) / (n - 1)
    vander = np.polynomial.polynomial.polyvander(t, degree)
    scl = np.sqrt(np.square(vander.T).sum(1))
    scl[scl == 0] = 1
    lhs = vander / scl
    lhs.setflags(write=False)
    scl.setflags(write=False)
    return lhs, scl, n * np.finfo(np.float64).eps


class PolynomialExtrapolator(Forecaster):
    """Unregularized high-degree polynomial fit per channel, extrapolated.

    Coefficients come from a plain least-squares fit on the trailing
    ``fit_span`` points of the input window (time rescaled to [0, 1]); the
    polynomial is then evaluated beyond 1. High degrees make the
    extrapolation exquisitely sensitive to input noise, which is exactly
    the point of this baseline. Each channel's coefficients are ``polyfit``'s,
    bit for bit and with its ``RankWarning``, solved against a design kept per
    (length, degree); one ``polyval`` evaluates every channel.
    """

    def __init__(self, degree: int = 12, fit_span: int | None = None,
                 name: str = "poly-extrapolator"):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if fit_span is not None and fit_span <= degree:
            raise ValueError("fit_span must exceed degree")
        self.degree = degree
        self.fit_span = fit_span
        self.name = name

    def predict(self, window: np.ndarray, horizon: int) -> np.ndarray:
        arr = _as_window(window)
        if self.fit_span is not None:
            arr = arr[-self.fit_span :]
        n = arr.shape[0]
        if n <= self.degree:
            raise ShapeMismatchError(
                f"window length {n} cannot support degree {self.degree}"
            )
        lhs, scl, rcond = _polynomial_design(n, self.degree)
        coeffs = np.empty((self.degree + 1, arr.shape[1]))
        for c in range(arr.shape[1]):
            # one right-hand side per solve: a 2-D one changes the last bits
            solution, _, rank, _ = np.linalg.lstsq(lhs, arr[:, c], rcond)
            coeffs[:, c] = solution / scl
            if rank != self.degree + 1:
                warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning,
                              stacklevel=2)
        t_future = np.arange(n, n + horizon, dtype=np.float64) / (n - 1)
        return np.polynomial.polynomial.polyval(t_future[:, None], coeffs, tensor=False)


class LinearSingleShotForecaster(Forecaster):
    """Single-shot linear model refit on each input window it predicts from.

    ``predict`` reuses the model of the last ``fit`` only when it was fitted
    on the same window and horizon; otherwise it fits first.
    """

    def __init__(self, config: LinearModelConfig, name: str | None = None):
        self.config = config
        self.name = name or f"{config.variant}-s"
        self.model: FittedLinearModel | None = None
        self._fitted_on: tuple[np.ndarray, int] | None = None

    def fit(self, window: np.ndarray, horizon: int) -> None:
        arr = _as_window(window)
        series = validate_series(arr)
        task = ForecastTask(input_length=arr.shape[0], output_length=horizon)
        self.model = fit_single_shot(series, task, self.config)
        self._fitted_on = (series.values, horizon)

    def predict(self, window: np.ndarray, horizon: int) -> np.ndarray:
        arr = _as_window(window)
        fitted = self._fitted_on
        if fitted is None or fitted[1] != horizon or not np.array_equal(fitted[0], arr):
            self.fit(arr, horizon)
        assert self.model is not None
        return linear_predict(self.model, arr[-self.model.inner_input :], horizon)


class LlmPromptForecaster(Forecaster):
    """Prompt-based forecaster over a pluggable completion adapter.

    Each channel is serialized independently (the prompt count equals the
    channel count), sampled ``num_samples`` times, decoded, and
    median-aggregated. The affine scaling is derived per channel unless an
    explicit one is supplied, and is recorded in the transcript.

    ``predict`` builds every channel's prompt, then queues all (channel,
    sample) completions on one pool of ``channel_concurrency * num_samples``
    threads, which bounds the adapter calls in flight. The threads start on
    first use and serve every later prompt until ``close``.
    """

    def __init__(
        self,
        adapter: LlmAdapter,
        style: str = "llmtime_chat",
        decoding: DecodingConfig | None = None,
        decimals: int = 0,
        scaling: ScalingConfig | None = None,
        shots: int = 3,
        transcript: TranscriptWriter | None = None,
        channel_concurrency: int = 1,
        name: str | None = None,
    ):
        if style not in PROMPT_STYLES:
            raise ValueError(f"style must be one of {PROMPT_STYLES}, got {style!r}")
        if channel_concurrency < 1:
            raise ValueError("channel_concurrency must be >= 1")
        if decimals < 0:
            raise ValueError("decimals must be >= 0")
        if shots < 1:
            raise ValueError("shots must be >= 1")
        self.adapter = adapter
        self.style = style
        self.decoding = decoding or DecodingConfig()
        self.decimals = decimals
        self.scaling = scaling
        self.shots = shots
        self.transcript = transcript
        self.channel_concurrency = channel_concurrency
        self.name = name or style
        self._pool = ThreadPoolExecutor(channel_concurrency * self.decoding.num_samples)

    def predict(self, window: np.ndarray, horizon: int) -> np.ndarray:
        arr = _as_window(window)
        bundles = []
        for values in arr.T:
            scaling = self.scaling or ScalingConfig.from_values(values, decimals=self.decimals)
            bundles.append(build_prompt(values, horizon, self.style, scaling, shots=self.shots))
        samples = sample_forecasts(self.adapter, bundles, self.decoding, self._pool,
                                   transcript=self.transcript,
                                   transcript_context={"forecaster": self.name})
        return np.column_stack([aggregate_median([s.values for s in channel]) for channel in samples])

    def close(self) -> None:
        """Stop the pool threads; call once the forecaster is done predicting."""
        self._pool.shutdown()
