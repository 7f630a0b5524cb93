"""Metrics, the two evaluation protocols, and wall-clock cost accounting.

Both protocols carve evaluation windows from the chronologically last
(test) slice of a series. ``run_last_sample`` scores only the final
input/output window; ``run_sliding`` scores every window with stride equal
to the horizon and averages. Metrics are computed in standardized space by
default, using statistics of the train slice; optional corruption and
filtering are applied to the model's input window only, so reported errors
isolate forecaster sensitivity rather than irreducible noise in the truth.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyListError, SeriesTooShortError, ShapeMismatchError, UnknownKindError
from .noise import FilterSpec, NoiseSpec, apply_filter, inject_noise
from .series import (
    ChannelStats,
    ForecastTask,
    SplitSpec,
    TimeSeries,
    _float_columns,
    chronological_split,
    standardize,
)

PROTOCOLS = ("last_sample", "sliding")
METRIC_SPACES = ("standardized", "raw")
COST_FAMILIES = ("domain", "llm", "linear")
WINDOW_SEED_STRIDE = 1000  # a window's noise seed is its cell's plus this times its index


class Forecaster(ABC):
    """Anything that maps an input window (I, d) to a forecast (O, d).

    ``fit`` is an optional per-call hook, timed separately from ``predict``
    by the protocol runners; the default is a no-op for training-free
    forecasters. ``prefetch`` is told every input window of a protocol run,
    in order, before the first ``fit``, so a forecaster may start work on
    them ahead; the default does nothing. ``close`` releases what the
    forecaster holds between calls, such as threads; the default holds
    nothing.
    """

    name: str = "forecaster"

    def prefetch(self, windows: Sequence[np.ndarray], horizon: int) -> None:
        return None

    def fit(self, window: np.ndarray, horizon: int) -> None:
        return None

    @abstractmethod
    def predict(self, window: np.ndarray, horizon: int) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        return None


@dataclass(frozen=True)
class CostRecord:
    """Per-run training and inference wall-clock seconds.

    ``infer_seconds`` is the forecaster's ``prefetch`` time plus the time of
    each ``predict``. For an LLM forecaster, whose pool keeps working through
    the protocol's per-window scoring (microseconds), that is the wall time
    of its prompt building plus each window's wait for its completions.
    """

    train_seconds: float
    infer_seconds: float
    dataset_name: str = ""
    forecaster_name: str = ""

    def __post_init__(self):
        if self.train_seconds < 0.0 or self.infer_seconds < 0.0:
            raise ValueError("costs must be non-negative")

    @property
    def total_seconds(self) -> float:
        return self.train_seconds + self.infer_seconds


@dataclass(frozen=True)
class Metrics:
    mae: float
    mse: float
    per_channel_mae: tuple[float, ...]
    per_channel_mse: tuple[float, ...]


@dataclass(frozen=True)
class EvalReport:
    """Outcome of one protocol run for one (dataset, forecaster) pair."""

    dataset_name: str
    forecaster_name: str
    protocol: str
    metric_space: str
    mae: float
    mse: float
    per_channel_mae: tuple[float, ...]
    per_channel_mse: tuple[float, ...]
    cost: CostRecord
    window_count: int
    input_length: int
    output_length: int

    def to_dict(self) -> dict:
        # field by field: asdict deep-copies every tuple and float
        return {**vars(self), "cost": dict(vars(self.cost))}


def compute_metrics(pred: np.ndarray, truth: np.ndarray) -> Metrics:
    """MAE and MSE over all entries, with a per-channel breakdown.

    The per-channel values average back to the headline numbers exactly
    (every channel contributes the same number of entries).
    """
    p, t = _float_columns(pred), _float_columns(truth)
    if p.shape != t.shape:
        raise ShapeMismatchError(f"pred shape {p.shape} != truth shape {t.shape}")
    diff = p - t
    absolute, squared = np.abs(diff), diff**2
    return Metrics(
        mae=float(np.mean(absolute)),
        mse=float(np.mean(squared)),
        per_channel_mae=tuple(np.mean(absolute, axis=0).tolist()),
        per_channel_mse=tuple(np.mean(squared, axis=0).tolist()),
    )


def _corrupt_input(
    window: np.ndarray,
    noise: NoiseSpec | None,
    noise_filter: FilterSpec | None,
    window_index: int,
) -> np.ndarray:
    if noise is None and noise_filter is None:
        return window
    series = TimeSeries(window)
    if noise is not None:
        # Distinct windows get distinct, reproducible corruption streams.
        series = inject_noise(series, replace(noise, seed=noise.seed + WINDOW_SEED_STRIDE * window_index))
    if noise_filter is not None:
        series = apply_filter(series, noise_filter)
    return series.values


def _run_protocol(
    protocol: str,
    starts_for: Callable[[int, int], Sequence[int]],
    dataset: TimeSeries,
    task: ForecastTask,
    forecaster: Forecaster,
    split: SplitSpec | None,
    metric_space: str,
    dataset_name: str,
    noise: NoiseSpec | None,
    noise_filter: FilterSpec | None,
) -> EvalReport:
    """Score ``forecaster`` on the test-slice windows at ``starts_for(rows, span)``."""
    if metric_space not in METRIC_SPACES:
        raise ValueError(f"metric_space must be one of {METRIC_SPACES}")
    train, _, test = chronological_split(dataset, split or SplitSpec())
    if metric_space == "standardized":
        test = standardize(test, ChannelStats.from_series(train))
    test_values = test.values
    span = task.input_length + task.output_length
    if test_values.shape[0] < span:
        raise SeriesTooShortError(
            f"test slice has {test_values.shape[0]} rows, needs {span}"
        )
    starts = starts_for(test_values.shape[0], span)
    windows = [_corrupt_input(test_values[start : start + task.input_length], noise,
                              noise_filter, idx) for idx, start in enumerate(starts)]
    maes, mses = [], []
    per_mae, per_mse = [], []
    train_seconds = 0.0
    t0 = time.perf_counter()
    forecaster.prefetch(windows, task.output_length)
    infer_seconds = time.perf_counter() - t0
    for start, window in zip(starts, windows):
        truth = test_values[start + task.input_length : start + span]
        t0 = time.perf_counter()
        forecaster.fit(window, task.output_length)
        t1 = time.perf_counter()
        pred = forecaster.predict(window, task.output_length)
        t2 = time.perf_counter()
        train_seconds += t1 - t0
        infer_seconds += t2 - t1
        pred = _float_columns(pred)
        if pred.shape != truth.shape:
            raise ShapeMismatchError(
                f"forecaster returned {pred.shape}, expected {truth.shape}"
            )
        m = compute_metrics(pred, truth)
        maes.append(m.mae)
        mses.append(m.mse)
        per_mae.append(m.per_channel_mae)
        per_mse.append(m.per_channel_mse)
    cost = CostRecord(
        train_seconds=train_seconds,
        infer_seconds=infer_seconds,
        dataset_name=dataset_name,
        forecaster_name=forecaster.name,
    )
    return EvalReport(
        dataset_name=dataset_name,
        forecaster_name=forecaster.name,
        protocol=protocol,
        metric_space=metric_space,
        mae=float(np.mean(maes)),
        mse=float(np.mean(mses)),
        per_channel_mae=tuple(float(v) for v in np.mean(per_mae, axis=0)),
        per_channel_mse=tuple(float(v) for v in np.mean(per_mse, axis=0)),
        cost=cost,
        window_count=len(starts),
        input_length=task.input_length,
        output_length=task.output_length,
    )


def run_last_sample(
    dataset: TimeSeries,
    task: ForecastTask,
    forecaster: Forecaster,
    split: SplitSpec | None = None,
    metric_space: str = "standardized",
    dataset_name: str = "",
    noise: NoiseSpec | None = None,
    noise_filter: FilterSpec | None = None,
) -> EvalReport:
    """Score only the final input/output window of the test slice.

    Fit time (if the forecaster trains per call) lands in ``train_seconds``;
    prediction time, covering all channels of the dataset, in
    ``infer_seconds``.
    """
    return _run_protocol(
        "last_sample", lambda rows, span: [rows - span], dataset, task, forecaster,
        split, metric_space, dataset_name, noise, noise_filter,
    )


def run_sliding(
    dataset: TimeSeries,
    task: ForecastTask,
    forecaster: Forecaster,
    split: SplitSpec | None = None,
    metric_space: str = "standardized",
    dataset_name: str = "",
    noise: NoiseSpec | None = None,
    noise_filter: FilterSpec | None = None,
) -> EvalReport:
    """Score every window of the test slice with stride equal to the horizon.

    Window count is ``floor((len_test - I - O) / O) + 1``; metrics are
    averaged over windows and costs accumulate across them. Every corrupted
    input window is built first and handed to ``forecaster.prefetch``, whose
    time counts as inference; then each window is fit, predicted and scored
    in turn, so an LLM forecaster's completions for later windows run while
    earlier ones are scored, and all of a window's completions have finished
    when its ``predict`` returns.
    """
    return _run_protocol(
        "sliding", lambda rows, span: range(0, rows - span + 1, task.output_length), dataset,
        task, forecaster, split, metric_space, dataset_name, noise, noise_filter,
    )


def aggregate_costs(records: Sequence[CostRecord], family: str) -> float:
    """Mean per-dataset compute cost of a forecaster family.

    ``domain`` and ``linear`` average training plus inference seconds; the
    ``llm`` family has no training stage, so only inference accumulates.
    """
    if family not in COST_FAMILIES:
        raise UnknownKindError(f"family must be one of {COST_FAMILIES}")
    if not records:
        raise EmptyListError("no cost records")
    if family == "llm":
        return float(np.mean([r.infer_seconds for r in records]))
    return float(np.mean([r.train_seconds + r.infer_seconds for r in records]))


@dataclass(frozen=True)
class CostComparison:
    """The two cost-efficiency inequalities for LLM forecasters."""

    llm_cost: float
    domain_cost: float | None
    linear_cost: float | None

    @property
    def beats_domain(self) -> bool | None:
        if self.domain_cost is None:
            return None
        return self.llm_cost < self.domain_cost

    @property
    def beats_linear(self) -> bool | None:
        if self.linear_cost is None:
            return None
        return self.llm_cost < self.linear_cost

    def lines(self) -> list[str]:
        out = [f"C_LLM = {self.llm_cost:.6f} s"]
        if self.domain_cost is not None:
            verdict = "PASS" if self.beats_domain else "FAIL"
            out.append(
                f"C_LLM < C_Domain: {self.llm_cost:.6f} < {self.domain_cost:.6f} -> {verdict}"
            )
        if self.linear_cost is not None:
            verdict = "PASS" if self.beats_linear else "FAIL"
            out.append(
                f"C_LLM < C_Linear: {self.llm_cost:.6f} < {self.linear_cost:.6f} -> {verdict}"
            )
        return out


def compare_cost_families(
    llm_records: Sequence[CostRecord],
    domain_records: Sequence[CostRecord] | None = None,
    linear_records: Sequence[CostRecord] | None = None,
) -> CostComparison:
    """Evaluate the cost-efficiency inequalities over per-dataset records."""
    return CostComparison(
        llm_cost=aggregate_costs(llm_records, "llm"),
        domain_cost=aggregate_costs(domain_records, "domain") if domain_records else None,
        linear_cost=aggregate_costs(linear_records, "linear") if linear_records else None,
    )
