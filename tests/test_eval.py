from dataclasses import replace

import numpy as np
import pytest

from castlab import (
    CostRecord,
    FilterSpec,
    ForecastTask,
    LastValueForecaster,
    LinearModelConfig,
    LinearSingleShotForecaster,
    NoiseSpec,
    SeasonalRepeatForecaster,
    SplitSpec,
    TimeSeries,
    aggregate_costs,
    apply_filter,
    chronological_split,
    compare_cost_families,
    compute_metrics,
    inject_noise,
    run_last_sample,
    run_sliding,
    validate_series,
)
from castlab.errors import EmptyListError, SeriesTooShortError, ShapeMismatchError


# -- metrics ---------------------------------------------------------------


def test_metrics_zero_error():
    pred = np.ones((4, 2))
    m = compute_metrics(pred, pred)
    assert m.mae == 0.0 and m.mse == 0.0


def test_metrics_constant_offset():
    truth = np.zeros((5, 3))
    m = compute_metrics(truth + 2.0, truth)
    assert m.mae == 2.0 and m.mse == 4.0
    assert m.per_channel_mae == (2.0, 2.0, 2.0)


def test_metrics_random_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pred = rng.normal(size=(3, 2))
        truth = rng.normal(size=(3, 2))
        m = compute_metrics(pred, truth)
        diff = pred - truth
        mae = sum(abs(diff[i, j]) for i in range(3) for j in range(2)) / 6
        mse = sum(diff[i, j] ** 2 for i in range(3) for j in range(2)) / 6
        assert abs(m.mae - mae) < 1e-12 and abs(m.mse - mse) < 1e-12
        # per-channel values average to headline values
        assert abs(np.mean(m.per_channel_mae) - m.mae) < 1e-12
        assert abs(np.mean(m.per_channel_mse) - m.mse) < 1e-12


def test_metrics_symmetry_and_difference_dependence():
    rng = np.random.default_rng(1)
    pred, truth = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    a = compute_metrics(pred, truth)
    b = compute_metrics(truth, pred)
    assert a == b
    shift = rng.normal()
    c = compute_metrics(pred + shift, truth + shift)
    assert abs(a.mae - c.mae) < 1e-9 and abs(a.mse - c.mse) < 1e-9


def test_metrics_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        compute_metrics(np.zeros((2, 2)), np.zeros((3, 2)))


# -- protocols ---------------------------------------------------------------


def _ramp_series(n, slope=1.0, d=1):
    t = np.arange(n, dtype=float) * slope
    return validate_series(np.column_stack([t + 10 * c for c in range(d)]))


def test_last_sample_constant_series_last_value():
    series = validate_series(np.full((50, 2), 3.0))
    report = run_last_sample(series, ForecastTask(4, 2), LastValueForecaster(),
                             split=SplitSpec(0.5, 0.0), metric_space="raw")
    assert report.mae == 0.0
    assert report.window_count == 1
    assert report.protocol == "last_sample"


def test_last_sample_ramp_last_value_mae():
    # slope-1 ramp, O=2: errors are 1 and 2, MAE 1.5
    series = _ramp_series(40)
    report = run_last_sample(series, ForecastTask(4, 2), LastValueForecaster(),
                             split=SplitSpec(0.5, 0.0), metric_space="raw")
    assert report.mae == pytest.approx(1.5)
    assert report.mse == pytest.approx((1.0 + 4.0) / 2)


def test_last_sample_golden_ettm2_shaped():
    # frozen from the first verified run of this exact configuration
    rng = np.random.default_rng(2024)
    n, d = 600, 7
    t = np.arange(n, dtype=float)
    cols = []
    for c in range(d):
        period = 24 * (c % 3 + 1)
        phase = rng.uniform(0, 2 * np.pi)
        trend = 0.002 * (c + 1) * t
        season = np.sin(2 * np.pi * t / period + phase) + 0.4 * np.sin(2 * np.pi * t / 96 + phase)
        noise = 0.05 * rng.normal(size=n)
        cols.append(10 + 2 * c + trend + season + noise)
    series = validate_series(np.column_stack(cols), names=[f"ch{i}" for i in range(d)])

    cfg = LinearModelConfig(variant="dlinear", loss="l2", learning_rate=0.05,
                            max_epochs=300, patience=300, decomposition_kernel=25, seed=0)
    report = run_last_sample(series, ForecastTask(96, 48),
                             LinearSingleShotForecaster(cfg, name="dlinear-s"),
                             split=SplitSpec(test_fraction=0.3, val_fraction=0.0),
                             metric_space="standardized", dataset_name="ettm2-shaped")
    assert report.mae == pytest.approx(0.603311726133902, rel=1e-7)
    assert report.mse == pytest.approx(0.6987655966629498, rel=1e-7)
    assert report.metric_space == "standardized"
    assert report.cost.train_seconds > 0.0
    assert report.cost.infer_seconds > 0.0


def test_last_sample_too_short():
    series = _ramp_series(20)
    with pytest.raises(SeriesTooShortError):
        run_last_sample(series, ForecastTask(16, 8), LastValueForecaster(),
                        split=SplitSpec(0.2, 0.0), metric_space="raw")


class OneChannelTooManyForecaster(LastValueForecaster):
    def predict(self, window, horizon):
        out = super().predict(window, horizon)
        return np.hstack([out, out[:, :1]])


@pytest.mark.parametrize("protocol", [run_last_sample, run_sliding])
def test_a_forecast_of_the_wrong_shape_is_refused(protocol):
    series = _ramp_series(40, d=2)
    with pytest.raises(ShapeMismatchError, match=r"returned \(4, 3\), expected \(4, 2\)"):
        protocol(series, ForecastTask(8, 4), OneChannelTooManyForecaster(),
                 split=SplitSpec(0.5, 0.0), metric_space="raw")


def test_sliding_window_count():
    # len_test = I + 3O gives 3 windows
    i, o = 8, 4
    n_test = i + 3 * o
    series = _ramp_series(2 * n_test)
    report = run_sliding(series, ForecastTask(i, o), LastValueForecaster(),
                         split=SplitSpec(0.5, 0.0), metric_space="raw")
    assert report.window_count == 3


def test_sliding_single_window_equals_last_sample():
    i, o = 8, 4
    series = _ramp_series(2 * (i + o))
    task = ForecastTask(i, o)
    split = SplitSpec(0.5, 0.0)
    sliding = run_sliding(series, task, LastValueForecaster(), split=split, metric_space="raw")
    last = run_last_sample(series, task, LastValueForecaster(), split=split, metric_space="raw")
    assert sliding.window_count == 1
    assert sliding.mae == last.mae and sliding.mse == last.mse
    assert sliding.per_channel_mae == last.per_channel_mae


def test_sliding_seasonal_repeat_beats_last_value():
    # sine with period 12; seasonal repeat is near-exact, last-value is not
    n = 240
    t = np.arange(n, dtype=float)
    series = validate_series(np.sin(2 * np.pi * t / 12.0))
    task = ForecastTask(24, 12)
    split = SplitSpec(0.5, 0.0)
    seasonal = run_sliding(series, task, SeasonalRepeatForecaster(period=12),
                           split=split, metric_space="raw")
    naive = run_sliding(series, task, LastValueForecaster(), split=split, metric_space="raw")
    # closed-form oracles: exact repeat -> ~0; last-value MAE = mean |sin(x) - sin(last)|
    assert seasonal.mae < 1e-9
    assert naive.mae > 0.1
    assert seasonal.mae < naive.mae


def test_protocol_applies_noise_to_input_only():
    # constant series + full missing corruption: forecaster sees zeros, truth intact
    series = validate_series(np.full((40, 1), 5.0))
    noise = NoiseSpec(kind="missing", contamination=1.0, epsilon=0.0, seed=0)
    report = run_last_sample(series, ForecastTask(4, 2), LastValueForecaster(),
                             split=SplitSpec(0.5, 0.0), metric_space="raw", noise=noise)
    assert report.mae == pytest.approx(5.0)


class RecordingForecaster(LastValueForecaster):
    def __init__(self):
        super().__init__()
        self.seen = []

    def predict(self, window, horizon):
        self.seen.append(np.array(window))
        return super().predict(window, horizon)


def test_sliding_filters_each_noisy_input_window():
    t = np.arange(120, dtype=float)[:, None]
    series = validate_series(np.sin(t / 5.0) * [1.0, 2.0])
    noise = NoiseSpec(kind="gaussian", sigma=0.3, seed=4)
    smooth = FilterSpec(kind="gaussian_kernel", kernel_sigma=1.5)
    task, split = ForecastTask(12, 6), SplitSpec(0.5, 0.0)
    forecaster = RecordingForecaster()
    run_sliding(series, task, forecaster, split=split, metric_space="raw", noise=noise,
                noise_filter=smooth)
    test = chronological_split(series, split)[2].values
    starts = range(0, len(test) - 18 + 1, 6)
    assert len(forecaster.seen) == len(starts) == 8
    for w, (start, seen) in enumerate(zip(starts, forecaster.seen)):
        noisy = inject_noise(TimeSeries(test[start : start + 12]), replace(noise, seed=4 + 1000 * w))
        assert np.array_equal(seen, apply_filter(noisy, smooth).values)
        assert not np.allclose(seen, noisy.values)


class FlatLastValueForecaster(LastValueForecaster):
    def predict(self, window, horizon):
        return super().predict(window, horizon).ravel()


@pytest.mark.parametrize("protocol", [run_last_sample, run_sliding])
def test_a_univariate_forecast_of_shape_o_scores_as_shape_o_by_1(protocol):
    series = validate_series(np.sin(np.arange(80, dtype=float) / 3.0))
    task, split = ForecastTask(8, 4), SplitSpec(0.5, 0.0)
    flat = protocol(series, task, FlatLastValueForecaster(), split=split)
    column = protocol(series, task, LastValueForecaster(), split=split)
    assert (flat.mae, flat.mse, flat.per_channel_mae, flat.per_channel_mse, flat.window_count) == (
        column.mae, column.mse, column.per_channel_mae, column.per_channel_mse, column.window_count)
    assert flat.mae > 0.0


def test_standardized_space_default():
    rng = np.random.default_rng(9)
    series = validate_series(rng.normal(loc=100.0, scale=5.0, size=(80, 2)))
    report = run_last_sample(series, ForecastTask(8, 4), LastValueForecaster(),
                             split=SplitSpec(0.25, 0.0))
    assert report.metric_space == "standardized"
    raw = run_last_sample(series, ForecastTask(8, 4), LastValueForecaster(),
                          split=SplitSpec(0.25, 0.0), metric_space="raw")
    assert raw.mae != report.mae


# -- costs -------------------------------------------------------------------


def test_aggregate_costs_examples():
    record = CostRecord(train_seconds=2.0, infer_seconds=1.0)
    assert aggregate_costs([record], "linear") == 3.0
    assert aggregate_costs([record], "domain") == 3.0
    assert aggregate_costs([record], "llm") == 1.0


def test_aggregate_costs_mean():
    records = [CostRecord(1.0, 1.0), CostRecord(2.0, 2.0), CostRecord(3.0, 3.0)]
    assert aggregate_costs(records, "domain") == pytest.approx(4.0)
    assert aggregate_costs(records, "llm") == pytest.approx(2.0)


def test_aggregate_costs_empty():
    with pytest.raises(EmptyListError):
        aggregate_costs([], "llm")


def test_cost_record_non_negative():
    with pytest.raises(ValueError):
        CostRecord(train_seconds=-1.0, infer_seconds=0.0)


def test_cost_comparison_lines():
    llm = [CostRecord(0.0, 5.0)]
    domain = [CostRecord(10.0, 1.0)]
    linear = [CostRecord(0.5, 0.5)]
    comparison = compare_cost_families(llm, domain, linear)
    assert comparison.beats_domain is True
    assert comparison.beats_linear is False
    lines = comparison.lines()
    assert any("C_LLM < C_Domain" in l and "PASS" in l for l in lines)
    assert any("C_LLM < C_Linear" in l and "FAIL" in l for l in lines)
