import hashlib
import json
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from castlab import (
    DecodingConfig,
    LastValueForecaster,
    LinearModelConfig,
    LinearSingleShotForecaster,
    LlmPromptForecaster,
    MockAdapter,
    PolynomialExtrapolator,
    ScalingConfig,
    SeasonalRepeatForecaster,
    TranscriptWriter,
)
from castlab.errors import ShapeMismatchError
from castlab.eval import Forecaster, run_sliding
from castlab.series import ForecastTask, SplitSpec, validate_series
from castlab.llm.adapters import LlmAdapter
from test_sampling import CountingMock


def test_last_value_shapes():
    window = np.arange(12.0).reshape(6, 2)
    out = LastValueForecaster().predict(window, 4)
    assert out.shape == (4, 2)
    assert np.all(out == window[-1])


def test_seasonal_repeat_tiles():
    window = np.array([[1.0], [2.0], [3.0], [4.0]])
    out = SeasonalRepeatForecaster(period=2).predict(window, 5)
    assert out[:, 0].tolist() == [3.0, 4.0, 3.0, 4.0, 3.0]
    with pytest.raises(ShapeMismatchError):
        SeasonalRepeatForecaster(period=10).predict(window, 3)


def test_polynomial_fits_low_degree_exactly():
    t = np.arange(20, dtype=float)
    window = (2.0 + 0.5 * t).reshape(-1, 1)
    out = PolynomialExtrapolator(degree=1).predict(window, 5)
    expected = 2.0 + 0.5 * np.arange(20, 25, dtype=float)
    assert np.allclose(out[:, 0], expected)


def test_polynomial_fit_span_limits_context():
    rng = np.random.default_rng(0)
    window = rng.normal(size=(50, 1))
    a = PolynomialExtrapolator(degree=3, fit_span=20).predict(window, 4)
    b = PolynomialExtrapolator(degree=3).predict(window[-20:], 4)
    assert np.allclose(a, b)


def _polyfit_per_channel(window, degree, fit_span, horizon):
    """The per-channel ``polyfit``/``polyval`` loop that the cached design replaced."""
    arr = window if fit_span is None else window[-fit_span:]
    n = arr.shape[0]
    t = np.arange(n, dtype=np.float64) / (n - 1)
    t_future = np.arange(n, n + horizon, dtype=np.float64) / (n - 1)
    out = np.empty((horizon, arr.shape[1]))
    for c in range(arr.shape[1]):
        coeffs = np.polynomial.polynomial.polyfit(t, arr[:, c], degree)
        out[:, c] = np.polynomial.polynomial.polyval(t_future, coeffs)
    return out


@pytest.mark.parametrize("fit_span", [None, 100])
def test_polynomial_is_bitwise_the_polyfit_loop(fit_span):
    rng = np.random.default_rng(7)
    for degree in range(1, 13):
        for length, channels in ((120, 3), (40, 7), (384, 1)):
            window = rng.normal(size=(length, channels)).cumsum(axis=0)
            for horizon in (1, 24, 192):
                got = PolynomialExtrapolator(degree=degree, fit_span=fit_span).predict(window, horizon)
                assert np.array_equal(got, _polyfit_per_channel(window, degree, fit_span, horizon))


def test_polynomial_warns_rank_deficiency_as_polyfit_does():
    window = np.random.default_rng(3).normal(size=(26, 2))
    with pytest.warns(np.exceptions.RankWarning):
        _polyfit_per_channel(window, 25, None, 4)
    with pytest.warns(np.exceptions.RankWarning):
        PolynomialExtrapolator(degree=25).predict(window, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a full-rank fit warns on neither side
        _polyfit_per_channel(window, 12, None, 4)
        PolynomialExtrapolator(degree=12).predict(window, 4)


def test_polynomial_noise_brittleness():
    # clean smooth curve extrapolates tolerably; tiny noise wrecks it
    t = np.linspace(0.0, 1.0, 120)
    clean = np.sin(2 * np.pi * t).reshape(-1, 1)
    rng = np.random.default_rng(1)
    noisy = clean + 0.01 * rng.normal(size=clean.shape)
    poly = PolynomialExtrapolator(degree=10, fit_span=100)
    truth = np.sin(2 * np.pi * np.linspace(0, 1, 120)[-1])  # not used; compare spread
    clean_out = poly.predict(clean, 30)
    noisy_out = poly.predict(noisy, 30)
    assert np.abs(noisy_out - clean_out).max() > 10 * np.abs(clean_out).max() * 0.01


def test_linear_single_shot_fit_and_predict():
    rng = np.random.default_rng(2)
    window = rng.normal(size=(48, 3))
    cfg = LinearModelConfig(variant="rlinear", max_epochs=50, seed=0)
    f = LinearSingleShotForecaster(cfg)
    f.fit(window, 16)
    out = f.predict(window, 16)
    assert out.shape == (16, 3)
    # predict without explicit fit also works (fits lazily)
    g = LinearSingleShotForecaster(cfg)
    out2 = g.predict(window, 16)
    assert np.array_equal(out, out2)


def test_linear_single_shot_predict_refits_on_a_new_window():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(48, 2)), rng.normal(size=(48, 2))
    cfg = LinearModelConfig(variant="dlinear", max_epochs=30, decomposition_kernel=5, seed=0)
    f = LinearSingleShotForecaster(cfg)
    f.fit(a, 16)
    fresh = LinearSingleShotForecaster(cfg).predict(b, 16)
    assert np.array_equal(f.predict(b, 16), fresh)
    assert np.array_equal(f.predict(b, 8), LinearSingleShotForecaster(cfg).predict(b, 8))


def test_llm_forecaster_channel_independent():
    # constant scripted response; two channels -> both columns decoded, each at its own scale
    adapter = CountingMock(["7, 8, 9"])
    f = LlmPromptForecaster(
        adapter,
        style="llmtime_chat",
        decoding=DecodingConfig(num_samples=3, max_attempts_per_sample=1),
    )
    window = np.arange(20.0).reshape(10, 2)
    out = f.predict(window, 3)
    scales = [scaling.scale for scaling in ScalingConfig.per_channel(window)]
    assert out.shape == (3, 2)
    assert np.allclose(out, np.outer([7, 8, 9], scales))
    assert adapter.calls == 6  # num_samples per channel


def test_llm_forecaster_rejects_an_unknown_style_when_built():
    with pytest.raises(ValueError, match="style"):
        LlmPromptForecaster(MockAdapter(["1"]), style="nope")


def test_llm_forecaster_median_aggregation():
    adapter = MockAdapter(["1, 1, 1", "3, 3, 3", "100, 100, 100"])
    f = LlmPromptForecaster(
        adapter,
        decoding=DecodingConfig(num_samples=3, max_attempts_per_sample=1),
    )
    window = np.arange(8.0).reshape(-1, 1)
    out = f.predict(window, 3)
    [scaling] = ScalingConfig.per_channel(window)
    assert out[:, 0].tolist() == [3.0 * scaling.scale] * 3


def test_llm_forecaster_derives_scaling_per_channel():
    adapter = MockAdapter(["1, 2"])
    f = LlmPromptForecaster(
        adapter,
        decoding=DecodingConfig(num_samples=1, max_attempts_per_sample=1),
        decimals=2,
    )
    window = np.column_stack([np.linspace(1, 100, 20), np.linspace(1, 1000, 20)])
    out = f.predict(window, 2)
    # channel scalings differ: decoded values scale with each channel's 90th pct / 10
    assert out[0, 1] / out[0, 0] == pytest.approx(10.0, rel=0.2)


class RecordingAdapter(LlmAdapter):
    """Replies keyed on the prompt text and its draw count, so what each
    prompt is served does not depend on call order; notes the thread of
    every call and the most calls in flight at once."""

    def __init__(self, horizon, delay=0.002):
        self.horizon = horizon
        self.delay = delay
        self._lock = threading.Lock()
        self.draws = {}
        self.threads = set()
        self.in_flight = self.in_flight_max = 0

    def complete(self, system_text, user_text, config):
        key = hashlib.sha256(f"{system_text}\0{user_text}".encode()).digest()
        with self._lock:
            draw = self.draws.get(key, 0)
            self.draws[key] = draw + 1
            self.threads.add(threading.current_thread())
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
        time.sleep(self.delay)
        with self._lock:
            self.in_flight -= 1
        return ", ".join(str((key[draw % 32] + 7 * step) % 50) for step in range(self.horizon))


def _pooled_forecasts(channel_concurrency):
    """30 predicts of a 3-channel window at num_samples=5, with frequent thread switches."""
    adapter = RecordingAdapter(horizon=4)
    f = LlmPromptForecaster(
        adapter,
        decoding=DecodingConfig(num_samples=5, max_attempts_per_sample=1),
        channel_concurrency=channel_concurrency,
    )
    rng = np.random.default_rng(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outs = [f.predict(rng.integers(0, 40, size=(12, 3)).astype(float), 4) for _ in range(30)]
    finally:
        sys.setswitchinterval(interval)
        f.close()
    return outs, adapter


@pytest.mark.parametrize("channel_concurrency", [1, 3])
def test_llm_forecaster_pools_bound_threads_and_calls_in_flight(channel_concurrency):
    outs, adapter = _pooled_forecasts(channel_concurrency)
    bound = channel_concurrency * 5
    assert sum(adapter.draws.values()) == 30 * 3 * 5
    # one set of pool threads serves all 450 calls, counting the caller's
    assert 1 < len(adapter.threads) <= bound
    assert 1 < adapter.in_flight_max <= bound
    assert not any(t.is_alive() for t in adapter.threads - {threading.current_thread()})
    assert all(o.shape == (4, 3) for o in outs)


def test_llm_forecasts_do_not_depend_on_channel_concurrency():
    serial, _ = _pooled_forecasts(1)
    concurrent, _ = _pooled_forecasts(3)
    assert all(np.array_equal(a, b) for a, b in zip(serial, concurrent, strict=True))



class RecordingLlmForecaster(LlmPromptForecaster):
    """Keeps every forecast it returns."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outs = []

    def predict(self, window, horizon):
        out = super().predict(window, horizon)
        self.outs.append(out)
        return out


class UnprefetchedLlmForecaster(RecordingLlmForecaster):
    prefetch = Forecaster.prefetch


def _sliding_llm_run(cls, channel_concurrency):
    """run_sliding over 5 windows of a 3-channel series at num_samples=2; closes the forecaster."""
    adapter = RecordingAdapter(horizon=4, delay=0.005)
    f = cls(adapter, decoding=DecodingConfig(num_samples=2, max_attempts_per_sample=1),
            decimals=1, channel_concurrency=channel_concurrency)
    t = np.arange(60.0)
    values = np.column_stack([np.sin(t / 3.0), np.cos(t / 5.0), t / 30.0])
    try:
        report = run_sliding(validate_series(values), ForecastTask(input_length=8, output_length=4), f,
                             split=SplitSpec(test_fraction=0.5, val_fraction=0.0), metric_space="raw")
    finally:
        f.close()
    return f.outs, report, adapter


@pytest.mark.parametrize("channel_concurrency", [1, 3])
def test_prefetched_sliding_run_matches_an_unprefetched_one_bit_for_bit(channel_concurrency):
    outs, report, adapter = _sliding_llm_run(RecordingLlmForecaster, channel_concurrency)
    plain_outs, plain, _ = _sliding_llm_run(UnprefetchedLlmForecaster, channel_concurrency)
    assert report.window_count == len(outs) == 5
    assert all(np.array_equal(a, b) for a, b in zip(outs, plain_outs, strict=True))
    assert (report.mae, report.mse) == (plain.mae, plain.mse)
    assert sum(adapter.draws.values()) == 5 * 3 * 2
    assert adapter.in_flight_max <= channel_concurrency * 2
    assert not any(t.is_alive() for t in adapter.threads - {threading.current_thread()})


def test_predict_off_the_prefetched_queue_serves_its_window_and_cancels_the_rest(tmp_path):
    adapter = RecordingAdapter(horizon=4, delay=0.02)
    transcript = TranscriptWriter(tmp_path / "t.jsonl")
    f = LlmPromptForecaster(adapter, decoding=DecodingConfig(num_samples=2, max_attempts_per_sample=1),
                            transcript=transcript)
    rng = np.random.default_rng(3)
    windows = [rng.integers(0, 40, size=(12, 3)).astype(float) for _ in range(5)]
    try:
        f.prefetch(windows[:4], 4)
        out = f.predict(windows[4], 4)
    finally:
        f.close()
        transcript.close()
    fresh = LlmPromptForecaster(RecordingAdapter(horizon=4, delay=0.0),
                                decoding=DecodingConfig(num_samples=2, max_attempts_per_sample=1))
    try:
        assert np.array_equal(out, fresh.predict(windows[4], 4))
    finally:
        fresh.close()
    # the served window's 3 x 2 calls, plus at most one pool's worth already started
    assert 3 * 2 <= sum(adapter.draws.values()) <= 3 * 2 + 2
    records = [json.loads(line)["payload"] for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    calls = [(r["user_text"], r["sample_index"], r["attempt"]) for r in records]
    assert len(calls) == sum(adapter.draws.values()) and len(set(calls)) == len(calls)
