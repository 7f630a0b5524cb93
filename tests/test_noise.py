import numpy as np
import pytest

from castlab import FilterSpec, NoiseSpec, apply_filter, inject_noise, validate_series
from castlab.errors import InvalidSpecError
from castlab.noise import gaussian_kernel_weights


def _series(values):
    return validate_series(np.asarray(values, dtype=float))


# -- injection -----------------------------------------------------------


def test_gaussian_zero_sigma_is_identity():
    ts = _series(np.random.default_rng(0).normal(size=(20, 3)))
    out = inject_noise(ts, NoiseSpec(kind="gaussian", sigma=0.0, seed=1))
    assert out is ts


def test_gaussian_deterministic_and_matches_stream():
    ts = _series(np.random.default_rng(1).normal(size=(50, 2)))
    spec = NoiseSpec(kind="gaussian", sigma=0.3, seed=9)
    a = inject_noise(ts, spec)
    b = inject_noise(ts, spec)
    assert np.array_equal(a.values, b.values)
    expected = ts.values + np.random.default_rng(9).normal(0.0, 0.3, size=ts.values.shape)
    assert np.array_equal(a.values, expected)


def test_missing_full_contamination():
    ts = _series(np.arange(12.0).reshape(6, 2))
    out = inject_noise(ts, NoiseSpec(kind="missing", contamination=1.0, epsilon=0.0, seed=0))
    assert np.all(out.values == 0.0)


def test_constant_seeded_positions_oracle():
    # eta=0.5, n=4: exactly 2 points per channel shifted by +10, at the
    # positions an identical seeded generator draws.
    ts = _series(np.zeros((4, 2)))
    spec = NoiseSpec(kind="constant", contamination=0.5, epsilon=10.0, seed=123)
    out = inject_noise(ts, spec)
    rng = np.random.default_rng(123)
    for c in range(2):
        positions = rng.choice(4, size=2, replace=False)
        expected = np.zeros(4)
        expected[positions] = 10.0
        assert np.array_equal(out.values[:, c], expected)


def test_contamination_touches_exact_count_and_rest_bitwise():
    rng = np.random.default_rng(3)
    ts = _series(rng.normal(size=(40, 3)))
    for kind in ("constant", "missing"):
        spec = NoiseSpec(kind=kind, contamination=0.25, epsilon=5.0, seed=7)
        out = inject_noise(ts, spec)
        changed = out.values != ts.values
        assert changed.sum(axis=0).tolist() == [10, 10, 10]
        assert np.array_equal(out.values[~changed], ts.values[~changed])


def test_constant_default_epsilon_is_three_stds():
    rng = np.random.default_rng(4)
    ts = _series(rng.normal(scale=2.0, size=(30, 1)))
    out = inject_noise(ts, NoiseSpec(kind="constant", contamination=0.1, seed=5))
    delta = out.values - ts.values
    hit = delta[:, 0] != 0.0
    assert hit.sum() == 3
    assert np.allclose(delta[hit, 0], 3.0 * ts.values[:, 0].std())


def test_freq_replace_pointwise():
    n = 50
    ts = _series(np.random.default_rng(5).normal(size=(n, 1)))
    out = inject_noise(ts, NoiseSpec(kind="freq_replace", amplitude=1.0, frequency=5.0))
    t = np.arange(n)
    expected = np.sin(2.0 * np.pi * 5.0 * t / n)
    assert np.abs(out.values[:, 0] - expected).max() <= 1e-12


def test_freq_add_subtract_recovers():
    n = 64
    ts = _series(np.random.default_rng(6).normal(size=(n, 2)))
    spec = NoiseSpec(kind="freq_add", amplitude=2.0, frequency=3.0)
    out = inject_noise(ts, spec)
    t = np.arange(n)
    wave = 2.0 * np.sin(2.0 * np.pi * 3.0 * t / n)
    recovered = out.values - wave[:, None]
    assert np.abs(recovered - ts.values).max() <= 1e-12


def test_freq_default_amplitude_is_channel_std():
    rng = np.random.default_rng(7)
    ts = _series(rng.normal(scale=[1.0, 10.0], size=(80, 2)))
    out = inject_noise(ts, NoiseSpec(kind="freq_add", frequency=4.0))
    delta = out.values - ts.values
    t = np.arange(80)
    wave = np.sin(2.0 * np.pi * 4.0 * t / 80)
    for c in range(2):
        assert np.allclose(delta[:, c], ts.values[:, c].std() * wave)


def test_invalid_specs():
    with pytest.raises(InvalidSpecError):
        NoiseSpec(kind="sparkle")
    with pytest.raises(InvalidSpecError):
        NoiseSpec(kind="gaussian", sigma=-1.0)
    with pytest.raises(InvalidSpecError):
        NoiseSpec(kind="constant", contamination=1.5)
    with pytest.raises(InvalidSpecError):
        FilterSpec(kind="ema", alpha=0.0)
    with pytest.raises(InvalidSpecError):
        FilterSpec(kind="gaussian_kernel", kernel_sigma=0.0)


# -- filters --------------------------------------------------------------


def test_filters_leave_constant_unchanged():
    ts = _series(np.full((30, 2), 4.2))
    for spec in (FilterSpec(kind="gaussian_kernel", kernel_sigma=2.0),
                 FilterSpec(kind="ema", alpha=0.4)):
        out = apply_filter(ts, spec)
        assert np.allclose(out.values, 4.2, rtol=1e-12, atol=1e-12)


def test_kernel_weights_normalized():
    for sigma in (0.5, 1.0, 2.7, 10.0):
        w = gaussian_kernel_weights(sigma)
        assert len(w) == 2 * int(np.ceil(3 * sigma)) + 1
        assert abs(w.sum() - 1.0) <= 1e-12


def test_gaussian_filter_impulse_reproduces_kernel():
    n = 41
    impulse = np.zeros((n, 1))
    impulse[20, 0] = 1.0
    out = apply_filter(_series(impulse), FilterSpec(kind="gaussian_kernel", kernel_sigma=1.5))
    # oracle: explicit normalized weights, truncated at radius ceil(3*sigma)
    radius = int(np.ceil(3 * 1.5))
    k = np.exp(-0.5 * (np.arange(-radius, radius + 1) / 1.5) ** 2)
    k /= k.sum()
    expected = np.zeros(n)
    expected[20 - radius : 20 + radius + 1] = k
    assert np.allclose(out.values[:, 0], expected, atol=1e-12)


def test_ema_alpha_one_identity():
    ts = _series(np.random.default_rng(8).normal(size=(25, 2)))
    out = apply_filter(ts, FilterSpec(kind="ema", alpha=1.0))
    assert np.array_equal(out.values, ts.values)


def test_ema_direct_recurrence():
    out = apply_filter(_series([[0.0], [1.0], [1.0]]), FilterSpec(kind="ema", alpha=0.5))
    assert np.allclose(out.values[:, 0], [0.0, 0.5, 0.75])


def test_ema_bounded_by_range():
    rng = np.random.default_rng(9)
    for _ in range(10):
        ts = _series(rng.normal(size=(60, 2)))
        out = apply_filter(ts, FilterSpec(kind="ema", alpha=float(rng.uniform(0.05, 1.0))))
        for c in range(2):
            assert out.values[:, c].min() >= ts.values[:, c].min() - 1e-12
            assert out.values[:, c].max() <= ts.values[:, c].max() + 1e-12


def test_filter_determinism():
    ts = _series(np.random.default_rng(10).normal(size=(30, 2)))
    spec = FilterSpec(kind="gaussian_kernel", kernel_sigma=1.0)
    assert np.array_equal(apply_filter(ts, spec).values, apply_filter(ts, spec).values)
