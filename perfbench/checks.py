"""Correctness checks of the benchmark, computed apart from castlab.

Each check takes the program's output and the generated inputs and returns
a list of problems; an empty list means the output is correct. The
reference computations use numpy alone and follow the behaviour the
castlab README and docstrings document, never a stored copy of an earlier
output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def split_sizes(n: int, test_fraction: float, val_fraction: float = 0.0) -> tuple[int, int, int]:
    """(train, val, test) row counts: ceil of the decimal fractions, test first."""
    n_test = math.ceil(n * Fraction(repr(test_fraction)))
    n_val = math.ceil(n * Fraction(repr(val_fraction)))
    return n - n_val - n_test, n_val, n_test


def sliding_window_count(n_test: int, input_length: int, output_length: int) -> int:
    return (n_test - input_length - output_length) // output_length + 1


def standardized_test(values: np.ndarray, test_fraction: float) -> np.ndarray:
    """Test slice standardized with the train slice's population statistics."""
    n_train, n_val, _ = split_sizes(values.shape[0], test_fraction)
    train = values[:n_train]
    return (values[n_train + n_val:] - train.mean(axis=0)) / train.std(axis=0)


def sliding_windows(test: np.ndarray, input_length: int, output_length: int):
    """(input, truth) pairs of the sliding protocol: stride equals the horizon."""
    count = sliding_window_count(test.shape[0], input_length, output_length)
    for i in range(count):
        s = i * output_length
        yield test[s:s + input_length], test[s + input_length:s + input_length + output_length]


def baseline_forecast(window: np.ndarray, horizon: int, kind: str, period: int = 24) -> np.ndarray:
    if kind == "last_value":
        return np.repeat(window[-1:], horizon, axis=0)
    season = window[-period:]
    reps = -(-horizon // period)
    return np.concatenate([season] * reps, axis=0)[:horizon]


def sliding_metrics(test: np.ndarray, input_length: int, output_length: int, forecasts) -> tuple[float, float]:
    """Window-averaged MAE and MSE of ``forecasts`` (one array per window)."""
    maes, mses = [], []
    for (_, truth), pred in zip(sliding_windows(test, input_length, output_length), forecasts):
        maes.append(np.mean(np.abs(pred - truth)))
        mses.append(np.mean((pred - truth) ** 2))
    return float(np.mean(maes)), float(np.mean(mses))


# -- summary rows ---------------------------------------------------------------


def check_rows(rows: list[dict], expected_keys: list[tuple], window_count: int) -> list[str]:
    """Every expected (dataset, forecaster, sweep_value, replicate) row is
    present once, holds finite metrics and the expected window count."""
    problems = []
    keys = [(r["dataset"], r["forecaster"], r["sweep_value"], r["replicate"]) for r in rows]
    if sorted(keys) != sorted(expected_keys):
        missing = sorted(set(expected_keys) - set(keys))
        extra = sorted(set(keys) - set(expected_keys))
        problems.append(f"summary rows differ: {len(rows)} rows, missing {missing[:3]}, "
                        f"unexpected {extra[:3]}, expected {len(expected_keys)}")
    for r in rows:
        if r["window_count"] != str(window_count):
            problems.append(f"{r['dataset']}/{r['forecaster']}: window_count "
                            f"{r['window_count']!r}, expected {window_count}")
        for col in ("mae", "mse"):
            try:
                ok = math.isfinite(float(r[col]))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{r['dataset']}/{r['forecaster']}: {col} is {r[col]!r}")
    return problems


def check_sigma0_replicates(rows: list[dict]) -> list[str]:
    """With sigma = 0 every replicate sees the same clean input."""
    groups: dict[tuple, set] = {}
    for r in rows:
        if r["sweep_value"] and float(r["sweep_value"]) == 0.0:
            groups.setdefault((r["dataset"], r["forecaster"]), set()).add((r["mae"], r["mse"]))
    return [f"{ds}/{fc}: sigma=0 replicates disagree: {sorted(v)}"
            for (ds, fc), v in sorted(groups.items()) if len(v) != 1]


def sweep_mean_curves(rows: list[dict]) -> dict[str, list[float]]:
    """Mean MAE per forecaster and sigma (over datasets and replicates), by sigma."""
    acc: dict[str, dict[float, list[float]]] = {}
    for r in rows:
        acc.setdefault(r["forecaster"], {}).setdefault(float(r["sweep_value"]), []).append(float(r["mae"]))
    return {fc: [float(np.mean(v[s])) for s in sorted(v)] for fc, v in acc.items()}


def check_sweep_shape(rows: list[dict], brittle: str, linear: tuple[str, ...]) -> list[str]:
    """Criterion 6: the brittle curve never falls as sigma grows; each linear
    curve stays within 10% of its own mean."""
    curves = sweep_mean_curves(rows)
    problems = []
    b = curves.get(brittle, [])
    if not b or any(b[i + 1] < b[i] for i in range(len(b) - 1)):
        problems.append(f"{brittle} mean-MAE curve not monotone in sigma: {b}")
    for name in linear:
        c = curves.get(name, [])
        center = float(np.mean(c)) if c else float("nan")
        if not c or max(abs(m - center) / center for m in c) > 0.10:
            problems.append(f"{name} mean-MAE curve not within 10% of its mean: {c}")
    return problems


def check_mean_curve_file(rows: list[dict], mean_rows: list[dict]) -> list[str]:
    """``noise_sweep_mean.csv`` agrees with the per-cell rows."""
    curves = sweep_mean_curves(rows)
    problems = []
    seen = 0
    for m in mean_rows:
        values = sorted({float(r["sweep_value"]) for r in rows if r["forecaster"] == m["forecaster"]})
        want = curves[m["forecaster"]][values.index(float(m["value"]))]
        seen += 1
        if not close(float(m["mean_mae"]), want):
            problems.append(f"noise_sweep_mean {m['forecaster']}@{m['value']}: "
                            f"{m['mean_mae']} != {want!r}")
    if seen != sum(len(c) for c in curves.values()):
        problems.append(f"noise_sweep_mean.csv has {seen} rows, expected "
                        f"{sum(len(c) for c in curves.values())}")
    return problems


def baseline_reference(values: np.ndarray, test_fraction: float, input_length: int,
                       output_length: int, baselines: dict[str, tuple[str, int]]) -> dict[str, list[float]]:
    """[MAE, MSE] of naive baselines under the sliding protocol, computed
    with numpy from the raw values. ``baselines`` maps forecaster name to
    (kind, period)."""
    test = standardized_test(values, test_fraction)
    reference = {}
    for name, (kind, period) in baselines.items():
        windows = sliding_windows(test, input_length, output_length)
        preds = [baseline_forecast(w, output_length, kind, period) for w, _ in windows]
        reference[name] = list(sliding_metrics(test, input_length, output_length, preds))
    return reference


def check_baseline_rows(rows: list[dict], reference: dict[str, list[float]]) -> list[str]:
    """MAE/MSE of naive baselines equal the :func:`baseline_reference` to 1e-9."""
    problems = []
    by_name = {r["forecaster"]: r for r in rows}
    for name, (mae, mse) in reference.items():
        row = by_name.get(name)
        if row is None:
            problems.append(f"{name}: no summary row")
            continue
        for col, want in (("mae", mae), ("mse", mse)):
            if not close(float(row[col]), want):
                problems.append(f"{name}: {col} {row[col]} != reference {want!r}")
    return problems


# -- llm-stub -------------------------------------------------------------------


def gaussian_smooth(x: np.ndarray, kernel_sigma: float) -> np.ndarray:
    """Edge-padded truncated-Gaussian smoothing of each column."""
    radius = math.ceil(3.0 * kernel_sigma)
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-0.5 * (k / kernel_sigma) ** 2)
    w /= w.sum()
    padded = np.concatenate([np.repeat(x[:1], radius, 0), x, np.repeat(x[-1:], radius, 0)])
    return np.stack([np.convolve(padded[:, c], w, mode="valid") for c in range(x.shape[1])], axis=1)


def corrupted_window(window: np.ndarray, index: int, sigma: float, noise_seed: int,
                     kernel_sigma: float) -> np.ndarray:
    """Input window as the protocol documents it: gaussian noise from the seed
    ``noise_seed + 1000 * window_index``, then kernel smoothing."""
    rng = np.random.default_rng(noise_seed + 1000 * index)
    return gaussian_smooth(window + rng.normal(0.0, sigma, size=window.shape), kernel_sigma)


def prompt_scale(channel: np.ndarray) -> float:
    """Prompt scaling: the 90th percentile of |values| maps to 10."""
    q = float(np.percentile(np.abs(channel), 90.0))
    return q / 10.0 if q > 0.0 else 1.0


def check_llm_forecasts(forecasts: list[np.ndarray], expected: list[np.ndarray]) -> list[str]:
    problems = []
    if len(forecasts) != len(expected):
        return [f"{len(forecasts)} forecasts returned, expected {len(expected)}"]
    for i, (got, want) in enumerate(zip(forecasts, expected)):
        if got.shape != want.shape or not np.allclose(got, want, rtol=REL_TOL, atol=1e-12):
            problems.append(f"forecast {i} differs from the scripted median: "
                            f"max |diff| {np.max(np.abs(got - want)) if got.shape == want.shape else got.shape}")
    return problems


def check_count(name: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{name}: {got}, expected {want}"]


# -- linear models (traced runs) ------------------------------------------------


def _moving_average(rows: np.ndarray, kernel: int) -> np.ndarray:
    radius = (kernel - 1) // 2
    padded = np.concatenate([np.repeat(rows[:, :1], radius, 1), rows,
                             np.repeat(rows[:, -1:], radius, 1)], axis=1)
    c = np.cumsum(np.concatenate([np.zeros((rows.shape[0], 1)), padded], axis=1), axis=1)
    return (c[:, kernel:] - c[:, :-kernel]) / kernel


def linear_windows(series: np.ndarray, horizon: int, val_fraction: float = 0.2):
    """Stride-1 windows with I' = O' = horizon // 2, channel-major, split so
    the latest ceil(val_fraction * offsets) offsets of each channel validate."""
    inner = horizon // 2
    offsets = series.shape[0] - 2 * inner + 1
    val_count = math.ceil(offsets * Fraction(repr(val_fraction)))
    split = {"train": [], "val": []}
    for c in range(series.shape[1]):
        for s in range(offsets):
            part = "val" if s >= offsets - val_count else "train"
            split[part].append((series[s:s + inner, c], series[s + inner:s + 2 * inner, c]))
    return {k: (np.array([a for a, _ in v]), np.array([b for _, b in v])) for k, v in split.items()}


def _design(variant: str, inputs: np.ndarray, kernel: int):
    """Fixed features F, per-row output scale D and offset M with
    pred = D * (F @ theta) + M, theta stacking weights over the bias row."""
    ones = np.ones((inputs.shape[0], 1))
    if variant == "dlinear":
        trend = _moving_average(inputs, kernel)
        return np.hstack([trend, inputs - trend, ones]), ones, 0.0
    mean = inputs.mean(axis=1, keepdims=True)
    denom = np.maximum(inputs.std(axis=1, keepdims=True), 1e-8)
    return np.hstack([(inputs - mean) / denom, ones]), denom, mean


def linear_losses(variant: str, weights: dict, bias: np.ndarray, series: np.ndarray,
                  horizon: int, kernel: int, learning_rate: float) -> dict[str, float]:
    """Mean squared error of the documented model on train and val windows.

    Also returns ``train_before_step``: the train loss of the parameters one
    gradient step before ``weights``, found by inverting that (affine) step.
    """
    names = ("trend", "seasonal") if variant == "dlinear" else ("weight",)
    theta = np.vstack([weights[n] for n in names] + [bias[None, :]])
    win = linear_windows(series, horizon)
    out = {}
    for part, (x, y) in win.items():
        f, d, m = _design(variant, x, kernel)
        out[part] = float(np.mean((d * (f @ theta) + m - y) ** 2))
        if part == "train":
            c = 2.0 * learning_rate / y.size
            fd = f * d
            step = np.eye(f.shape[1]) - c * fd.T @ fd
            before = np.linalg.solve(step, theta + c * fd.T @ (m - y))
            out["train_before_step"] = float(np.mean((d * (f @ before) + m - y) ** 2))
    return out


def check_linear_fit(fit: dict, rel: float = 1e-7) -> list[str]:
    """A fitted model's reported losses match a recomputation from its weights.

    The reported train loss may belong to the returned weights or to the
    weights one step earlier (the loss evaluated just before the final
    update); the validation loss must match the returned weights.
    """
    model = fit["model"]
    cfg = model.config
    if cfg.loss != "l2":
        return [f"only l2 fits are checked, got {cfg.loss}"]
    ref = linear_losses(model.variant, model.weights, model.bias, fit["series"],
                        fit["horizon"], model.decomposition_kernel, cfg.learning_rate)
    stats = model.training_stats
    problems = []
    if not close(stats.val_loss, ref["val"], rel):
        problems.append(f"{model.variant}: val_loss {stats.val_loss!r} != recomputed {ref['val']!r}")
    if not (close(stats.train_loss, ref["train"], rel)
            or close(stats.train_loss, ref["train_before_step"], rel)):
        problems.append(f"{model.variant}: train_loss {stats.train_loss!r} matches neither "
                        f"{ref['train']!r} nor the pre-step {ref['train_before_step']!r}")
    return problems
