import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from castlab import (
    ForecastTask,
    WindowSet,
    LinearModelConfig,
    decompose_moving_average,
    fit_single_shot,
    load_model,
    predict_linear,
    save_model,
    validate_series,
)
from castlab import linear
from castlab.errors import DivergedLossError, KernelTooLargeError, ShapeMismatchError
from castlab.linear import (
    BLOCK_EPOCHS,
    INSTANCE_NORM_EPS,
    FittedLinearModel,
    TrainingStats,
    _design,
    _fit_constants,
    _forward,
    _phi,
    _init_params,
    _mixing,
    _moving_average_matrix,
    _pack,
    _unpack,
    loss_and_gradients,
)
from castlab.windowing import make_windows, plan_windows, train_val_partition


def _manual_model(variant, weights, bias, kernel=1, i_in=None, o_out=None):
    some = next(iter(weights.values()))
    return FittedLinearModel(
        variant=variant,
        inner_input=i_in or some.shape[0],
        inner_output=o_out or some.shape[1],
        weights=weights,
        bias=bias,
        decomposition_kernel=kernel,
        config=LinearModelConfig(variant=variant, decomposition_kernel=kernel),
        training_stats=TrainingStats(0.0, 0.0, 0, 0),
    )


# -- reference path ------------------------------------------------------
# The explicit-feature path that the phi-space fit replaced: every window is
# decomposed on its own, and predictions and gradients are taken on theta.


def _padded_moving_average(rows, kernel):
    """Trend of each row: the mean over a centered window of the edge-padded row."""
    radius = (kernel - 1) // 2
    padded = np.pad(rows, ((0, 0), (radius, radius)), mode="edge")
    return sliding_window_view(padded, kernel, axis=1).mean(axis=-1)


def _features(windows, variant, kernel):
    """Per-window features ``(F, scale, shift)``: predictions are ``(F @ theta) * scale + shift``.

    dlinear's ``F`` is ``[trend, seasonal, 1]``; rlinear's is the instance-normed
    window and a column of ones, scaled back by the clamped std and shifted by
    the mean.
    """
    rows, _ = windows.shape
    if variant == "dlinear":
        trend = _padded_moving_average(windows, kernel)
        return np.hstack([trend, windows - trend, np.ones((rows, 1))]), 1.0, 0.0
    mean = windows.mean(axis=1, keepdims=True)
    scale = np.maximum(windows.std(axis=1, keepdims=True), INSTANCE_NORM_EPS)
    return np.hstack([(windows - mean) / scale, np.ones((rows, 1))]), scale, mean


def _reference_forward(params, windows, variant, kernel):
    matrix, scale, shift = _features(windows, variant, kernel)
    return (matrix @ _pack(params, variant)) * scale + shift


def _reference_loss_and_gradients(params, windows, targets, variant, loss, kernel):
    """Mean l1/l2 loss and its gradient with respect to ``theta`` on explicit features."""
    matrix, scale, shift = _features(windows, variant, kernel)
    residual = (matrix @ _pack(params, variant)) * scale + shift - targets
    if loss == "l2":
        value, dpred = np.mean(residual**2), 2.0 * residual / residual.size
    else:
        value, dpred = np.mean(np.abs(residual)), np.sign(residual) / residual.size
    return float(value), _unpack(matrix.T @ (dpred * scale), variant)


def _rows(ws):
    """The (inputs, targets) of a window set as rows, channel by channel."""
    return ws.inputs.reshape(-1, ws.inputs.shape[-1]), ws.targets.reshape(-1, ws.targets.shape[-1])


def _reference_predict(model, context, horizon):
    """Autoregressive blocks of ``_reference_forward``, as ``predict`` made them before."""
    params = dict(model.weights, bias=model.bias)
    rows = context.T.copy()
    blocks = []
    while sum(b.shape[1] for b in blocks) < horizon:
        blocks.append(_reference_forward(params, rows, model.variant, model.decomposition_kernel))
        rows = np.concatenate([rows, blocks[-1]], axis=1)[:, -model.inner_input :]
    return np.concatenate(blocks, axis=1)[:, :horizon].T


# -- decomposition -------------------------------------------------------


def test_decompose_constant():
    x = np.full(10, 3.5)
    trend, seasonal = decompose_moving_average(x, 5)
    assert np.allclose(trend, 3.5)
    assert np.allclose(seasonal, 0.0)


def test_decompose_kernel_one_is_identity():
    x = np.array([1.0, -2.0, 7.0, 0.5])
    trend, seasonal = decompose_moving_average(x, 1)
    assert np.array_equal(trend, x)
    assert np.allclose(seasonal, 0.0)


def test_decompose_hand_oracle():
    # replicate padding: [0,0,1,2,3,3]; centered means of width 3
    x = np.array([0.0, 1.0, 2.0, 3.0])
    trend, seasonal = decompose_moving_average(x, 3)
    expected = np.array([(0 + 0 + 1) / 3, (0 + 1 + 2) / 3, (1 + 2 + 3) / 3, (2 + 3 + 3) / 3])
    assert np.allclose(trend, expected)
    assert np.allclose(seasonal, x - expected)


def test_decompose_exact_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        kernel = int(rng.choice([k for k in range(1, 2 * n, 2)]))
        x = rng.normal(scale=10.0, size=n)
        trend, seasonal = decompose_moving_average(x, kernel)
        assert np.abs(trend + seasonal - x).max() <= 1e-12


def test_decompose_kernel_too_large():
    with pytest.raises(KernelTooLargeError):
        decompose_moving_average(np.zeros(4), 9)


@pytest.mark.parametrize("width", [1, 2, 8, 13])
def test_trend_is_the_moving_average_matrix(width):
    rng = np.random.default_rng(width)
    for kernel in sorted({1, min(3, 2 * width - 1), 2 * width - 1}):
        average = _moving_average_matrix(width, kernel)
        assert np.array_equal(average, _padded_moving_average(np.eye(width), kernel))
        assert np.array_equal(average, decompose_moving_average(np.eye(width), kernel)[0])
        X = rng.normal(scale=3.0, size=(7, width))
        trend, _ = decompose_moving_average(X, kernel)
        np.testing.assert_allclose(trend, _padded_moving_average(X, kernel),
                                   rtol=1e-12, atol=1e-12 * np.abs(X).max())
    with pytest.raises(KernelTooLargeError):
        _moving_average_matrix(width, 2 * width + 1)


# -- gradients -----------------------------------------------------------


def _finite_difference_grads(params, X, Y, variant, loss, kernel, h=1e-5):
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value)
        flat = value.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            bumped = {k: v.copy() for k, v in params.items()}
            bumped[name].ravel()[idx] = orig + h
            up, _ = loss_and_gradients(bumped, X, Y, variant, loss, kernel)
            bumped[name].ravel()[idx] = orig - h
            down, _ = loss_and_gradients(bumped, X, Y, variant, loss, kernel)
            g.ravel()[idx] = (up - down) / (2 * h)
        grads[name] = g
    return grads


@pytest.mark.parametrize("variant", ["dlinear", "rlinear"])
@pytest.mark.parametrize("loss", ["l1", "l2"])
def test_gradient_check(variant, loss):
    rng = np.random.default_rng(42)
    for trial in range(5):
        k, i_in, o_out = 6, 4, 3
        X = rng.normal(size=(k, i_in))
        params = _init_params(variant, i_in, o_out, seed=trial)
        for name in params:
            params[name] = params[name] + 0.05 * rng.normal(size=params[name].shape)
        # residuals bounded away from the |.| kink so central differences are valid
        pred, _ = _forward(params, X, variant, 3)
        Y = pred - np.where(rng.normal(size=pred.shape) >= 0, 1.0, -1.0) * rng.uniform(
            0.3, 1.2, size=pred.shape
        )
        value, analytic = loss_and_gradients(params, X, Y, variant, loss, kernel=3)
        numeric = _finite_difference_grads(params, X, Y, variant, loss, kernel=3)
        ref_value, reference = _reference_loss_and_gradients(params, X, Y, variant, loss, 3)
        assert value == pytest.approx(ref_value, rel=1e-12)
        for name in analytic:
            denom = np.maximum(np.maximum(np.abs(numeric[name]), np.abs(analytic[name])), 1e-6)
            rel = np.abs(analytic[name] - numeric[name]) / denom
            assert rel.max() < 1e-4, f"{variant}/{loss}/{name}: {rel.max()}"
            np.testing.assert_allclose(analytic[name], reference[name], rtol=1e-12, atol=1e-14)


# -- fitting -------------------------------------------------------------


def _reference_fit(series, task, cfg):
    """The per-epoch direct-gradient loop on explicit features that the phi-space fit replaced.

    Every epoch recomputes the features and the full-batch gradient through
    ``_reference_loss_and_gradients``, then the validation loss at the updated
    weights.
    """
    plan = plan_windows(task, series.channels)
    train, val = map(_rows, train_val_partition(make_windows(series, plan), 0.2))
    params = _init_params(cfg.variant, plan.inner_input, plan.inner_output, cfg.seed)
    kernel = cfg.decomposition_kernel
    best, best_val, best_epoch, bad_epochs, epochs_run = params, np.inf, 0, 0, 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        _, grads = _reference_loss_and_gradients(params, *train, cfg.variant, cfg.loss, kernel)
        params = {name: params[name] - cfg.learning_rate * grads[name] for name in params}
        val_loss, _ = _reference_loss_and_gradients(params, *val, cfg.variant, cfg.loss, kernel)
        if val_loss < best_val:
            best, best_val, best_epoch, bad_epochs = params, val_loss, epoch, 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break
    return best, best_val, best_epoch, epochs_run


def _noisy_sines(channels, noise, length=64):
    t = np.arange(length, dtype=float)
    return np.column_stack([
        0.5 + 0.5 * np.sin(2 * np.pi * t / 16.0) + noise * np.random.default_rng(c).normal(size=length)
        for c in range(channels)
    ])


_EQUIVALENCE_CASES = [
    # full runs: every variant and loss, univariate and multivariate
    *[(f"{v}-{l}-d{d}", _noisy_sines(d, 0.05), 64, 16,
       dict(variant=v, loss=l, learning_rate=0.2, max_epochs=60, patience=20, decomposition_kernel=5, seed=1))
      for v in ("dlinear", "rlinear") for l in ("l1", "l2") for d in (1, 3)],
    # patience stops these well before max_epochs
    *[(f"{v}-{l}-early-stop", _noisy_sines(3, 0.3), 64, 16,
       dict(variant=v, loss=l, learning_rate=0.5, max_epochs=400, patience=5, decomposition_kernel=5, seed=1))
      for v in ("dlinear", "rlinear") for l in ("l1", "l2")],
    # the test_fit_constant_fixed_point settings
    *[(f"{v}-constant-{c}", np.full((16, 1), c), 16, 8,
       dict(variant=v, learning_rate=lr, decomposition_kernel=3, seed=0))
      for v, c, lr in [("dlinear", 5.0, 1e-2), ("dlinear", 1.0, 5e-2),
                       ("rlinear", 5.0, 1e-2), ("rlinear", -3.0, 1e-2)]],
]


@pytest.mark.parametrize("name,values,n_in,horizon,kwargs", _EQUIVALENCE_CASES,
                         ids=[case[0] for case in _EQUIVALENCE_CASES])
def test_fit_matches_reference_loop(name, values, n_in, horizon, kwargs):
    series = validate_series(values)
    task = ForecastTask(n_in, horizon)
    cfg = LinearModelConfig(**kwargs)
    model = fit_single_shot(series, task, cfg)
    ref, ref_val, ref_best, ref_run = _reference_fit(series, task, cfg)
    stats = model.training_stats
    for key in model.weights:
        np.testing.assert_allclose(model.weights[key], ref[key], rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.bias, ref["bias"], rtol=0, atol=1e-12)
    # residuals within a few ulps of the targets: which epoch scores lowest
    # there is decided by the last bit, so only the fixed point is compared
    floor = (4 * np.finfo(float).eps * np.abs(values).max()) ** 2
    assert stats.val_loss == pytest.approx(ref_val, rel=1e-12, abs=floor)
    if ref_val > floor:
        assert (stats.best_epoch, stats.epochs_run) == (ref_best, ref_run)
        if "early-stop" in name:
            assert ref_run < cfg.max_epochs
    else:
        assert stats.val_loss <= floor
        assert stats.epochs_run == stats.best_epoch + cfg.patience + 1
        assert ref_run == ref_best + cfg.patience + 1


# The fit loop that in-place stepping replaced: fresh X̃ blocks for the
# train and the validation windows, copied out of row-major window copies, and
# a new temporary for every gradient, step and loss. The new loop does the
# same arithmetic, so it must return the same bits.


def _copied_design(windows, variant):
    width = windows.shape[-1]
    design = np.empty((*windows.shape[:-1], width + 1))
    if variant == "dlinear":
        design[..., :-1] = windows
        design[..., -1] = 1.0
        return design.reshape(-1, width + 1), None
    mean = windows.mean(axis=-1, keepdims=True)
    np.subtract(windows, mean, out=design[..., :-1])
    np.maximum(windows.std(axis=-1, keepdims=True), INSTANCE_NORM_EPS, out=design[..., -1:])
    return design.reshape(-1, width + 1), mean.reshape(-1, 1)


def _copied_residual(design, phi, targets):
    matrix, shift = design
    pred = matrix @ phi
    if shift is not None:
        pred += shift
    return pred - targets


def _copied_loss(design, phi, targets, loss):
    residual = _copied_residual(design, phi, targets)
    return float(np.mean(residual**2 if loss == "l2" else np.abs(residual)))


def _copying_fit(series, task, cfg):
    """``(weights, bias, TrainingStats)`` of the copy-per-step fit loop."""
    plan = plan_windows(task, series.channels)
    precondition, _, theta, phi = _fit_constants(
        cfg.variant, plan.inner_input, plan.inner_output, cfg.decomposition_kernel, cfg.seed)
    mixing = _mixing(cfg.variant, plan.inner_input, cfg.decomposition_kernel)
    phi = phi.copy()
    ws = make_windows(series, plan)
    train, val = train_val_partition(
        WindowSet(ws.inputs.copy(), ws.targets.copy()), 0.2)
    train_design = _copied_design(train.inputs, cfg.variant)
    val_design = _copied_design(val.inputs, cfg.variant)
    train_targets = train.targets.reshape(-1, plan.inner_output)
    val_targets = val.targets.reshape(-1, plan.inner_output)
    if cfg.loss == "l2":
        matrix, shift = train_design
        factor = 2.0 / train_targets.size
        centered = train_targets if shift is None else train_targets - shift
        hessian = (matrix.T @ matrix) * factor
        moment = (matrix.T @ centered) * factor

        def gradient(phi):
            return hessian @ phi - moment
    else:

        def gradient(phi):
            residual = _copied_residual(train_design, phi, train_targets)
            return train_design[0].T @ (np.sign(residual) / residual.size)

    step_sum = None if mixing is None else np.zeros_like(phi)
    tracked = phi if step_sum is None else step_sum
    best, best_val, best_epoch, bad_epochs, epochs_run = tracked.copy(), np.inf, 0, 0, 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        step = cfg.learning_rate * gradient(phi)
        if step_sum is None:
            phi -= step
        else:
            step_sum += step
            phi -= precondition @ step
        val_loss = _copied_loss(val_design, phi, val_targets, cfg.loss)
        if val_loss < best_val:
            best_val, best_epoch, best, bad_epochs = val_loss, epoch, tracked.copy(), 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break
    if mixing is not None:
        best = theta - mixing.T @ best
    train_loss = _copied_loss(train_design, _phi(best, mixing), train_targets, cfg.loss)
    params = _unpack(best, cfg.variant)
    bias = params.pop("bias")
    return params, bias, TrainingStats(train_loss, float(best_val), epochs_run, best_epoch)


def _in_place_fit(series, task, cfg):
    """``(weights, bias, TrainingStats)`` of the in-place loop that the fused l2 step replaced.

    One X̃ holds the train rows, then the validation rows. An epoch steps
    ``phi -= lr * P g`` with ``P = M Mᵀ`` (l2: ``g = H phi - c``), adds
    ``lr * g`` to a sum ``r`` that gives ``theta = theta0 - Mᵀ r``, and scores
    the validation loss on its own. It does the copying loop's arithmetic.
    """
    plan = plan_windows(task, series.channels)
    precondition, _, theta, phi = _fit_constants(
        cfg.variant, plan.inner_input, plan.inner_output, cfg.decomposition_kernel, cfg.seed)
    mixing = _mixing(cfg.variant, plan.inner_input, cfg.decomposition_kernel)
    phi = phi.copy()
    train, val = train_val_partition(make_windows(series, plan), 0.2)
    matrix, shift = _copied_design(np.concatenate([_rows(train)[0], _rows(val)[0]]), cfg.variant)
    targets = np.concatenate([_rows(train)[1], _rows(val)[1]])
    train_rows, val_rows = slice(None, train.size), slice(train.size, None)
    residual = np.empty_like(targets)
    step = np.empty_like(phi)
    preconditioned = np.empty_like(phi)

    def residual_at(phi, rows):
        np.matmul(matrix[rows], phi, out=residual[rows])
        if shift is not None:
            residual[rows] += shift[rows]
        return np.subtract(residual[rows], targets[rows], out=residual[rows])

    def loss_of(residual):
        (np.square if cfg.loss == "l2" else np.abs)(residual, out=residual)
        return float(np.add.reduce(residual, axis=None)) / residual.size

    if cfg.loss == "l2":
        train_matrix = matrix[train_rows]
        factor = 2.0 / train.targets.size
        centered = targets[train_rows] if shift is None else targets[train_rows] - shift[train_rows]
        hessian = (train_matrix.T @ train_matrix) * factor
        moment = (train_matrix.T @ centered) * factor
        scored = val_rows

        def gradient():
            np.subtract(np.matmul(hessian, phi, out=step), moment, out=step)
    else:
        scored = slice(None)
        residual_at(phi, train_rows)

        def gradient():
            signs = np.sign(residual[train_rows], out=residual[train_rows])
            signs /= signs.size
            np.matmul(matrix[train_rows].T, signs, out=step)

    step_sum = None if mixing is None else np.zeros_like(phi)
    tracked = phi if step_sum is None else step_sum
    best, best_val, best_epoch, bad_epochs, epochs_run = tracked.copy(), np.inf, 0, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            epochs_run = epoch
            gradient()
            step *= cfg.learning_rate
            if step_sum is None:
                phi -= step
            else:
                step_sum += step
                phi -= np.matmul(precondition, step, out=preconditioned)
            residual_at(phi, scored)
            val_loss = loss_of(residual[val_rows])
            if not (np.isfinite(val_loss) and np.isfinite(phi).all()):
                raise DivergedLossError(f"parameters or validation loss became non-finite at epoch {epoch}")
            if val_loss < best_val:
                best_val, best_epoch, bad_epochs = val_loss, epoch, 0
                best[...] = tracked
            else:
                bad_epochs += 1
                if bad_epochs > cfg.patience:
                    break
        if mixing is not None:
            best = theta - mixing.T @ best
        train_loss = loss_of(residual_at(_phi(best, mixing), train_rows))
    params = _unpack(best, cfg.variant)
    bias = params.pop("bias")
    return params, bias, TrainingStats(train_loss, float(best_val), epochs_run, best_epoch)


def _trend_sines(length, channels, noise, seed=0):
    t = np.arange(length, dtype=float)[:, None]
    rng = np.random.default_rng(seed)
    return (np.sin(2 * np.pi * t / 24.0 + np.arange(channels)) + 0.002 * t
            + noise * rng.normal(size=(length, channels)))


_BITWISE_CASES = [
    # every variant and loss, on d = 1, 3 and 7
    *[(f"{v}-{l}-d{d}", (64, 16, d), dict(variant=v, loss=l, learning_rate=0.2, max_epochs=40,
                                          patience=40, decomposition_kernel=5, seed=1))
      for v in ("dlinear", "rlinear") for l in ("l1", "l2") for d in (1, 3, 7)],
    # the benchmark shapes: sliding-csv (I=384, O=192, d=7) and sweep-linear (I=278, O=120, d=1)
    *[(f"{v}-{l}-{i}x{d}", (i, o, d), dict(variant=v, loss=l, learning_rate=0.05, max_epochs=8,
                                           patience=8, decomposition_kernel=25, seed=3))
      for v in ("dlinear", "rlinear") for l in ("l1", "l2") for i, o, d in ((384, 192, 7), (278, 120, 1))],
    # patience stops these before max_epochs
    *[(f"{v}-{l}-early-stop", (60, 20, 3), dict(variant=v, loss=l, learning_rate=0.5, max_epochs=400,
                                                 patience=2, decomposition_kernel=5, seed=1))
      for v in ("dlinear", "rlinear") for l in ("l1", "l2")],
    # patience stops these inside an l2 block of BLOCK_EPOCHS epochs
    *[(f"{v}-l2-early-stop-in-block", (60, 20, 3), dict(variant=v, loss="l2", learning_rate=0.5,
                                                         max_epochs=400, patience=3,
                                                         decomposition_kernel=5, seed=2))
      for v in ("dlinear", "rlinear")],
]


def _bitwise_case(name, shape, kwargs):
    n_in, horizon, channels = shape
    series = validate_series(_trend_sines(n_in, channels, 0.3 if "early" in name else 0.1))
    return series, ForecastTask(n_in, horizon), LinearModelConfig(**kwargs)


@pytest.mark.parametrize("name,shape,kwargs", _BITWISE_CASES, ids=[c[0] for c in _BITWISE_CASES])
def test_fit_is_bitwise_the_copying_loop(name, shape, kwargs):
    series, task, cfg = _bitwise_case(name, shape, kwargs)
    got_weights, got_bias, got_stats = _in_place_fit(series, task, cfg)
    weights, bias, stats = _copying_fit(series, task, cfg)
    assert got_weights.keys() == weights.keys()
    assert all(np.array_equal(got_weights[k], weights[k]) for k in weights)
    assert np.array_equal(got_bias, bias)
    assert got_stats == stats
    if "early" in name:
        assert stats.epochs_run < cfg.max_epochs


@pytest.mark.parametrize("name,shape,kwargs", _BITWISE_CASES, ids=[c[0] for c in _BITWISE_CASES])
def test_fit_matches_the_in_place_loop(name, shape, kwargs):
    # the fused l2 step, the θ recovered through M⁺ and the block-summed
    # validation losses round differently from the in-place loop
    series, task, cfg = _bitwise_case(name, shape, kwargs)
    model = fit_single_shot(series, task, cfg)
    weights, bias, stats = _in_place_fit(series, task, cfg)
    assert model.weights.keys() == weights.keys()
    for key in weights:
        np.testing.assert_allclose(model.weights[key], weights[key], rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.bias, bias, rtol=0, atol=1e-12)
    got = model.training_stats
    assert got.val_loss == pytest.approx(stats.val_loss, rel=1e-12)
    assert got.train_loss == pytest.approx(stats.train_loss, rel=1e-12)
    floor = (4 * np.finfo(float).eps * np.abs(series.values).max()) ** 2
    assert stats.val_loss > floor
    assert (got.best_epoch, got.epochs_run) == (stats.best_epoch, stats.epochs_run)
    if "in-block" in name:
        assert stats.epochs_run < cfg.max_epochs and stats.epochs_run % BLOCK_EPOCHS != 0


def test_fit_diverges_at_the_epoch_the_in_place_loop_names():
    series = validate_series(1e4 * np.random.default_rng(2).normal(size=(32, 1)))
    task = ForecastTask(32, 16)
    # test_fit_diverged_loss's data and settings; the epoch falls inside an l2 block
    for variant in ("dlinear", "rlinear"):
        cfg = LinearModelConfig(variant=variant, learning_rate=10.0,
                                decomposition_kernel=3, max_epochs=500, seed=0)
        with pytest.raises(DivergedLossError) as want:
            _in_place_fit(series, task, cfg)
        with pytest.raises(DivergedLossError) as got:
            fit_single_shot(series, task, cfg)
        assert str(got.value) == str(want.value)
        assert str(want.value).endswith("at epoch 18")


# -- where l2 losses come from -------------------------------------------
# An l2 loss is taken from Gram terms unless rounding could show; with
# GRAM_CANCELLATION at 0 no Gram loss is trusted and the rows score them all.


def _fit_cases():
    for name, shape, kwargs in _BITWISE_CASES:
        yield pytest.param(*_bitwise_case(name, shape, kwargs), id=f"bitwise-{name}")
    for name, values, n_in, horizon, kwargs in _EQUIVALENCE_CASES:
        yield pytest.param(validate_series(values), ForecastTask(n_in, horizon),
                           LinearModelConfig(**kwargs), id=f"equivalence-{name}")


@pytest.mark.parametrize("series,task,cfg", _fit_cases())
def test_gram_losses_leave_the_row_scored_fit_unchanged(monkeypatch, series, task, cfg):
    model = fit_single_shot(series, task, cfg)
    monkeypatch.setattr(linear, "GRAM_CANCELLATION", 0.0)
    rows = fit_single_shot(series, task, cfg)
    assert all(np.array_equal(model.weights[k], rows.weights[k]) for k in rows.weights)
    assert np.array_equal(model.bias, rows.bias)
    got, want = model.training_stats, rows.training_stats
    assert (got.best_epoch, got.epochs_run) == (want.best_epoch, want.epochs_run)
    assert got.val_loss == pytest.approx(want.val_loss, rel=1e-13, abs=0)
    assert got.train_loss == pytest.approx(want.train_loss, rel=1e-13, abs=0)


def _spy_on_losses(monkeypatch):
    """Record each Gram scoring (its batch size and whether it was trusted) and each row scoring."""
    calls = []
    gram_losses, row_losses, loss = linear._gram_losses, linear._row_losses, linear._loss

    def gram_spy(phis, *args):
        losses = gram_losses(phis, *args)
        calls.append(("gram", len(phis), losses is not None))
        return losses

    def rows_spy(matrix, targets, phis, out):
        calls.append(("rows", len(phis)))
        return row_losses(matrix, targets, phis, out)

    def loss_spy(residual, kind):
        calls.append(("train rows",))
        return loss(residual, kind)

    monkeypatch.setattr(linear, "_gram_losses", gram_spy)
    monkeypatch.setattr(linear, "_row_losses", rows_spy)
    monkeypatch.setattr(linear, "_loss", loss_spy)
    return calls


@pytest.mark.parametrize("variant", ["dlinear", "rlinear"])
def test_validation_scores_by_gram_terms_only_with_more_rows_than_columns(monkeypatch, variant):
    calls = _spy_on_losses(monkeypatch)
    kwargs = dict(variant=variant, loss="l2", learning_rate=0.05, max_epochs=8, patience=8,
                  decomposition_kernel=25, seed=3)
    # sliding-csv's shape: 273 validation rows, 97 columns
    fit_single_shot(*_bitwise_case("paper", (384, 192, 7), kwargs))
    assert calls == [("gram", 8, True), ("gram", 1, True)]
    # sweep-linear's shape: 32 validation rows, 61 columns; the train loss still comes from H
    calls.clear()
    fit_single_shot(*_bitwise_case("sweep", (278, 120, 1), kwargs))
    assert calls == [("rows", 8), ("gram", 1, True)]


@pytest.mark.parametrize("variant,c,lr", [
    ("dlinear", 5.0, 1e-2),
    ("dlinear", 1.0, 5e-2),
    ("rlinear", 5.0, 1e-2),
    ("rlinear", -3.0, 1e-2),
])
def test_a_fixed_point_train_loss_falls_back_to_rows(monkeypatch, variant, c, lr):
    # the train loss sits at the ulp floor, far below the Gram terms it would cancel from
    calls = _spy_on_losses(monkeypatch)
    cfg = LinearModelConfig(variant=variant, learning_rate=lr, decomposition_kernel=3, seed=0)
    model = fit_single_shot(validate_series(np.full((16, 1), c)), ForecastTask(16, 8), cfg)
    assert calls[-2:] == [("gram", 1, False), ("train rows",)]
    assert model.training_stats.train_loss < 1e-20


def test_a_diverging_block_falls_back_to_rows(monkeypatch):
    # test_fit_diverged_loss's data on three channels: 12 validation rows, 9 columns
    series = validate_series(1e4 * np.random.default_rng(2).normal(size=(32, 3)))
    for variant in ("dlinear", "rlinear"):
        cfg = LinearModelConfig(variant=variant, learning_rate=10.0, decomposition_kernel=3,
                                max_epochs=500, seed=0)
        calls = _spy_on_losses(monkeypatch)
        with pytest.raises(DivergedLossError) as got:
            fit_single_shot(series, ForecastTask(32, 16), cfg)
        assert calls == [("gram", 8, True), ("gram", 8, True), ("gram", 8, False), ("rows", 8)]
        monkeypatch.setattr(linear, "GRAM_CANCELLATION", 0.0)
        with pytest.raises(DivergedLossError) as want:
            fit_single_shot(series, ForecastTask(32, 16), cfg)
        monkeypatch.undo()
        assert str(got.value) == str(want.value)
        assert str(want.value).endswith("at epoch 18")


def test_a_block_with_a_near_tie_falls_back_to_rows(monkeypatch):
    # a step this small moves the loss by less than GRAM_TIE of itself
    series, task, cfg = _bitwise_case("tie", (64, 16, 3), dict(
        variant="dlinear", loss="l2", learning_rate=1e-13, max_epochs=16, patience=16,
        decomposition_kernel=5, seed=1))
    calls = _spy_on_losses(monkeypatch)
    model = fit_single_shot(series, task, cfg)
    assert calls == [("gram", 8, True), ("rows", 8), ("gram", 8, True), ("rows", 8), ("gram", 1, True)]
    monkeypatch.undo()
    monkeypatch.setattr(linear, "GRAM_CANCELLATION", 0.0)
    rows = fit_single_shot(series, task, cfg)
    assert model.training_stats.val_loss == rows.training_stats.val_loss
    assert model.training_stats.epochs_run == rows.training_stats.epochs_run


# -- Gram terms from lag sums --------------------------------------------
# dlinear rows are stride-1 windows, so their Gram terms can be stepped from
# one window to the next; _gram_terms' row products are the reference.


def _lag_inputs(kind, length, channels):
    if kind == "constant":
        return np.full((length, channels), 2.5)
    noise = np.random.default_rng(channels).normal(size=(length, channels))
    return noise if kind == "noisy" else 50.0 + 3.0 * np.arange(length)[:, None] + noise


@pytest.mark.parametrize("kind", ["noisy", "trending", "constant"])
@pytest.mark.parametrize("channels,length,horizon", [(1, 60, 16), (3, 60, 16), (7, 60, 16), (21, 60, 16),
                                                     (7, 384, 192)])
@pytest.mark.parametrize("part", ["train", "validation"])  # offsets from a = 0, and from a > 0
def test_lag_terms_match_the_row_products(kind, channels, length, horizon, part):
    plan = plan_windows(ForecastTask(length, horizon), channels)
    series = validate_series(_lag_inputs(kind, length, channels))
    windows = train_val_partition(make_windows(series, plan), 0.2)[part == "validation"]
    matrix, _ = _design("dlinear", windows.inputs)
    targets = np.concatenate(windows.targets)
    width, outputs = matrix.shape[1], targets.shape[1]
    gram, moment, total = linear._gram_terms(matrix, targets, np.empty((width, width)),
                                             np.empty((width, outputs)))
    # scratch and outputs start as nan, so an entry left unwritten shows
    work = [np.full(shape, np.nan) for shape in linear._lag_shapes(
        plan.inner_input, plan.inner_input + plan.inner_output, channels)]
    got = linear._lag_terms(matrix, targets, channels, np.full((width, width), np.nan),
                            np.full((width, outputs), np.nan), *work)
    np.testing.assert_allclose(got[0], gram, rtol=0, atol=1e-13 * np.abs(gram).max())
    np.testing.assert_allclose(got[1], moment, rtol=0, atol=1e-13 * np.abs(moment).max())
    assert got[2] == total
    assert np.array_equal(got[0], got[0].T)


def test_large_dlinear_parts_take_the_lag_sums(monkeypatch):
    calls = []
    lag_terms, gram_terms = linear._lag_terms, linear._gram_terms

    def lag_spy(matrix, *args):
        calls.append(("lags", len(matrix)))
        return lag_terms(matrix, *args)

    def gram_spy(matrix, *args):
        calls.append(("rows", len(matrix)))
        return gram_terms(matrix, *args)

    monkeypatch.setattr(linear, "_lag_terms", lag_spy)
    monkeypatch.setattr(linear, "_gram_terms", gram_spy)
    kwargs = dict(loss="l2", learning_rate=0.05, max_epochs=8, patience=8, decomposition_kernel=5, seed=3)
    fits = [("dlinear", (384, 192, 7)), ("rlinear", (384, 192, 7)),
            ("dlinear", (278, 120, 1)), ("rlinear", (278, 120, 1)),
            ("dlinear", (240, 96, 3)), ("dlinear", (80, 20, 1))]
    for variant, shape in fits:
        fit_single_shot(*_bitwise_case("paths", shape, dict(kwargs, variant=variant)))
    # sliding-csv (span 192): 1,078 train rows take lags, its 273 validation
    # rows do not; sweep-linear's 127 train rows (span 120) do not either,
    # and it scores its 32 validation rows by rows; rlinear always uses rows.
    # At span 96, 348 train rows take lags; the offline demo's 48 train rows
    # are more than twice their span 20, but too few to repay the lag sums
    assert calls == [("lags", 1078), ("rows", 273), ("rows", 1078), ("rows", 273),
                     ("rows", 127), ("rows", 127), ("lags", 348), ("rows", 87),
                     ("rows", 48), ("rows", 13)]


@pytest.mark.parametrize("variant", ["dlinear", "rlinear"])
def test_normal_equations_give_the_l2_gradient(variant):
    # the fit's l2 step: Mᵀ(H phi - c) with H = 2/n X̃ᵀX̃, c = 2/n X̃ᵀ(Y - shift)
    rng = np.random.default_rng(11)
    i_in, o_out = 6, 4
    X = rng.normal(size=(9, i_in))
    X[0] = 2.5  # zero std: the rlinear scale is clamped to INSTANCE_NORM_EPS
    X[1] = -1.0 + 1e-10 * rng.normal(size=i_in)  # std below INSTANCE_NORM_EPS
    X[2] *= 30.0  # a heavily weighted row
    Y = rng.normal(size=(9, o_out))
    params = _init_params(variant, i_in, o_out, seed=3)
    params = {name: p + 0.3 * rng.normal(size=p.shape) for name, p in params.items()}
    matrix, shift = _design(variant, X)
    if variant == "rlinear":
        assert matrix[0, -1] == matrix[1, -1] == INSTANCE_NORM_EPS
    mixing = _mixing(variant, i_in, 3)
    if mixing is None:
        mixing = np.eye(i_in + 1)
    factor = 2.0 / Y.size
    hessian = matrix.T @ matrix * factor
    moment = matrix.T @ (Y if shift is None else Y - shift) * factor
    got = _unpack(mixing.T @ (hessian @ mixing @ _pack(params, variant) - moment), variant)
    _, want = _reference_loss_and_gradients(params, X, Y, variant, "l2", 3)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("variant", ["dlinear", "rlinear"])
@pytest.mark.parametrize("loss", ["l1", "l2"])
def test_train_loss_is_measured_at_the_returned_weights(variant, loss):
    series = validate_series(_noisy_sines(2, 0.1))
    task = ForecastTask(64, 16)
    cfg = LinearModelConfig(variant=variant, loss=loss, learning_rate=0.2, max_epochs=40,
                            decomposition_kernel=5, seed=2)
    model = fit_single_shot(series, task, cfg)
    train, _ = train_val_partition(make_windows(series, plan_windows(task, 2)), 0.2)
    inputs, targets = _rows(train)
    params = dict(model.weights, bias=model.bias)
    pred = _reference_forward(params, inputs, variant, cfg.decomposition_kernel)
    residual = pred - targets
    direct = np.mean(residual**2) if loss == "l2" else np.mean(np.abs(residual))
    assert model.training_stats.train_loss == pytest.approx(direct, rel=1e-12, abs=0)


def test_fit_ramp_matches_true_continuation():
    n_in, horizon = 64, 16
    t = np.arange(n_in + horizon, dtype=float)
    ramp = t / (n_in - 1)
    series = validate_series(ramp[:n_in])
    cfg = LinearModelConfig(
        variant="dlinear", loss="l2", learning_rate=0.5,
        max_epochs=6000, patience=6000, decomposition_kernel=3, seed=0,
    )
    model = fit_single_shot(series, ForecastTask(n_in, horizon), cfg)
    forecast = predict_linear(model, series.values[-model.inner_input :], horizon)
    truth = ramp[n_in:].reshape(-1, 1)
    assert np.abs(forecast - truth).mean() < 1e-3

    # closed-form least-squares oracle on the same windows extrapolates exactly
    plan = plan_windows(ForecastTask(n_in, horizon), 1)
    inputs, targets = _rows(make_windows(series, plan))
    design = np.hstack([inputs, np.ones((len(inputs), 1))])
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    context = series.values[-plan.inner_input :, 0]
    out = []
    while len(out) < horizon:
        block = np.concatenate([context, [1.0]]) @ solution
        out.extend(block.tolist())
        context = np.concatenate([context, block])[-plan.inner_input :]
    oracle = np.array(out[:horizon]).reshape(-1, 1)
    assert np.abs(oracle - truth).mean() < 1e-9
    assert np.abs(forecast - oracle).mean() < 1e-3


@pytest.mark.parametrize("variant,c,lr", [
    ("dlinear", 5.0, 1e-2),
    ("dlinear", 1.0, 5e-2),
    ("rlinear", 5.0, 1e-2),
    ("rlinear", -3.0, 1e-2),
])
def test_fit_constant_fixed_point(variant, c, lr):
    series = validate_series(np.full((16, 1), c))
    cfg = LinearModelConfig(variant=variant, learning_rate=lr, decomposition_kernel=3, seed=0)
    model = fit_single_shot(series, ForecastTask(16, 8), cfg)
    forecast = predict_linear(model, np.full((model.inner_input, 1), c), 8)
    assert np.abs(forecast - c).max() < 1e-6


@pytest.mark.parametrize("variant", ["dlinear", "rlinear"])
def test_fit_sine_validation_mae(variant):
    # integer number of periods per inner window, [0,1]-scaled
    n_in, horizon = 64, 32
    t = np.arange(n_in, dtype=float)
    series = validate_series(0.5 + 0.5 * np.sin(2 * np.pi * t / 16.0))
    cfg = LinearModelConfig(
        variant=variant, loss="l2", learning_rate=0.2,
        max_epochs=4000, patience=4000, decomposition_kernel=5, seed=0,
    )
    model = fit_single_shot(series, ForecastTask(n_in, horizon), cfg)
    plan = plan_windows(ForecastTask(n_in, horizon), 1)
    _, val = train_val_partition(make_windows(series, plan), 0.2)
    inputs, targets = _rows(val)
    params = dict(model.weights)
    params["bias"] = model.bias
    pred = _reference_forward(params, inputs, variant, model.decomposition_kernel)
    assert np.abs(pred - targets).mean() < 0.05


def test_fit_determinism():
    rng = np.random.default_rng(1)
    series = validate_series(rng.normal(size=(48, 2)))
    cfg = LinearModelConfig(variant="rlinear", max_epochs=60, seed=7)
    a = fit_single_shot(series, ForecastTask(48, 16), cfg)
    b = fit_single_shot(series, ForecastTask(48, 16), cfg)
    assert np.array_equal(a.weights["weight"], b.weights["weight"])
    assert np.array_equal(a.bias, b.bias)
    assert a.training_stats == b.training_stats


@pytest.mark.parametrize("variant", ["dlinear", "rlinear"])
def test_fits_share_read_only_start_constants(variant):
    rng = np.random.default_rng(1)
    series = validate_series(rng.normal(size=(48, 2)))
    task = ForecastTask(48, 16)
    cfg = LinearModelConfig(variant=variant, max_epochs=60, decomposition_kernel=5, seed=7)
    a = fit_single_shot(series, task, cfg)
    plan = plan_windows(task, 2)
    precondition, unmixing, theta, phi = _fit_constants(variant, plan.inner_input, plan.inner_output, 5, 7)
    mixing = _mixing(variant, plan.inner_input, 5)
    assert not any(c.flags.writeable for c in (mixing, precondition, unmixing, theta, phi) if c is not None)
    if mixing is not None:
        # M⁺ is a right inverse of M
        np.testing.assert_allclose(mixing @ unmixing, np.eye(plan.inner_input + 1), rtol=0, atol=1e-12)
    # the fit stepped a copy: the kept start is still the seeded draw
    assert np.array_equal(theta, _pack(_init_params(variant, plan.inner_input, plan.inner_output, 7), variant))
    b = fit_single_shot(series, task, cfg)
    assert all(np.array_equal(a.weights[k], b.weights[k]) for k in a.weights)
    assert np.array_equal(a.bias, b.bias) and a.training_stats == b.training_stats


# -- fit buffers ---------------------------------------------------------
# A fit writes into arrays kept per thread and reused by the thread's next fit.


def _fit_bits(series, task, cfg):
    model = fit_single_shot(series, task, cfg)
    return [model.weights[k].tobytes() for k in sorted(model.weights)] + [
        model.bias.tobytes(), model.training_stats]


def test_fits_on_threads_give_the_serial_bits():
    cases = [(validate_series(_trend_sines(n_in, channels, 0.1, seed=seed)), ForecastTask(n_in, horizon),
              LinearModelConfig(variant=v, loss=l, learning_rate=0.2, max_epochs=30, patience=30,
                                decomposition_kernel=5, seed=seed))
             for seed in (1, 2)
             for n_in, horizon, channels in ((48, 16, 2), (60, 20, 3), (40, 12, 1))
             for v in ("dlinear", "rlinear") for l in ("l1", "l2")]
    # fits whose train parts take lag sums, run side by side
    cases += [(validate_series(_trend_sines(384, 7, 0.1, seed=seed)), ForecastTask(384, 192),
               LinearModelConfig(learning_rate=0.05, max_epochs=4, seed=seed))
              for seed in range(8)]
    assert len(cases) == 32
    serial = [_fit_bits(*case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda case: _fit_bits(*case), cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@pytest.mark.parametrize("variant", ["dlinear", "rlinear"])
@pytest.mark.parametrize("loss", ["l1", "l2"])
def test_a_second_fit_of_a_shape_allocates_less_than_its_design(variant, loss):
    # numpy's broadcasting ufuncs take iteration buffers of at most 8192
    # elements per operand whatever the shape; at the paper shape X̃ is 1 MB
    task = ForecastTask(384, 192)
    cfg = LinearModelConfig(variant=variant, loss=loss, learning_rate=0.05, max_epochs=20,
                            decomposition_kernel=25, seed=4)
    fit_single_shot(validate_series(_trend_sines(384, 7, 0.1, seed=1)), task, cfg)
    second = validate_series(_trend_sines(384, 7, 0.1, seed=2))
    plan = plan_windows(task, 7)
    design_bytes = plan.window_count * (plan.inner_input + 1) * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        fit_single_shot(second, task, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < design_bytes


@pytest.mark.parametrize("variant", ["dlinear", "rlinear"])
def test_a_later_fit_leaves_an_earlier_model_unchanged(variant):
    task = ForecastTask(60, 20)
    cfg = LinearModelConfig(variant=variant, learning_rate=0.2, max_epochs=30, decomposition_kernel=5)
    first = fit_single_shot(validate_series(_trend_sines(60, 3, 0.1, seed=1)), task, cfg)
    weights = {k: w.copy() for k, w in first.weights.items()}
    bias, stats = first.bias.copy(), first.training_stats
    fit_single_shot(validate_series(_trend_sines(60, 3, 0.5, seed=2)), task, cfg)
    assert all(np.array_equal(first.weights[k], weights[k]) for k in weights)
    assert np.array_equal(first.bias, bias) and first.training_stats == stats


def test_fit_diverged_loss():
    rng = np.random.default_rng(2)
    series = validate_series(1e4 * rng.normal(size=(32, 1)))
    cfg = LinearModelConfig(variant="dlinear", learning_rate=10.0,
                            decomposition_kernel=3, max_epochs=500, seed=0)
    with pytest.raises(DivergedLossError):
        fit_single_shot(series, ForecastTask(32, 16), cfg)


def test_fit_noise_robustness():
    # seasonal series; fit on clean vs gaussian-corrupted input (sigma = 5% of std);
    # corrupted-fit MAE averaged over three noise draws stays within 25% of clean
    n_in, horizon = 280, 120
    n = n_in + horizon
    t = np.linspace(0.0, 1.0, n)
    full = 0.5 + 0.5 * np.sin(2 * np.pi * 4.0 * t)
    truth = full[n_in:].reshape(-1, 1)
    clean = full[:n_in]
    sigma = 0.05 * clean.std()
    cfg = LinearModelConfig(variant="dlinear", loss="l1", learning_rate=0.05,
                            max_epochs=1000, patience=1000, decomposition_kernel=25, seed=0)
    task = ForecastTask(n_in, horizon)

    def fitted_mae(inp):
        model = fit_single_shot(validate_series(inp), task, cfg)
        return np.abs(predict_linear(model, inp[-model.inner_input:], horizon) - truth).mean()

    mae_clean = fitted_mae(clean)
    noisy_maes = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        noisy_maes.append(fitted_mae(clean + rng.normal(0.0, sigma, size=n_in)))
    assert np.mean(noisy_maes) < 1.25 * mae_clean


# -- prediction ----------------------------------------------------------


def test_predict_single_block_is_direct_map():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(6, 6))
    b = rng.normal(size=6)
    model = _manual_model("dlinear", {"trend": w, "seasonal": np.zeros((6, 6))}, b, kernel=1)
    ctx = rng.normal(size=(6, 2))
    fc = predict_linear(model, ctx, 6)
    direct = (ctx.T @ w + b).T
    assert np.allclose(fc, direct)


def test_predict_compositionality():
    rng = np.random.default_rng(4)
    w = 0.3 * rng.normal(size=(5, 5))
    model = _manual_model("dlinear", {"trend": w, "seasonal": np.zeros((5, 5))},
                          np.zeros(5), kernel=1)
    ctx = rng.normal(size=(5, 1))
    two_blocks = predict_linear(model, ctx, 10)
    first = predict_linear(model, ctx, 5)
    shifted = np.vstack([ctx, first])[-5:]
    second = predict_linear(model, shifted, 5)
    assert np.allclose(two_blocks, np.vstack([first, second]))


def test_predict_truncates_final_block():
    model = _manual_model("dlinear", {"trend": np.eye(4), "seasonal": np.zeros((4, 4))},
                          np.zeros(4), kernel=1)
    fc = predict_linear(model, np.arange(4.0).reshape(-1, 1), 6)
    assert fc.shape == (6, 1)


def test_predict_identity_rlinear_constant():
    # untrained identity-initialized rlinear maps constant context to itself
    model = _manual_model("rlinear", {"weight": np.eye(4)}, np.zeros(4))
    fc = predict_linear(model, np.full((4, 2), 2.5), 4)
    assert np.allclose(fc, 2.5)


@pytest.mark.parametrize("variant", ["dlinear", "rlinear"])
@pytest.mark.parametrize("channels", [1, 3])
def test_predict_matches_reference_decomposition(variant, channels):
    rng = np.random.default_rng(channels)
    width = 8
    for kernel in (1, 3, 2 * width - 1):
        names = ("trend", "seasonal") if variant == "dlinear" else ("weight",)
        weights = {name: rng.normal(scale=0.3 / width, size=(width, width)) for name in names}
        model = _manual_model(variant, weights, rng.normal(scale=0.1, size=width), kernel=kernel)
        ctx = rng.normal(loc=2.0, size=(width, channels))
        for horizon in (1, width, 2 * width + 3):
            got = predict_linear(model, ctx, horizon)
            want = _reference_predict(model, ctx, horizon)
            assert got.shape == want.shape == (horizon, channels)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (kernel, horizon)


def test_predict_shape_mismatch():
    model = _manual_model("rlinear", {"weight": np.eye(4)}, np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        predict_linear(model, np.zeros((3, 1)), 4)


def test_rlinear_affine_equivariance():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(8, 4))
    b = rng.normal(size=4)
    model = _manual_model("rlinear", {"weight": w}, b)
    ctx = rng.normal(size=(8, 3))
    base = predict_linear(model, ctx, 4)
    for a, c in [(2.0, 1.0), (0.5, -7.0), (13.0, 100.0)]:
        scaled = predict_linear(model, a * ctx + c, 4)
        assert np.allclose(scaled, a * base + c, rtol=1e-9, atol=1e-9)


# -- persistence ---------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    series = validate_series(rng.normal(size=(40, 1)))
    cfg = LinearModelConfig(variant="dlinear", max_epochs=40, decomposition_kernel=5, seed=3)
    model = fit_single_shot(series, ForecastTask(40, 10), cfg)
    path = save_model(model, tmp_path / "model.json")
    back = load_model(path)
    assert back.variant == model.variant
    assert back.config == model.config
    assert back.training_stats == model.training_stats
    for name in model.weights:
        assert np.array_equal(back.weights[name], model.weights[name])
    ctx = rng.normal(size=(model.inner_input, 1))
    assert np.array_equal(predict_linear(model, ctx, 10), predict_linear(back, ctx, 10))
