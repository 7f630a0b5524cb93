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
from castlab.errors import DivergedLossError, KernelTooLargeError, ShapeMismatchError
from castlab.linear import (
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
    mixing, precondition, theta, phi = _fit_constants(
        cfg.variant, plan.inner_input, plan.inner_output, cfg.decomposition_kernel, cfg.seed)
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
]


@pytest.mark.parametrize("name,shape,kwargs", _BITWISE_CASES, ids=[c[0] for c in _BITWISE_CASES])
def test_fit_is_bitwise_the_copying_loop(name, shape, kwargs):
    n_in, horizon, channels = shape
    series = validate_series(_trend_sines(n_in, channels, 0.3 if "early" in name else 0.1))
    task = ForecastTask(n_in, horizon)
    cfg = LinearModelConfig(**kwargs)
    model = fit_single_shot(series, task, cfg)
    weights, bias, stats = _copying_fit(series, task, cfg)
    assert model.weights.keys() == weights.keys()
    assert all(np.array_equal(model.weights[k], weights[k]) for k in weights)
    assert np.array_equal(model.bias, bias)
    assert model.training_stats == stats
    if "early" in name:
        assert stats.epochs_run < cfg.max_epochs


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
    mixing, precondition, theta, phi = _fit_constants(variant, plan.inner_input, plan.inner_output, 5, 7)
    assert not any(c.flags.writeable for c in (mixing, precondition, theta, phi) if c is not None)
    # the fit stepped a copy: the kept start is still the seeded draw
    assert np.array_equal(theta, _pack(_init_params(variant, plan.inner_input, plan.inner_output, 7), variant))
    b = fit_single_shot(series, task, cfg)
    assert all(np.array_equal(a.weights[k], b.weights[k]) for k in a.weights)
    assert np.array_equal(a.bias, b.bias) and a.training_stats == b.training_stats


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
