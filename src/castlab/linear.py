"""Single-shot linear forecasters trained on windows carved from one sequence.

Two variants share the training loop:

* ``dlinear``: each input window is decomposed into a moving-average trend
  and a seasonal remainder; each component gets its own I' x O' weight
  matrix and the branch outputs are summed with a shared bias.
* ``rlinear``: each input window is instance-normalized (subtract window
  mean, divide by window std, epsilon-guarded), mapped through a single
  I' x O' matrix plus bias, and denormalized with the same statistics.

Both are affine maps on features that do not change during training, so each
fit computes them once, for the train and the validation windows. Training
is deterministic full-batch gradient descent with a fixed learning rate and
early stopping on validation loss; channels of a multivariate input are
pooled into the window batch and share one set of parameters. l2 fits step
on the sufficient statistics ``G = 2/n Fᵀ diag(s²) F`` and
``C = 2/n Fᵀ diag(s) (Y - shift)``, so an epoch costs the same whatever the
window count; their iterates equal those of the direct per-window gradient up
to rounding. l1 fits use the direct gradient on the same features.
Validation loss is always computed directly from the predictions.
Horizons longer than O' are reached autoregressively, feeding each predicted
block back as context.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DivergedLossError,
    KernelTooLargeError,
    ShapeMismatchError,
)
from .series import ForecastTask, TimeSeries
from .windowing import make_windows, plan_windows, train_val_partition

VARIANTS = ("dlinear", "rlinear")
LOSSES = ("l1", "l2")

INSTANCE_NORM_EPS = 1e-8
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LinearModelConfig:
    """Hyperparameters for fitting a single-shot linear model."""

    variant: str = "dlinear"
    loss: str = "l2"
    learning_rate: float = 1e-2
    max_epochs: int = 500
    patience: int = 20
    decomposition_kernel: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.decomposition_kernel < 1 or self.decomposition_kernel % 2 == 0:
            raise ValueError("decomposition_kernel must be an odd positive integer")


@dataclass(frozen=True)
class TrainingStats:
    train_loss: float
    val_loss: float
    epochs_run: int
    best_epoch: int


@dataclass(frozen=True)
class FittedLinearModel:
    """Parameters of a fitted single-shot linear forecaster.

    ``weights`` holds ``trend``/``seasonal`` matrices for dlinear or a single
    ``weight`` matrix for rlinear, each of shape (inner_input, inner_output);
    ``bias`` has shape (inner_output,).
    """

    variant: str
    inner_input: int
    inner_output: int
    weights: dict[str, np.ndarray]
    bias: np.ndarray
    decomposition_kernel: int
    config: LinearModelConfig
    training_stats: TrainingStats

    def __post_init__(self):
        frozen = {}
        for name, w in self.weights.items():
            arr = np.array(w, dtype=np.float64, copy=True)
            if arr.shape != (self.inner_input, self.inner_output):
                raise ShapeMismatchError(
                    f"weight {name!r} has shape {arr.shape}, expected "
                    f"({self.inner_input}, {self.inner_output})"
                )
            if not np.isfinite(arr).all():
                raise DivergedLossError(f"weight {name!r} contains non-finite values")
            arr.setflags(write=False)
            frozen[name] = arr
        object.__setattr__(self, "weights", frozen)
        bias = np.array(self.bias, dtype=np.float64, copy=True).reshape(-1)
        if bias.shape != (self.inner_output,):
            raise ShapeMismatchError(f"bias has shape {bias.shape}, expected ({self.inner_output},)")
        if not np.isfinite(bias).all():
            raise DivergedLossError("bias contains non-finite values")
        bias.setflags(write=False)
        object.__setattr__(self, "bias", bias)


def decompose_moving_average(x: np.ndarray, kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """Centered moving-average trend with replicate padding, plus remainder.

    ``trend + seasonal == x`` holds exactly since the seasonal part is
    defined as the subtraction. Accepts a 1-D sequence or a 2-D batch of row
    sequences; requires ``kernel <= 2 * len - 1`` so padding stays meaningful.
    """
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 1
    rows = arr.reshape(1, -1) if squeeze else arr
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError("kernel must be an odd positive integer")
    if kernel > 2 * rows.shape[1] - 1:
        raise KernelTooLargeError(
            f"kernel {kernel} exceeds 2*{rows.shape[1]}-1 for sequences of length {rows.shape[1]}"
        )
    radius = (kernel - 1) // 2
    padded = np.pad(rows, ((0, 0), (radius, radius)), mode="edge")
    trend = sliding_window_view(padded, kernel, axis=1).mean(axis=-1)
    seasonal = rows - trend
    if squeeze:
        return trend[0], seasonal[0]
    return trend, seasonal


def _init_params(variant: str, inner_input: int, inner_output: int, seed: int) -> dict[str, np.ndarray]:
    """Seeded uniform(-1/I', 1/I') weights, zero bias. Draw order is fixed."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / inner_input
    shape = (inner_input, inner_output)
    if variant == "dlinear":
        params = {
            "trend": rng.uniform(-bound, bound, size=shape),
            "seasonal": rng.uniform(-bound, bound, size=shape),
        }
    else:
        params = {"weight": rng.uniform(-bound, bound, size=shape)}
    params["bias"] = np.zeros(inner_output)
    return params


def _weight_names(variant: str) -> tuple[str, ...]:
    return ("trend", "seasonal") if variant == "dlinear" else ("weight",)


def _pack(params: dict[str, np.ndarray], variant: str) -> np.ndarray:
    """Stack the weight matrices and the bias row into one (p+1, O') array."""
    return np.vstack([*(params[name] for name in _weight_names(variant)), params["bias"]])


def _unpack(theta: np.ndarray, variant: str) -> dict[str, np.ndarray]:
    """Inverse of ``_pack``: views of ``theta`` keyed by parameter name."""
    names = _weight_names(variant)
    rows = (theta.shape[0] - 1) // len(names)
    params = {name: theta[i * rows : (i + 1) * rows] for i, name in enumerate(names)}
    params["bias"] = theta[-1]
    return params


Features = tuple[np.ndarray, np.ndarray | None, np.ndarray | None]


def _features(windows: np.ndarray, variant: str, kernel: int) -> Features:
    """Fixed per-window features ``(F, scale, shift)`` of a batch of input windows.

    ``F`` carries a trailing column of ones for the bias, so predictions are
    ``(F @ theta) * scale + shift`` with ``theta = [weights; bias]``. dlinear's
    ``F`` is ``[trend, seasonal, 1]`` with no scale or shift; rlinear's is the
    instance-normed window, scaled back by the clamped std and shifted by the
    mean.
    """
    rows, width = windows.shape
    if variant == "dlinear":
        trend, seasonal = decompose_moving_average(windows, kernel)
        feats = np.empty((rows, 2 * width + 1))
        feats[:, :width] = trend
        feats[:, width:-1] = seasonal
        feats[:, -1] = 1.0
        return feats, None, None
    mean = windows.mean(axis=1, keepdims=True)
    scale = np.maximum(windows.std(axis=1, keepdims=True), INSTANCE_NORM_EPS)
    feats = np.empty((rows, width + 1))
    np.subtract(windows, mean, out=feats[:, :-1])
    feats[:, :-1] /= scale
    feats[:, -1] = 1.0
    return feats, scale, mean


def _predict(feats: Features, theta: np.ndarray) -> np.ndarray:
    matrix, scale, shift = feats
    pred = matrix @ theta
    if scale is not None:
        pred *= scale
    if shift is not None:
        pred += shift
    return pred


def _loss(feats: Features, theta: np.ndarray, targets: np.ndarray, loss: str) -> float:
    residual = _predict(feats, theta) - targets
    return float(np.mean(residual**2 if loss == "l2" else np.abs(residual)))


def _gradient(feats: Features, theta: np.ndarray, targets: np.ndarray, loss: str) -> np.ndarray:
    """Gradient of the mean l1/l2 loss with respect to the augmented ``theta``."""
    matrix, scale, _ = feats
    residual = _predict(feats, theta) - targets
    size = residual.size
    if loss == "l2":
        dpred = 2.0 * residual / size
    else:
        dpred = np.sign(residual) / size
    if scale is not None:
        dpred *= scale
    return matrix.T @ dpred


def _fold_scale(feats: Features) -> Features:
    """Scale the rows of ``F`` by the per-row scale, in place, leaving predictions unchanged."""
    matrix, scale, shift = feats
    if scale is not None:
        matrix *= scale
    return matrix, None, shift


def _normal_equations(feats: Features, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sufficient statistics ``(G, C)`` of the l2 loss on scale-free features.

    The l2 gradient at ``theta`` is ``G @ theta - C``, with ``G = 2/n FᵀF``
    and ``C = 2/n Fᵀ(Y - shift)``; after ``_fold_scale`` these are
    ``2/n Fᵀ diag(s²) F`` and ``2/n Fᵀ diag(s) (Y - shift)`` of the unscaled ``F``.
    """
    matrix, _, shift = feats
    factor = 2.0 / targets.size
    centered = targets if shift is None else targets - shift
    return (matrix.T @ matrix) * factor, (matrix.T @ centered) * factor


def _forward(
    params: dict[str, np.ndarray], windows: np.ndarray, variant: str, kernel: int
) -> tuple[np.ndarray, Features]:
    """Predictions for a batch of input windows (rows), with their features."""
    feats = _features(windows, variant, kernel)
    return _predict(feats, _pack(params, variant)), feats


def loss_and_gradients(
    params: dict[str, np.ndarray],
    windows: np.ndarray,
    targets: np.ndarray,
    variant: str,
    loss: str,
    kernel: int,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean l1/l2 loss over all entries and its analytic parameter gradients."""
    # overflow here means divergence, reported as DivergedLossError by callers
    with np.errstate(over="ignore", invalid="ignore"):
        feats = _features(windows, variant, kernel)
        theta = _pack(params, variant)
        value = _loss(feats, theta, targets, loss)
        grad = _gradient(feats, theta, targets, loss)
    return value, _unpack(grad, variant)


def fit_single_shot(
    input_sequence: TimeSeries,
    task: ForecastTask,
    config: LinearModelConfig,
    val_fraction: float = 0.2,
) -> FittedLinearModel:
    """Fit a linear model on the windows of one input sequence.

    Full-batch gradient descent on the train windows; the chronologically
    latest fraction of offsets per channel validates. Training stops after
    ``max_epochs`` or once validation loss has failed to improve for more
    than ``patience`` consecutive epochs; the best-validation parameters are
    returned, with the train and validation losses measured at them.

    Features are computed once per fit. An l2 step is ``theta -= lr * (G @
    theta - C)`` on the sufficient statistics of ``_normal_equations``, so
    its cost does not grow with the window count; an l1 step uses the direct
    gradient.
    """
    plan = plan_windows(task, input_sequence.channels)
    if config.variant == "dlinear" and config.decomposition_kernel > 2 * plan.inner_input - 1:
        raise KernelTooLargeError(
            f"kernel {config.decomposition_kernel} too large for inner input {plan.inner_input}"
        )
    windows = make_windows(input_sequence, plan)
    train, val = train_val_partition(windows, val_fraction)
    kernel = config.decomposition_kernel
    val_feats = _features(val.inputs, config.variant, kernel)
    train_feats = _fold_scale(_features(train.inputs, config.variant, kernel))
    if config.loss == "l2":
        gram, moment = _normal_equations(train_feats, train.targets)

        def gradient(theta: np.ndarray) -> np.ndarray:
            return gram @ theta - moment
    else:

        def gradient(theta: np.ndarray) -> np.ndarray:
            return _gradient(train_feats, theta, train.targets, config.loss)

    init = _init_params(config.variant, plan.inner_input, plan.inner_output, config.seed)
    theta = _pack(init, config.variant)
    best = theta.copy()
    best_val = np.inf
    best_epoch = 0
    bad_epochs = 0
    epochs_run = 0

    # overflow here means divergence, raised below as DivergedLossError
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            epochs_run = epoch
            theta -= config.learning_rate * gradient(theta)
            val_loss = _loss(val_feats, theta, val.targets, config.loss)
            if not (np.isfinite(val_loss) and np.isfinite(theta).all()):
                raise DivergedLossError(
                    f"parameters or validation loss became non-finite at epoch {epoch}"
                )
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best = theta.copy()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs > config.patience:
                    break
        train_loss = _loss(train_feats, best, train.targets, config.loss)
    if not np.isfinite(train_loss):
        raise DivergedLossError("training loss is non-finite at the best-validation parameters")

    params = _unpack(best, config.variant)
    bias = params.pop("bias")
    return FittedLinearModel(
        variant=config.variant,
        inner_input=plan.inner_input,
        inner_output=plan.inner_output,
        weights=params,
        bias=bias,
        decomposition_kernel=kernel,
        config=config,
        training_stats=TrainingStats(
            train_loss=train_loss,
            val_loss=float(best_val),
            epochs_run=epochs_run,
            best_epoch=best_epoch,
        ),
    )


def predict(model: FittedLinearModel, recent: np.ndarray | TimeSeries, horizon: int) -> np.ndarray:
    """Forecast ``horizon`` steps from the last ``inner_input`` values per channel.

    Applies the linear map autoregressively in blocks of ``inner_output``,
    appending each block to the context; a final partial block is truncated.
    Channels are predicted independently. Returns shape (horizon, channels).
    """
    values = recent.values if isinstance(recent, TimeSeries) else np.asarray(recent, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if values.shape[0] != model.inner_input:
        raise ShapeMismatchError(
            f"context has {values.shape[0]} rows, model needs {model.inner_input}"
        )
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    theta = _pack(dict(model.weights, bias=model.bias), model.variant)
    context = values.T.copy()  # (channels, inner_input)
    blocks = []
    produced = 0
    while produced < horizon:
        block = _predict(_features(context, model.variant, model.decomposition_kernel), theta)
        blocks.append(block)
        produced += block.shape[1]
        context = np.concatenate([context, block], axis=1)[:, -model.inner_input :]
    forecast = np.concatenate(blocks, axis=1)[:, :horizon]
    return forecast.T


def save_model(model: FittedLinearModel, path: str | Path) -> Path:
    """Serialize to a versioned JSON document (shapes, flat arrays, config echo)."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "variant": model.variant,
        "inner_input": model.inner_input,
        "inner_output": model.inner_output,
        "decomposition_kernel": model.decomposition_kernel,
        "weights": {
            name: {"shape": list(w.shape), "data": w.ravel().tolist()}
            for name, w in model.weights.items()
        },
        "bias": model.bias.tolist(),
        "config": asdict(model.config),
        "training_stats": asdict(model.training_stats),
    }
    p = Path(path)
    p.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return p


def load_model(path: str | Path) -> FittedLinearModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    weights = {
        name: np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
        for name, spec in doc["weights"].items()
    }
    return FittedLinearModel(
        variant=doc["variant"],
        inner_input=doc["inner_input"],
        inner_output=doc["inner_output"],
        weights=weights,
        bias=np.asarray(doc["bias"], dtype=np.float64),
        decomposition_kernel=doc["decomposition_kernel"],
        config=LinearModelConfig(**doc["config"]),
        training_stats=TrainingStats(**doc["training_stats"]),
    )
