"""Single-shot linear forecasters trained on windows carved from one sequence.

Both variants are affine maps of the raw window X: predictions are
``X̃ @ phi + shift`` with ``phi = M @ theta`` and ``theta = [weights; bias]``.

* ``dlinear`` maps a moving-average trend ``X A`` and the seasonal remainder
  ``X (I - A)`` through one I' x O' matrix each, plus a shared bias:
  ``X̃ = [X, 1]``, no shift, ``M = [[A, I - A, 0], [0, 0, 1]]``.
* ``rlinear`` instance-normalizes each window (epsilon-guarded std), maps it
  through one I' x O' matrix plus bias and denormalizes: ``X̃ = [X - mean,
  std]``, the mean as shift, ``M`` the identity.

Training is full-batch gradient descent with early stopping; channels share
one set of parameters. The equivalence tests hold the weights within 1e-12 of
stepping ``theta`` on per-window trend/seasonal features. Horizons longer
than O' are reached autoregressively, block by block.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

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
VAL_FRACTION = 0.2  # share of each channel's latest offsets that validates
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
    """Centered moving-average trend with replicate padding, plus the remainder ``x - trend``.

    Accepts a 1-D sequence or a 2-D batch of rows; needs ``kernel <= 2 * len - 1``.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError("kernel must be an odd positive integer")
    arr = np.asarray(x, dtype=np.float64)
    trend = arr @ _moving_average_matrix(arr.shape[-1], kernel)
    return trend, arr - trend


def _moving_average_matrix(width: int, kernel: int) -> np.ndarray:
    """``A`` with trend ``x @ A``: entry (i, j) counts output j's window positions padded to input i."""
    if kernel > 2 * width - 1:
        raise KernelTooLargeError(f"kernel {kernel} exceeds 2*{width}-1 for sequences of length {width}")
    radius = (kernel - 1) // 2
    index = np.arange(width)
    counts = (np.abs(index[:, None] - index) <= radius).astype(np.float64)
    counts[0] = np.maximum(radius + 1 - index, 0)
    counts[-1] = np.maximum(index + radius + 2 - width, 0)
    return counts / kernel


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


Design = tuple[np.ndarray, np.ndarray | None]


@functools.lru_cache(maxsize=8)
def _mixing(variant: str, width: int, kernel: int) -> np.ndarray | None:
    """dlinear's ``M``, read-only and kept per shape; None stands for rlinear's identity."""
    if variant != "dlinear":
        return None
    average = _moving_average_matrix(width, kernel)
    mixing = np.block([[average, np.eye(width) - average, np.zeros((width, 1))],
                       [np.zeros((1, 2 * width)), np.ones((1, 1))]])
    mixing.setflags(write=False)
    return mixing


@functools.lru_cache(maxsize=8)
def _fit_constants(
    variant: str, inner_input: int, inner_output: int, kernel: int, seed: int
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray, np.ndarray]:
    """``(M, M Mᵀ, theta0, phi0 = M theta0)`` of a fit, read-only and kept per shape and seed.

    ``M`` and ``M Mᵀ`` are None for rlinear, whose ``phi0`` is ``theta0`` itself.
    """
    mixing = _mixing(variant, inner_input, kernel)
    theta = _pack(_init_params(variant, inner_input, inner_output, seed), variant)
    phi = _phi(theta, mixing)
    precondition = None if mixing is None else mixing @ mixing.T
    for arr in (precondition, theta, phi):
        if arr is not None:
            arr.setflags(write=False)
    return mixing, precondition, theta, phi


def _phi(theta: np.ndarray, mixing: np.ndarray | None) -> np.ndarray:
    return theta if mixing is None else mixing @ theta


def _stack(*blocks: np.ndarray, extra: int = 0) -> np.ndarray:
    """The windows along the last axis of ``blocks`` copied into rows, then ``extra`` unset columns."""
    width = blocks[0].shape[-1]
    rows = np.empty((sum(math.prod(b.shape[:-1]) for b in blocks), width + extra))
    start = 0
    for block in blocks:
        stop = start + math.prod(block.shape[:-1])
        rows[start:stop, :width].reshape(block.shape)[...] = block
        start = stop
    return rows


def _design(variant: str, *blocks: np.ndarray) -> Design:
    """``(X̃, shift)``, one row of ``X̃`` per window along the last axis of ``blocks``, block after block."""
    design = _stack(*blocks, extra=1)
    windows = design[:, :-1]
    if variant == "dlinear":
        design[:, -1] = 1.0
        return design, None
    mean = windows.mean(axis=1, keepdims=True)
    np.maximum(windows.std(axis=1, keepdims=True), INSTANCE_NORM_EPS, out=design[:, -1:])
    windows -= mean
    return design, mean


def _predict(design: Design, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    matrix, shift = design
    pred = np.matmul(matrix, phi, out=out)
    if shift is not None:
        pred += shift
    return pred


def _loss(residual: np.ndarray, loss: str) -> float:
    """Mean l1/l2 loss, squaring or taking ``abs`` of ``residual`` in place; the bits of ``np.mean``."""
    (np.square if loss == "l2" else np.abs)(residual, out=residual)
    return float(np.add.reduce(residual, axis=None)) / residual.size


def _gradient(matrix: np.ndarray, residual: np.ndarray, loss: str, out=None) -> np.ndarray:
    """Gradient of the mean l1/l2 loss with respect to ``phi``; overwrites ``residual``."""
    if loss == "l2":
        residual *= 2.0
    else:
        np.sign(residual, out=residual)
    residual /= residual.size
    return np.matmul(matrix.T, residual, out=out)


def _forward(
    params: dict[str, np.ndarray], windows: np.ndarray, variant: str, kernel: int
) -> tuple[np.ndarray, Design]:
    """Predictions for a batch of input windows (rows), with their design."""
    design = _design(variant, windows)
    phi = _phi(_pack(params, variant), _mixing(variant, windows.shape[1], kernel))
    return _predict(design, phi), design


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
        design = _design(variant, windows)
        mixing = _mixing(variant, windows.shape[1], kernel)
        phi = _phi(_pack(params, variant), mixing)
        residual = _predict(design, phi) - targets
        value = _loss(residual.copy(), loss)
        grad = _gradient(design[0], residual, loss)
        if mixing is not None:
            grad = mixing.T @ grad
    return value, _unpack(grad, variant)


def fit_single_shot(
    input_sequence: TimeSeries,
    task: ForecastTask,
    config: LinearModelConfig,
) -> FittedLinearModel:
    """Fit a linear model on the windows of one input sequence.

    Full-batch gradient descent on the train windows; the chronologically
    latest ``VAL_FRACTION`` of offsets per channel validates. Training stops
    after ``max_epochs`` or once validation loss has failed to improve for
    more than ``patience`` consecutive epochs; the best-validation parameters
    are returned, with the train and validation losses measured at them.

    Descent on ``theta`` runs as descent on ``phi``: with ``g`` the gradient
    in ``phi``, an epoch adds ``lr * g`` to a sum ``r`` and steps ``phi -= lr
    * M Mᵀ g``, so its ``theta`` is ``theta0 - Mᵀ r``. An l2 ``g`` is ``H phi
    - c`` (``H = 2/n X̃ᵀX̃``, ``c = 2/n X̃ᵀ(Y - shift)``), whose cost does not
    grow with the window count; an l1 ``g`` is the direct gradient, from the
    train rows of the one product that also scored the previous step.
    """
    plan = plan_windows(task, input_sequence.channels)
    kernel = config.decomposition_kernel
    mixing, precondition, theta, phi = _fit_constants(
        config.variant, plan.inner_input, plan.inner_output, kernel, config.seed)
    phi = phi.copy()  # stepped in place below
    train, val = train_val_partition(make_windows(input_sequence, plan), VAL_FRACTION)
    # X̃ and the targets hold the train rows, then the validation rows: each
    # value of the windows is copied once, and one product can score both parts
    matrix, shift = _design(config.variant, train.inputs, val.inputs)
    targets = _stack(train.targets, val.targets)
    train_rows, val_rows = slice(None, train.size), slice(train.size, None)
    residual = np.empty_like(targets)
    step = np.empty_like(phi)
    preconditioned = np.empty_like(phi)

    def residual_at(phi: np.ndarray, rows: slice) -> np.ndarray:
        part = (matrix[rows], None if shift is None else shift[rows])
        return np.subtract(_predict(part, phi, residual[rows]), targets[rows], out=residual[rows])

    if config.loss == "l2":
        train_matrix = matrix[train_rows]
        factor = 2.0 / train.targets.size
        centered = targets[train_rows] if shift is None else targets[train_rows] - shift[train_rows]
        hessian = (train_matrix.T @ train_matrix) * factor
        moment = (train_matrix.T @ centered) * factor
        scored = val_rows

        def gradient() -> None:
            np.subtract(np.matmul(hessian, phi, out=step), moment, out=step)
    else:
        # each epoch's product over all rows also leaves the next epoch's train residual
        scored = slice(None)
        residual_at(phi, train_rows)

        def gradient() -> None:
            _gradient(matrix[train_rows], residual[train_rows], config.loss, out=step)

    step_sum = None if mixing is None else np.zeros_like(phi)
    tracked = phi if step_sum is None else step_sum
    best = tracked.copy()
    best_val = np.inf
    best_epoch = 0
    bad_epochs = 0
    epochs_run = 0

    # overflow here means divergence, raised below as DivergedLossError
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            epochs_run = epoch
            gradient()
            step *= config.learning_rate
            if step_sum is None:
                phi -= step
            else:
                step_sum += step
                phi -= np.matmul(precondition, step, out=preconditioned)
            residual_at(phi, scored)
            val_loss = _loss(residual[val_rows], config.loss)
            if not (np.isfinite(val_loss) and np.isfinite(phi).all()):
                raise DivergedLossError(
                    f"parameters or validation loss became non-finite at epoch {epoch}"
                )
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best[...] = tracked
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs > config.patience:
                    break
        if mixing is not None:
            best = theta - mixing.T @ best
        train_loss = _loss(residual_at(_phi(best, mixing), train_rows), config.loss)
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

    Applies ``phi`` autoregressively in blocks of ``inner_output``, appending
    each block to the context; a final partial block is truncated. Channels
    are predicted independently. Returns shape (horizon, channels).
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
    phi = _phi(theta, _mixing(model.variant, model.inner_input, model.decomposition_kernel))
    context = values.T.copy()  # (channels, inner_input)
    blocks = []
    produced = 0
    while produced < horizon:
        block = _predict(_design(model.variant, context), phi)
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
