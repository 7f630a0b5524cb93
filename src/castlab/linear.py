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
one set of parameters. It steps ``phi`` and recovers ``theta`` from the best
``phi`` through ``M``'s pseudo-inverse. An l2 epoch is one product with a
fixed affine map, and validation scores a block of epochs at once; an l1
epoch is one product with a fixed map of the residual signs. l2 losses come
from Gram terms (``X̃ᵀX̃``, ``X̃ᵀY``, ``‖Y‖²``) where rounding cannot sway a
decision, else from the rows, so the weights are the bits of a fit that
scores every loss by rows. A large dlinear part forms ``X̃ᵀX̃`` and ``X̃ᵀY``
from lag sums of its channels rather than a product over its rows. The
arrays a fit writes are reused by the next fit on the same thread. The
equivalence tests hold the weights within 1e-12 of stepping ``theta`` on
per-window trend/seasonal features. Horizons longer than O' are reached
autoregressively, block by block.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DivergedLossError,
    KernelTooLargeError,
    ShapeMismatchError,
)
from .series import ForecastTask, TimeSeries, _float_columns
from .windowing import make_windows, plan_windows, train_val_partition

VARIANTS = ("dlinear", "rlinear")
LOSSES = ("l1", "l2")

INSTANCE_NORM_EPS = 1e-8
VAL_FRACTION = 0.2  # share of each channel's latest offsets that validates
BLOCK_EPOCHS = 8  # l2 epochs stepped before their validation losses are scored together
# An l2 loss taken from Gram terms is kept only when the terms cancel by less
# than this factor, and a block of them only when no comparison of its epoch
# scan is within GRAM_TIE (relative) of a tie; else the rows score it. On the
# test fits Gram losses sit within 2e-14 relative of the rows', so the kept
# ones decide every comparison as the rows would.
GRAM_CANCELLATION = 100.0
GRAM_TIE = 1e-12
# A dlinear part forms its Gram terms from lag sums when it has more rows
# than twice the window span and more than LAG_WORK rows × span. At one BLAS
# thread the lag sums' fixed cost (some twenty numpy calls, ~40 µs) matches
# the row product at rows × span of 25,000-40,000 on spans 48-240; the
# paper-shape validation part (273 rows, span 192) stays on its rows.
LAG_WORK = 32768
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
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.decomposition_kernel < 1 or self.decomposition_kernel % 2 == 0:
            raise ValueError("decomposition_kernel must be an odd positive integer")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


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
    """``(M Mᵀ, M⁺, theta0, phi0 = M theta0)`` of a fit, read-only and kept per shape and seed.

    ``M⁺ = Mᵀ (M Mᵀ)⁻¹`` is ``M``'s pseudo-inverse; ``M Mᵀ`` is positive
    definite because ``A Aᵀ + (I - A)(I - A)ᵀ`` is. Both are None for
    rlinear, whose ``phi0`` is ``theta0`` itself.
    """
    mixing = _mixing(variant, inner_input, kernel)
    theta = _pack(_init_params(variant, inner_input, inner_output, seed), variant)
    phi = _phi(theta, mixing)
    precondition = unmixing = None
    if mixing is not None:
        precondition = mixing @ mixing.T
        unmixing = np.ascontiguousarray(np.linalg.solve(precondition, mixing).T)
    for arr in (precondition, unmixing, theta, phi):
        if arr is not None:
            arr.setflags(write=False)
    return precondition, unmixing, theta, phi


_workspace = threading.local()


def _buffers(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Arrays of ``shapes`` with unset values, carved one after another from this thread's buffer.

    The buffer grows to the largest request made on its thread and is kept,
    so a later fit of the same shape allocates nothing large. The arrays are
    valid until the next call on the same thread.
    """
    sizes = [math.prod(shape) for shape in shapes]
    buffer = getattr(_workspace, "buffer", None)
    if buffer is None or buffer.size < sum(sizes):
        buffer = _workspace.buffer = np.empty(sum(sizes))
    arrays, start = [], 0
    for shape, size in zip(shapes, sizes):
        arrays.append(buffer[start : start + size].reshape(shape))
        start += size
    return arrays


def _phi(theta: np.ndarray, mixing: np.ndarray | None) -> np.ndarray:
    return theta if mixing is None else mixing @ theta


def _stack(*blocks: np.ndarray, extra: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """The windows along the last axis of ``blocks`` copied into rows, then ``extra`` unset columns.

    The rows are ``out`` when given, else a new array.
    """
    width = blocks[0].shape[-1]
    rows = np.empty((sum(math.prod(b.shape[:-1]) for b in blocks), width + extra)) if out is None else out
    start = 0
    for block in blocks:
        stop = start + math.prod(block.shape[:-1])
        rows[start:stop, :width].reshape(block.shape)[...] = block
        start = stop
    return rows


def _design(variant: str, *blocks: np.ndarray, out: np.ndarray | None = None) -> Design:
    """``(X̃, shift)``, one row of ``X̃`` per window along the last axis of ``blocks``, block after block.

    ``X̃`` is written into ``out`` when given.
    """
    design = _stack(*blocks, extra=1, out=out)
    windows, scale = design[:, :-1], design[:, -1]
    if variant == "dlinear":
        scale[...] = 1.0
        return design, None
    mean = windows.mean(axis=1, keepdims=True)
    windows -= mean
    # the std of each centered row, without a temporary the size of the windows
    np.einsum("ij,ij->i", windows, windows, out=scale)
    scale /= windows.shape[1]
    np.maximum(np.sqrt(scale, out=scale), INSTANCE_NORM_EPS, out=scale)
    return design, mean


def _predict(design: Design, phi: np.ndarray) -> np.ndarray:
    matrix, shift = design
    pred = matrix @ phi
    if shift is not None:
        pred += shift
    return pred


def _loss(residual: np.ndarray, loss: str) -> float:
    """Mean l1/l2 loss, squaring or taking ``abs`` of ``residual`` in place; the bits of ``np.mean``."""
    (np.square if loss == "l2" else np.abs)(residual, out=residual)
    return float(np.add.reduce(residual, axis=None)) / residual.size


def _gradient(matrix: np.ndarray, residual: np.ndarray, loss: str) -> np.ndarray:
    """Gradient of the mean l1/l2 loss with respect to ``phi``; overwrites ``residual``."""
    if loss == "l2":
        residual *= 2.0
    else:
        np.sign(residual, out=residual)
    residual /= residual.size
    return matrix.T @ residual


def _row_losses(matrix: np.ndarray, targets: np.ndarray, phis: np.ndarray, out: np.ndarray) -> list[float]:
    """Mean squared ``matrix @ phi - targets`` for each ``phi`` along ``phis``' first axis.

    One stacked product, written into ``out``, scores them all.
    """
    stacked = np.matmul(matrix, phis, out=out)
    stacked -= targets
    np.square(stacked, out=stacked)
    return (np.add.reduce(stacked.reshape(len(phis), -1), axis=1) / stacked[0].size).tolist()


def _gram_terms(
    matrix: np.ndarray, targets: np.ndarray, gram: np.ndarray, moment: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """``(G, c, s)``: ``G = 2/n XᵀX`` written into ``gram``, ``c = 2/n XᵀY`` into ``moment``, ``s = ‖Y‖²/n``.

    ``n`` counts the entries of ``Y``, so the mean squared ``X phi - Y`` is
    ``½ phi·G phi - phi·c + s``.
    """
    factor = 2.0 / targets.size
    np.matmul(matrix.T, matrix, out=gram)
    gram *= factor
    np.matmul(matrix.T, targets, out=moment)
    moment *= factor
    return gram, moment, float(np.vdot(targets, targets)) / targets.size


def _lag_shapes(inputs: int, span: int, channels: int) -> tuple[tuple[int, ...], ...]:
    """The workspace ``_lag_terms`` takes, for windows of ``inputs`` + targets = ``span`` values."""
    return (inputs * span + span - inputs,), (2 * channels, span - 1), (2 * channels, inputs)


def _lag_terms(
    matrix: np.ndarray, targets: np.ndarray, channels: int, gram: np.ndarray, moment: np.ndarray,
    lags: np.ndarray, edges: np.ndarray, signed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """``_gram_terms`` of dlinear rows that are stride-1 windows, from lag sums of their channels.

    Row ``c K + s`` of ``matrix`` must be ``[x_c[a+s : a+s+I'], 1]`` and of
    ``targets`` ``x_c[a+s+I' : a+s+I'+O']``, as ``make_windows`` lays them
    out. With ``z`` a row's span ``x_c[s : s+I'+O']`` and ``F = Σ z zᵀ``,
    ``F[i+1, j+1] = F[i, j] + Σ_c (x_c[a+K+i] x_c[a+K+j] - x_c[a+i] x_c[a+j])``:
    the values entering after each channel's last window less those leaving
    with its first. So one product of the 2d edge windows and a cumulative
    sum along ``F``'s diagonals give ``G`` and ``c`` from ``F``'s first row,
    in O(d (I'+O')²) work instead of O(dK (I'+O')²); the bias terms are the
    column sums, stepped the same way. ``lags``, ``edges`` and ``signed``
    are scratch of ``_lag_shapes``.
    """
    rows, inputs = matrix.shape[0], matrix.shape[1] - 1
    span = inputs + targets.shape[1]
    offsets = rows // channels
    # each channel's last window less its first value, then its first window less its last value
    edges[:channels, : inputs - 1] = matrix[offsets - 1 :: offsets, 1:inputs]
    edges[:channels, inputs - 1 :] = targets[offsets - 1 :: offsets]
    edges[channels:, :inputs] = matrix[::offsets, :inputs]
    edges[channels:, inputs:] = targets[::offsets, :-1]
    signed[:, :-1] = edges[:, : inputs - 1]
    signed[:, -1] = 1.0
    signed[channels:] *= -1.0
    # F's first row, then the steps of rows 0 .. I'-2 along each diagonal
    # (row t of the product steps F[t, t+k] to F[t+1, t+k+1]), then the
    # column sums' steps; viewed as rows of ``span``, entry (i, k) of the
    # first I' rows is the step to F[i, i+k], so their running sum down the
    # rows is F along its diagonals
    first = matrix[:, 0]
    np.matmul(first, matrix[:, :inputs], out=lags[:inputs])
    np.matmul(first, targets, out=lags[inputs:span])
    steps = np.matmul(signed.T, edges, out=lags[span:].reshape(inputs, span - 1))
    # the column sums, read before the diagonals' sum overwrites the first I'-1 of them
    gram[inputs, 0] = first.sum()
    sums = np.add.accumulate(steps[-1], out=steps[-1])
    sums += gram[inputs, 0]
    gram[inputs, 1:inputs] = sums[: inputs - 1]
    moment[inputs] = sums[inputs - 1 :]
    gram[:inputs, inputs] = gram[inputs, :inputs]
    gram[inputs, inputs] = rows
    diagonals = lags[: inputs * span].reshape(inputs, span)
    np.add.accumulate(diagonals, axis=0, out=diagonals)
    # entry (i, j) is diagonals[i, j - i], F[i, j], where j >= i
    upper = as_strided(lags, (inputs, span), ((span - 1) * lags.itemsize, lags.itemsize))
    square = gram[:inputs, :inputs]
    np.copyto(square, upper[:, :inputs])
    np.copyto(square, upper[:, :inputs].T, where=np.tri(inputs, k=-1, dtype=bool))
    moment[:inputs] = upper[:, inputs:]
    factor = 2.0 / targets.size
    gram *= factor
    moment *= factor
    return gram, moment, float(np.vdot(targets, targets)) / targets.size


def _gram_losses(
    phis: np.ndarray, gram: np.ndarray, moment: np.ndarray, total: float, out: np.ndarray
) -> list[float] | None:
    """``½ phi·G phi - phi·c + s`` for each ``phi`` along ``phis``' first axis, or None for any in doubt.

    The terms round in proportion to their own size, so the losses are
    trusted only when the terms sum in magnitude to less than
    ``GRAM_CANCELLATION`` times each loss; a non-finite loss fails the same
    comparison. ``G phi`` is written into ``out``.
    """
    products = np.matmul(gram, phis, out=out)
    linears = (phis.reshape(len(phis), -1) @ moment.reshape(-1)).tolist()
    losses = []
    for phi, product, linear in zip(phis, products, linears):
        quadratic = float(np.vdot(phi, product)) / 2
        loss = quadratic - linear + total
        if not abs(quadratic) + abs(linear) + total < GRAM_CANCELLATION * loss:
            return None
        losses.append(loss)
    return losses


def _clear_of_ties(losses: list[float], best: float) -> bool:
    """Whether an epoch scan of ``losses`` from ``best`` compares no two within ``GRAM_TIE`` of each other."""
    for loss in losses:
        if best < math.inf and abs(loss - best) <= GRAM_TIE * best:
            return False
        best = min(best, loss)
    return True


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
    in ``phi`` and ``P = M Mᵀ``, an epoch steps ``phi -= lr * P g``, and the
    best ``phi`` gives ``theta = theta0 - M⁺ (phi0 - phi)``. An l2 ``g`` is
    ``H phi - c`` (``H = 2/n X̃ᵀX̃``, ``c = 2/n X̃ᵀ(Y - shift)``), so an l2
    epoch is the one product ``phi = T phi + b`` with ``T = I - lr P H`` and
    ``b = lr P c``, whose cost does not grow with the window count. l2 steps
    ``BLOCK_EPOCHS`` epochs, then scores their validation losses together
    and scans them in epoch order, so stopping and the best epoch are as if
    each epoch were scored on its own. An l1 epoch steps ``phi -= Q
    sign(r)`` with ``Q = lr/n P X̃ᵀ`` formed once, ``r`` being the train rows
    of the one product that also scored the previous step, so l1 scores each
    epoch as it goes.

    A dlinear part with more rows than twice the window span ``I'+O'``, and
    more than ``LAG_WORK`` rows × span, forms its ``G`` and ``c`` from lag
    sums of its channels (``_lag_terms``) in O(d (I'+O')²) work instead of
    the rows' O(dK (I'+O')²) product, which is faster below that. rlinear
    rows are centred per window, and the uncentred lag expansion would
    cancel badly on trending series, so rlinear always takes the product.

    An l2 loss is the mean squared residual ``½ phi·G phi - phi·c + s`` of
    its part's Gram terms. The train loss takes ``H`` and ``c``. Validation
    forms its own ``G``, ``c`` and ``s`` when it has more rows than ``X̃``
    has columns, and then costs one batched ``G phi`` per block; with fewer
    rows, one stacked product over its rows scores the block. A Gram loss
    whose terms cancel by ``GRAM_CANCELLATION`` or more, or a block whose
    scan comes within ``GRAM_TIE`` of a tie, is scored by rows instead, so
    divergence, fixed points and stopping are decided by the rows. The steps
    never read a loss, so the weights do not depend on where it came from.
    The arrays the fit writes come from ``_buffers``; the returned model
    holds copies.
    """
    plan = plan_windows(task, input_sequence.channels)
    kernel = config.decomposition_kernel
    precondition, unmixing, theta0, phi0 = _fit_constants(
        config.variant, plan.inner_input, plan.inner_output, kernel, config.seed)
    train, val = train_val_partition(make_windows(input_sequence, plan), VAL_FRACTION)
    width, outputs = phi0.shape
    rows = train.size + val.size
    l2 = config.loss == "l2"
    gram_validation = l2 and val.size > width
    block = min(BLOCK_EPOCHS, config.max_epochs) if l2 else 1
    lr = config.learning_rate
    span = plan.inner_input + plan.inner_output
    lagged = [l2 and config.variant == "dlinear" and part.size > max(2 * span, LAG_WORK / span)
              for part in (train, val)]
    # l2 keeps H, T (and the validation G) and c, b (and the validation c); l1 keeps Q and a step
    matrix, targets, residual, phis, best, columns, squares, scores, *lag_work = _buffers(
        (rows, width), (rows, outputs), (rows, outputs), (block, width, outputs), (width, outputs),
        (2 + gram_validation if l2 else 1, width, outputs),
        (2 + gram_validation, width, width) if l2 else (width, train.size),
        (block if l2 else 0, val.size, outputs),
        *(_lag_shapes(plan.inner_input, span, plan.channels) if any(lagged) else ()))
    # X̃ and the targets hold the train rows, then the validation rows: each
    # value of the windows is copied once, and one product can score both parts
    _, shift = _design(config.variant, train.inputs, val.inputs, out=matrix)
    _stack(train.targets, val.targets, out=targets)
    if shift is not None:
        targets -= shift  # residuals are X̃ phi - (Y - shift) from here on
    train_rows, val_rows = slice(None, train.size), slice(train.size, None)

    def residual_at(phi: np.ndarray, part: slice) -> np.ndarray:
        return np.subtract(np.matmul(matrix[part], phi, out=residual[part]), targets[part],
                           out=residual[part])

    def precondition_into(arr: np.ndarray, out: np.ndarray) -> np.ndarray:
        return arr if precondition is None else np.matmul(precondition, arr, out=out)

    def gram_terms(part: slice, lags: bool, gram: np.ndarray, moment: np.ndarray):
        if lags:
            return _lag_terms(matrix[part], targets[part], plan.channels, gram, moment, *lag_work)
        return _gram_terms(matrix[part], targets[part], gram, moment)

    if l2:
        (hessian, transition), (moment, offset) = squares[:2], columns[:2]
        train_terms = gram_terms(train_rows, lagged[0], hessian, moment)
        np.multiply(precondition_into(hessian, transition), -lr, out=transition)
        transition[np.diag_indices(width)] += 1.0
        np.multiply(precondition_into(moment, offset), lr, out=offset)
        if gram_validation:
            val_terms = gram_terms(val_rows, lagged[1], squares[2], columns[2])

        def advance(phi: np.ndarray, out: np.ndarray) -> None:
            np.add(np.matmul(transition, phi, out=out), offset, out=out)

        def score(count: int, best_val: float) -> list[float]:
            if gram_validation:
                # G phi goes where the rows' scores would (there are more rows
                # than columns); a fallback overwrites it after the losses are read
                products =scores.reshape(-1)[: phis[:count].size].reshape(count, width, outputs)
                losses = _gram_losses(phis[:count], *val_terms, products)
                if losses is not None and _clear_of_ties(losses, best_val):
                    return losses
            return _row_losses(matrix[val_rows], targets[val_rows], phis[:count], scores[:count])
    else:
        (step,), fold = columns, squares
        np.multiply(precondition_into(matrix[train_rows].T, fold), lr / (train.size * outputs), out=fold)
        residual_at(phi0, train_rows)

        def advance(phi: np.ndarray, out: np.ndarray) -> None:
            r = residual[train_rows]
            out -= np.matmul(fold, np.sign(r, out=r), out=step)

        def score(count: int, best_val: float) -> list[float]:
            # the product over all rows also leaves the next epoch's train residual
            return [_loss(residual_at(phis[0], slice(None))[val_rows], config.loss)]

    phis[-1] = phi0  # each block steps on from its predecessor's last epoch
    best_val = np.inf
    best_epoch = 0
    bad_epochs = 0
    epochs_run = 0

    # overflow here means divergence, raised below as DivergedLossError
    with np.errstate(over="ignore", invalid="ignore"):
        while epochs_run < config.max_epochs and bad_epochs <= config.patience:
            count = min(block, config.max_epochs - epochs_run)
            for k in range(count):
                advance(phis[k - 1], phis[k])
            best_slot = None
            for k, val_loss in enumerate(score(count, best_val)):
                epochs_run += 1
                # a non-finite entry of phi makes each validation row's product
                # non-finite (inf * 0 is nan), so the loss shows it too
                if not math.isfinite(val_loss):
                    raise DivergedLossError(
                        f"parameters or validation loss became non-finite at epoch {epochs_run}"
                    )
                if val_loss < best_val:
                    best_val, best_epoch, best_slot, bad_epochs = val_loss, epochs_run, k, 0
                else:
                    bad_epochs += 1
                    if bad_epochs > config.patience:
                        break
            if best_slot is not None:
                best[...] = phis[best_slot]
        losses = _gram_losses(best[None], *train_terms, phis[:1]) if l2 else None
        train_loss = losses[0] if losses else _loss(residual_at(best, train_rows), config.loss)
    if not np.isfinite(train_loss):
        raise DivergedLossError("training loss is non-finite at the best-validation parameters")

    theta = best
    if unmixing is not None:
        theta = np.matmul(unmixing, np.subtract(phi0, best, out=best))
        np.subtract(theta0, theta, out=theta)
    params = _unpack(theta, config.variant)
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
    values = _float_columns(recent.values if isinstance(recent, TimeSeries) else recent)
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
