"""Windowed training-corpus construction from a single input sequence.

One input sequence of length I is carved, channel-independently and with
stride 1, into K = d * (I - (I' + O') + 1) (input, target) pairs of inner
lengths I' and O'. The pairs are kept in channel blocks: entry ``[c, s]``
of the inputs and of the targets is the pair of channel c that starts at
offset s. The blocks are read-only views of one channel-major copy of the
sequence; no window is copied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatchError, TooFewWindowsError
from .series import ForecastTask, TimeSeries, _read_only, _round_fraction


def window_count(channels: int, outer_input: int, inner_input: int, inner_output: int) -> int:
    """K = d * (I - (I' + O') + 1)."""
    return channels * (outer_input - (inner_input + inner_output) + 1)


@dataclass(frozen=True)
class WindowPlan:
    """Windowing scheme for one forecasting task.

    ``inner_input``/``inner_output`` are the per-window lengths; the outer
    horizon is reached autoregressively in blocks of ``inner_output``.
    """

    outer_input: int
    inner_input: int
    inner_output: int
    channels: int

    def __post_init__(self):
        if self.inner_input < 1 or self.inner_output < 1:
            raise ValueError("inner window lengths must be >= 1")
        if self.inner_input + self.inner_output > self.outer_input:
            raise ValueError("inner_input + inner_output must not exceed outer_input")

    @property
    def window_count(self) -> int:
        return window_count(self.channels, self.outer_input, self.inner_input, self.inner_output)


@dataclass(frozen=True)
class WindowSet:
    """Channel-independent training windows in channel blocks.

    ``inputs`` has shape (channels, offsets, I') and ``targets`` (channels,
    offsets, O'); ``targets[c, s]`` immediately follows ``inputs[c, s]`` in
    channel c. Arrays handed in are copied unless they are read-only and no
    writeable array shares their memory, so read-only views (strided window
    views included) of read-only memory are kept as they are.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", _read_only(self.inputs))
        object.__setattr__(self, "targets", _read_only(self.targets))
        if self.inputs.ndim != 3 or self.targets.ndim != 3 or self.inputs.shape[:2] != self.targets.shape[:2]:
            raise ShapeMismatchError("window blocks must be (channels, offsets, length) and agree on both")

    @property
    def size(self) -> int:
        """K, the number of (input, target) pairs."""
        return self.inputs.shape[0] * self.inputs.shape[1]


def plan_windows(task: ForecastTask, channels: int) -> WindowPlan:
    """Derive the inner window scheme: I' = O' = O // 2.

    Halving the outer horizon gives a square inner map whose window counts
    match the published per-dataset values; the outer horizon is then reached
    in two autoregressive steps. Raises TooFewWindowsError when the scheme
    yields fewer than two windows (one window cannot support both training
    and validation).
    """
    inner_output = task.output_length // 2
    inner_input = inner_output
    if inner_input < 1 or inner_output < 1:
        raise TooFewWindowsError(
            f"task (I={task.input_length}, O={task.output_length}) has no usable inner windows"
        )
    if inner_input + inner_output > task.input_length:
        raise TooFewWindowsError(
            f"inner windows of span {inner_input + inner_output} do not fit input length "
            f"{task.input_length}"
        )
    k = window_count(channels, task.input_length, inner_input, inner_output)
    if k < 2:
        raise TooFewWindowsError(f"window count K={k} < 2")
    return WindowPlan(
        outer_input=task.input_length,
        inner_input=inner_input,
        inner_output=inner_output,
        channels=channels,
    )


def make_windows(input_sequence: TimeSeries, plan: WindowPlan) -> WindowSet:
    """Enumerate every stride-1 window of every channel.

    ``inputs[c, s]`` is ``values[s : s+I', c]`` and ``targets[c, s]`` is
    ``values[s+I' : s+I'+O', c]``, for offsets s = 0 .. I - (I' + O'). Both
    blocks are read-only views of one channel-major copy ``values.T``, so
    each window row is contiguous and no window is copied.
    """
    if input_sequence.length != plan.outer_input or input_sequence.channels != plan.channels:
        raise ShapeMismatchError(
            f"sequence shape ({input_sequence.length}, {input_sequence.channels}) does not match "
            f"plan (I={plan.outer_input}, d={plan.channels})"
        )
    channels = input_sequence.values.T.copy()  # (d, I)
    channels.setflags(write=False)
    # (channels, offsets, span): every window of every channel
    spans = sliding_window_view(channels, plan.inner_input + plan.inner_output, axis=1)
    return WindowSet(inputs=spans[..., : plan.inner_input], targets=spans[..., plan.inner_input :])


def train_val_partition(ws: WindowSet, val_fraction: float) -> tuple[WindowSet, WindowSet]:
    """Split ``ws`` into read-only views: the latest offsets of each channel validate.

    Splitting by offset keeps overlapping windows from leaking across the
    split; ``ceil(val_fraction * offsets)`` offsets validate.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")
    offsets = ws.inputs.shape[1]
    val_count = _round_fraction(offsets, val_fraction, math.ceil)
    train_count = offsets - val_count
    if train_count < 1 or val_count < 1:
        raise TooFewWindowsError(
            f"{offsets} offsets cannot split into train={train_count}, val={val_count}"
        )
    return (WindowSet(ws.inputs[:, :train_count], ws.targets[:, :train_count]),
            WindowSet(ws.inputs[:, train_count:], ws.targets[:, train_count:]))
