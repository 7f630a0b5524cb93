"""Windowed training-corpus construction from a single input sequence.

One input sequence of length I is carved, channel-independently and with
stride 1, into K = d * (I - (I' + O') + 1) (input, target) pairs of inner
lengths I' and O'. Channels are flattened into the sample axis, so a
multivariate sequence contributes d blocks of identical offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatchError, TooFewWindowsError
from .series import ForecastTask, TimeSeries, _round_fraction


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
    outer_output: int
    inner_input: int
    inner_output: int
    channels: int
    window_count: int

    def __post_init__(self):
        if self.inner_input < 1 or self.inner_output < 1:
            raise ValueError("inner window lengths must be >= 1")
        if self.inner_input + self.inner_output > self.outer_input:
            raise ValueError("inner_input + inner_output must not exceed outer_input")
        expected = window_count(
            self.channels, self.outer_input, self.inner_input, self.inner_output
        )
        if self.window_count != expected:
            raise ValueError(f"window_count {self.window_count} != formula value {expected}")

    @property
    def offsets_per_channel(self) -> int:
        return self.outer_input - (self.inner_input + self.inner_output) + 1


_FIELDS = ("inputs", "targets", "channel_index", "start_offset")


@dataclass(frozen=True)
class WindowSet:
    """Flattened channel-independent training samples.

    Row r holds the input slice, its immediately following target slice, and
    the (channel, start offset) it came from in the source sequence. Arrays
    handed in are copied unless they are read-only and own their data.
    """

    inputs: np.ndarray
    targets: np.ndarray
    channel_index: np.ndarray
    start_offset: np.ndarray

    def __post_init__(self):
        for name in _FIELDS:
            arr = np.asarray(getattr(self, name))
            if arr.flags.writeable or arr.base is not None:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        k = self.inputs.shape[0]
        if not (self.targets.shape[0] == self.channel_index.shape[0] == self.start_offset.shape[0] == k):
            raise ShapeMismatchError("window-set arrays disagree on row count")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


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
        outer_output=task.output_length,
        inner_input=inner_input,
        inner_output=inner_output,
        channels=channels,
        window_count=k,
    )


def make_windows(input_sequence: TimeSeries, plan: WindowPlan) -> WindowSet:
    """Enumerate every stride-1 window of every channel, channel-major.

    Channel c contributes rows for start offsets 0 .. I - (I' + O'), each row
    pairing ``values[s : s+I', c]`` with ``values[s+I' : s+I'+O', c]``.
    """
    if input_sequence.length != plan.outer_input or input_sequence.channels != plan.channels:
        raise ShapeMismatchError(
            f"sequence shape ({input_sequence.length}, {input_sequence.channels}) does not match "
            f"plan (I={plan.outer_input}, d={plan.channels})"
        )
    span = plan.inner_input + plan.inner_output
    offsets = plan.offsets_per_channel
    # (channels, offsets, span): every window of every channel, as a view
    spans = sliding_window_view(input_sequence.values, span, axis=0).transpose(1, 0, 2)
    inputs = np.empty((plan.window_count, plan.inner_input))
    targets = np.empty((plan.window_count, plan.inner_output))
    inputs.reshape(plan.channels, offsets, -1)[...] = spans[..., : plan.inner_input]
    targets.reshape(plan.channels, offsets, -1)[...] = spans[..., plan.inner_input :]
    inputs.setflags(write=False)
    targets.setflags(write=False)
    return WindowSet(
        inputs=inputs,
        targets=targets,
        channel_index=np.repeat(np.arange(plan.channels), offsets),
        start_offset=np.tile(np.arange(offsets), plan.channels),
    )


def _partition_blocks(ws: WindowSet, val_fraction: float) -> tuple[dict, dict]:
    """Train and validation views of ``ws``'s arrays, each shaped (channels, offsets, ...).

    The chronologically latest offsets of each channel validate, which keeps
    overlapping windows from leaking across the split.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")
    offsets = int(ws.start_offset.max()) + 1 if ws.size else 0
    val_count = _round_fraction(offsets, val_fraction, math.ceil)
    train_count = offsets - val_count
    if train_count < 1 or val_count < 1:
        raise TooFewWindowsError(
            f"{offsets} offsets cannot split into train={train_count}, val={val_count}"
        )
    channels = ws.size // offsets
    if not np.array_equal(ws.start_offset, np.tile(np.arange(offsets), channels)):
        raise ShapeMismatchError("windows are not in make_windows' channel-major layout")
    arrays = {name: getattr(ws, name) for name in _FIELDS}
    blocks = {name: a.reshape(channels, offsets, *a.shape[1:]) for name, a in arrays.items()}
    return ({name: b[:, :train_count] for name, b in blocks.items()},
            {name: b[:, train_count:] for name, b in blocks.items()})


def train_val_partition(ws: WindowSet, val_fraction: float) -> tuple[WindowSet, WindowSet]:
    """Split windows laid out by ``make_windows``: the latest offsets of each channel validate."""
    train, val = (WindowSet(**{name: b.reshape(-1, *b.shape[2:]) for name, b in part.items()})
                  for part in _partition_blocks(ws, val_fraction))
    return train, val
