"""Response parsing and sample aggregation for LLM forecasts."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import (
    EmptyListError,
    LengthMismatchError,
    NoNumbersFoundError,
    TooFewValuesError,
)
from .prompts import ScalingConfig

_NUMBER = r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
# A number, else a stretch of characters that may not stand between the
# numbers of one uninterrupted answer run (anything but whitespace and commas);
# a stretch ends where a number may start, so it never swallows one
_TOKEN_RE = re.compile(rf"({_NUMBER})|[^\s,\d.+-]+|[^\s,]")
# The only characters of a plain answer: numbers apart by whitespace and commas
_PLAIN_CHARS_RE = re.compile(r"[0-9eE.+\-\s,]*")


@dataclass(frozen=True)
class DecodingConfig:
    """Sampling hyperparameters for completion requests."""

    temperature: float = 1.0
    top_p: float = 0.8
    num_samples: int = 5
    max_attempts_per_sample: int = 3

    def __post_init__(self):
        if not 0.0 <= self.temperature < np.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.max_attempts_per_sample < 1:
            raise ValueError("max_attempts_per_sample must be >= 1")


def _numeric_runs(text: str) -> list[list[float]]:
    """Group numeric tokens into runs uninterrupted by anything but
    whitespace and commas (so prose, colons, or ``2)`` markers break runs)."""
    if _PLAIN_CHARS_RE.fullmatch(text):
        # Over these characters float() accepts exactly the words that are
        # one number each, so a plain answer is one run of its words
        try:
            numbers = list(map(float, text.replace(",", " ").split()))
        except ValueError:
            pass
        else:
            return [numbers] if numbers else []
    runs: list[list[float]] = []
    run: list[float] | None = None
    for number in _TOKEN_RE.findall(text):
        if not number:  # characters that break the run
            run = None
        elif run is None:
            run = [float(number)]
            runs.append(run)
        else:
            run.append(float(number))
    return runs


def decode_response(text: str, expected_count: int, scaling: ScalingConfig) -> np.ndarray:
    """Extract exactly ``expected_count`` forecast values from a raw response.

    Numeric tokens are parsed in order. When prose interleaves, the final
    uninterrupted run of at least ``expected_count`` numbers is used (so a
    reasoned answer followed by the numeric continuation decodes to the
    continuation); if no such run exists, all parsed numbers count, keeping
    the last ``expected_count``. Each value is multiplied back by the scale.
    """
    normalized = text.replace("−", "-")
    runs = _numeric_runs(normalized)
    if not runs:
        raise NoNumbersFoundError("response contains no numbers")
    chosen: list[float] | None = None
    for run in runs:
        if len(run) >= expected_count:
            chosen = run
    if chosen is not None:
        values = chosen[:expected_count]
    else:
        flat = [v for run in runs for v in run]
        if len(flat) < expected_count:
            raise TooFewValuesError(found=len(flat), expected=expected_count)
        values = flat[-expected_count:]
    return scaling.invert(np.asarray(values, dtype=np.float64))


def aggregate_median(forecasts: Sequence[Sequence[float] | np.ndarray]) -> np.ndarray:
    """Elementwise median across equal-length forecast samples: ``np.median`` over them.

    The middle order statistic for an odd sample count; the mean of the two
    middle values for an even count; NaN where a sample is NaN.
    """
    if len(forecasts) == 0:
        raise EmptyListError("no forecasts to aggregate")
    rows = [np.asarray(f, dtype=np.float64).ravel() for f in forecasts]
    lengths = {row.size for row in rows}
    if len(lengths) != 1:
        raise LengthMismatchError(f"forecast lengths differ: {sorted(lengths)}")
    return np.median(np.vstack(rows), axis=0)
