"""Serialization of numeric sequences into the five supported prompt styles.

Styles:

* ``llmtime_base``: the raw comma-separated sequence, no instructions; for
  base (non-instruction-tuned) models. Empty system text.
* ``llmtime_chat``: system/user instruction pair asking the model to continue
  the sequence with numbers only.
* ``llmp_single``: ordered (x, y) pairs, one per line, followed by
  blank-y query rows for the horizon; answered in a single turn.
* ``ts_cot``: two-step prompt that asks for a short reasoning paragraph
  before the numeric continuation.
* ``ts_incontext``: the input is split into equal segments that form
  input `<sep>` output demonstrations, followed by the final segment as the
  query.

Values are divided by a positive scale and rendered at a fixed number of
decimals; the scaling travels with the bundle so responses can be mapped
back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import EmptyInputError, IndivisibleShotsError, UnknownKindError

PROMPT_STYLES = (
    "llmtime_base",
    "llmtime_chat",
    "llmp_single",
    "ts_cot",
    "ts_incontext",
)

SCALING_TARGET = 10.0  # derived scalings map the 90th percentile of |values| here

STANDARD_SYSTEM_TEXT = (
    "You are a helpful assistant that performs time series predictions. "
    "The user will provide a sequence and you will predict the remaining sequence. "
    "The sequence is represented by decimal strings separated by commas."
)

PAIRS_SYSTEM_TEXT = (
    "You are a helpful assistant that performs time series predictions. "
    "The user will provide you with a sequence of ordered pairs (x, y), and you will "
    "predict y for pairs where only x is given. Each pair is separated by a newline."
)

_CONTINUE_TAIL = (
    "predict next sequence following input sequence without producing any "
    "additional text. Do not say anything like 'the next terms in the sequence are', "
    "just return the numbers."
)

CONTINUE_INSTRUCTION = "Please " + _CONTINUE_TAIL

PAIRS_INSTRUCTION = (
    "Please predict the missing values in the y column based on the given x and y data "
    "points without producing any additional text. Do not say anything like 'the next "
    "terms in the sequence are', just return only the y values  as numbers without x values."
)


@dataclass(frozen=True)
class ScalingConfig:
    """Rescaling by a positive scale, with no shift, and rendering precision for
    prompt serialization.

    A derived scaling, :meth:`per_channel`, maps the 90th percentile of
    |values| of each channel to ``SCALING_TARGET``.
    """

    scale: float = 1.0
    decimals: int = 0

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("scale must be > 0")
        if self.decimals < 0:
            raise ValueError("decimals must be >= 0")

    @classmethod
    def per_channel(cls, window: np.ndarray, decimals: int = 0) -> list["ScalingConfig"]:
        """One scaling per column of a non-empty (I, d) window: the column's 90th
        percentile of |values| divided by ``SCALING_TARGET``, or 1.0 where that is 0."""
        quantiles = np.percentile(np.abs(window), 90.0, axis=0).tolist()
        return [cls(scale=q / SCALING_TARGET if q > 0.0 else 1.0, decimals=decimals) for q in quantiles]

    def transform(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) / self.scale

    def invert(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.scale


@dataclass(frozen=True)
class PromptBundle:
    """A ready-to-send prompt plus everything needed to decode the reply."""

    style: str
    system_text: str
    user_text: str
    scaling: ScalingConfig
    expected_count: int

    def __post_init__(self):
        if not self.user_text:
            raise EmptyInputError("user_text must be non-empty")
        if self.expected_count < 1:
            raise ValueError("expected_count must be >= 1")


def _render_values(values: np.ndarray, scaling: ScalingConfig) -> list[str]:
    return list(map(f"{{:.{scaling.decimals}f}}".format, scaling.transform(values).tolist()))


def _join(tokens: Sequence[str], trailing_comma: bool = True) -> str:
    joined = ", ".join(tokens)
    return joined + "," if trailing_comma else joined


def render_sequence(values: Sequence[float] | np.ndarray, scaling: ScalingConfig) -> str:
    """Comma-space joined rendering with the trailing comma the sequence styles
    use (``"-9, -13,"``)."""
    return _join(_render_values(np.asarray(values, dtype=np.float64).ravel(), scaling))


def build_prompt(
    values: Sequence[float] | np.ndarray,
    horizon: int,
    style: str,
    scaling: ScalingConfig,
    shots: int = 3,
) -> PromptBundle:
    """Serialize one channel into a prompt of the given style.

    ``shots`` only applies to ``ts_incontext`` and requires the input length
    to be divisible into ``shots + 1`` equal segments.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyInputError("cannot build a prompt from an empty sequence")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    if style == "llmtime_base":
        user = render_sequence(arr, scaling)
        return PromptBundle(style, "", user, scaling, horizon)

    if style == "llmtime_chat":
        user = f"{CONTINUE_INSTRUCTION} Input Sequence: {render_sequence(arr, scaling)}"
        return PromptBundle(style, STANDARD_SYSTEM_TEXT, user, scaling, horizon)

    if style == "llmp_single":
        tokens = _render_values(arr, scaling)
        rows = [f"{i},{tok}" for i, tok in enumerate(tokens)]
        rows += [f"{i}, " for i in range(arr.size, arr.size + horizon)]
        user = f"{PAIRS_INSTRUCTION} x, y\n" + "\n ".join(rows) + "\n"
        return PromptBundle(style, PAIRS_SYSTEM_TEXT, user, scaling, horizon)

    if style == "ts_cot":
        seq = render_sequence(arr, scaling)
        user = (
            f"Sequence during the input period: {seq}\n"
            "Let's think step by step.\n\n"
            "Step 1) Describe the solution process to make future predictions that "
            "reflect the description in up to five sentences.\n\n"
            f"Step 2) Considering the answers to previous steps, please {_CONTINUE_TAIL} "
            f"Input Sequence:{seq}"
        )
        return PromptBundle(style, STANDARD_SYSTEM_TEXT, user, scaling, horizon)

    if style == "ts_incontext":
        if shots < 1:
            raise ValueError("shots must be >= 1")
        segments = shots + 1
        if arr.size % segments != 0:
            raise IndivisibleShotsError(
                f"input length {arr.size} is not divisible into {segments} equal segments"
            )
        seg_len = arr.size // segments
        tokens = _render_values(arr, scaling)
        parts = [tokens[i * seg_len : (i + 1) * seg_len] for i in range(segments)]
        demo_lines = [f"{k + 1}. Sequence: {_join(parts[k])} <sep> {_join(parts[k + 1], False)}"
                      for k in range(shots)]
        user = (
            "We give you input and output sequence samples:\n"
            + "\n".join(demo_lines)
            + f"\n\n{CONTINUE_INSTRUCTION} Input Sequence: {_join(parts[-1])} <sep>"
        )
        return PromptBundle(style, STANDARD_SYSTEM_TEXT, user, scaling, horizon)

    raise UnknownKindError(f"unknown prompt style {style!r}")
