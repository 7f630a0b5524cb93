"""Multi-sample forecasting of several prompts: queue their completions, then collect them."""

from __future__ import annotations

import time
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import (
    AdapterError,
    AllSamplesFailedError,
    NoNumbersFoundError,
    TooFewValuesError,
)
from .adapters import LlmAdapter, TranscriptWriter, json_fields
from .decode import DecodingConfig, decode_response
from .prompts import PromptBundle


@dataclass
class SampleResult:
    """One successfully decoded sample path."""

    sample_index: int
    values: np.ndarray
    latency_seconds: float
    attempts: int
    raw_text: str


def submit_samples(
    adapter: LlmAdapter,
    bundles: Sequence[PromptBundle],
    config: DecodingConfig,
    executor: Executor,
    transcript: TranscriptWriter | None = None,
    transcript_context: dict | None = None,
) -> list[Future]:
    """Queue ``num_samples`` completions per bundle on ``executor``; return their futures.

    Every (bundle, sample) pair is one task, submitted in (bundle, sample)
    order. A task draws its completions through ``adapter.draw`` with its
    sample index and attempt number. A task whose response fails to decode (or
    whose adapter call errors) retries with a fresh completion, up to
    ``max_attempts_per_sample`` attempts, and resolves to its
    :class:`SampleResult`, or to None when no attempt decoded. Every raw
    exchange is appended to the transcript when one is given, with the
    bundle's index as its ``channel`` and the fields of ``transcript_context``
    (whose keys must differ from the record's own) last. A bundle's fields
    are encoded once, when it is queued, not once per completion.
    """
    if transcript is not None:
        after = json_fields(transcript_context or {})
        heads = [json_fields({
            "style": bundle.style,
            "system_text": bundle.system_text,
            "user_text": bundle.user_text,
            "scaling": {"scale": bundle.scaling.scale, "decimals": bundle.scaling.decimals},
            "expected_count": bundle.expected_count,
            "channel": channel,
        }) for channel, bundle in enumerate(bundles)]

    def run_sample(channel: int, index: int) -> SampleResult | None:
        bundle = bundles[channel]
        for attempt in range(1, config.max_attempts_per_sample + 1):
            start = time.perf_counter()
            raw = error = None
            try:
                raw = adapter.draw(bundle.system_text, bundle.user_text, config, index, attempt)
            except AdapterError as exc:
                error = str(exc)
            latency = time.perf_counter() - start
            if error is None:
                try:
                    values = decode_response(raw, bundle.expected_count, bundle.scaling)
                except (NoNumbersFoundError, TooFewValuesError) as exc:
                    error = str(exc)
            if transcript is not None:
                transcript.record("completion", {
                    "sample_index": index,
                    "attempt": attempt,
                    "response": raw,
                    "latency_seconds": latency,
                    "error": error,
                }, before=heads[channel], after=after)
            if error is None:
                return SampleResult(index, values, latency, attempt, raw)
        return None

    return [executor.submit(run_sample, channel, index)
            for channel in range(len(bundles)) for index in range(config.num_samples)]


def sample_forecasts(futures: Sequence[Future], config: DecodingConfig) -> list[list[SampleResult]]:
    """Wait for the futures of :func:`submit_samples` and group their samples per bundle.

    ``futures`` are one window's tasks, in (bundle, sample) order. Returns,
    per bundle, its successful samples in sample order; raises
    AllSamplesFailedError when some bundle has none. Every task of the window
    has finished when this returns or raises; a task that raised re-raises
    here. Tasks queued behind them on the same executor, such as later
    windows', may still be running.
    """
    wait(futures)
    results = [future.result() for future in futures]
    n = config.num_samples
    per_bundle = [[r for r in results[b:b + n] if r is not None] for b in range(0, len(results), n)]
    failed = [b for b, successes in enumerate(per_bundle) if not successes]
    if failed:
        raise AllSamplesFailedError(
            f"all {n} samples of channel(s) {failed} failed within "
            f"{config.max_attempts_per_sample} attempts each"
        )
    return per_bundle
