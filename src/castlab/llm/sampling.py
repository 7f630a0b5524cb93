"""Multi-sample forecasting through a completion adapter, on a caller's thread pool."""

from __future__ import annotations

import time
from concurrent.futures import Executor, wait
from dataclasses import dataclass

import numpy as np

from ..errors import (
    AdapterError,
    AllSamplesFailedError,
    NoNumbersFoundError,
    TooFewValuesError,
)
from .adapters import LlmAdapter, TranscriptWriter
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


def _transcribe(
    transcript: TranscriptWriter | None,
    bundle: PromptBundle,
    sample_index: int,
    attempt: int,
    raw_text: str | None,
    latency: float,
    error: str | None,
    context: dict | None,
) -> None:
    if transcript is None:
        return
    payload = {
        "style": bundle.style,
        "system_text": bundle.system_text,
        "user_text": bundle.user_text,
        "scaling": {
            "offset": bundle.scaling.offset,
            "scale": bundle.scaling.scale,
            "decimals": bundle.scaling.decimals,
        },
        "expected_count": bundle.expected_count,
        "sample_index": sample_index,
        "attempt": attempt,
        "response": raw_text,
        "latency_seconds": latency,
        "error": error,
    }
    if context:
        payload.update(context)
    transcript.record("completion", payload)


def sample_forecasts(
    adapter: LlmAdapter,
    bundle: PromptBundle,
    config: DecodingConfig,
    executor: Executor | None = None,
    transcript: TranscriptWriter | None = None,
    transcript_context: dict | None = None,
) -> list[SampleResult]:
    """Issue ``num_samples`` completions and decode each one.

    Samples 1 .. n-1 go to ``executor`` and sample 0 runs on the calling
    thread, so one prompt has at most n calls in flight, and every sample
    has finished when this returns; with no executor the samples run one
    after another on the calling thread. A sample whose response fails to
    decode (or whose adapter call errors) is retried with a fresh
    completion, up to ``max_attempts_per_sample`` attempts. Returns the
    successful samples ordered by sample index; raises AllSamplesFailedError
    when none succeed. Every raw exchange is appended to the transcript when
    one is given.
    """

    def run_sample(index: int) -> SampleResult | None:
        last_error: str | None = None
        for attempt in range(1, config.max_attempts_per_sample + 1):
            start = time.perf_counter()
            try:
                raw = adapter.complete(bundle.system_text, bundle.user_text, config)
            except AdapterError as exc:
                latency = time.perf_counter() - start
                last_error = str(exc)
                _transcribe(transcript, bundle, index, attempt, None, latency, last_error, transcript_context)
                continue
            latency = time.perf_counter() - start
            try:
                values = decode_response(raw, bundle.expected_count, bundle.scaling)
            except (NoNumbersFoundError, TooFewValuesError) as exc:
                last_error = str(exc)
                _transcribe(transcript, bundle, index, attempt, raw, latency, last_error, transcript_context)
                continue
            _transcribe(transcript, bundle, index, attempt, raw, latency, None, transcript_context)
            return SampleResult(index, values, latency, attempt, raw)
        return None

    if executor is None:
        results = [run_sample(i) for i in range(config.num_samples)]
    else:
        futures = [executor.submit(run_sample, i) for i in range(1, config.num_samples)]
        try:
            results = [run_sample(0)]
        finally:
            wait(futures)
        results += [f.result() for f in futures]

    successes = [r for r in results if r is not None]
    if not successes:
        raise AllSamplesFailedError(
            f"all {config.num_samples} samples failed within "
            f"{config.max_attempts_per_sample} attempts each"
        )
    return successes
