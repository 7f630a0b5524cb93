"""Prompt codecs, completion adapters, and sample aggregation for LLM forecasting."""

from .adapters import HttpChatAdapter, LlmAdapter, MockAdapter, TranscriptWriter
from .decode import DecodingConfig, aggregate_median, decode_response
from .prompts import (
    PROMPT_STYLES,
    PromptBundle,
    ScalingConfig,
    build_prompt,
    render_sequence,
)
from .sampling import SampleResult, sample_forecasts, submit_samples

__all__ = [
    "PROMPT_STYLES",
    "PromptBundle",
    "ScalingConfig",
    "build_prompt",
    "render_sequence",
    "DecodingConfig",
    "decode_response",
    "aggregate_median",
    "LlmAdapter",
    "HttpChatAdapter",
    "MockAdapter",
    "TranscriptWriter",
    "SampleResult",
    "sample_forecasts",
    "submit_samples",
]
