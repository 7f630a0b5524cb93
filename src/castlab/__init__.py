"""castlab: a desk-scale forecasting benchmark toolkit.

Single-shot linear forecasters, prompt-based LLM forecasting codecs, noise
injection and filtering, and two cost-accounted evaluation protocols.
"""

from .data_io import (
    FunctionSpec,
    generate_function_series,
    load_csv,
    write_csv,
)
from .eval import (
    CostRecord,
    EvalReport,
    Forecaster,
    aggregate_costs,
    compare_cost_families,
    compute_metrics,
    run_last_sample,
    run_sliding,
)
from .forecasters import (
    LastValueForecaster,
    LinearSingleShotForecaster,
    LlmPromptForecaster,
    PolynomialExtrapolator,
    SeasonalRepeatForecaster,
)
from .linear import (
    FittedLinearModel,
    LinearModelConfig,
    decompose_moving_average,
    fit_single_shot,
    load_model,
    save_model,
)
from .linear import predict as predict_linear
from .llm import (
    DecodingConfig,
    HttpChatAdapter,
    MockAdapter,
    PromptBundle,
    ScalingConfig,
    TranscriptWriter,
    aggregate_median,
    build_prompt,
    decode_response,
    sample_forecasts,
    submit_samples,
)
from .noise import FilterSpec, NoiseSpec, apply_filter, inject_noise
from .series import (
    ChannelStats,
    ForecastTask,
    SplitSpec,
    TimeSeries,
    chronological_split,
    standardize,
    validate_series,
)
from .windowing import (
    WindowPlan,
    WindowSet,
    make_windows,
    plan_windows,
    train_val_partition,
    window_count,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TimeSeries",
    "ForecastTask",
    "SplitSpec",
    "ChannelStats",
    "validate_series",
    "chronological_split",
    "standardize",
    "FunctionSpec",
    "generate_function_series",
    "load_csv",
    "write_csv",
    "WindowPlan",
    "WindowSet",
    "window_count",
    "plan_windows",
    "make_windows",
    "train_val_partition",
    "LinearModelConfig",
    "FittedLinearModel",
    "decompose_moving_average",
    "fit_single_shot",
    "predict_linear",
    "save_model",
    "load_model",
    "NoiseSpec",
    "FilterSpec",
    "inject_noise",
    "apply_filter",
    "ScalingConfig",
    "PromptBundle",
    "build_prompt",
    "decode_response",
    "DecodingConfig",
    "aggregate_median",
    "MockAdapter",
    "HttpChatAdapter",
    "TranscriptWriter",
    "sample_forecasts",
    "submit_samples",
    "Forecaster",
    "CostRecord",
    "EvalReport",
    "compute_metrics",
    "run_last_sample",
    "run_sliding",
    "aggregate_costs",
    "compare_cost_families",
    "LastValueForecaster",
    "SeasonalRepeatForecaster",
    "PolynomialExtrapolator",
    "LinearSingleShotForecaster",
    "LlmPromptForecaster",
]
