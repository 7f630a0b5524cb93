"""Experiment configuration: a single YAML file drives a full benchmark run.

Schema (see README for a complete annotated example)::

    output_dir: results
    protocol: last_sample            # or: sliding
    metric_space: standardized       # or: raw
    task: {input_length: 160, output_length: 40}
    split: {test_fraction: 0.2, val_fraction: 0.0}
    datasets:
      - name: sine
        function: {kind: sine, length: 200, noise_std: 0.0, seed: 1}
      - name: fixture
        csv: {path: data/fixture.csv, layout: informer}
    noise:                           # optional, applied to input windows
      {kind: gaussian, sigma: 0.01, seed: 7}
    filter:                          # optional smoothing after corruption
      {kind: ema, alpha: 0.3}
    sweep:                           # optional parameter sweep
      {parameter: noise.sigma, values: [0, 0.001], replicates: 3}
    forecasters:
      - name: dlinear
        linear: {variant: dlinear, loss: l2, seed: 0}
      - name: llm-mock
        llm:
          style: llmtime_chat
          decimals: 4
          decoding: {temperature: 1.0, top_p: 0.8, num_samples: 5}
          adapter: {type: mock, fixture: responses.json}
      - name: naive
        baseline: {type: last_value}

API keys are never read from the config file; HTTP adapters name an
environment variable (``api_key_env``) instead. Grid cells run one after
another, in dataset x forecaster x sweep value x replicate order. Keys the
schema does not name are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .data_io import CSV_LAYOUTS, FunctionSpec
from .errors import ConfigError
from .eval import METRIC_SPACES, PROTOCOLS
from .linear import LinearModelConfig
from .llm.adapters import _check_responses, read_responses
from .llm.decode import DecodingConfig
from .llm.prompts import PROMPT_STYLES
from .noise import FilterSpec, NoiseSpec
from .series import ForecastTask, SplitSpec

BASELINE_TYPES = ("last_value", "seasonal_repeat", "polynomial")
ADAPTER_TYPES = ("mock", "http")

SWEEPABLE_PARAMETERS = (
    "noise.sigma",
    "noise.contamination",
    "noise.epsilon",
    "noise.amplitude",
    "noise.frequency",
)


@dataclass(frozen=True)
class DatasetConfig:
    name: str
    csv_path: Path | None = None
    csv_layout: str = "plain"
    function: FunctionSpec | None = None


@dataclass(frozen=True)
class AdapterConfig:
    type: str
    responses: tuple[str, ...] | None = None  # mock script, read from the fixture at load time
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "OPENAI_API_KEY"
    timeout_seconds: float = 120.0


@dataclass(frozen=True)
class LlmForecasterConfig:
    style: str
    decoding: DecodingConfig
    adapter: AdapterConfig
    decimals: int = 0
    shots: int = 3
    channel_concurrency: int = 1


@dataclass(frozen=True)
class BaselineConfig:
    type: str
    degree: int = 12
    fit_span: int | None = None
    period: int = 24


@dataclass(frozen=True)
class ForecasterConfig:
    name: str
    linear: LinearModelConfig | None = None
    llm: LlmForecasterConfig | None = None
    baseline: BaselineConfig | None = None

    @property
    def family(self) -> str:
        """Cost family of the forecaster this entry builds."""
        if self.linear is not None:
            return "linear"
        return "llm" if self.llm is not None else "domain"


@dataclass(frozen=True)
class SweepConfig:
    parameter: str
    values: tuple[float, ...]
    replicates: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetConfig, ...]
    forecasters: tuple[ForecasterConfig, ...]
    task: ForecastTask
    split: SplitSpec = SplitSpec()
    protocol: str = "last_sample"
    metric_space: str = "standardized"
    output_dir: Path = Path("results")
    noise: NoiseSpec | None = None
    noise_filter: FilterSpec | None = None
    sweep: SweepConfig | None = None


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {context}")
    return mapping[key]


def _build(cls, payload: dict, context: str):
    from .errors import CastlabError

    try:
        return cls(**payload)
    except (TypeError, ValueError, CastlabError) as exc:
        raise ConfigError(f"bad {context}: {exc}") from None


def _dataset_from_dict(d: dict, base_dir: Path) -> DatasetConfig:
    name = _require(d, "name", "dataset entry")
    if "csv" in d:
        csv = d["csv"]
        path = Path(_require(csv, "path", f"dataset {name!r} csv"))
        if not path.is_absolute():
            path = base_dir / path
        layout = csv.get("layout", "plain")
        if layout not in CSV_LAYOUTS:
            raise ConfigError(f"dataset {name!r}: layout must be one of {CSV_LAYOUTS}")
        if not path.exists():
            raise ConfigError(f"dataset {name!r}: file not found: {path}")
        return DatasetConfig(name=name, csv_path=path, csv_layout=layout)
    if "function" in d:
        spec = _build(FunctionSpec, dict(d["function"]), f"dataset {name!r} function spec")
        return DatasetConfig(name=name, function=spec)
    raise ConfigError(f"dataset {name!r} needs either a 'csv' or 'function' source")


def _adapter_from_dict(d: dict, base_dir: Path) -> AdapterConfig:
    kind = _require(d, "type", "adapter")
    if kind not in ADAPTER_TYPES:
        raise ConfigError(f"adapter type must be one of {ADAPTER_TYPES}")
    if kind == "mock":
        fixture = d.get("fixture")
        responses = d.get("responses")
        if fixture is None and responses is None:
            raise ConfigError("mock adapter needs 'fixture' or inline 'responses'")
        # the script is parsed here, once, so a bad fixture fails the config, not a cell
        try:
            if fixture is None:
                responses = _check_responses(responses, "inline mock 'responses'")
            else:
                path = Path(fixture)
                if not path.is_absolute():
                    path = base_dir / path
                if not path.exists():
                    raise ConfigError(f"mock fixture not found: {path}")
                responses = read_responses(path)
        except ValueError as exc:
            raise ConfigError(f"bad mock script: {exc}") from None
        return AdapterConfig(type="mock", responses=tuple(responses))
    if "api_key" in d:
        raise ConfigError("API keys belong in the environment, not in config files; use api_key_env")
    endpoint = _require(d, "endpoint", "http adapter")
    model = _require(d, "model", "http adapter")
    return AdapterConfig(
        type="http",
        endpoint=endpoint,
        model=model,
        api_key_env=d.get("api_key_env", "OPENAI_API_KEY"),
        timeout_seconds=float(d.get("timeout_seconds", 120.0)),
    )


def _forecaster_from_dict(d: dict, base_dir: Path) -> ForecasterConfig:
    name = _require(d, "name", "forecaster entry")
    kinds = [k for k in ("linear", "llm", "baseline") if k in d]
    if len(kinds) != 1:
        raise ConfigError(
            f"forecaster {name!r} needs exactly one of 'linear', 'llm', 'baseline'"
        )
    kind = kinds[0]
    if kind == "linear":
        cfg = _build(LinearModelConfig, dict(d["linear"]), f"forecaster {name!r} linear config")
        return ForecasterConfig(name=name, linear=cfg)
    if kind == "baseline":
        b = dict(d["baseline"])
        btype = _require(b, "type", f"forecaster {name!r} baseline")
        if btype not in BASELINE_TYPES:
            raise ConfigError(f"baseline type must be one of {BASELINE_TYPES}")
        baseline = _build(BaselineConfig, b, f"forecaster {name!r} baseline")
        return ForecasterConfig(name=name, baseline=baseline)
    llm = dict(d["llm"])
    if llm.get("multi_turn"):
        raise ConfigError(f"forecaster {name!r}: 'multi_turn' is no longer supported; remove the key")
    style = llm.get("style", "llmtime_chat")
    if style not in PROMPT_STYLES:
        raise ConfigError(f"forecaster {name!r}: style must be one of {PROMPT_STYLES}")
    decoding = _build(DecodingConfig, dict(llm.get("decoding", {})), f"forecaster {name!r} decoding")
    adapter = _adapter_from_dict(dict(_require(llm, "adapter", f"forecaster {name!r}")), base_dir)
    return ForecasterConfig(
        name=name,
        llm=LlmForecasterConfig(
            style=style,
            decoding=decoding,
            adapter=adapter,
            decimals=int(llm.get("decimals", 0)),
            shots=int(llm.get("shots", 3)),
            channel_concurrency=int(llm.get("channel_concurrency", 1)),
        ),
    )


def config_from_dict(raw: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Validate a parsed config mapping into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    base_dir = Path(base_dir)

    datasets = [ _dataset_from_dict(dict(d), base_dir) for d in _require(raw, "datasets", "config") ]
    if not datasets:
        raise ConfigError("at least one dataset is required")
    names = [d.name for d in datasets]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate dataset names: {names}")

    forecasters = [
        _forecaster_from_dict(dict(f), base_dir) for f in _require(raw, "forecasters", "config")
    ]
    if not forecasters:
        raise ConfigError("at least one forecaster is required")
    fnames = [f.name for f in forecasters]
    if len(set(fnames)) != len(fnames):
        raise ConfigError(f"duplicate forecaster names: {fnames}")

    task_raw = dict(_require(raw, "task", "config"))
    task = _build(ForecastTask, task_raw, "task")

    split = _build(SplitSpec, dict(raw.get("split", {})), "split")

    protocol = raw.get("protocol", "last_sample")
    if protocol not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {PROTOCOLS}")
    metric_space = raw.get("metric_space", "standardized")
    if metric_space not in METRIC_SPACES:
        raise ConfigError(f"metric_space must be one of {METRIC_SPACES}")

    noise = None
    if raw.get("noise") is not None:
        noise = _build(NoiseSpec, dict(raw["noise"]), "noise spec")
    noise_filter = None
    if raw.get("filter") is not None:
        noise_filter = _build(FilterSpec, dict(raw["filter"]), "filter spec")

    sweep = None
    if raw.get("sweep") is not None:
        s = dict(raw["sweep"])
        parameter = _require(s, "parameter", "sweep")
        if parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigError(f"sweep parameter must be one of {SWEEPABLE_PARAMETERS}")
        if noise is None:
            raise ConfigError("a sweep over noise parameters requires a 'noise' section")
        values = tuple(float(v) for v in _require(s, "values", "sweep"))
        if not values:
            raise ConfigError("sweep values must be non-empty")
        replicates = int(s.get("replicates", 1))
        if replicates < 1:
            raise ConfigError("sweep replicates must be >= 1")
        sweep = SweepConfig(parameter=parameter, values=values, replicates=replicates)

    # dataset/fixture paths resolve against the config file; outputs against the
    # working directory, so a config bundle stays relocatable
    output_dir = Path(raw.get("output_dir", "results"))

    return ExperimentConfig(
        datasets=tuple(datasets),
        forecasters=tuple(forecasters),
        task=task,
        split=split,
        protocol=protocol,
        metric_space=metric_space,
        output_dir=output_dir,
        noise=noise,
        noise_filter=noise_filter,
        sweep=sweep,
    )


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a YAML experiment config.

    ``overrides`` (flat keys: protocol, metric_space, output_dir) replace
    top-level fields before validation; used by CLI flags.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from None
    if overrides:
        raw = dict(raw or {})
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(raw, base_dir=p.parent)
