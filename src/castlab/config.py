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
another, in the order of ``ExperimentConfig.cells()``. One key rule holds
below the root: each section and entry takes the parameters of what it
builds, and any other key is a ConfigError naming the entry, the section and
the key, as are ``name`` in a baseline and ``session`` in an adapter. A
dataset or forecaster entry gives its ``name`` and exactly one source. The
root alone ignores keys it does not name, because the benchmark's configs
(``perfbench/workloads.py``) carry a root ``seed``. A baseline or adapter
entry becomes the constructor its ``type`` names in ``BASELINES`` or
``ADAPTERS``, with the entry's other keys bound. Every section is built from
the keys it gives, so each default and each value rule lives with the class
or constructor that uses it, not here. Numeric parameters take numbers only:
a bool or a quoted number (``"30"``) is rejected by key, and an int
parameter takes an integral float as an int. Malformed values raise
ConfigError; ``build_forecaster``, the one forecaster builder, builds each
entry once at load time, so a value a constructor rejects (a prompt style,
an http endpoint) fails the config rather than its cells. Names are
non-empty strings, and no two cells may share a report stem.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .data_io import CSV_LAYOUTS, FunctionSpec, load_csv
from .errors import CastlabError, ConfigError
from .eval import METRIC_SPACES, PROTOCOLS, Forecaster
from .forecasters import (
    LastValueForecaster,
    LinearSingleShotForecaster,
    LlmPromptForecaster,
    PolynomialExtrapolator,
    SeasonalRepeatForecaster,
)
from .linear import LinearModelConfig
from .llm.adapters import (
    HttpChatAdapter,
    LlmAdapter,
    MockAdapter,
    TranscriptWriter,
    _check_responses,
    read_responses,
)
from .llm.decode import DecodingConfig
from .noise import FilterSpec, NoiseSpec
from .series import ForecastTask, SplitSpec

BASELINES = {"last_value": LastValueForecaster, "seasonal_repeat": SeasonalRepeatForecaster,
             "polynomial": PolynomialExtrapolator}
ADAPTERS = {"mock": MockAdapter, "http": HttpChatAdapter}
BASELINE_TYPES = tuple(BASELINES)

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
    csv: dict[str, Any] | None = None  # load_csv's keywords: the resolved path, and layout if given
    function: FunctionSpec | None = None


@dataclass(frozen=True)
class LlmForecasterConfig:
    """An LLM forecaster's arguments; the defaults are LlmPromptForecaster's."""

    adapter: Callable[[], LlmAdapter]  # an ADAPTERS constructor, the entry's keys bound
    decoding: DecodingConfig = DecodingConfig()
    style: str = "llmtime_chat"
    decimals: int = 0
    shots: int = 3
    channel_concurrency: int = 1


@dataclass(frozen=True)
class ForecasterConfig:
    name: str
    linear: LinearModelConfig | None = None
    llm: LlmForecasterConfig | None = None
    baseline: Callable[..., Forecaster] | None = None  # a BASELINES constructor, keys bound

    @property
    def family(self) -> str:
        """Cost family of the forecaster this entry builds."""
        if self.linear is not None:
            return "linear"
        return "llm" if self.llm is not None else "domain"


@dataclass(frozen=True)
class SweepConfig:
    """A noise parameter, the values it takes and the replicates run at each."""

    parameter: str
    values: tuple[float, ...]
    replicates: int = 1

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ValueError(f"parameter must be one of {SWEEPABLE_PARAMETERS}")
        if not (isinstance(self.values, (list, tuple)) and self.values):
            raise ValueError("values must be a non-empty list")
        object.__setattr__(self, "values", tuple(float(_number(v, "float", "sweep value")) for v in self.values))
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


@dataclass(frozen=True)
class Cell:
    """One run of the grid: a forecaster on a dataset at one sweep value and replicate."""

    dataset: DatasetConfig
    forecaster: ForecasterConfig
    sweep_value: float | None = None
    replicate: int = 0

    @property
    def report_stem(self) -> str:
        """File stem of the cell's report; a config whose cells share a stem is rejected."""
        parts = [self.dataset.name, self.forecaster.name]
        if self.sweep_value is not None:
            parts.append(f"v{self.sweep_value}")
        if self.replicate:
            parts.append(f"r{self.replicate}")
        return "_".join(p.replace("/", "-").replace(" ", "-") for p in parts)


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

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}")
        if self.metric_space not in METRIC_SPACES:
            raise ValueError(f"metric_space must be one of {METRIC_SPACES}")

    def cells(self) -> list[Cell]:
        """The grid, in run order: dataset x forecaster x sweep value x replicate."""
        points = ([(v, rep) for v in self.sweep.values for rep in range(self.sweep.replicates)]
                  if self.sweep is not None else [(None, 0)])
        return [Cell(ds, fc, value, rep) for ds in self.datasets for fc in self.forecasters
                for value, rep in points]


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {context}")
    return mapping[key]


def _checked(value: Any, kind: type, context: str) -> Any:
    """``value`` if it is a ``kind`` (dict: a mapping), else a ConfigError."""
    if not isinstance(value, kind):
        raise ConfigError(f"{context} must be a {'mapping' if kind is dict else kind.__name__}")
    return value


def _text(mapping: dict, key: str, context: str) -> str:
    """``mapping[key]``; a ConfigError unless it is a non-empty string."""
    value = _require(mapping, key, context)
    if not (isinstance(value, str) and value):
        raise ConfigError(f"{context} {key} must be a non-empty string, got {value!r}")
    return value


def _number(value: Any, annotation: str, context: str) -> Any:
    """``value`` checked for a field annotated ``annotation`` (``int`` or ``float``, maybe
    ``| None``). A bool, a string or another non-number raises ConfigError naming
    ``context``, as does a fractional float for ``int``; an integral float becomes an int."""
    if value is None and annotation.endswith("| None"):
        return value
    integral = annotation.startswith("int")
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (integral and isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"bad {context}: must be {'an integer' if integral else 'a number'}, "
                          f"got {value!r}")
    return int(value) if integral else value


def _keywords(make, payload: Any, context: str, barred: str | None = None) -> dict:
    """``payload``, a mapping of parameters of ``make`` other than ``barred``, with each
    value of an ``int`` or ``float`` parameter checked by ``_number``. Anything else
    raises ConfigError naming ``context`` (and the key)."""
    parameters = inspect.signature(make).parameters
    for key in _checked(payload, dict, context):
        if key not in parameters or key == barred:
            raise ConfigError(f"{context} takes no key {key!r}")
    # annotations are strings here (postponed evaluation in every module)
    numeric = {k for k, p in parameters.items() if str(p.annotation).split(" |")[0] in ("int", "float")}
    return {k: _number(v, parameters[k].annotation, f"{context} {k}") if k in numeric else v
            for k, v in payload.items()}


def build_spec(make, payload: Any, context: str):
    """``make(**payload)``, the payload checked by ``_keywords``; a payload ``make``
    rejects raises ConfigError naming ``context``."""
    payload = _keywords(make, payload, context)
    try:
        return make(**payload)
    except (TypeError, ValueError, CastlabError) as exc:
        raise ConfigError(f"bad {context}: {exc}") from None


def _constructor(table: dict, entry: Any, context: str, barred: str) -> functools.partial:
    """``table[entry["type"]]`` with the entry's other keys bound, checked by ``_keywords``."""
    keys = dict(_checked(entry, dict, context))
    kind = keys.pop("type", None)
    if kind not in tuple(table):  # by equality, as a list-valued type is unhashable
        raise ConfigError(f"{context} type must be one of {tuple(table)}, got {kind!r}")
    return functools.partial(table[kind], **_keywords(table[kind], keys, f"{context} {kind}", barred))


def build_forecaster(
    cfg: ForecasterConfig, transcript: TranscriptWriter | None = None
) -> Forecaster:
    """Fresh forecaster instance for one cell (linear forecasters are stateful)."""
    if cfg.linear is not None:
        return LinearSingleShotForecaster(cfg.linear, name=cfg.name)
    if cfg.baseline is not None:
        return cfg.baseline(name=cfg.name)
    assert cfg.llm is not None
    return LlmPromptForecaster(
        adapter=cfg.llm.adapter(),
        style=cfg.llm.style,
        decoding=cfg.llm.decoding,
        decimals=cfg.llm.decimals,
        shots=cfg.llm.shots,
        transcript=transcript,
        channel_concurrency=cfg.llm.channel_concurrency,
        name=cfg.name,
    )


def _entry(make, entry: Any, kind: str) -> tuple[str, str, Any]:
    """A dataset or forecaster entry's name, the one source key it gives and that key's
    value. The entry's keys are ``make``'s parameters: ``name``, then the sources."""
    name = _text(_checked(entry, dict, f"{kind} entry"), "name", f"{kind} entry")
    where = f"{kind} {name!r}"
    given = [k for k in _keywords(make, entry, where) if k != "name"]
    if len(given) != 1:
        raise ConfigError(f"{where} needs exactly one of {list(inspect.signature(make).parameters)[1:]}")
    return name, given[0], entry[given[0]]


def _dataset_from_dict(d: Any, base_dir: Path) -> DatasetConfig:
    name, source, body = _entry(DatasetConfig, d, "dataset")
    if source == "function":
        spec = build_spec(FunctionSpec, body, f"dataset {name!r} function spec")
        return DatasetConfig(name=name, function=spec)
    where = f"dataset {name!r} csv"
    csv = _keywords(load_csv, body, where)
    path = base_dir / Path(_checked(_require(csv, "path", where), str, f"{where} path"))
    if not path.exists():
        raise ConfigError(f"dataset {name!r}: file not found: {path}")
    if "layout" in csv and csv["layout"] not in CSV_LAYOUTS:
        raise ConfigError(f"bad {where}: layout must be one of {CSV_LAYOUTS}")
    return DatasetConfig(name=name, csv={**csv, "path": path})


def _mock_script(d: dict, base_dir: Path, context: str) -> tuple[str, ...]:
    """A mock adapter's replies, parsed here, once, so a bad fixture fails the config, not a cell."""
    if ("fixture" in d) == ("responses" in d):
        raise ConfigError(f"{context} needs one of 'fixture' or inline 'responses'")
    try:
        if "responses" in d:
            return tuple(_check_responses(d["responses"], "inline mock 'responses'"))
        path = base_dir / Path(_checked(d["fixture"], str, "mock fixture"))
        if not path.exists():
            raise ConfigError(f"mock fixture not found: {path}")
        return tuple(read_responses(path))
    except ValueError as exc:
        raise ConfigError(f"bad mock script: {exc}") from None


def forecaster_from_dict(d: Any, base_dir: Path) -> ForecasterConfig:
    """Validate one forecaster entry, building the forecaster once to check its values."""
    name, source, body = _entry(ForecasterConfig, d, "forecaster")
    where = f"forecaster {name!r}"
    if source == "linear":
        spec = build_spec(LinearModelConfig, body, f"{where} linear config")
    elif source == "baseline":
        spec = _constructor(BASELINES, body, f"{where} baseline", barred="name")
    else:
        llm = _checked(body, dict, f"{where} llm")
        adapter = _checked(_require(llm, "adapter", where), dict, f"{where} adapter")
        if "api_key" in adapter:
            raise ConfigError("API keys belong in the environment, not in config files; use api_key_env")
        if adapter.get("type") == "mock":  # the script replaces its fixture
            adapter = {**{k: v for k, v in adapter.items() if k != "fixture"},
                       "responses": _mock_script(adapter, base_dir, f"{where} adapter")}
        given = {**llm, "adapter": _constructor(ADAPTERS, adapter, f"{where} adapter", barred="session")}
        if "decoding" in llm:
            given["decoding"] = build_spec(DecodingConfig, llm["decoding"], f"{where} decoding")
        spec = build_spec(LlmForecasterConfig, given, where)
    cfg = ForecasterConfig(name=name, **{source: spec})
    build_spec(build_forecaster, {"cfg": cfg}, where).close()
    return cfg


def config_from_dict(raw: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Validate a parsed config mapping into an ExperimentConfig."""
    _checked(raw, dict, "config root")
    base_dir = Path(base_dir)

    datasets = [_dataset_from_dict(d, base_dir)
                for d in _checked(_require(raw, "datasets", "config"), list, "datasets")]
    if not datasets:
        raise ConfigError("at least one dataset is required")
    names = [d.name for d in datasets]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate dataset names: {names}")

    forecasters = [forecaster_from_dict(f, base_dir)
                   for f in _checked(_require(raw, "forecasters", "config"), list, "forecasters")]
    if not forecasters:
        raise ConfigError("at least one forecaster is required")
    fnames = [f.name for f in forecasters]
    if len(set(fnames)) != len(fnames):
        raise ConfigError(f"duplicate forecaster names: {fnames}")

    task = build_spec(ForecastTask, _require(raw, "task", "config"), "task")
    split = build_spec(SplitSpec, raw.get("split", {}), "split")

    noise = None
    if raw.get("noise") is not None:
        noise = build_spec(NoiseSpec, raw["noise"], "noise spec")
    noise_filter = None
    if raw.get("filter") is not None:
        noise_filter = build_spec(FilterSpec, raw["filter"], "filter spec")

    sweep = None
    if raw.get("sweep") is not None:
        sweep = build_spec(SweepConfig, raw["sweep"], "sweep")
        if noise is None:
            raise ConfigError("a sweep over noise parameters requires a 'noise' section")

    root = {k: raw[k] for k in ("protocol", "metric_space") if k in raw}
    if "output_dir" in raw:
        # dataset/fixture paths resolve against the config file; outputs against the
        # working directory, so a config bundle stays relocatable
        root["output_dir"] = Path(_checked(raw["output_dir"], str, "output_dir"))
    config = build_spec(ExperimentConfig, {
        **root, "datasets": tuple(datasets), "forecasters": tuple(forecasters), "task": task,
        "split": split, "noise": noise, "noise_filter": noise_filter, "sweep": sweep}, "config")
    _check_report_stems(config)
    return config


def _check_report_stems(config: ExperimentConfig) -> None:
    """Reject a grid in which two cells would write the same report file."""
    seen: dict[str, tuple] = {}
    for cell in config.cells():
        stem = cell.report_stem
        ids = (cell.dataset.name, cell.forecaster.name, cell.sweep_value, cell.replicate)
        if stem in seen:
            raise ConfigError(
                f"cells (dataset, forecaster, sweep value, replicate) {seen[stem]!r} and "
                f"{ids!r} would both write reports/{stem}.json; make the names and "
                "sweep values distinct")
        seen[stem] = ids


def read_yaml(path: Path) -> Any:
    """The parsed YAML file; a missing or malformed file raises ConfigError."""
    import yaml  # the one YAML reader; dict configs never load the parser

    if not path.exists():
        raise ConfigError(f"file not found: {path}")
    try:
        return yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a YAML experiment config.

    ``overrides`` (flat keys: protocol, metric_space, output_dir) replace
    top-level fields before validation; used by CLI flags.
    """
    p = Path(path)
    raw = read_yaml(p)
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return config_from_dict(raw, base_dir=p.parent)
