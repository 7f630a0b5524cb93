import csv
import dataclasses
import gc
import inspect
import json
import re
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from castlab import (
    DecodingConfig,
    FilterSpec,
    FunctionSpec,
    LastValueForecaster,
    LinearModelConfig,
    LlmPromptForecaster,
    NoiseSpec,
    SplitSpec,
)
from castlab.llm.adapters import HttpChatAdapter, LlmAdapter
from castlab.config import (
    SWEEPABLE_PARAMETERS,
    LlmForecasterConfig,
    SweepConfig,
    build_forecaster,
    build_spec,
    config_from_dict,
    forecaster_from_dict,
    load_config,
)
from castlab.errors import ConfigError
from castlab.noise import NOISE_PARAMETERS
from castlab import runner
from castlab.cli import main
from castlab.runner import TIMING_COLUMNS, run_experiment


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _records(out):
    return [json.loads(line) for line in (out / "cells.jsonl").read_text().splitlines()]


def _base_config(tmp_path, **overrides):
    raw = {
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "protocol": "last_sample",
        "metric_space": "raw",
        "split": {"test_fraction": 0.5, "val_fraction": 0.0},
        "task": {"input_length": 40, "output_length": 10},
        "datasets": [
            {"name": "sine", "function": {"kind": "sine", "length": 100, "noise_std": 0.0, "seed": 1}},
        ],
        "forecasters": [
            {"name": "naive", "baseline": {"type": "last_value"}},
        ],
    }
    raw.update(overrides)
    return raw


def test_config_parses_and_defaults(tmp_path):
    cfg = config_from_dict(_base_config(tmp_path), base_dir=tmp_path)
    assert cfg.protocol == "last_sample"
    assert cfg.task.input_length == 40
    assert cfg.noise is None


def test_config_missing_csv_fails_before_running(tmp_path):
    raw = _base_config(tmp_path)
    raw["datasets"].append({"name": "gone", "csv": {"path": "missing.csv"}})
    with pytest.raises(ConfigError):
        config_from_dict(raw, base_dir=tmp_path)


def test_config_rejects_inline_api_key(tmp_path):
    raw = _base_config(tmp_path)
    raw["forecasters"] = [{
        "name": "llm",
        "llm": {
            "style": "llmtime_chat",
            "adapter": {"type": "http", "endpoint": "http://x", "model": "m", "api_key": "sk-nope"},
        },
    }]
    with pytest.raises(ConfigError, match="environment"):
        config_from_dict(raw, base_dir=tmp_path)


def test_config_rejects_the_removed_multi_turn_key(tmp_path):
    raw = _base_config(tmp_path)
    raw["forecasters"] = [{
        "name": "llm",
        "llm": {"style": "llmp_single", "multi_turn": True,
                "adapter": {"type": "mock", "responses": ["1"]}},
    }]
    with pytest.raises(ConfigError, match="multi_turn"):
        config_from_dict(raw, base_dir=tmp_path)


def test_config_sweep_requires_noise(tmp_path):
    raw = _base_config(tmp_path, sweep={"parameter": "noise.sigma", "values": [0, 0.1]})
    with pytest.raises(ConfigError):
        config_from_dict(raw, base_dir=tmp_path)


_SINE = {"name": "sine", "function": {"kind": "sine", "length": 100}}
_NAIVE = {"name": "naive", "baseline": {"type": "last_value"}}
_NOISE = {"kind": "gaussian", "sigma": 0.0}

# (how a valid config is changed, the whole ConfigError message)
_REJECTED = {
    "task-missing": (lambda raw: raw.pop("task"), "missing key 'task' in config"),
    "datasets-empty": (lambda raw: raw.update(datasets=[]), "at least one dataset is required"),
    "datasets-repeat": (lambda raw: raw.update(datasets=[_SINE, _SINE]),
                        "duplicate dataset names: ['sine', 'sine']"),
    "forecasters-empty": (lambda raw: raw.update(forecasters=[]), "at least one forecaster is required"),
    "forecasters-repeat": (lambda raw: raw.update(forecasters=[_NAIVE, _NAIVE]),
                           "duplicate forecaster names: ['naive', 'naive']"),
    "baseline-type-unknown": (
        lambda raw: raw.update(forecasters=[{"name": "naive", "baseline": {"type": "arima"}}]),
        "forecaster 'naive' baseline type must be one of ('last_value', 'seasonal_repeat', "
        "'polynomial'), got 'arima'"),
    "csv-layout-excel": (
        lambda raw: raw.update(datasets=[{"name": "c", "csv": {"path": "c.csv", "layout": "excel"}}]),
        "bad dataset 'c' csv: layout must be one of ('informer', 'plain')"),
    "mock-fixture-missing": (
        lambda raw: raw.update(forecasters=[{"name": "llm", "llm": {
            "adapter": {"type": "mock", "fixture": "gone.json"}}}]),
        "mock fixture not found: {tmp}/gone.json"),
    "protocol-typo": (lambda raw: raw.update(protocol="slidng"),
                      "bad config: protocol must be one of ('last_sample', 'sliding')"),
    "metric-space-typo": (lambda raw: raw.update(metric_space="standardised"),
                          "bad config: metric_space must be one of ('standardized', 'raw')"),
    "sweep-noise-kind": (
        lambda raw: raw.update(noise=_NOISE, sweep={"parameter": "noise.kind", "values": [0.1]}),
        "bad sweep: parameter must be one of ('noise.sigma', 'noise.contamination', "
        "'noise.epsilon', 'noise.amplitude', 'noise.frequency')"),
    "sweep-values-empty": (
        lambda raw: raw.update(noise=_NOISE, sweep={"parameter": "noise.sigma", "values": []}),
        "bad sweep: values must be a non-empty list"),
    "sweep-replicates-0": (
        lambda raw: raw.update(noise=_NOISE, sweep={"parameter": "noise.sigma", "values": [0.1],
                                                    "replicates": 0}),
        "bad sweep: replicates must be >= 1"),
    # each sweep value builds its noise spec at load, which checks it
    "sweep-sigma-negative": (
        lambda raw: raw.update(noise=_NOISE, sweep={"parameter": "noise.sigma", "values": [0.0, -1.0]}),
        "bad config: sweep value -1.0 of noise.sigma: sigma must be >= 0"),
    "sweep-contamination-2": (
        lambda raw: raw.update(noise={"kind": "constant"},
                               sweep={"parameter": "noise.contamination", "values": [0.1, 2.0]}),
        "bad config: sweep value 2.0 of noise.contamination: contamination must lie in [0, 1]"),
    "sweep-parameter-unread": (
        lambda raw: raw.update(noise=_NOISE, sweep={"parameter": "noise.contamination",
                                                    "values": [0.1, 0.5]}),
        "bad config: noise kind 'gaussian' does not read noise.contamination; "
        "sweep one of ('noise.sigma',)"),
    "sweep-without-noise": (
        lambda raw: raw.update(sweep={"parameter": "noise.sigma", "values": [0.1]}),
        "a sweep over noise parameters requires a 'noise' section"),
    "sweep-replicates-1001": (
        lambda raw: raw.update(noise=_NOISE, sweep={"parameter": "noise.sigma", "values": [0.1],
                                                    "replicates": 1001}),
        "bad sweep: replicates must be <= 1000"),
    # no key takes a NaN or an infinity
    "sweep-values-nan": (
        lambda raw: raw.update(noise=_NOISE, sweep={"parameter": "noise.sigma",
                                                    "values": [0.0, float("nan")]}),
        "bad sweep: values must be finite, got nan"),
    "noise-sigma-inf": (lambda raw: raw.update(noise={"kind": "gaussian", "sigma": float("inf")}),
                        "bad noise spec: sigma must be finite, got inf"),
    "noise-epsilon-nan": (lambda raw: raw.update(noise={"kind": "constant", "epsilon": float("nan")}),
                          "bad noise spec: epsilon must be finite, got nan"),
    "noise-amplitude-inf": (
        lambda raw: raw.update(noise={"kind": "freq_add", "amplitude": float("-inf")}),
        "bad noise spec: amplitude must be finite, got -inf"),
    "noise-frequency-nan": (
        lambda raw: raw.update(noise={"kind": "freq_replace", "frequency": float("nan")}),
        "bad noise spec: frequency must be finite, got nan"),
    "filter-kernel-sigma-nan": (
        lambda raw: raw.update(filter={"kind": "gaussian_kernel", "kernel_sigma": float("nan")}),
        "bad filter spec: kernel_sigma must be finite, got nan"),
    "linear-learning-rate-inf": (
        lambda raw: raw.update(forecasters=[{"name": "lin", "linear": {"learning_rate": float("inf")}}]),
        "bad forecaster 'lin' linear config: learning_rate must be finite and > 0, got inf"),
    "decoding-temperature-nan": (
        lambda raw: raw.update(forecasters=[{"name": "llm", "llm": {
            "decoding": {"temperature": float("nan")}, "adapter": {"type": "mock", "responses": ["1"]}}}]),
        "bad forecaster 'llm' decoding: temperature must be finite and >= 0, got nan"),
}


@pytest.mark.parametrize("change,message", _REJECTED.values(), ids=_REJECTED.keys())
def test_config_errors_name_what_is_wrong(tmp_path, change, message):
    (tmp_path / "c.csv").write_text("a,b\n1,2\n3,4\n")
    raw = _base_config(tmp_path)
    change(raw)
    with pytest.raises(ConfigError, match=f"^{re.escape(message.format(tmp=tmp_path))}$"):
        config_from_dict(raw, base_dir=tmp_path)


# every spec a config or the CLI builds with float parameters, each with a valid payload
_FLOAT_SPECS = [(NoiseSpec, {"kind": "gaussian"}), (FilterSpec, {"kind": "gaussian_kernel"}),
                (FilterSpec, {"kind": "ema"}), (FunctionSpec, {"kind": "sine"}), (SplitSpec, {}),
                (LinearModelConfig, {}), (DecodingConfig, {}),
                (HttpChatAdapter, {"endpoint": "http://x.invalid", "model": "m"})]


def _float_parameters(make):
    """``make``'s parameters annotated ``float`` (or ``float | None``), read as ``config._keywords`` reads them."""
    return [k for k, p in inspect.signature(make).parameters.items()
            if str(p.annotation).split(" |")[0] == "float"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("make,payload,key", [
    pytest.param(make, payload, key, id="-".join(filter(None, (make.__name__, payload.get("kind"), key))))
    for make, payload in _FLOAT_SPECS for key in _float_parameters(make)])
def test_no_float_parameter_takes_a_nan_or_an_infinity(make, payload, key, value):
    with pytest.raises(ConfigError, match=rf"^bad spec: (.* )?{key}\b"):
        build_spec(make, {**payload, key: value}, "spec")


_SEEDED_SPECS = [(make, payload) for make, payload in _FLOAT_SPECS
                 if "seed" in inspect.signature(make).parameters]


@pytest.mark.parametrize("make,payload", [pytest.param(make, payload, id=make.__name__)
                                          for make, payload in _SEEDED_SPECS])
def test_no_seed_takes_a_negative_value(make, payload):
    build_spec(make, {**payload, "seed": 0}, "spec")
    with pytest.raises(ConfigError, match=r"^bad spec: seed must be >= 0, got -1$"):
        build_spec(make, {**payload, "seed": -1}, "spec")


@pytest.mark.parametrize("kind,key", [pytest.param(kind, key, id=f"{kind}-{key}")
                                      for kind, keys in NOISE_PARAMETERS.items() for key in keys])
def test_each_parameter_a_noise_kind_reads_can_be_swept(tmp_path, kind, key):
    raw = _base_config(tmp_path, noise={"kind": kind},
                       sweep={"parameter": f"noise.{key}", "values": [0.0, 0.5]})
    cfg = config_from_dict(raw, base_dir=tmp_path)
    assert [(c.sweep_value, getattr(c.noise, key)) for c in cfg.cells()] == [(0.0, 0.0), (0.5, 0.5)]


def _reference_cell_noise(config, cell):
    """A cell's noise spec by the rule the runner once applied to each cell as it ran."""
    noise = config.noise
    if noise is None:
        return None
    if cell.sweep_value is not None and config.sweep is not None:
        field = config.sweep.parameter.split(".", 1)[1]
        noise = dataclasses.replace(noise, **{field: cell.sweep_value})
    if cell.replicate:
        noise = dataclasses.replace(noise, seed=noise.seed + cell.replicate)
    return noise


def _grid_configs():
    """(id, config changes): no noise, noise without a sweep, and a sweep over each
    sweepable parameter (under the first kind that reads it) at 2 values x 3 replicates."""
    yield "no-noise", {}
    yield "noise-without-sweep", {"noise": {"kind": "constant", "epsilon": 0.5, "seed": 3}}
    for parameter in SWEEPABLE_PARAMETERS:
        key = parameter.split(".", 1)[1]
        kind = next(k for k, keys in NOISE_PARAMETERS.items() if key in keys)
        yield f"sweep-{key}", {"noise": {"kind": kind, "seed": 7},
                               "sweep": {"parameter": parameter, "values": [0.0, 0.25], "replicates": 3}}


@pytest.mark.parametrize("changes", [pytest.param(c, id=i) for i, c in _grid_configs()])
def test_each_cell_carries_the_noise_spec_the_runner_once_built_for_it(tmp_path, changes):
    raw = _base_config(tmp_path, **changes)
    raw["datasets"].append({"name": "line", "function": {"kind": "linear", "length": 100}})
    raw["forecasters"].append({"name": "lin", "linear": {"max_epochs": 2}})
    cfg = config_from_dict(raw, base_dir=tmp_path)
    cells = cfg.cells()
    assert len(cells) == 4 * (6 if "sweep" in changes else 1)
    assert [c.noise for c in cells] == [_reference_cell_noise(cfg, c) for c in cells]
    assert all((c.noise is None) == ("noise" not in changes) for c in cells)


def test_integral_floats_load_as_ints(tmp_path):
    raw = _base_config(tmp_path, task={"input_length": 40.0, "output_length": 10})
    raw["noise"] = {"kind": "gaussian", "sigma": 0.0, "seed": 3.0}
    raw["sweep"] = {"parameter": "noise.sigma", "values": [0.0], "replicates": 2.0}
    raw["forecasters"] = [{"name": "lin", "linear": {"max_epochs": 3.0, "seed": 1.0}}]
    cfg = config_from_dict(raw, base_dir=tmp_path)
    ints = (cfg.task.input_length, cfg.noise.seed, cfg.sweep.replicates,
            cfg.forecasters[0].linear.max_epochs, cfg.forecasters[0].linear.seed)
    assert ints == (40, 3, 2, 3, 1) and all(type(v) is int for v in ints)


# the grid rules of _REJECTED, each as the same change made to a loaded config
_GRID_CHANGES = {
    "datasets-empty": lambda cfg: {"datasets": ()},
    "datasets-repeat": lambda cfg: {"datasets": cfg.datasets * 2},
    "forecasters-empty": lambda cfg: {"forecasters": ()},
    "forecasters-repeat": lambda cfg: {"forecasters": cfg.forecasters * 2},
    "sweep-without-noise": lambda cfg: {"sweep": SweepConfig("noise.sigma", (0.0, 0.5))},
}


@pytest.mark.parametrize("rule", _GRID_CHANGES)
def test_a_replaced_config_is_checked_as_a_loaded_one(tmp_path, rule):
    cfg = config_from_dict(_base_config(tmp_path), base_dir=tmp_path)
    with pytest.raises(ConfigError, match=f"^{re.escape(_REJECTED[rule][1])}$"):
        dataclasses.replace(cfg, **_GRID_CHANGES[rule](cfg))


def test_an_llm_entry_takes_the_forecasters_defaults_for_the_keys_it_leaves_out(tmp_path):
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(LlmForecasterConfig))
    entry = {"name": "llm", "llm": {"adapter": {"type": "mock", "responses": ["1"]}}}
    forecaster = build_forecaster(forecaster_from_dict(entry, tmp_path))
    forecaster.close()
    keys = ("style", "decimals", "shots", "channel_concurrency", "decoding")
    parameters = inspect.signature(LlmPromptForecaster).parameters
    assert {k: getattr(forecaster, k) for k in keys} == {k: parameters[k].default for k in keys}


def test_load_config_yaml_and_overrides(tmp_path):
    raw = _base_config(tmp_path)
    p = tmp_path / "exp.yaml"
    p.write_text(yaml.safe_dump(raw))
    cfg = load_config(p, overrides={"protocol": "sliding", "output_dir": str(tmp_path / "o2")})
    assert cfg.protocol == "sliding"
    assert cfg.output_dir == tmp_path / "o2"


def test_run_experiment_writes_outputs(tmp_path):
    cfg = config_from_dict(_base_config(tmp_path), base_dir=tmp_path)
    result = run_experiment(cfg)
    assert result.status == 0
    assert result.summary_path.exists()
    rows = _csv_rows(result.summary_path)
    assert len(rows) == 1
    assert rows[0]["dataset"] == "sine" and rows[0]["forecaster"] == "naive"
    assert float(rows[0]["mae"]) >= 0.0
    manifest = json.loads(result.manifest_path.read_text())
    assert manifest["status"] == "ok" and manifest["errors"] == []
    assert (cfg.output_dir / "plots" / "time_vs_mae.csv").exists()
    [record] = _records(cfg.output_dir)
    assert record["report"] == json.loads(json.dumps(result.results[0].report.to_dict()))
    assert not (cfg.output_dir / "reports").exists()


def test_run_experiment_collects_errors(tmp_path):
    raw = _base_config(tmp_path)
    # horizon too long for the test slice -> SeriesTooShort in that cell only
    raw["datasets"].append(
        {"name": "short", "function": {"kind": "linear", "length": 30, "noise_std": 0.0, "seed": 2}}
    )
    cfg = config_from_dict(raw, base_dir=tmp_path)
    result = run_experiment(cfg)
    assert result.status == 1
    manifest = json.loads(result.manifest_path.read_text())
    assert manifest["failed"] == 1
    assert len(manifest["errors"]) == 1
    assert manifest["errors"][0]["dataset"] == "short"
    assert "SeriesTooShort" in manifest["errors"][0]["error"]
    # the healthy cell still produced a row with metrics
    rows = _csv_rows(result.summary_path)
    ok_rows = [r for r in rows if r["mae"]]
    assert len(ok_rows) == 1


@pytest.mark.parametrize("content", ['{"not": "a list"}', "[]", '["0.5", 2]', "[0.5,"])
def test_bad_llm_fixture_is_a_config_error(tmp_path, content):
    (tmp_path / "responses.json").write_text(content)
    raw = _base_config(tmp_path)
    raw["forecasters"].append({
        "name": "llm-mock",
        "llm": {"style": "llmtime_chat", "adapter": {"type": "mock", "fixture": "responses.json"}},
    })
    with pytest.raises(ConfigError, match="responses.json"):
        config_from_dict(raw, base_dir=tmp_path)


def test_bad_inline_responses_are_a_config_error(tmp_path):
    raw = _base_config(tmp_path)
    raw["forecasters"].append({
        "name": "llm-mock",
        "llm": {"style": "llmtime_chat", "adapter": {"type": "mock", "responses": []}},
    })
    with pytest.raises(ConfigError, match="inline mock 'responses'"):
        config_from_dict(raw, base_dir=tmp_path)


def test_mock_fixture_is_read_once_at_config_time(tmp_path):
    fixture = tmp_path / "responses.json"
    fixture.write_text(json.dumps([", ".join(["0.5"] * 10)]))
    raw = _base_config(tmp_path)
    raw["forecasters"].append({
        "name": "llm-mock",
        "llm": {"style": "llmtime_chat", "decimals": 2,
                "adapter": {"type": "mock", "fixture": "responses.json"}},
    })
    cfg = config_from_dict(raw, base_dir=tmp_path)
    fixture.unlink()  # the run uses the parsed script, not the file
    result = run_experiment(cfg)
    assert result.status == 0


def test_failing_llm_cell_fails_only_itself(tmp_path):
    raw = _base_config(tmp_path)
    raw["forecasters"].append({
        "name": "llm-mock",
        "llm": {
            "style": "llmtime_chat",
            "decoding": {"num_samples": 1, "max_attempts_per_sample": 1},
            "adapter": {"type": "mock", "responses": ["no numbers here"]},
        },
    })
    result = run_experiment(config_from_dict(raw, base_dir=tmp_path))
    assert result.status == 1
    manifest = json.loads(result.manifest_path.read_text())
    assert manifest["failed"] == 1
    (error,) = manifest["errors"]
    assert error["forecaster"] == "llm-mock"
    assert error["error"].startswith("AllSamplesFailedError: ")
    assert "Traceback" in error["traceback"]
    rows = {r["forecaster"]: r for r in _csv_rows(result.summary_path)}
    assert rows["llm-mock"]["family"] == "llm" and rows["llm-mock"]["mae"] == ""
    assert float(rows["naive"]["mae"]) >= 0.0


@pytest.mark.parametrize("response", [", ".join(["0.5"] * 10), "no numbers here"])
def test_llm_cells_leave_no_pool_thread_running(tmp_path, response):
    (tmp_path / "two.csv").write_text("".join(f"{i / 7:.6f},{(i % 9) / 3:.6f}\n" for i in range(100)))
    raw = _base_config(tmp_path)
    raw["datasets"] = [{"name": "two", "csv": {"path": "two.csv"}}]
    raw["forecasters"] = [{
        "name": "llm-mock",
        "llm": {
            "style": "llmtime_chat",
            "decimals": 2,
            "channel_concurrency": 2,
            "decoding": {"num_samples": 3, "max_attempts_per_sample": 1},
            "adapter": {"type": "mock", "responses": [response]},
        },
    }]
    before = set(threading.enumerate())
    result = run_experiment(config_from_dict(raw, base_dir=tmp_path))
    assert set(threading.enumerate()) - before == set()
    (cell,) = result.results
    if response == "no numbers here":
        assert cell.error.startswith("AllSamplesFailedError: ")
    else:
        assert cell.error is None and cell.report.window_count == 1


def test_a_failed_window_cancels_the_cells_queued_completions(tmp_path):
    (tmp_path / "two.csv").write_text("".join(f"{i / 7:.6f},{(i % 9) / 3:.6f}\n" for i in range(100)))
    raw = _base_config(tmp_path, protocol="sliding", task={"input_length": 10, "output_length": 5})
    raw["datasets"] = [{"name": "two", "csv": {"path": "two.csv"}}]
    raw["forecasters"] = [{"name": "llm-mock", "llm": {
        "decoding": {"num_samples": 3, "max_attempts_per_sample": 1},
        "adapter": {"type": "mock", "responses": ["unused"]}}}]
    cfg = config_from_dict(raw, base_dir=tmp_path)
    calls = []

    class SlowGarbageAdapter(LlmAdapter):
        def complete(self, system_text, user_text, config):
            calls.append(user_text)
            time.sleep(0.05)
            return "no numbers here"

    (fc,) = cfg.forecasters
    llm = dataclasses.replace(fc.llm, adapter=SlowGarbageAdapter)
    cfg = dataclasses.replace(cfg, forecasters=[dataclasses.replace(fc, llm=llm)])
    result = run_experiment(cfg)
    (cell,) = result.results
    assert cell.error.startswith("AllSamplesFailedError: ")
    # 8 windows are queued; after the first window's 2 x 3 calls, only the
    # calls already running on the pool of 3 may finish
    assert 2 * 3 <= len(calls) <= 2 * 3 + 3
    manifest = json.loads(result.manifest_path.read_text())
    assert manifest["failed"] == 1 and len(manifest["errors"]) == 1


def test_a_forecast_of_the_wrong_shape_fails_only_its_cell(tmp_path):
    class OneChannelTooMany(LastValueForecaster):
        def predict(self, window, horizon):
            out = super().predict(window, horizon)
            return np.hstack([out, out[:, :1]])

    raw = _base_config(tmp_path)
    raw["forecasters"].append({"name": "wide", "baseline": {"type": "last_value"}})
    cfg = config_from_dict(raw, base_dir=tmp_path)
    naive, wide = cfg.forecasters
    cfg = dataclasses.replace(cfg, forecasters=[naive, dataclasses.replace(wide, baseline=OneChannelTooMany)])
    result = run_experiment(cfg)
    assert result.status == 1
    manifest = json.loads(result.manifest_path.read_text())
    assert manifest["failed"] == 1
    (error,) = manifest["errors"]
    assert (error["dataset"], error["forecaster"]) == ("sine", "wide")
    assert error["error"] == "ShapeMismatchError: forecaster returned (10, 2), expected (10, 1)"
    rows = {r["forecaster"]: r for r in _csv_rows(result.summary_path)}
    assert rows["wide"]["mae"] == "" and float(rows["naive"]["mae"]) >= 0.0


def test_each_dataset_is_loaded_once_and_a_bad_one_fails_only_its_cells(tmp_path, monkeypatch):
    rows = "".join(f"{i / 7:.6f},{(i % 9) / 3:.6f}\n" for i in range(100))
    (tmp_path / "good.csv").write_text("a,b\n" + rows)
    (tmp_path / "bad.csv").write_text("a,b\n" + rows.replace("0.428571,", "0.4x8571,", 1))
    raw = _base_config(tmp_path, datasets=[
        {"name": "bad", "csv": {"path": "bad.csv"}},
        {"name": "good", "csv": {"path": "good.csv"}},
    ])
    raw["forecasters"].append({"name": "poly", "baseline": {"type": "polynomial", "degree": 1}})
    cfg = config_from_dict(raw, base_dir=tmp_path)

    events = []  # each load and each cell, in the order they happen
    real_load_csv, real_run_cell = runner.load_csv, runner._run_cell

    def counting_load_csv(path, layout="plain"):
        events.append(path.name)
        return real_load_csv(path, layout=layout)

    def logged_run_cell(config, cell, *args):
        events.append(cell.dataset.name)
        return real_run_cell(config, cell, *args)

    monkeypatch.setattr(runner, "load_csv", counting_load_csv)
    monkeypatch.setattr(runner, "_run_cell", logged_run_cell)
    for _ in range(2):
        events.clear()
        result = run_experiment(cfg)
        # a dataset is loaded just before its first cell, so one series is held at a time
        assert events == ["bad.csv", "bad", "bad", "good.csv", "good", "good"]
        assert result.status == 1
        manifest = json.loads(result.manifest_path.read_text())
        assert [(e["dataset"], e["forecaster"]) for e in manifest["errors"]] == [
            ("bad", "naive"), ("bad", "poly")]
        errors = {e["error"] for e in manifest["errors"]}
        assert errors == {"ParseError: cannot parse '0.4x8571' at line 5, column 1"}
        for error in manifest["errors"]:
            assert "Traceback" in error["traceback"] and "ParseError" in error["traceback"]
        good = [r for r in result.results if r.cell.dataset.name == "good"]
        assert [r.cell.forecaster.name for r in good] == ["naive", "poly"]
        assert all(r.report is not None and r.error is None for r in good)


def test_rerun_into_same_dir_keeps_only_its_own_artifacts(tmp_path):
    raw = _base_config(tmp_path)
    raw["forecasters"].append({
        "name": "llm-mock",
        "llm": {
            "style": "llmtime_chat",
            "decimals": 2,
            "decoding": {"num_samples": 2, "max_attempts_per_sample": 1},
            "adapter": {"type": "mock", "responses": ["0.5, " * 9 + "0.5"]},
        },
    })
    out = tmp_path / "out"

    def artifacts():
        lines = (out / "transcripts.jsonl").read_text().splitlines() if (out / "transcripts.jsonl").exists() else []
        return len(lines), [(r["forecaster"], r["report"] is not None) for r in _records(out)]

    run_experiment(config_from_dict(raw, base_dir=tmp_path))
    first = artifacts()
    run_experiment(config_from_dict(raw, base_dir=tmp_path))
    assert artifacts() == first == (2, [("naive", True), ("llm-mock", True)])
    raw["forecasters"] = [{"name": "other", "baseline": {"type": "last_value"}}]
    run_experiment(config_from_dict(raw, base_dir=tmp_path))
    assert artifacts() == (0, [("other", True)])
    assert not (out / "cost_comparison.txt").exists()


def test_a_rerun_removes_the_per_cell_report_files_of_earlier_versions(tmp_path):
    out = tmp_path / "out"
    (out / "reports").mkdir(parents=True)
    for stem in ("sine_naive", "sine_gone_v0.1_r2"):
        (out / "reports" / f"{stem}.json").write_text("{}")
    assert run_experiment(config_from_dict(_base_config(tmp_path), base_dir=tmp_path)).status == 0
    assert not (out / "reports").exists()
    # a directory that holds a file no run wrote keeps it
    (out / "reports").mkdir()
    (out / "reports" / "notes.txt").write_text("mine")
    (out / "reports" / "sine_naive.json").write_text("{}")
    run_experiment(config_from_dict(_base_config(tmp_path), base_dir=tmp_path))
    assert [p.name for p in (out / "reports").iterdir()] == ["notes.txt"]


def _sweep(tmp_path, values, replicates):
    raw = _base_config(tmp_path, noise={"kind": "gaussian", "sigma": 0.0, "seed": 3},
                       sweep={"parameter": "noise.sigma", "values": values, "replicates": replicates})
    raw["forecasters"].append({"name": "lin", "linear": {"max_epochs": 3}})
    return config_from_dict(raw, base_dir=tmp_path)


def test_a_sweep_writes_the_same_files_whatever_its_cell_count(tmp_path):
    files = []
    for values, replicates in (([0.0], 1), ([0.0, 0.05, 0.1], 3)):
        result = run_experiment(_sweep(tmp_path, values, replicates))
        assert len(_records(result.output_dir)) == 2 * len(values) * replicates
        files.append(sorted(p.relative_to(result.output_dir).as_posix()
                            for p in result.output_dir.rglob("*")))
    assert files[0] == files[1] == [
        "cells.jsonl", "manifest.json", "plots", "plots/noise_sweep.csv",
        "plots/noise_sweep_mean.csv", "plots/time_vs_mae.csv", "summary.csv"]


def test_write_views_reads_a_record_file_that_still_carries_report_stem(tmp_path):
    # cells.jsonl and its views as written by a version that also wrote reports/<report_stem>.json
    golden = Path(__file__).resolve().parent / "golden" / "records-with-report-stem"
    old = {p.relative_to(golden): p.read_bytes() for p in sorted(golden.rglob("*")) if p.is_file()}
    assert all("report_stem" in rec for rec in _records(golden))
    (tmp_path / "cells.jsonl").write_bytes(old[Path("cells.jsonl")])
    status, cost_lines = runner.write_views(tmp_path)
    assert status == 0
    assert cost_lines == old[Path("cost_comparison.txt")].decode().splitlines()
    assert {p.relative_to(tmp_path): p.read_bytes() for p in sorted(tmp_path.rglob("*"))
            if p.is_file()} == old


def test_an_interrupted_rerun_leaves_none_of_the_earlier_runs_files(tmp_path, monkeypatch):
    demo = Path(__file__).resolve().parents[1] / "configs" / "offline-demo.yaml"
    cfg = load_config(demo, overrides={"output_dir": str(tmp_path / "out")})
    out = cfg.output_dir
    written = [out / "summary.csv", out / "manifest.json", out / "plots" / "time_vs_mae.csv"]
    assert run_experiment(cfg).status == 0
    assert all(path.exists() for path in written)

    real_run_cell = runner._run_cell
    started = []

    def interrupted_run_cell(*args, **kwargs):
        started.append(None)
        if len(started) == 4:
            raise KeyboardInterrupt
        return real_run_cell(*args, **kwargs)

    monkeypatch.setattr(runner, "_run_cell", interrupted_run_cell)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg)
    assert len(started) == 4 and len(cfg.cells()) == 12
    assert [path.name for path in written if path.exists()] == []


def _demo(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "configs" / "offline-demo.yaml"
    return load_config(demo, overrides={"output_dir": str(tmp_path / "out")})


def test_an_interrupted_run_leaves_one_record_per_finished_cell(tmp_path, monkeypatch):
    cfg = _demo(tmp_path)
    out = cfg.output_dir
    real_run_cell = runner._run_cell
    started = []

    def interrupted_run_cell(*args, **kwargs):
        started.append(None)
        if len(started) == 4:
            raise KeyboardInterrupt
        return real_run_cell(*args, **kwargs)

    monkeypatch.setattr(runner, "_run_cell", interrupted_run_cell)
    unraisable = []  # a ResourceWarning raised while a file object is collected lands here
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)
        gc.collect()
        assert len((out / "cells.jsonl").read_text().splitlines()) == 3
        assert runner.write_views(out) == (0, [])
        gc.collect()
    assert [u.exc_value for u in unraisable] == []
    assert len(started) == 4 and len(cfg.cells()) == 12
    assert [r["forecaster"] for r in _csv_rows(out / "summary.csv")] == [
        "dlinear-s", "rlinear-s", "last-value"]
    assert json.loads((out / "manifest.json").read_text())["cells"] == 3


class OneChannelOnly(LastValueForecaster):
    def predict(self, window, horizon):
        if window.shape[1] > 1:
            raise ValueError("one channel only")
        return super().predict(window, horizon)


def _sweep_with_failures(tmp_path):
    """A two-value sweep whose first forecaster fails on the first of two datasets."""
    (tmp_path / "two.csv").write_text("".join(f"{i / 7:.6f},{(i % 9) / 3:.6f}\n" for i in range(100)))
    raw = _base_config(tmp_path)
    raw["datasets"].insert(0, {"name": "two", "csv": {"path": "two.csv"}})
    raw["forecasters"].insert(0, {"name": "one-channel", "baseline": {"type": "last_value"}})
    raw["noise"] = {"kind": "gaussian", "sigma": 0.0, "seed": 3}
    raw["sweep"] = {"parameter": "noise.sigma", "values": [0.0, 0.05], "replicates": 2}
    cfg = config_from_dict(raw, base_dir=tmp_path)
    picky, naive = cfg.forecasters
    return dataclasses.replace(cfg, forecasters=[dataclasses.replace(picky, baseline=OneChannelOnly),
                                                 naive])


@pytest.mark.parametrize("make_config", [_demo, _sweep_with_failures],
                         ids=["offline-demo", "sweep-with-failures"])
def test_write_views_rewrites_every_artifact_byte_for_byte(tmp_path, capsys, make_config):
    result = run_experiment(make_config(tmp_path))
    out = result.output_dir
    views = {path: path.read_bytes() for path in sorted(out.rglob("*"))
             if path.is_file() and path.name not in ("cells.jsonl", "transcripts.jsonl")}
    assert out / "summary.csv" in views and out / "manifest.json" in views
    for path in views:
        path.unlink()
    capsys.readouterr()
    assert main(["report", str(out)]) == result.status  # castlab report: write_views alone
    assert capsys.readouterr().out.splitlines() == result.cost_lines
    rewritten = {path: path.read_bytes() for path in sorted(out.rglob("*"))
                 if path.is_file() and path.name not in ("cells.jsonl", "transcripts.jsonl")}
    assert rewritten == views


_RECORD_KEYS = {"dataset", "forecaster", "family", "protocol", "metric_space", "sweep_parameter",
                "sweep_value", "replicate", "report", "error", "traceback"}


def test_a_cell_record_holds_the_cells_identity_report_and_error(tmp_path):
    result = run_experiment(_sweep_with_failures(tmp_path))
    out = result.output_dir
    records = _records(out)
    assert len(records) == len(result.results) == 16
    for rec, res in zip(records, result.results):
        assert set(rec) == _RECORD_KEYS
        assert (rec["dataset"], rec["forecaster"], rec["sweep_value"], rec["replicate"]) == (
            res.cell.dataset.name, res.cell.forecaster.name, res.cell.sweep_value,
            res.cell.replicate)
        assert type(rec["sweep_value"]) is float and rec["sweep_parameter"] == "noise.sigma"
        if res.report is None:
            assert rec["report"] is None and rec["error"] == res.error
        else:  # the whole report, per-channel metrics and cost too, lives in the record
            assert rec["report"] == json.loads(json.dumps(res.report.to_dict()))
            assert rec["error"] is None
    failed = [(r["dataset"], r["forecaster"], r["sweep_value"], r["replicate"])
              for r in records if r["report"] is None]
    manifest = json.loads(result.manifest_path.read_text())
    assert len(failed) == manifest["failed"] == 4
    assert [(e["dataset"], e["forecaster"], e["sweep_value"], e["replicate"])
            for e in manifest["errors"]] == failed
    # forecaster-major, as the grid lists them, though "two" fails only one-channel's cells
    means = _csv_rows(out / "plots" / "noise_sweep_mean.csv")
    assert [(m["forecaster"], m["value"], m["runs"]) for m in means] == [
        ("one-channel", "0.0", "2"), ("one-channel", "0.05", "2"),
        ("naive", "0.0", "4"), ("naive", "0.05", "4")]


def test_write_views_of_an_empty_record_file(tmp_path):
    (tmp_path / "cells.jsonl").write_text("")
    assert runner.write_views(tmp_path) == (0, [])
    assert (tmp_path / "summary.csv").read_text().splitlines() == [",".join(runner.SUMMARY_COLUMNS)]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (manifest["cells"], manifest["failed"], manifest["errors"]) == (0, 0, [])


def test_run_experiment_with_mock_llm_and_transcript(tmp_path):
    raw = _base_config(tmp_path)
    raw["forecasters"].append({
        "name": "llm-mock",
        "llm": {
            "style": "llmtime_chat",
            "decimals": 2,
            "decoding": {"num_samples": 2, "max_attempts_per_sample": 2},
            "adapter": {"type": "mock", "responses": ["0.5, " * 9 + "0.5"]},
        },
    })
    cfg = config_from_dict(raw, base_dir=tmp_path)
    result = run_experiment(cfg)
    assert result.status == 0
    transcript = cfg.output_dir / "transcripts.jsonl"
    assert transcript.exists()
    lines = transcript.read_text().splitlines()
    assert len(lines) == 2  # one prompt, two samples
    rows = _csv_rows(result.summary_path)
    families = {r["forecaster"]: r["family"] for r in rows}
    assert families == {"naive": "domain", "llm-mock": "llm"}


def test_sweep_emits_plot_files_and_replicates(tmp_path):
    raw = _base_config(tmp_path)
    raw["noise"] = {"kind": "gaussian", "sigma": 0.0, "seed": 3}
    raw["sweep"] = {"parameter": "noise.sigma", "values": [0.0, 0.05], "replicates": 2}
    cfg = config_from_dict(raw, base_dir=tmp_path)
    result = run_experiment(cfg)
    assert result.status == 0
    sweep_rows = _csv_rows(cfg.output_dir / "plots" / "noise_sweep.csv")
    assert len(sweep_rows) == 4  # 2 values x 2 replicates x 1 dataset x 1 forecaster
    mean_rows = _csv_rows(cfg.output_dir / "plots" / "noise_sweep_mean.csv")
    assert len(mean_rows) == 2
    assert [float(r["value"]) for r in mean_rows] == [0.0, 0.05]
    assert all(int(r["runs"]) == 2 for r in mean_rows)


def test_rerun_is_deterministic_excluding_timings(tmp_path):
    raw = _base_config(tmp_path)
    raw["forecasters"] = [
        {"name": "dlin", "linear": {"variant": "dlinear", "max_epochs": 30,
                                    "decomposition_kernel": 9, "seed": 0}},
        {"name": "naive", "baseline": {"type": "last_value"}},
    ]

    def run_once(out):
        raw2 = dict(raw, output_dir=str(tmp_path / out))
        cfg = config_from_dict(raw2, base_dir=tmp_path)
        result = run_experiment(cfg)
        rows = _csv_rows(result.summary_path)
        assert all(r["mae"] for r in rows)  # every cell actually produced metrics
        for r in rows:
            for col in TIMING_COLUMNS:
                r.pop(col)
        return rows

    assert run_once("a") == run_once("b")


def test_a_sliding_mock_run_gives_one_summary_at_any_channel_concurrency(tmp_path):
    """A sample that spends all its attempts on undecodable replies drops out; which
    one it is is fixed by the script, not by how the pool's threads are scheduled."""
    t = np.arange(200.0)
    values = np.column_stack([np.sin(t / 4.0), np.cos(t / 7.0), t / 30.0])
    (tmp_path / "three.csv").write_text("".join(",".join(f"{v:.6f}" for v in row) + "\n"
                                                for row in values))
    script = ["no numbers", "1, 2, 3, 4, 5", "9, 8, 7, 6, 5", "still none", "4, 4, 4, 4, 4",
              "2, 7, 1, 8, 2"]
    raw = _base_config(tmp_path, protocol="sliding", task={"input_length": 20, "output_length": 5})
    raw["datasets"] = [{"name": "three", "csv": {"path": "three.csv"}}]
    raw["noise"] = {"kind": "gaussian", "sigma": 0.05, "seed": 2}

    def summary(channel_concurrency):
        raw["output_dir"] = str(tmp_path / f"out-{channel_concurrency}")
        raw["forecasters"] = [{"name": "llm-mock", "llm": {
            "decimals": 1, "channel_concurrency": channel_concurrency,
            "decoding": {"num_samples": 3, "max_attempts_per_sample": 2},
            "adapter": {"type": "mock", "responses": script}}}]
        result = run_experiment(config_from_dict(raw, base_dir=tmp_path))
        rows = _csv_rows(result.summary_path)
        assert result.status == 0 and rows[0]["mae"] and int(rows[0]["window_count"]) > 10
        for row in rows:
            for col in TIMING_COLUMNS:
                row.pop(col)
        return rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert summary(1) == summary(3) == summary(1)
    finally:
        sys.setswitchinterval(interval)


def test_cost_comparison_written_for_llm_runs(tmp_path):
    raw = _base_config(tmp_path)
    raw["forecasters"] = [
        {"name": "dlin", "linear": {"variant": "dlinear", "max_epochs": 30,
                                    "decomposition_kernel": 9, "seed": 0}},
        {"name": "naive", "baseline": {"type": "last_value"}},
        {"name": "llm-mock", "llm": {
            "style": "llmtime_chat", "decimals": 2,
            "decoding": {"num_samples": 2, "max_attempts_per_sample": 1},
            "adapter": {"type": "mock", "responses": [", ".join(["0.5"] * 10)]},
        }},
    ]
    cfg = config_from_dict(raw, base_dir=tmp_path)
    result = run_experiment(cfg)
    assert result.status == 0
    text = (cfg.output_dir / "cost_comparison.txt").read_text()
    assert "C_LLM < C_Domain" in text
    assert "C_LLM = " in text
    assert "C_LLM < C_Linear" in text
    assert result.cost_lines and result.cost_lines[0].startswith("C_LLM")


def test_sliding_mock_llm_report_does_not_depend_on_concurrency_or_scheduling(tmp_path):
    (tmp_path / "three.csv").write_text("".join(
        f"{i / 7:.6f},{(i % 9) / 3:.6f},{(i * i % 13) / 5:.6f}\n" for i in range(160)))
    script = [", ".join(str((7 * r + 3 * k) % 11) for k in range(10)) for r in range(5)]
    script.insert(2, "no numbers here")  # one undecodable reply, so some sample retries

    def summary(concurrency, out):
        raw = _base_config(tmp_path, protocol="sliding", output_dir=str(tmp_path / out))
        raw["datasets"] = [{"name": "three", "csv": {"path": "three.csv"}}]
        raw["forecasters"] = [{"name": "llm-mock", "llm": {
            "style": "llmtime_chat",
            "decimals": 2,
            "channel_concurrency": concurrency,
            "decoding": {"num_samples": 3, "max_attempts_per_sample": 2},
            "adapter": {"type": "mock", "responses": script},
        }}]
        result = run_experiment(config_from_dict(raw, base_dir=tmp_path))
        with open(result.summary_path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert int(row["window_count"]) > 1
        return row["mae"], row["mse"]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = {summary(c, f"c{c}-{r}") for c in (1, 4) for r in range(3)}
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == 1
