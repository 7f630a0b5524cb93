import csv
import dataclasses
import inspect
import json
import sys
import threading

import pytest
import yaml

from castlab import LlmPromptForecaster
from castlab.config import (
    LlmForecasterConfig,
    config_from_dict,
    load_config,
)
from castlab.errors import ConfigError
from castlab import runner
from castlab.runner import TIMING_COLUMNS, run_experiment


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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


def test_integral_floats_load_as_ints(tmp_path):
    raw = _base_config(tmp_path, task={"input_length": 40.0, "output_length": 10})
    raw["noise"] = {"kind": "gaussian", "sigma": 0.0, "seed": 3.0}
    raw["sweep"] = {"parameter": "noise.sigma", "values": [0.0], "replicates": 2.0}
    raw["forecasters"] = [{"name": "lin", "linear": {"max_epochs": 3.0, "seed": 1.0}}]
    cfg = config_from_dict(raw, base_dir=tmp_path)
    ints = (cfg.task.input_length, cfg.noise.seed, cfg.sweep.replicates,
            cfg.forecasters[0].linear.max_epochs, cfg.forecasters[0].linear.seed)
    assert ints == (40, 3, 2, 3, 1) and all(type(v) is int for v in ints)


# config dataclass -> the constructor it feeds, with {config field: constructor parameter}
_MIRRORED_DEFAULTS = {
    "llm": (LlmForecasterConfig, LlmPromptForecaster,
            {k: k for k in ("style", "decimals", "shots", "channel_concurrency")}),
}


@pytest.mark.parametrize("config,make,pairs", _MIRRORED_DEFAULTS.values(), ids=_MIRRORED_DEFAULTS.keys())
def test_config_defaults_are_the_constructor_defaults(config, make, pairs):
    defaults = {f.name: f.default for f in dataclasses.fields(config)}
    parameters = inspect.signature(make).parameters
    assert {k: defaults[k] for k in pairs} == {k: parameters[p].default for k, p in pairs.items()}


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
    reports = list((cfg.output_dir / "reports").glob("*.json"))
    assert len(reports) == 1


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

    loads = []
    real_load_csv = runner.load_csv

    def counting_load_csv(path, layout="plain"):
        loads.append(path.name)
        return real_load_csv(path, layout=layout)

    monkeypatch.setattr(runner, "load_csv", counting_load_csv)
    for _ in range(2):
        loads.clear()
        result = run_experiment(cfg)
        assert sorted(loads) == ["bad.csv", "good.csv"]
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
        return len(lines), sorted(p.name for p in (out / "reports").glob("*.json"))

    run_experiment(config_from_dict(raw, base_dir=tmp_path))
    first = artifacts()
    run_experiment(config_from_dict(raw, base_dir=tmp_path))
    assert artifacts() == first == (2, ["sine_llm-mock.json", "sine_naive.json"])
    raw["forecasters"] = [{"name": "other", "baseline": {"type": "last_value"}}]
    run_experiment(config_from_dict(raw, base_dir=tmp_path))
    assert artifacts() == (0, ["sine_other.json"])
    assert not (out / "cost_comparison.txt").exists()


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
