import argparse
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from castlab import (
    FilterSpec,
    ForecastTask,
    LinearModelConfig,
    NoiseSpec,
    apply_filter,
    fit_single_shot,
    inject_noise,
    load_csv,
    load_model,
    save_model,
    validate_series,
    write_csv,
)
from castlab.cli import build_parser, main
from castlab.config import BASELINE_TYPES, build_forecaster, config_from_dict
from castlab.data_io import CSV_LAYOUTS
from castlab.eval import METRIC_SPACES, PROTOCOLS
from castlab.linear import LOSSES, VARIANTS
from castlab.noise import FILTER_KINDS, NOISE_KINDS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _write_series(tmp_path, name="series.csv", n=120):
    t = np.arange(n, dtype=float)
    values = np.column_stack([np.sin(2 * np.pi * t / 24), 0.01 * t])
    path = tmp_path / name
    write_csv(validate_series(values, names=["s", "trend"]), path)
    return path


def test_generate_functions(tmp_path, capsys):
    specs = [
        {"name": "sine-clean", "kind": "sine", "length": 64, "noise_std": 0.0, "seed": 0},
        {"kind": "sigmoid", "length": 64},
    ]
    spec_path = tmp_path / "specs.yaml"
    spec_path.write_text(yaml.safe_dump(specs))
    out_dir = tmp_path / "fns"
    assert main(["generate-functions", str(spec_path), str(out_dir)]) == 0
    sine = load_csv(out_dir / "sine-clean.csv")
    assert sine.length == 64
    assert (out_dir / "sigmoid.csv").exists()


def test_inject_noise_and_filter_round(tmp_path):
    src = _write_series(tmp_path)
    noisy = tmp_path / "noisy.csv"
    assert main([
        "inject-noise", "--input", str(src), "--output", str(noisy),
        "--kind", "gaussian", "--sigma", "0.1", "--seed", "4",
    ]) == 0
    out = load_csv(noisy)
    assert out.length == 120
    assert not np.array_equal(out.values, load_csv(src).values)

    smooth = tmp_path / "smooth.csv"
    assert main([
        "filter", "--input", str(noisy), "--output", str(smooth),
        "--kind", "ema", "--alpha", "0.3",
    ]) == 0
    assert load_csv(smooth).length == 120


def test_fit_linear_saves_model(tmp_path):
    src = _write_series(tmp_path)
    model_path = tmp_path / "model.json"
    code = main([
        "fit-linear", "--input", str(src), "--input-length", "64",
        "--output-length", "16", "--variant", "dlinear", "--max-epochs", "40",
        "--kernel", "5", "--save", str(model_path),
    ])
    assert code == 0
    model = load_model(model_path)
    assert model.variant == "dlinear"
    assert model.inner_input == 8


@pytest.mark.parametrize("command,kind", [("inject-noise", k) for k in NOISE_KINDS]
                         + [("filter", k) for k in FILTER_KINDS])
def test_noise_and_filter_flags_left_out_are_the_library_defaults(tmp_path, command, kind):
    src = _write_series(tmp_path)
    assert main([command, "--input", str(src), "--output", str(tmp_path / "cli.csv"), "--kind", kind]) == 0
    change = inject_noise if command == "inject-noise" else apply_filter
    spec = NoiseSpec(kind=kind) if command == "inject-noise" else FilterSpec(kind=kind)
    write_csv(change(load_csv(src), spec), tmp_path / "library.csv")
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_fit_linear_flags_left_out_are_the_library_defaults(tmp_path):
    src = _write_series(tmp_path, n=240)
    assert main(["fit-linear", "--input", str(src), "--input-length", "192", "--output-length", "48",
                 "--save", str(tmp_path / "cli.json")]) == 0
    series = load_csv(src)
    model = fit_single_shot(series.segment(240 - 192, 240), ForecastTask(192, 48), LinearModelConfig())
    save_model(model, tmp_path / "library.json")
    assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "library.json").read_bytes()


# (command, flag dest) -> the module constant its choices must be
_CHOICES = {
    ("run", "protocol"): PROTOCOLS,
    ("run", "metric_space"): METRIC_SPACES,
    **{(command, "layout"): CSV_LAYOUTS for command in ("inject-noise", "filter", "fit-linear", "eval")},
    ("inject-noise", "kind"): NOISE_KINDS,
    ("filter", "kind"): FILTER_KINDS,
    ("fit-linear", "variant"): VARIANTS,
    ("fit-linear", "loss"): LOSSES,
    ("eval", "forecaster"): VARIANTS + BASELINE_TYPES,
    ("eval", "protocol"): PROTOCOLS,
    ("eval", "metric_space"): METRIC_SPACES,
}


def test_cli_restates_no_choice_list_and_no_default():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {(name, a.dest): a for name, p in sub.choices.items() for a in p._actions}
    assert {key: a.choices for key, a in flags.items() if a.choices is not None} == _CHOICES
    defaults = {key: a.default for key, a in flags.items() if a.default is not argparse.SUPPRESS}
    assert defaults == {("eval", "forecaster"): VARIANTS[0]}


def test_shipped_configs_load(tmp_path, capsys):
    assert main(["run", str(CONFIGS / "offline-demo.yaml"), "--dry-run"]) == 0
    assert capsys.readouterr().out == "config OK: 3 dataset(s), 4 forecaster(s), 12 cell(s)\n"
    assert main(["generate-functions", str(CONFIGS / "function-specs.yaml"), str(tmp_path)]) == 0
    names = {"sine", "sine-noisy", "linear", "quadratic", "exponential", "sigmoid", "beat"}
    assert {p.name for p in tmp_path.glob("*.csv")} == {f"{n}.csv" for n in names}


def test_eval_prints_report(tmp_path, capsys):
    src = _write_series(tmp_path)
    code = main([
        "eval", "--input", str(src), "--input-length", "24", "--output-length", "6",
        "--forecaster", "last_value", "--metric-space", "raw",
        "--test-fraction", "0.5",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["forecaster_name"] == "last_value"
    assert report["protocol"] == "last_sample"
    assert report["mae"] >= 0.0


def test_seasonal_repeat_without_a_period_runs_at_period_24(tmp_path, capsys):
    config = config_from_dict({
        "task": {"input_length": 48, "output_length": 6},
        "datasets": [{"name": "sine", "function": {"kind": "sine", "length": 80}}],
        "forecasters": [{"name": "season", "baseline": {"type": "seasonal_repeat"}}]})
    assert build_forecaster(config.forecasters[0]).period == 24
    src = _write_series(tmp_path)
    reports = []
    for period in ([], ["--period", "24"], ["--period", "12"]):
        assert main(["eval", "--input", str(src), "--input-length", "48", "--output-length", "6",
                     "--test-fraction", "0.5", "--forecaster", "seasonal_repeat", *period]) == 0
        reports.append({k: v for k, v in json.loads(capsys.readouterr().out).items() if k != "cost"})
    assert reports[0] == reports[1] != reports[2]


def test_run_dry_run_and_errors(tmp_path, capsys):
    config = {
        "output_dir": str(tmp_path / "out"),
        "metric_space": "raw",
        "split": {"test_fraction": 0.5},
        "task": {"input_length": 20, "output_length": 5},
        "datasets": [{"name": "sine", "function": {"kind": "sine", "length": 80}}],
        "forecasters": [{"name": "naive", "baseline": {"type": "last_value"}}],
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["run", str(cfg_path), "--dry-run"]) == 0
    assert "config OK" in capsys.readouterr().out

    missing = tmp_path / "nope.yaml"
    assert main(["run", str(missing)]) == 2


def test_run_dry_run_rejects_bad_mock_fixture(tmp_path, capsys):
    (tmp_path / "bad.json").write_text('{"not": "a list"}')
    config = {
        "output_dir": str(tmp_path / "out"),
        "task": {"input_length": 20, "output_length": 5},
        "datasets": [{"name": "sine", "function": {"kind": "sine", "length": 80}}],
        "forecasters": [{"name": "llm", "llm": {"style": "llmtime_chat",
                                                "adapter": {"type": "mock", "fixture": "bad.json"}}}],
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["run", str(cfg_path), "--dry-run"]) != 0
    captured = capsys.readouterr()
    assert "config OK" not in captured.out
    assert "bad.json" in captured.err


def test_run_full_cycle(tmp_path):
    config = {
        "output_dir": str(tmp_path / "out"),
        "metric_space": "raw",
        "split": {"test_fraction": 0.5},
        "task": {"input_length": 20, "output_length": 5},
        "datasets": [{"name": "sine", "function": {"kind": "sine", "length": 80}}],
        "forecasters": [{"name": "naive", "baseline": {"type": "last_value"}}],
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_run_with_a_failed_cell_says_so_and_exits_1(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("a,b\n1,2\n3,oops\n")
    config = {
        "output_dir": str(tmp_path / "out"),
        "task": {"input_length": 20, "output_length": 5},
        "datasets": [{"name": "bad", "csv": {"path": "bad.csv"}}],
        "forecasters": [{"name": "naive", "baseline": {"type": "last_value"}}],
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["run", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "1 cell(s) failed; see manifest\n"
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["errors"][0]["error"].startswith(
        "ParseError")


def _llm_entry(**fields):
    return {"name": "llm", "llm": {"adapter": {"type": "mock", "responses": ["1"]}, **fields}}


_HTTP_OK = {"type": "http", "endpoint": "http://localhost:9/v1", "model": "m"}
_HTTP = {**_HTTP_OK, "timeout_seconds": "fast"}

# (config changes, or a whole non-mapping root; substrings stderr must name)
_BAD_CONFIGS = {
    "channel-concurrency-many": ({"forecasters": [_llm_entry(channel_concurrency="many")]},
                                 ["channel_concurrency"]),
    "timeout-fast": ({"forecasters": [_llm_entry(adapter=_HTTP)]}, ["timeout_seconds"]),
    "linear-without-body": ({"forecasters": [{"name": "lin", "linear": None}]}, ["'lin'", "linear"]),
    "root-is-a-list": (["datasets", "forecasters"], ["config root"]),
    "output-dir-5": ({"output_dir": 5}, ["output_dir"]),
    "csv-path-5": ({"datasets": [{"name": "c", "csv": {"path": 5}}]}, ["'c'", "csv path"]),
    "fixture-5": ({"forecasters": [_llm_entry(adapter={"type": "mock", "fixture": 5})]}, ["mock fixture"]),
    "sweep-value-x": ({"noise": {"kind": "gaussian", "sigma": 0.0},
                       "sweep": {"parameter": "noise.sigma", "values": [0.1, "x"]}}, ["sweep value"]),
    # sweep values the noise spec rejects
    "sweep-sigma-negative": ({"noise": {"kind": "gaussian", "sigma": 0.0},
                              "sweep": {"parameter": "noise.sigma", "values": [0.0, -1.0]}},
                             ["noise.sigma", "-1.0"]),
    "sweep-contamination-2": ({"noise": {"kind": "constant"},
                               "sweep": {"parameter": "noise.contamination", "values": [0.1, 2.0]}},
                              ["noise.contamination", "2.0"]),
    # values only a forecaster's constructor rejects
    "period-0": ({"forecasters": [{"name": "season", "baseline": {"type": "seasonal_repeat",
                                                                   "period": 0}}]}, ["'season'", "period"]),
    "degree-0": ({"forecasters": [{"name": "poly", "baseline": {"type": "polynomial", "degree": 0}}]},
                 ["'poly'", "degree"]),
    "fit-span-at-degree": ({"forecasters": [{"name": "poly", "baseline": {
        "type": "polynomial", "degree": 4, "fit_span": 4}}]}, ["'poly'", "fit_span"]),
    "channel-concurrency-0": ({"forecasters": [_llm_entry(channel_concurrency=0)]},
                              ["'llm'", "channel_concurrency"]),
    "decimals-negative": ({"forecasters": [_llm_entry(decimals=-1)]}, ["'llm'", "decimals"]),
    "shots-0": ({"forecasters": [_llm_entry(style="ts_incontext", shots=0)]}, ["'llm'", "shots"]),
    "shots-0-unused-style": ({"forecasters": [_llm_entry(shots=0)]}, ["'llm'", "shots"]),
    # http adapter fields, checked before any call is made
    "endpoint-5": ({"forecasters": [_llm_entry(adapter={**_HTTP_OK, "endpoint": 5})]}, ["endpoint", "5"]),
    "endpoint-without-scheme": ({"forecasters": [_llm_entry(adapter={**_HTTP_OK, "endpoint": "localhost:8000"})]},
                                ["endpoint", "localhost:8000"]),
    "model-empty": ({"forecasters": [_llm_entry(adapter={**_HTTP_OK, "model": ""})]}, ["model"]),
    "api-key-env-5": ({"forecasters": [_llm_entry(adapter={**_HTTP_OK, "api_key_env": 5})]}, ["api_key_env"]),
    "timeout-0": ({"forecasters": [_llm_entry(adapter={**_HTTP_OK, "timeout_seconds": 0})]},
                  ["'llm'", "timeout_seconds"]),
    "timeout-negative": ({"forecasters": [_llm_entry(adapter={**_HTTP_OK, "timeout_seconds": -1.5})]},
                         ["'llm'", "timeout_seconds", "-1.5"]),
    # a key the entry's type does not take
    "last-value-degree": ({"forecasters": [{"name": "naive", "baseline": {"type": "last_value", "degree": 3}}]},
                          ["'naive'", "'degree'"]),
    "seasonal-fit-span": ({"forecasters": [{"name": "season", "baseline": {"type": "seasonal_repeat",
                                                                            "fit_span": 2}}]},
                          ["'season'", "'fit_span'"]),
    "baseline-name": ({"forecasters": [{"name": "naive", "baseline": {"type": "last_value", "name": "x"}}]},
                      ["'naive'", "takes no key 'name'"]),
    "http-responses": ({"forecasters": [_llm_entry(adapter={**_HTTP_OK, "responses": ["1"]})]},
                       ["'llm'", "'responses'"]),
    "mock-endpoint": ({"forecasters": [_llm_entry(adapter={"type": "mock", "responses": ["1"],
                                                           "endpoint": "http://localhost:9/v1"})]},
                      ["'llm'", "'endpoint'"]),
    "mock-fixture-and-responses": ({"forecasters": [_llm_entry(adapter={"type": "mock", "responses": ["1"],
                                                                        "fixture": "replies.json"})]},
                                   ["'llm'", "'fixture'", "'responses'"]),
    "http-session": ({"forecasters": [_llm_entry(adapter={**_HTTP_OK, "session": None})]},
                     ["'llm'", "'session'"]),
    # a key no section or entry takes, one case per section at least
    "llm-key-typo": ({"forecasters": [_llm_entry(decimal=2)]}, ["'llm'", "'decimal'"]),
    "multi-turn-false": ({"forecasters": [_llm_entry(multi_turn=False)]}, ["'llm'", "'multi_turn'"]),
    "decoding-key-typo": ({"forecasters": [_llm_entry(decoding={"samples": 3})]},
                          ["'llm'", "decoding", "'samples'"]),
    "sweep-key-typo": ({"noise": {"kind": "gaussian", "sigma": 0.0},
                        "sweep": {"parameter": "noise.sigma", "values": [0.1], "replicate": 3}},
                       ["sweep", "'replicate'"]),
    "csv-key-typo": ({"datasets": [{"name": "c", "csv": {"path": "c.csv", "layuot": "informer"}}]},
                     ["'c'", "csv", "'layuot'"]),
    "function-key-typo": ({"datasets": [{"name": "sine", "function": {"kind": "sine", "wavelength": 3}}]},
                          ["'sine'", "function spec", "'wavelength'"]),
    "linear-key-typo": ({"forecasters": [{"name": "lin", "linear": {"epochs": 3}}]},
                        ["'lin'", "linear config", "'epochs'"]),
    "task-key-typo": ({"task": {"input_length": 20, "output_length": 5, "horizon": 5}}, ["task", "'horizon'"]),
    "split-key-typo": ({"split": {"test_fraction": 0.5, "val_frac": 0.1}}, ["split", "'val_frac'"]),
    "noise-key-typo": ({"noise": {"kind": "gaussian", "sd": 0.1}}, ["noise spec", "'sd'"]),
    "filter-key-typo": ({"filter": {"kind": "ema", "alfa": 0.3}}, ["filter spec", "'alfa'"]),
    "dataset-csv-and-function": ({"datasets": [{"name": "both", "csv": {"path": "c.csv"},
                                                "function": {"kind": "sine", "length": 80}}]},
                                 ["'both'", "'csv'", "'function'"]),
    "dataset-unknown-key": ({"datasets": [{"name": "sine", "function": {"kind": "sine", "length": 80},
                                           "seasonality": 24}]}, ["'sine'", "'seasonality'"]),
    "forecaster-unknown-key": ({"forecasters": [{"name": "naive", "baseline": {"type": "last_value"},
                                                 "linaer": {"seed": 0}}]}, ["'naive'", "'linaer'"]),
    # names must be non-empty strings
    "dataset-name-1": ({"datasets": [{"name": 1, "function": {"kind": "sine", "length": 80}}]},
                       ["dataset entry name", "1"]),
    "dataset-name-list": ({"datasets": [{"name": ["a"], "function": {"kind": "sine", "length": 80}}]},
                          ["dataset entry name", "['a']"]),
    "forecaster-name-empty": ({"forecasters": [{"name": "", "baseline": {"type": "last_value"}}]},
                              ["forecaster entry name"]),
    # int fields take integral numbers only
    "max-epochs-2.5": ({"forecasters": [{"name": "lin", "linear": {"max_epochs": 2.5}}]},
                       ["'lin'", "max_epochs", "2.5"]),
    "max-epochs-true": ({"forecasters": [{"name": "lin", "linear": {"max_epochs": True}}]},
                        ["'lin'", "max_epochs", "True"]),
    "linear-seed-1.5": ({"forecasters": [{"name": "lin", "linear": {"seed": 1.5}}]},
                        ["'lin'", "seed", "1.5"]),
    "input-length-48.5": ({"task": {"input_length": 48.5, "output_length": 5}}, ["task input_length"]),
    "replicates-2.5": ({"noise": {"kind": "gaussian", "sigma": 0.0},
                        "sweep": {"parameter": "noise.sigma", "values": [0.1], "replicates": 2.5}},
                       ["sweep replicates", "2.5"]),
    "shots-true": ({"forecasters": [_llm_entry(shots=True)]}, ["'llm' shots"]),
    # numeric fields take numbers, not strings
    "linear-seed-abc": ({"forecasters": [{"name": "lin", "linear": {"seed": "abc"}}]},
                        ["'lin'", "seed", "'abc'"]),
    "noise-seed-x": ({"noise": {"kind": "gaussian", "seed": "x"}}, ["noise spec seed", "'x'"]),
    "function-seed-x": ({"datasets": [{"name": "sine", "function": {"kind": "sine", "length": 80,
                                                                    "seed": "x"}}]},
                        ["'sine'", "function spec seed", "'x'"]),
    "noise-sigma-quoted": ({"noise": {"kind": "gaussian", "sigma": "0.1"}}, ["noise spec sigma", "'0.1'"]),
    "input-length-quoted": ({"task": {"input_length": "40", "output_length": 5}},
                            ["task input_length", "'40'"]),
    # two cells with one identity
    "sweep-values-repeat": ({"noise": {"kind": "gaussian", "sigma": 0.0},
                             "sweep": {"parameter": "noise.sigma", "values": [0.1, 0.1]}},
                            ["sweep", "values must be distinct, 0.1 repeats"]),
}


@pytest.mark.parametrize("changes,named", _BAD_CONFIGS.values(), ids=_BAD_CONFIGS.keys())
def test_dry_run_rejects_each_bad_value_by_name(tmp_path, capsys, changes, named):
    config = changes if isinstance(changes, list) else {
        "task": {"input_length": 20, "output_length": 5},
        "datasets": [{"name": "sine", "function": {"kind": "sine", "length": 80}}],
        "forecasters": [{"name": "naive", "baseline": {"type": "last_value"}}],
        **changes,
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["run", str(cfg_path), "--dry-run"]) == 2
    captured = capsys.readouterr()
    assert "config OK" not in captured.out
    for name in named:
        assert name in captured.err


# names whose report files once collided: "a b" and "a-b"; a_b x c and a x b_c
_ONCE_COLLIDING = {
    "forecasters": (["sine"], ["a b", "a-b"]),
    "dataset-and-forecaster": (["a_b", "a"], ["c", "b_c"]),
}


@pytest.mark.parametrize("datasets,forecasters", _ONCE_COLLIDING.values(), ids=_ONCE_COLLIDING.keys())
def test_once_colliding_names_run_to_one_record_per_cell(tmp_path, datasets, forecasters):
    config = {
        "output_dir": str(tmp_path / "out"),
        "split": {"test_fraction": 0.5},
        "task": {"input_length": 20, "output_length": 5},
        "datasets": [{"name": n, "function": {"kind": "sine", "length": 80}} for n in datasets],
        "forecasters": [{"name": n, "baseline": {"type": "last_value"}} for n in forecasters],
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["run", str(cfg_path)]) == 0
    lines = (tmp_path / "out" / "cells.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [(r["dataset"], r["forecaster"]) for r in records] == [
        (d, f) for d in datasets for f in forecasters]
    assert all(r["report"] is not None for r in records)


_BAD_RECORDS = {
    "not-json": '{"dataset": "sine"\n',
    "not-an-object": "[1, 2]\n",
    "missing-keys": '{"dataset": "sine", "forecaster": "naive"}\n',
    "report-without-cost": ('{"dataset": "sine", "forecaster": "naive", "family": "domain", '
                            '"protocol": "last_sample", "metric_space": "raw", '
                            '"sweep_parameter": null, "sweep_value": null, "replicate": 0, '
                            '"report": {"mae": 1.0}, "error": null, "traceback": null}\n'),
}


@pytest.mark.parametrize("content", [None, *_BAD_RECORDS.values()],
                         ids=["no-record-file", *_BAD_RECORDS.keys()])
def test_report_of_a_missing_or_malformed_record_file_is_an_error(tmp_path, capsys, content):
    if content is not None:
        (tmp_path / "cells.jsonl").write_text(content)
    assert main(["report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "cells.jsonl" in captured.err, captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if content is None else ["cells.jsonl"])


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Two runs of the offline demo, to be copied, never edited in place."""
    base = tmp_path_factory.mktemp("demo-runs")
    for name in ("a", "b"):
        assert main(["run", str(CONFIGS / "offline-demo.yaml"), "--output-dir", str(base / name)]) == 0
    return base / "a", base / "b"


def _edited_copy(run, tmp_path, name, edit):
    """A copy of ``run`` whose ``name`` file has its lines passed through ``edit``."""
    copy = Path(shutil.copytree(run, tmp_path / "edited"))
    lines = (copy / name).read_text().splitlines()
    (copy / name).write_text("".join(line + "\n" for line in edit(lines)))
    return copy


def _diff(capsys, run_a, run_b):
    capsys.readouterr()
    status = main(["diff", str(run_a), str(run_b)])
    return status, capsys.readouterr()


def test_diff_of_two_demo_runs_is_empty(demo_runs, capsys):
    status, printed = _diff(capsys, *demo_runs)
    assert (status, printed.out, printed.err) == (0, "0 difference(s)\n", "")


def test_diff_masks_wall_time_and_transcript_order(demo_runs, tmp_path, capsys):
    def shuffle(lines):  # other timestamps and latencies, in reverse order
        records = [json.loads(line) for line in reversed(lines)]
        for rec in records:
            rec["timestamp"] += 1.0
            rec["payload"]["latency_seconds"] = 0.5
        return [json.dumps(rec) for rec in records]

    def slower(lines):
        records = [json.loads(line) for line in lines]
        records[0]["report"]["cost"]["train_seconds"] += 1.0
        return [json.dumps(rec, separators=(",", ":")) for rec in records]

    a, b = demo_runs
    edited = _edited_copy(b, tmp_path, "transcripts.jsonl", shuffle)
    (edited / "cells.jsonl").write_text("".join(
        line + "\n" for line in slower((edited / "cells.jsonl").read_text().splitlines())))
    assert _diff(capsys, a, edited)[0] == 0


def test_diff_names_the_cell_whose_mae_moved_by_one_ulp(demo_runs, tmp_path, capsys):
    a, b = demo_runs
    moved = {}

    def one_ulp(lines):
        rec = json.loads(lines[5])
        moved.update(cell=(rec["dataset"], rec["forecaster"], rec["sweep_value"], rec["replicate"]),
                     mae=rec["report"]["mae"])
        rec["report"]["mae"] = float(np.nextafter(rec["report"]["mae"], np.inf))
        return lines[:5] + [json.dumps(rec, separators=(",", ":"))] + lines[6:]

    status, printed = _diff(capsys, a, _edited_copy(b, tmp_path, "cells.jsonl", one_ulp))
    after = float(np.nextafter(moved["mae"], np.inf))
    assert status == 1
    assert printed.out.splitlines() == [
        f"cell {moved['cell']!r}: report.mae: {moved['mae']!r} != {after!r}", "1 difference(s)"]


def test_diff_finds_an_edited_transcript_response(demo_runs, tmp_path, capsys):
    def edit(lines):
        rec = json.loads(lines[2])
        rec["payload"]["response"] += " 1.0"
        return lines[:2] + [json.dumps(rec)] + lines[3:]

    a, b = demo_runs
    status, printed = _diff(capsys, a, _edited_copy(b, tmp_path, "transcripts.jsonl", edit))
    out = printed.out.splitlines()
    assert status == 1 and out[-1] == "2 difference(s)"
    assert [line.split(": ")[:2] for line in out[:2]] == [
        ["transcripts.jsonl", f"only in {a}"], ["transcripts.jsonl", f"only in {tmp_path / 'edited'}"]]


def test_diff_names_a_cell_missing_from_one_run(demo_runs, tmp_path, capsys):
    a, b = demo_runs
    rec = json.loads((b / "cells.jsonl").read_text().splitlines()[7])
    cell = (rec["dataset"], rec["forecaster"], rec["sweep_value"], rec["replicate"])
    status, printed = _diff(capsys, a, _edited_copy(b, tmp_path, "cells.jsonl",
                                                    lambda lines: lines[:7] + lines[8:]))
    assert status == 1
    assert printed.out.splitlines() == [f"cell {cell!r}: only in {a}", "1 difference(s)"]


@pytest.mark.parametrize("edit", [lambda lines: lines[::-1], lambda lines: lines + lines[-1:]],
                         ids=["reversed", "last-repeated"])
def test_diff_finds_cells_in_another_order_or_repeated(demo_runs, tmp_path, capsys, edit):
    a, b = demo_runs
    status, printed = _diff(capsys, a, _edited_copy(b, tmp_path, "cells.jsonl", edit))
    assert status == 1 and printed.out.splitlines() == [
        "cells.jsonl: the cells come in another order, or one repeats", "1 difference(s)"]


_UNREADABLE = {  # the file edited, its edit, and what the error names
    "truncated-record": ("cells.jsonl", lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]],
                         "cells.jsonl"),
    "unknown-key": ("cells.jsonl", lambda lines: [lines[0][:-1] + ', "seed": 0}'] + lines[1:],
                    "cells.jsonl"),
    "transcript-not-json-lines": ("transcripts.jsonl", lambda lines: lines[:1] + ["not json"] + lines[1:],
                                  "not JSON lines"),
}


@pytest.mark.parametrize("name,edit,named", _UNREADABLE.values(), ids=_UNREADABLE.keys())
def test_diff_of_an_unreadable_run_is_an_error(demo_runs, tmp_path, capsys, name, edit, named):
    a, b = demo_runs
    status, printed = _diff(capsys, a, _edited_copy(b, tmp_path, name, edit))
    assert status == 2 and printed.out == ""
    assert printed.err.startswith("error:") and named in printed.err, printed.err


_EVAL = ["eval", "--input", "{csv}", "--output-length", "6"]
_GENERATE = ["generate-functions", "{specs}", "{tmp}/fns"]
_BAD_ARGS = {
    "eval-period-0": (_EVAL + ["--input-length", "24", "--forecaster", "seasonal_repeat",
                               "--period", "0"], None),
    "eval-degree-0": (_EVAL + ["--input-length", "24", "--forecaster", "polynomial",
                               "--degree", "0"], None),
    # a model flag the chosen forecaster does not take
    "eval-last-value-degree": (_EVAL + ["--input-length", "24", "--test-fraction", "0.5",
                                        "--forecaster", "last_value", "--degree", "3"], None),
    "eval-baseline-seed": (_EVAL + ["--input-length", "24", "--test-fraction", "0.5",
                                    "--forecaster", "seasonal_repeat", "--seed", "7"], None),
    "eval-dlinear-period": (["eval", "--input", "{csv}", "--input-length", "30", "--output-length", "26",
                             "--test-fraction", "0.5", "--forecaster", "dlinear", "--period", "12"], None),
    "eval-test-fraction-1.5": (_EVAL + ["--input-length", "24", "--test-fraction", "1.5"], None),
    "eval-input-length-0": (_EVAL + ["--input-length", "0"], None),
    "inject-noise-seed-negative": (["inject-noise", "--input", "{csv}", "--output", "{tmp}/noisy.csv",
                                    "--kind", "gaussian", "--sigma", "0.1", "--seed", "-1"], None),
    "fit-linear-kernel-4": (["fit-linear", "--input", "{csv}", "--input-length", "64",
                             "--output-length", "16", "--kernel", "4", "--save", "{tmp}/m.json"], None),
    # _write_series writes 120 rows
    "fit-linear-input-longer-than-series": (["fit-linear", "--input", "{csv}", "--input-length", "121",
                                             "--output-length", "16", "--save", "{tmp}/m.json"], None),
    "function-without-kind": (_GENERATE, [{"name": "nameless", "length": 64}]),
    "function-unknown-key": (_GENERATE, [{"kind": "sine", "wavelength": 3}]),
    "function-bare-string": (_GENERATE, ["sine"]),
    "specs-not-yaml": (_GENERATE, "- {kind: sine"),
    "function-name-escapes": (_GENERATE, [{"name": "../escaped", "kind": "sine", "length": 64}]),
    "function-name-5": (_GENERATE, [{"name": 5, "kind": "sine", "length": 64}]),
    "function-stems-repeat": (_GENERATE, [{"kind": "sine", "length": 64},
                                          {"name": "sine", "kind": "sine", "length": 64, "seed": 2}]),
}


@pytest.mark.parametrize("argv,specs", _BAD_ARGS.values(), ids=_BAD_ARGS.keys())
def test_bad_cli_input_is_an_error_not_a_traceback(tmp_path, capsys, argv, specs):
    (tmp_path / "specs.yaml").write_text(specs if isinstance(specs, str) else yaml.safe_dump(specs))
    paths = {"csv": _write_series(tmp_path), "specs": tmp_path / "specs.yaml", "tmp": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err
    assert not (tmp_path / "fns").exists() and not (tmp_path / "escaped.csv").exists()
