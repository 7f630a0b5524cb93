import argparse
import json
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
    assert "config OK" in capsys.readouterr().out
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
    # two cells that would write one report file
    "sweep-values-repeat": ({"noise": {"kind": "gaussian", "sigma": 0.0},
                             "sweep": {"parameter": "noise.sigma", "values": [0.1, 0.1]}},
                            ["reports/sine_naive_v0.1.json"]),
    "forecaster-stems-collide": ({"forecasters": [{"name": "a b", "baseline": {"type": "last_value"}},
                                                  {"name": "a-b", "baseline": {"type": "last_value"}}]},
                                 ["'a b'", "'a-b'", "reports/sine_a-b.json"]),
    "dataset-forecaster-stems-collide": ({  # a_b x c and a x b_c both write a_b_c.json
        "datasets": [{"name": n, "function": {"kind": "sine", "length": 80}} for n in ("a_b", "a")],
        "forecasters": [{"name": n, "baseline": {"type": "last_value"}} for n in ("c", "b_c")],
    }, ["('a_b', 'c', None, 0)", "('a', 'b_c', None, 0)", "reports/a_b_c.json"]),
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
    "fit-linear-kernel-4": (["fit-linear", "--input", "{csv}", "--input-length", "64",
                             "--output-length", "16", "--kernel", "4", "--save", "{tmp}/m.json"], None),
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
