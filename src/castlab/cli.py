"""Command-line entry points.

Subcommands:

* ``run <config.yaml>``: full config-driven experiment; ``--dry-run`` only
  validates the config.
* ``report <output_dir>``: rewrite a run's summary, manifest, plots and
  cost comparison from its ``cells.jsonl`` and exit with the run's status.
* ``diff <run_a> <run_b>``: print the first 20 differences between two runs'
  outputs, then their count; exit 0 if none, 1 if some, 2 if a run is unreadable.
* ``generate-functions <specs.yaml> <out_dir>``: write synthetic function
  series as plain CSVs.
* ``inject-noise`` / ``filter``: corrupt or smooth a CSV series.
* ``fit-linear``: fit a single-shot linear model on the most recent window
  of a CSV series and save it as JSON.
* ``eval``: run one forecaster on one CSV under either protocol and print
  the report as JSON.

A flag left out is absent, not a default: each command builds its specs
from the flags given, so every default is the library's own.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from .config import (
    BASELINE_TYPES,
    ExperimentConfig,
    build_forecaster,
    build_spec,
    forecaster_from_dict,
    load_config,
    read_yaml,
)
from .data_io import CSV_LAYOUTS, FunctionSpec, generate_function_series, load_csv, write_csv
from .errors import CastlabError, ConfigError, SeriesTooShortError
from .eval import METRIC_SPACES, PROTOCOLS, run_last_sample, run_sliding
from .linear import LOSSES, VARIANTS, LinearModelConfig, fit_single_shot, save_model
from .noise import FILTER_KINDS, NOISE_KINDS, FilterSpec, NoiseSpec, apply_filter, inject_noise
from .runner import diff_runs, run_experiment, write_views
from .series import ForecastTask, SplitSpec, TimeSeries


def keys_for(make, mapping: dict) -> dict:
    """The items of ``mapping`` whose keys name a parameter of ``make``."""
    parameters = inspect.signature(make).parameters
    return {k: v for k, v in mapping.items() if k in parameters}


def _spec(make, args: argparse.Namespace, context: str):
    """``make`` built from the given flags that name its fields."""
    return build_spec(make, keys_for(make, vars(args)), context)


def _load(args: argparse.Namespace) -> TimeSeries:
    return load_csv(args.input, **keys_for(load_csv, vars(args)))


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--layout", choices=CSV_LAYOUTS)


def _add_io_args(parser: argparse.ArgumentParser) -> None:
    _add_input_args(parser)
    parser.add_argument("--output", required=True, help="output CSV path")


def _add_task_args(parser: argparse.ArgumentParser) -> None:
    _add_input_args(parser)
    parser.add_argument("--input-length", dest="input_length", type=int, required=True)
    parser.add_argument("--output-length", dest="output_length", type=int, required=True)


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config, keys_for(ExperimentConfig, vars(args)))
    if "dry_run" in args:
        print(f"config OK: {len(config.datasets)} dataset(s), {len(config.forecasters)} forecaster(s), "
              f"{len(config.cells())} cell(s)")
        return 0
    result = run_experiment(config)
    print(f"summary: {result.summary_path}")
    print(f"manifest: {result.manifest_path}")
    for line in result.cost_lines:
        print(line)
    failed = sum(1 for r in result.results if r.error is not None)
    if failed:
        print(f"{failed} cell(s) failed; see manifest", file=sys.stderr)
    return result.status


def _cmd_report(args: argparse.Namespace) -> int:
    status, cost_lines = write_views(Path(args.output_dir))
    for line in cost_lines:
        print(line)
    return status


def _cmd_diff(args: argparse.Namespace) -> int:
    diffs = diff_runs(Path(args.run_a), Path(args.run_b))
    print("\n".join([*diffs[:20], f"{len(diffs)} difference(s)"]))
    return 1 if diffs else 0


def _cmd_generate_functions(args: argparse.Namespace) -> int:
    raw = read_yaml(Path(args.specs))
    if not (isinstance(raw, list) and raw and all(isinstance(entry, dict) for entry in raw)):
        raise ConfigError("specs file must contain a non-empty list of function-spec mappings")
    specs: dict[str, FunctionSpec] = {}  # output stem -> spec, all checked before any write
    for entry in raw:
        spec = build_spec(FunctionSpec, {k: v for k, v in entry.items() if k != "name"}, "function spec")
        stem = entry.get("name", spec.kind)
        if not (isinstance(stem, str) and stem and Path(stem).name == stem):
            raise ConfigError(f"function spec name must be a file name without a path, got {stem!r}")
        if stem in specs:
            raise ConfigError(f"two function specs would write {stem}.csv")
        specs[stem] = spec
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, spec in specs.items():
        print(f"wrote {write_csv(generate_function_series(spec), out_dir / f'{stem}.csv')}")
    return 0


def _cmd_inject_noise(args: argparse.Namespace) -> int:
    write_csv(inject_noise(_load(args), _spec(NoiseSpec, args, "noise spec")), args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    write_csv(apply_filter(_load(args), _spec(FilterSpec, args, "filter spec")), args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_fit_linear(args: argparse.Namespace) -> int:
    config = _spec(LinearModelConfig, args, "linear config")
    task = _spec(ForecastTask, args, "task")
    series = _load(args)
    if series.length < task.input_length:
        raise SeriesTooShortError(f"series has {series.length} rows, need input_length={task.input_length}")
    window = series.segment(series.length - task.input_length, series.length)
    model = fit_single_shot(window, task, config)
    save_model(model, args.save)
    stats = model.training_stats
    print(
        f"saved {args.save} (train_loss={stats.train_loss:.6g}, "
        f"val_loss={stats.val_loss:.6g}, epochs={stats.epochs_run})"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    given = vars(args)
    # the model flags go to the entry as given, so one the forecaster does not take is an error
    model = {k: given[k] for k in ("degree", "period", "seed") if k in given}
    if args.forecaster in VARIANTS:
        body = {"linear": {**model, "variant": args.forecaster}}
    else:
        body = {"baseline": {**model, "type": args.forecaster}}
    entry = forecaster_from_dict({"name": args.forecaster, **body}, Path("."))
    task = _spec(ForecastTask, args, "task")
    split = _spec(SplitSpec, args, "split")
    series = _load(args)
    runner = run_sliding if given.get("protocol") == "sliding" else run_last_sample
    report = runner(
        series,
        task,
        build_forecaster(entry),
        split=split,
        dataset_name=Path(args.input).stem,
        **{k: v for k, v in given.items() if k == "metric_space"},
    )
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="castlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, about: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=about, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p_run = command("run", _cmd_run, "run a config-driven experiment")
    p_run.add_argument("config")
    p_run.add_argument("--dry-run", action="store_true", help="validate the config and exit")
    p_run.add_argument("--protocol", choices=PROTOCOLS)
    p_run.add_argument("--metric-space", dest="metric_space", choices=METRIC_SPACES)
    p_run.add_argument("--output-dir", dest="output_dir")

    command("report", _cmd_report, "rewrite a run's views from its cells.jsonl").add_argument("output_dir")
    p_diff = command("diff", _cmd_diff, "compare two runs' outputs outside wall-clock fields")
    p_diff.add_argument("run_a")
    p_diff.add_argument("run_b")

    p_gen = command("generate-functions", _cmd_generate_functions, "write synthetic function CSVs")
    p_gen.add_argument("specs", help="YAML list of function specs")
    p_gen.add_argument("out_dir")

    p_noise = command("inject-noise", _cmd_inject_noise, "corrupt a CSV series")
    _add_io_args(p_noise)
    p_noise.add_argument("--kind", required=True, choices=NOISE_KINDS)
    for flag in ("--sigma", "--epsilon", "--contamination", "--amplitude", "--frequency"):
        p_noise.add_argument(flag, type=float)
    p_noise.add_argument("--seed", type=int)

    p_filter = command("filter", _cmd_filter, "smooth a CSV series")
    _add_io_args(p_filter)
    p_filter.add_argument("--kind", required=True, choices=FILTER_KINDS)
    p_filter.add_argument("--kernel-sigma", dest="kernel_sigma", type=float)
    p_filter.add_argument("--alpha", type=float)

    p_fit = command("fit-linear", _cmd_fit_linear, "fit a single-shot linear model")
    _add_task_args(p_fit)
    p_fit.add_argument("--variant", choices=VARIANTS)
    p_fit.add_argument("--loss", choices=LOSSES)
    p_fit.add_argument("--learning-rate", dest="learning_rate", type=float)
    p_fit.add_argument("--max-epochs", dest="max_epochs", type=int)
    p_fit.add_argument("--patience", type=int)
    p_fit.add_argument("--kernel", dest="decomposition_kernel", type=int)
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--save", required=True, help="where to write the model JSON")

    p_eval = command("eval", _cmd_eval, "evaluate one forecaster on one CSV")
    _add_task_args(p_eval)
    p_eval.add_argument("--forecaster", default=VARIANTS[0], choices=VARIANTS + BASELINE_TYPES)
    p_eval.add_argument("--degree", type=int)
    p_eval.add_argument("--period", type=int)
    p_eval.add_argument("--protocol", choices=PROTOCOLS)
    p_eval.add_argument("--metric-space", dest="metric_space", choices=METRIC_SPACES)
    p_eval.add_argument("--test-fraction", dest="test_fraction", type=float)
    p_eval.add_argument("--val-fraction", dest="val_fraction", type=float)
    p_eval.add_argument("--seed", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CastlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
