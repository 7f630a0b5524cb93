"""Command-line entry points.

Subcommands:

* ``run <config.yaml>``: full config-driven experiment; ``--dry-run`` only
  validates the config.
* ``generate-functions <specs.yaml> <out_dir>``: write synthetic function
  series as plain CSVs.
* ``inject-noise`` / ``filter``: corrupt or smooth a CSV series.
* ``fit-linear``: fit a single-shot linear model on the most recent window
  of a CSV series and save it as JSON.
* ``eval``: run one forecaster on one CSV under either protocol and print
  the report as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import build_forecaster, build_spec, forecaster_from_dict, load_config, read_yaml
from .data_io import FunctionSpec, generate_function_series, load_csv, write_csv
from .errors import CastlabError, ConfigError, SeriesTooShortError
from .eval import run_last_sample, run_sliding
from .linear import VARIANTS, LinearModelConfig, fit_single_shot, save_model
from .noise import FilterSpec, NoiseSpec, apply_filter, inject_noise
from .runner import run_experiment
from .series import ForecastTask, SplitSpec


def _add_io_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--layout", default="plain", choices=("plain", "informer"))
    parser.add_argument("--output", required=True, help="output CSV path")


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {
        "protocol": args.protocol,
        "metric_space": args.metric_space,
        "output_dir": args.output_dir,
    }
    config = load_config(args.config, overrides)
    if args.dry_run:
        print(f"config OK: {len(config.datasets)} dataset(s), {len(config.forecasters)} forecaster(s)")
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


def _cmd_generate_functions(args: argparse.Namespace) -> int:
    raw = read_yaml(Path(args.specs))
    if not (isinstance(raw, list) and raw and all(isinstance(entry, dict) for entry in raw)):
        raise ConfigError("specs file must contain a non-empty list of function-spec mappings")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for entry in raw:
        fields = dict(entry)
        name = fields.pop("name", None)
        spec = build_spec(FunctionSpec, fields, "function spec")
        series = generate_function_series(spec)
        path = write_csv(series, out_dir / f"{name or spec.kind}.csv")
        print(f"wrote {path}")
    return 0


def _cmd_inject_noise(args: argparse.Namespace) -> int:
    series = load_csv(args.input, layout=args.layout)
    spec = NoiseSpec(
        kind=args.kind,
        sigma=args.sigma,
        epsilon=args.epsilon,
        contamination=args.contamination,
        amplitude=args.amplitude,
        frequency=args.frequency,
        seed=args.seed,
    )
    write_csv(inject_noise(series, spec), args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    series = load_csv(args.input, layout=args.layout)
    spec = FilterSpec(kind=args.kind, kernel_sigma=args.kernel_sigma, alpha=args.alpha)
    write_csv(apply_filter(series, spec), args.output)
    print(f"wrote {args.output}")
    return 0


def _task(args: argparse.Namespace) -> ForecastTask:
    return build_spec(ForecastTask, {"input_length": args.input_length,
                                     "output_length": args.output_length}, "task")


def _cmd_fit_linear(args: argparse.Namespace) -> int:
    config = build_spec(LinearModelConfig, {
        "variant": args.variant,
        "loss": args.loss,
        "learning_rate": args.learning_rate,
        "max_epochs": args.max_epochs,
        "patience": args.patience,
        "decomposition_kernel": args.kernel,
        "seed": args.seed,
    }, "linear config")
    task = _task(args)
    series = load_csv(args.input, layout=args.layout)
    if series.length < args.input_length:
        raise SeriesTooShortError(f"series has {series.length} rows, need input_length={args.input_length}")
    window = series.segment(series.length - args.input_length, series.length)
    model = fit_single_shot(window, task, config)
    save_model(model, args.save)
    stats = model.training_stats
    print(
        f"saved {args.save} (train_loss={stats.train_loss:.6g}, "
        f"val_loss={stats.val_loss:.6g}, epochs={stats.epochs_run})"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.forecaster in VARIANTS:
        body = {"linear": {"variant": args.forecaster, "seed": args.seed}}
    else:
        body = {"baseline": {"type": args.forecaster, "degree": args.degree, "period": args.period}}
    entry = forecaster_from_dict({"name": args.forecaster, **body}, Path("."))
    task = _task(args)
    split = build_spec(SplitSpec, {"test_fraction": args.test_fraction,
                                   "val_fraction": args.val_fraction}, "split")
    series = load_csv(args.input, layout=args.layout)
    runner = run_last_sample if args.protocol == "last_sample" else run_sliding
    report = runner(
        series,
        task,
        build_forecaster(entry),
        split=split,
        metric_space=args.metric_space,
        dataset_name=Path(args.input).stem,
    )
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="castlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config-driven experiment")
    p_run.add_argument("config")
    p_run.add_argument("--dry-run", action="store_true", help="validate the config and exit")
    p_run.add_argument("--protocol", choices=("last_sample", "sliding"))
    p_run.add_argument("--metric-space", dest="metric_space", choices=("standardized", "raw"))
    p_run.add_argument("--output-dir", dest="output_dir")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("generate-functions", help="write synthetic function CSVs")
    p_gen.add_argument("specs", help="YAML list of function specs")
    p_gen.add_argument("out_dir")
    p_gen.set_defaults(func=_cmd_generate_functions)

    p_noise = sub.add_parser("inject-noise", help="corrupt a CSV series")
    _add_io_args(p_noise)
    p_noise.add_argument("--kind", required=True,
                         choices=("gaussian", "constant", "missing", "freq_add", "freq_replace"))
    p_noise.add_argument("--sigma", type=float, default=0.0)
    p_noise.add_argument("--epsilon", type=float, default=None)
    p_noise.add_argument("--contamination", type=float, default=0.1)
    p_noise.add_argument("--amplitude", type=float, default=None)
    p_noise.add_argument("--frequency", type=float, default=5.0)
    p_noise.add_argument("--seed", type=int, default=0)
    p_noise.set_defaults(func=_cmd_inject_noise)

    p_filter = sub.add_parser("filter", help="smooth a CSV series")
    _add_io_args(p_filter)
    p_filter.add_argument("--kind", required=True, choices=("gaussian_kernel", "ema"))
    p_filter.add_argument("--kernel-sigma", dest="kernel_sigma", type=float, default=1.0)
    p_filter.add_argument("--alpha", type=float, default=0.3)
    p_filter.set_defaults(func=_cmd_filter)

    p_fit = sub.add_parser("fit-linear", help="fit a single-shot linear model")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--layout", default="plain", choices=("plain", "informer"))
    p_fit.add_argument("--input-length", dest="input_length", type=int, required=True)
    p_fit.add_argument("--output-length", dest="output_length", type=int, required=True)
    p_fit.add_argument("--variant", default="dlinear", choices=("dlinear", "rlinear"))
    p_fit.add_argument("--loss", default="l2", choices=("l1", "l2"))
    p_fit.add_argument("--learning-rate", dest="learning_rate", type=float, default=1e-2)
    p_fit.add_argument("--max-epochs", dest="max_epochs", type=int, default=500)
    p_fit.add_argument("--patience", type=int, default=20)
    p_fit.add_argument("--kernel", type=int, default=25)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--save", required=True, help="where to write the model JSON")
    p_fit.set_defaults(func=_cmd_fit_linear)

    p_eval = sub.add_parser("eval", help="evaluate one forecaster on one CSV")
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--layout", default="plain", choices=("plain", "informer"))
    p_eval.add_argument("--input-length", dest="input_length", type=int, required=True)
    p_eval.add_argument("--output-length", dest="output_length", type=int, required=True)
    p_eval.add_argument(
        "--forecaster",
        default="dlinear",
        choices=("dlinear", "rlinear", "last_value", "seasonal_repeat", "polynomial"),
    )
    p_eval.add_argument("--degree", type=int, default=12)
    p_eval.add_argument("--period", type=int, default=24)
    p_eval.add_argument("--protocol", default="last_sample", choices=("last_sample", "sliding"))
    p_eval.add_argument("--metric-space", dest="metric_space", default="standardized",
                        choices=("standardized", "raw"))
    p_eval.add_argument("--test-fraction", dest="test_fraction", type=float, default=0.2)
    p_eval.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.0)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=_cmd_eval)

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
