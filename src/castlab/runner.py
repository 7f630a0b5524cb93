"""Experiment orchestration: run each cell of the config's grid, record each one.

A cell comes from ``ExperimentConfig.cells()`` with its noise spec already
built, so the runner only loads datasets, runs cells and writes records.

Outputs under ``output_dir``:

* ``cells.jsonl``: one JSON line per finished cell, appended as the cell
  ends: its identity, its full EvalReport dict (or null) and its error and
  traceback (or null). It is the one file that holds a cell's report.
  Every file below but the transcript is a view of these records, written
  by ``write_views``, which an interrupted run's partial file also feeds.
* ``summary.csv``: one row per cell (and per sweep value/replicate), with
  metric and timing columns. Timing columns are inherently nondeterministic
  and are excluded from golden-file comparisons.
* ``manifest.json``: run status plus every error, once, with identifiers
  and the traceback.
* ``plots/time_vs_mae.csv``: scatter data of compute cost against MAE.
* ``plots/noise_sweep.csv`` (sweeps only): per-cell rows, and
  ``plots/noise_sweep_mean.csv`` with replicate/dataset-averaged curves.
* ``cost_comparison.txt`` (LLM runs only): the two cost-efficiency
  inequalities with explicit pass/fail verdicts.
* ``transcripts.jsonl``: raw LLM traffic when any LLM forecaster runs.

Before its first cell, every run removes these files as an earlier run into
the same directory left them, and the per-cell ``reports/*.json`` of older
versions, so the directory holds one run's outputs, also when interrupted.
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Cell, ExperimentConfig, build_forecaster
from .data_io import generate_function_series, load_csv
from .errors import RecordError
from .eval import CostRecord, EvalReport, compare_cost_families, run_last_sample, run_sliding
from .llm.adapters import TranscriptWriter
from .series import TimeSeries

SUMMARY_COLUMNS = (
    "dataset",
    "forecaster",
    "family",
    "protocol",
    "metric_space",
    "sweep_parameter",
    "sweep_value",
    "replicate",
    "window_count",
    "mae",
    "mse",
    "train_seconds",
    "infer_seconds",
)

TIMING_COLUMNS = ("train_seconds", "infer_seconds")
PLOT_COLUMNS = ("total_seconds", "infer_seconds", "mae", "dataset", "forecaster", "family")
SWEEP_COLUMNS = ("parameter", "value", "forecaster", "dataset", "replicate", "mae", "mse")
SWEEP_MEAN_COLUMNS = ("parameter", "value", "forecaster", "mean_mae", "mean_mse", "runs")


@dataclass
class CellResult:
    cell: Cell
    report: EvalReport | None = None
    error: str | None = None
    traceback: str | None = None


@dataclass
class ExperimentResult:
    status: int
    output_dir: Path
    results: list[CellResult]
    summary_path: Path
    manifest_path: Path
    cost_lines: list[str]


def _failure(exc: Exception) -> tuple[str, str]:
    """The manifest's ``error`` and ``traceback`` of the exception being handled."""
    return f"{type(exc).__name__}: {exc}", traceback.format_exc()


def _run_cell(
    config: ExperimentConfig,
    cell: Cell,
    series: TimeSeries | tuple[str, str],
    transcript: TranscriptWriter | None,
) -> CellResult:
    """One cell on its dataset's shared series, or failed with the dataset's load failure."""
    result = CellResult(cell=cell)
    forecaster = None
    try:
        # a forecaster that cannot be built is the cell's error, ahead of its dataset's
        forecaster = build_forecaster(cell.forecaster, transcript)
        if not isinstance(series, TimeSeries):
            result.error, result.traceback = series
            return result
        runner = run_last_sample if config.protocol == "last_sample" else run_sliding
        result.report = runner(
            series,
            config.task,
            forecaster,
            split=config.split,
            metric_space=config.metric_space,
            dataset_name=cell.dataset.name,
            noise=cell.noise,
            noise_filter=config.noise_filter,
        )
    except Exception as exc:  # one cell's failure is itemized, never fatal to the batch
        result.error, result.traceback = _failure(exc)
    finally:
        if forecaster is not None:
            forecaster.close()
    return result


def _record(config: ExperimentConfig, res: CellResult) -> dict:
    """The cell's line of cells.jsonl: its identity, its report dict and its error."""
    c = res.cell
    return {"dataset": c.dataset.name, "forecaster": c.forecaster.name,
            "family": c.forecaster.family, "protocol": config.protocol,
            "metric_space": config.metric_space,
            "sweep_parameter": config.sweep.parameter if config.sweep else None,
            "sweep_value": c.sweep_value, "replicate": c.replicate,
            "report": None if res.report is None else res.report.to_dict(),
            "error": res.error, "traceback": res.traceback}


def _row(rec: dict) -> dict:
    """Every column a record fills in summary.csv and the plot CSVs, formatted once."""
    parameter = rec["sweep_parameter"] or ""
    value = "" if rec["sweep_value"] is None else repr(rec["sweep_value"])
    # parameter and value are noise_sweep.csv's names
    row = dict(rec, sweep_parameter=parameter, sweep_value=value, parameter=parameter, value=value)
    if rec["report"] is not None:
        report = rec["report"]
        row["cost"] = cost = CostRecord(**report["cost"])
        row.update(window_count=report["window_count"], mae=repr(report["mae"]),
                   mse=repr(report["mse"]), train_seconds=f"{cost.train_seconds:.6f}",
                   infer_seconds=f"{cost.infer_seconds:.6f}",
                   total_seconds=f"{cost.total_seconds:.6f}")
    return row


def _write_rows(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    """``rows`` projected on ``columns``; a row's missing columns are left empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_views(output_dir: Path) -> tuple[int, list[str]]:
    """Write every artifact but the transcript from ``output_dir/cells.jsonl``.

    Returns the status (0 when no record has an error, 1 otherwise) and the
    lines of cost_comparison.txt, empty when no LLM cell succeeded. A
    malformed record file raises RecordError before any view is written.
    """
    out = Path(output_dir)
    lines = (out / "cells.jsonl").read_text(encoding="utf-8").splitlines()
    try:
        records = [json.loads(line) for line in lines]
        rows = [_row(rec) for rec in records]
        ok = [row for row in rows if row["report"] is not None]
        costs: dict[str, list[CostRecord]] = {}
        for row in ok:
            costs.setdefault(row["family"], []).append(row["cost"])
        errors = [{key: rec[key] for key in ("dataset", "forecaster", "sweep_value", "replicate",
                                             "error", "traceback")}
                  for rec in records if rec["error"] is not None]
        first = records[0] if records else {"protocol": None, "metric_space": None}
        manifest = {"status": "errors" if errors else "ok", "cells": len(records),
                    "failed": len(errors), "protocol": first["protocol"],
                    "metric_space": first["metric_space"], "errors": errors}
    except (ValueError, KeyError, TypeError) as exc:
        raise RecordError(f"{out / 'cells.jsonl'} is not a record file: "
                          f"{type(exc).__name__}: {exc}") from None

    _write_rows(out / "summary.csv", SUMMARY_COLUMNS, rows)
    (out / "plots").mkdir(exist_ok=True)
    _write_rows(out / "plots" / "time_vs_mae.csv", PLOT_COLUMNS, ok)
    if rows and rows[0]["parameter"]:
        _write_rows(out / "plots" / "noise_sweep.csv", SWEEP_COLUMNS, ok)
        # replicate- and dataset-averaged curve per forecaster and value; keyed over every
        # cell, failed ones too, so the rows come forecaster-major as the grid lists them
        groups = {(row["forecaster"], row["value"]): [] for row in rows}
        for row in ok:
            groups[row["forecaster"], row["value"]].append(row["report"])
        means = [{"parameter": rows[0]["parameter"], "value": value, "forecaster": fc,
                  "mean_mae": repr(float(np.mean([rep["mae"] for rep in reports]))),
                  "mean_mse": repr(float(np.mean([rep["mse"] for rep in reports]))),
                  "runs": len(reports)}
                 for (fc, value), reports in groups.items() if reports]
        _write_rows(out / "plots" / "noise_sweep_mean.csv", SWEEP_MEAN_COLUMNS, means)

    cost_lines = []
    if "llm" in costs:
        cost_lines = compare_cost_families(costs["llm"], costs.get("domain"),
                                           costs.get("linear")).lines()
        (out / "cost_comparison.txt").write_text("\n".join(cost_lines) + "\n", encoding="utf-8")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return (0 if not errors else 1), cost_lines


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full grid; collect errors instead of failing mid-batch.

    Three steps: remove an earlier run's files, run the cells while
    appending each one's record to cells.jsonl as it ends, then
    ``write_views``. Cells run in ``config.cells()`` order, which lists each
    dataset's cells together: a dataset is loaded when its first cell comes
    up and shared by its cells, so one series is held at a time, and a
    dataset that fails to load fails each of its cells. Returns status 0
    when every cell succeeded, 1 otherwise; the manifest itemizes each
    failed cell exactly once.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    # before the first cell, so an interrupted run leaves none of an earlier run's files
    stale = [out / name for name in ("cells.jsonl", "summary.csv", "manifest.json",
                                     "transcripts.jsonl", "cost_comparison.txt")]
    stale += [out / "plots" / name for name in
              ("time_vs_mae.csv", "noise_sweep.csv", "noise_sweep_mean.csv")]
    reports = out / "reports"  # one file per cell, written by earlier versions
    for path in [*stale, *reports.glob("*.json")]:
        path.unlink(missing_ok=True)
    if reports.is_dir() and not any(reports.iterdir()):  # keep files no run wrote
        reports.rmdir()

    uses_llm = any(f.llm is not None for f in config.forecasters)
    transcript = TranscriptWriter(out / "transcripts.jsonl") if uses_llm else None

    results: list[CellResult] = []
    dataset = series = None
    try:
        with open(out / "cells.jsonl", "w", encoding="utf-8") as records:
            for cell in config.cells():
                if cell.dataset is not dataset:  # the grid lists each dataset's cells together
                    dataset, series = cell.dataset, None  # drop the last series before loading
                    try:
                        series = (load_csv(**dataset.csv) if dataset.csv is not None
                                  else generate_function_series(dataset.function))
                    except Exception as exc:  # each of the dataset's cells fails with it
                        series = _failure(exc)
                res = _run_cell(config, cell, series, transcript)
                results.append(res)
                records.write(json.dumps(_record(config, res), separators=(",", ":")) + "\n")
                records.flush()
    finally:
        if transcript is not None:
            transcript.close()

    status, cost_lines = write_views(out)
    return ExperimentResult(status, out, results, out / "summary.csv", out / "manifest.json",
                            cost_lines)
