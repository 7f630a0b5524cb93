"""Experiment orchestration: run every dataset x forecaster cell, write reports.

Outputs under ``output_dir``:

* ``summary.csv``: one row per cell (and per sweep value/replicate), with
  metric and timing columns. Timing columns are inherently nondeterministic
  and are excluded from golden-file comparisons.
* ``reports/<...>.json``: full EvalReport per successful cell.
* ``manifest.json``: run status plus every error, once, with identifiers
  and the traceback.
* ``plots/time_vs_mae.csv``: scatter data of compute cost against MAE.
* ``plots/noise_sweep.csv`` (sweeps only): per-cell rows, and
  ``plots/noise_sweep_mean.csv`` with replicate/dataset-averaged curves.
* ``cost_comparison.txt`` (LLM runs only): the two cost-efficiency
  inequalities with explicit pass/fail verdicts.
* ``transcripts.jsonl``: raw LLM traffic when any LLM forecaster runs.

Every run removes these files as left by an earlier run into the same
directory before writing its own, so the directory holds one run's outputs.
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import Cell, DatasetConfig, ExperimentConfig, build_forecaster
from .data_io import generate_function_series, load_csv
from .eval import EvalReport, compare_cost_families, run_last_sample, run_sliding
from .llm.adapters import TranscriptWriter
from .noise import NoiseSpec
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


def _load_dataset(cfg: DatasetConfig) -> TimeSeries:
    if cfg.csv is not None:
        return load_csv(**cfg.csv)
    assert cfg.function is not None
    return generate_function_series(cfg.function)


def _cell_noise(config: ExperimentConfig, cell: Cell) -> NoiseSpec | None:
    noise = config.noise
    if noise is None:
        return None
    if cell.sweep_value is not None and config.sweep is not None:
        field = config.sweep.parameter.split(".", 1)[1]
        noise = replace(noise, **{field: cell.sweep_value})
    if cell.replicate:
        noise = replace(noise, seed=noise.seed + cell.replicate)
    return noise


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
            noise=_cell_noise(config, cell),
            noise_filter=config.noise_filter,
        )
    except Exception as exc:  # one cell's failure is itemized, never fatal to the batch
        result.error, result.traceback = _failure(exc)
    finally:
        if forecaster is not None:
            forecaster.close()
    return result


def _run_dataset(
    config: ExperimentConfig,
    dataset: DatasetConfig,
    cells: list[Cell],
    transcript: TranscriptWriter | None,
) -> list[CellResult]:
    """Load ``dataset`` once and run each of its ``cells`` on it.

    The series is dropped on return, so a run holds one dataset at a time.
    """
    try:
        series = _load_dataset(dataset)
    except Exception as exc:  # each of the dataset's cells fails with it
        series = _failure(exc)
    return [_run_cell(config, c, series, transcript) for c in cells]


def _cell_row(config: ExperimentConfig, res: CellResult) -> dict:
    """Every column a cell fills in summary.csv and the plot CSVs, formatted once."""
    c, report = res.cell, res.report
    parameter = config.sweep.parameter if config.sweep else ""
    value = "" if c.sweep_value is None else repr(c.sweep_value)
    row = {
        "dataset": c.dataset.name,
        "forecaster": c.forecaster.name,
        "family": c.forecaster.family,
        "protocol": config.protocol,
        "metric_space": config.metric_space,
        "sweep_parameter": parameter,
        "sweep_value": value,
        "parameter": parameter,  # noise_sweep.csv's names
        "value": value,
        "replicate": c.replicate,
    }
    if report is not None:
        row.update(window_count=report.window_count, mae=repr(report.mae), mse=repr(report.mse),
                   train_seconds=f"{report.cost.train_seconds:.6f}",
                   infer_seconds=f"{report.cost.infer_seconds:.6f}",
                   total_seconds=f"{report.cost.total_seconds:.6f}")
    return row


def _write_rows(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    """``rows`` projected on ``columns``; a row's missing columns are left empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def _write_plots(config: ExperimentConfig, results: list[CellResult], rows: list[dict],
                 plots_dir: Path) -> None:
    plots_dir.mkdir(parents=True, exist_ok=True)
    ok = [row for row, r in zip(rows, results) if r.report is not None]
    _write_rows(plots_dir / "time_vs_mae.csv", PLOT_COLUMNS, ok)
    if config.sweep is None:
        return
    _write_rows(plots_dir / "noise_sweep.csv", SWEEP_COLUMNS, ok)
    # Replicate- and dataset-averaged curve per forecaster, one row per value.
    means = []
    for fc in config.forecasters:
        for value in config.sweep.values:
            reports = [r.report for r in results if r.report is not None
                       and r.cell.forecaster.name == fc.name and r.cell.sweep_value == value]
            if reports:
                means.append({"parameter": config.sweep.parameter, "value": repr(value),
                              "forecaster": fc.name,
                              "mean_mae": repr(float(np.mean([rep.mae for rep in reports]))),
                              "mean_mse": repr(float(np.mean([rep.mse for rep in reports]))),
                              "runs": len(reports)})
    _write_rows(plots_dir / "noise_sweep_mean.csv", SWEEP_MEAN_COLUMNS, means)


def _cost_comparison_lines(results: list[CellResult]) -> list[str]:
    """The two cost-efficiency inequalities, when an LLM family ran."""
    by_family: dict[str, list] = {}
    for r in results:
        if r.report is not None:
            by_family.setdefault(r.cell.forecaster.family, []).append(r.report.cost)
    if "llm" not in by_family:
        return []
    comparison = compare_cost_families(
        llm_records=by_family["llm"],
        domain_records=by_family.get("domain"),
        linear_records=by_family.get("linear"),
    )
    return comparison.lines()


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full grid; collect errors instead of failing mid-batch.

    Cells run dataset by dataset; each dataset is loaded once and shared by
    its cells, and a dataset that fails to load fails each of its cells.
    Returns status 0 when every cell succeeded, 1 otherwise; the manifest
    itemizes each failed cell exactly once.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(exist_ok=True)
    stale = [out / "transcripts.jsonl", out / "cost_comparison.txt",
             out / "plots" / "noise_sweep.csv", out / "plots" / "noise_sweep_mean.csv"]
    for path in [*stale, *(out / "reports").glob("*.json")]:
        path.unlink(missing_ok=True)

    uses_llm = any(f.llm is not None for f in config.forecasters)
    transcript = TranscriptWriter(out / "transcripts.jsonl") if uses_llm else None

    cells = config.cells()
    results: list[CellResult] = []
    try:
        for ds in config.datasets:
            results += _run_dataset(config, ds, [c for c in cells if c.dataset is ds], transcript)
    finally:
        if transcript is not None:
            transcript.close()

    rows = [_cell_row(config, r) for r in results]
    summary_path = out / "summary.csv"
    _write_rows(summary_path, SUMMARY_COLUMNS, rows)

    for r in results:
        if r.report is not None:
            (out / "reports" / f"{r.cell.report_stem}.json").write_text(
                json.dumps(r.report.to_dict(), indent=2), encoding="utf-8"
            )

    _write_plots(config, results, rows, out / "plots")

    cost_lines = _cost_comparison_lines(results)
    if cost_lines:
        (out / "cost_comparison.txt").write_text("\n".join(cost_lines) + "\n", encoding="utf-8")

    errors = [
        {
            "dataset": r.cell.dataset.name,
            "forecaster": r.cell.forecaster.name,
            "sweep_value": r.cell.sweep_value,
            "replicate": r.cell.replicate,
            "error": r.error,
            "traceback": r.traceback,
        }
        for r in results
        if r.error is not None
    ]
    status = 0 if not errors else 1
    manifest = {
        "status": "ok" if status == 0 else "errors",
        "cells": len(results),
        "failed": len(errors),
        "protocol": config.protocol,
        "metric_space": config.metric_space,
        "errors": errors,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")

    return ExperimentResult(
        status=status,
        output_dir=out,
        results=results,
        summary_path=summary_path,
        manifest_path=manifest_path,
        cost_lines=cost_lines,
    )
