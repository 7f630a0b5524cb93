"""Experiment orchestration: run each cell of the config's grid, record each one.

A cell comes from ``ExperimentConfig.cells()`` with its noise spec already
built, so the runner only loads datasets, runs cells and writes records.
Each cell's outcome is a :class:`CellRecord`: its identity (``dataset``,
``forecaster``, ``family``, ``protocol``, ``metric_space``, ``sweep_parameter``,
``sweep_value``, ``replicate``), its ``report`` (an ``EvalReport``, None if it
failed), ``error`` and ``traceback`` (None if it did not).

Outputs under ``output_dir``:

* ``cells.jsonl``: each cell's ``CellRecord.to_json()`` line, appended as the
  cell ends; the one file that holds a cell's report. Every file below but the
  transcript is a view of it, written by ``write_views``, also after an interrupt.
* ``summary.csv``: one row per cell, with metric and timing columns.
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

``diff_runs`` (``castlab diff``: exit 0 if equal, 1 if not, 2 if a run is
unreadable) masks what runs of the same code may differ in: ``CellRecord.VOLATILE``
(``report.cost``, wall time, and ``traceback``) and ``TRANSCRIPT_VOLATILE``
(``timestamp`` and ``payload.latency_seconds``).
"""

from __future__ import annotations

import csv
import json
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterator

import numpy as np

from .config import Cell, ExperimentConfig, build_forecaster
from .data_io import generate_function_series, load_csv
from .errors import RecordError
from .eval import CostRecord, EvalReport, compare_cost_families, run_last_sample, run_sliding
from .llm.adapters import TranscriptWriter
from .series import TimeSeries

SUMMARY_COLUMNS = ("dataset", "forecaster", "family", "protocol", "metric_space", "sweep_parameter",
                   "sweep_value", "replicate", "window_count", "mae", "mse", "train_seconds",
                   "infer_seconds")
PLOT_COLUMNS = ("total_seconds", "infer_seconds", "mae", "dataset", "forecaster", "family")
SWEEP_COLUMNS = ("parameter", "value", "forecaster", "dataset", "replicate", "mae", "mse")
SWEEP_MEAN_COLUMNS = ("parameter", "value", "forecaster", "mean_mae", "mean_mse", "runs")


@dataclass(frozen=True)
class CellRecord:
    """One cell's outcome, in memory and, through ``to_json``/``from_json``, in cells.jsonl."""

    dataset: str
    forecaster: str
    family: str
    protocol: str
    metric_space: str
    sweep_parameter: str | None
    sweep_value: float | None
    replicate: int
    report: EvalReport | None
    error: str | None
    traceback: str | None

    VOLATILE: ClassVar[tuple[str, ...]] = ("report.cost", "traceback")

    def to_json(self) -> str:
        report = None if self.report is None else self.report.to_dict()
        return json.dumps(dict(vars(self), report=report), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> CellRecord:
        """The record of one cells.jsonl line; RecordError if it is not one, or has a key
        the record does not name, but for ``report_stem``, which earlier versions wrote."""
        try:
            fields = json.loads(line)
            fields.pop("report_stem", None)
            if (report := fields["report"]) is not None:
                fields["report"] = EvalReport(**{**report, "cost": CostRecord(**report["cost"]), **{
                    key: tuple(report[key]) for key in ("per_channel_mae", "per_channel_mse")}})
            return cls(**fields)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise RecordError(f"{type(exc).__name__}: {exc}") from None


@dataclass
class ExperimentResult:
    status: int
    output_dir: Path
    results: list[CellRecord]
    summary_path: Path
    manifest_path: Path
    cost_lines: list[str]


def _failure(exc: Exception) -> tuple[str, str]:
    """The manifest's ``error`` and ``traceback`` of the exception being handled."""
    return f"{type(exc).__name__}: {exc}", traceback.format_exc()


def _run_cell(config: ExperimentConfig, cell: Cell, series: TimeSeries | tuple[str, str],
              transcript: TranscriptWriter | None) -> CellRecord:
    """One cell on its dataset's shared series, or failed with the dataset's load failure."""
    report = forecaster = error = trace = None
    try:
        # a forecaster that cannot be built is the cell's error, ahead of its dataset's
        forecaster = build_forecaster(cell.forecaster, transcript)
        if not isinstance(series, TimeSeries):
            error, trace = series
        else:
            runner = run_last_sample if config.protocol == "last_sample" else run_sliding
            report = runner(series, config.task, forecaster, split=config.split,
                            metric_space=config.metric_space, dataset_name=cell.dataset.name,
                            noise=cell.noise, noise_filter=config.noise_filter)
    except Exception as exc:  # one cell's failure is itemized, never fatal to the batch
        error, trace = _failure(exc)
    finally:
        if forecaster is not None:
            forecaster.close()
    return CellRecord(cell.dataset.name, cell.forecaster.name, cell.forecaster.family,
                      config.protocol, config.metric_space, config.sweep and config.sweep.parameter,
                      cell.sweep_value, cell.replicate, report, error, trace)


def _records(output_dir: Path) -> list[CellRecord]:
    """The records of ``output_dir/cells.jsonl``; RecordError names the file and the line."""
    path, records = Path(output_dir) / "cells.jsonl", []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            records.append(CellRecord.from_json(line))
        except RecordError as exc:
            raise RecordError(f"{path} line {number} is not a cell record: {exc}") from None
    return records


def _row(rec: CellRecord) -> dict:
    """Every column a record fills in summary.csv and the plot CSVs, formatted once."""
    parameter = rec.sweep_parameter or ""
    value = "" if rec.sweep_value is None else repr(rec.sweep_value)
    # parameter and value are noise_sweep.csv's names
    row = dict(vars(rec), sweep_parameter=parameter, sweep_value=value, parameter=parameter,
               value=value)
    if rec.report is not None:
        report, cost = rec.report, rec.report.cost
        row.update(window_count=report.window_count, mae=repr(report.mae),
                   mse=repr(report.mse), train_seconds=f"{cost.train_seconds:.6f}",
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
    records = _records(out)
    rows = [_row(rec) for rec in records]
    ok = [row for row in rows if row["report"] is not None]
    costs: dict[str, list[CostRecord]] = {}
    for row in ok:
        costs.setdefault(row["family"], []).append(row["report"].cost)
    errors = [{key: getattr(rec, key) for key in ("dataset", "forecaster", "sweep_value",
                                                  "replicate", "error", "traceback")}
              for rec in records if rec.error is not None]
    manifest = {"status": "errors" if errors else "ok", "cells": len(records),
                "failed": len(errors), "protocol": records[0].protocol if records else None,
                "metric_space": records[0].metric_space if records else None, "errors": errors}

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
                  "mean_mae": repr(float(np.mean([rep.mae for rep in reports]))),
                  "mean_mse": repr(float(np.mean([rep.mse for rep in reports]))),
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


TRANSCRIPT_VOLATILE = ("timestamp", "payload.latency_seconds")


def _leaves(value, volatile: tuple[str, ...], key: str = "") -> Iterator[tuple[str, str]]:
    """Each (dotted key, JSON text) of ``value``'s leaves, the ``volatile`` keys left out."""
    if key in volatile:
        return
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, volatile, f"{key}.{name}" if key else name)
    else:
        yield key, json.dumps(value)


def diff_runs(run_a: Path, run_b: Path) -> list[str]:
    """Each difference between two runs' outputs, naming its cell and key (``report.mae``).

    Records pair by (dataset, forecaster, sweep_value, replicate) and compare
    exactly, as JSON text; a cell in one run only, or cells in another order,
    differ too. Transcripts compare as multisets, since their line order
    follows thread scheduling. RecordError or FileNotFoundError: a run cannot be read.
    """
    runs = (Path(run_a), Path(run_b))
    a, b = ([(f"cell {(r.dataset, r.forecaster, r.sweep_value, r.replicate)!r}", r)
             for r in _records(run)] for run in runs)
    cells_a, cells_b = dict(a), dict(b)
    diffs = [f"{cell}: only in {run}" for this, other, run in
             ((cells_a, cells_b, runs[0]), (cells_b, cells_a, runs[1])) for cell in this
             if cell not in other]
    if [cell for cell, _ in a if cell in cells_b] != [cell for cell, _ in b if cell in cells_a]:
        diffs.append("cells.jsonl: the cells come in another order, or one repeats")
    for cell in (cell for cell in cells_a if cell in cells_b):
        left, right = (dict(_leaves(json.loads(rec.to_json()), CellRecord.VOLATILE))
                       for rec in (cells_a[cell], cells_b[cell]))
        diffs += [f"{cell}: {key}: {left.get(key, '(absent)')} != {right.get(key, '(absent)')}"
                  for key in dict.fromkeys([*left, *right]) if left.get(key) != right.get(key)]
    try:  # each transcript's masked records as a multiset; a run with no LLM cell has none
        ta, tb = (Counter(tuple(sorted(_leaves(json.loads(line), TRANSCRIPT_VOLATILE)))
                          for line in path.read_text(encoding="utf-8").splitlines())
                  if path.exists() else Counter() for path in (run / "transcripts.jsonl" for run in runs))
    except ValueError as exc:
        raise RecordError(f"a transcript of {runs[0]} or {runs[1]} is not JSON lines: {exc}") from None
    for this, other, run in ((ta, tb, runs[0]), (tb, ta, runs[1])):
        # a record's keys in sorted order, which puts the prompt texts last
        diffs += [f"transcripts.jsonl: only in {run}: " + ", ".join(f"{k}={v}" for k, v in leaves)[:240]
                  for leaves in (this - other).elements()]
    return diffs


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

    results: list[CellRecord] = []
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
                rec = _run_cell(config, cell, series, transcript)
                results.append(rec)
                records.write(rec.to_json() + "\n")
                records.flush()
    finally:
        if transcript is not None:
            transcript.close()

    status, cost_lines = write_views(out)
    return ExperimentResult(status, out, results, out / "summary.csv", out / "manifest.json",
                            cost_lines)
