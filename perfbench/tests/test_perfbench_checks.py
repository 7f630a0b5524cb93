"""The benchmark's correctness checks, at a tiny size.

Each check must accept castlab's real output and reject a deliberately
wrong one: a perturbed metric, a wrong count, a missing row.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import workloads  # noqa: E402
from castlab import (  # noqa: E402
    ForecastTask,
    LastValueForecaster,
    LinearModelConfig,
    SeasonalRepeatForecaster,
    SplitSpec,
    TimeSeries,
    fit_single_shot,
    run_sliding,
)
from castlab.config import config_from_dict  # noqa: E402


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A two-family, five-epoch sweep-linear round and its output directory."""
    tmp = tmp_path_factory.mktemp("sweep")
    raw = workloads.sweep_linear_config(3, tmp / "out")
    raw["datasets"] = raw["datasets"][:2]
    raw["sweep"]["replicates"] = 2
    for f in raw["forecasters"][:2]:
        f["linear"].update(max_epochs=5, patience=5)
    work = workloads.GridRound("sweep-linear", config_from_dict(raw), {})
    out = tmp / "round"
    cost, failed = work.run(out)
    assert failed == 0 and cost > 0
    return work, out


def test_sweep_round_passes_its_checks(sweep):
    work, out = sweep
    assert work.check(out) == []


def test_missing_row_is_rejected(sweep):
    work, out = sweep
    rows = _read(out / "summary.csv")
    assert checks.check_rows(rows[:-1], work.cells, 1)
    assert checks.check_rows(rows, work.cells, 2)  # wrong window count


def test_sigma0_replicate_mismatch_is_rejected(sweep):
    _, out = sweep
    rows = _read(out / "summary.csv")
    assert checks.check_sigma0_replicates(rows) == []
    i = next(i for i, r in enumerate(rows) if r["sweep_value"] == "0.0" and r["replicate"] == "1")
    rows[i] = dict(rows[i], mae=repr(float(rows[i]["mae"]) * (1 + 1e-12)))
    assert checks.check_sigma0_replicates(rows)


def test_sweep_shape_is_enforced(sweep):
    _, out = sweep
    rows = _read(out / "summary.csv")
    bent = [dict(r, mae="0.0") if r["forecaster"] == "poly-brittle" and r["sweep_value"] == "0.05"
            else r for r in rows]
    assert checks.check_sweep_shape(bent, "poly-brittle", ("dlinear-s",))
    tilted = [dict(r, mae=repr(float(r["mae"]) * 2)) if r["forecaster"] == "dlinear-s"
              and r["sweep_value"] == "0.05" else r for r in rows]
    assert checks.check_sweep_shape(tilted, "poly-brittle", ("dlinear-s",))
    mean_rows = _read(out / "plots" / "noise_sweep_mean.csv")
    assert checks.check_mean_curve_file(rows, mean_rows) == []
    assert checks.check_mean_curve_file(tilted, mean_rows)


def test_baseline_metrics_match_numpy_and_reject_perturbation():
    rng = np.random.default_rng(0)
    values = np.round(rng.normal(size=(300, 2)).cumsum(axis=0) * 1000) / 1000
    task = ForecastTask(input_length=48, output_length=12)
    rows = []
    for fc in (LastValueForecaster(name="last-value"), SeasonalRepeatForecaster(8, name="seasonal")):
        rep = run_sliding(TimeSeries(values), task, fc, split=SplitSpec(test_fraction=0.4))
        rows.append({"forecaster": fc.name, "mae": repr(rep.mae), "mse": repr(rep.mse)})
    baselines = {"last-value": ("last_value", 1), "seasonal": ("seasonal_repeat", 8)}
    reference = checks.baseline_reference(values, 0.4, 48, 12, baselines)
    assert checks.check_baseline_rows(rows, reference) == []
    rows[1]["mae"] = repr(float(rows[1]["mae"]) * (1 + 1e-7))
    assert checks.check_baseline_rows(rows, reference)
    assert checks.check_baseline_rows(rows[:1], reference)


def test_window_count_follows_the_split_rule():
    assert checks.split_sizes(69_680, 0.2) == (55_744, 0, 13_936)
    assert checks.sliding_window_count(13_936, 384, 192) == 70
    assert checks.split_sizes(400, 0.995) == (2, 0, 398)


@pytest.mark.parametrize("variant", ["dlinear", "rlinear"])
def test_linear_losses_match_weights_and_reject_perturbation(variant):
    rng = np.random.default_rng(1)
    series = np.sin(np.arange(60)[:, None] / 4.0 + np.array([0.0, 1.0])) + rng.normal(0, 0.05, (60, 2))
    cfg = LinearModelConfig(variant=variant, learning_rate=0.05, max_epochs=15, patience=15,
                            decomposition_kernel=5)
    model = fit_single_shot(TimeSeries(series), ForecastTask(60, 20), cfg)
    fit = {"model": model, "series": series, "horizon": 20}
    assert checks.check_linear_fit(fit) == []
    for field in ("train_loss", "val_loss"):
        stats = replace(model.training_stats,
                        **{field: getattr(model.training_stats, field) * (1 + 1e-5)})
        assert checks.check_linear_fit(dict(fit, model=replace(model, training_stats=stats)))


def _llm_round(tmp, styles=slice(2, 3), channel_concurrency=1):
    """One window per array: three prompts per style and array against the real stub."""
    raw = workloads.llm_stub_config(5, tmp / "out", workloads.write_stub_arrays(5, tmp))
    raw["forecasters"] = raw["forecasters"][styles]
    for f in raw["forecasters"]:
        f["llm"]["channel_concurrency"] = channel_concurrency
    raw["split"]["test_fraction"] = 0.25
    work = workloads.LlmStubRound(config_from_dict(raw), 5)
    out = tmp / "round"
    work.run(out)
    return work, out


@pytest.fixture(scope="module")
def llm_round(tmp_path_factory):
    """ts_cot (prose before the numbers): six prompts, one of them with a
    scripted undecodable reply."""
    return _llm_round(tmp_path_factory.mktemp("llm"))


def test_llm_round_passes_its_checks(llm_round):
    work, out = llm_round
    assert work.operations == 6
    assert work.check(out) == []


def test_llm_check_holds_when_channel_prompts_overlap(tmp_path):
    """Channels sampled concurrently interleave the calls of different
    prompts; each prompt still gets its own scripted draws."""
    work, out = _llm_round(tmp_path, styles=slice(0, 2), channel_concurrency=3)
    assert work.operations == 12
    assert work.check(out) == []


def test_stub_answers_by_prompt_text_whatever_the_order():
    prompts = [0, 3, 5, 11]
    table = {workloads.prompt_key("s", f"u{p}"): p for p in prompts}
    order = [p for p in prompts for _ in range(workloads.script_length(p))]
    np.random.default_rng(0).shuffle(order)
    stub = workloads.StubAdapter(2, 4, table, delay_seconds=0.0)
    replies = {p: [] for p in prompts}
    for p in order:
        replies[p].append(stub.complete("s", f"u{p}", None))
    for p, got in replies.items():
        assert got == [workloads.script_reply(2, p, j, 4, False) for j in range(len(got))]
        assert stub.served[workloads.prompt_key("s", f"u{p}")] == workloads.script_length(p)
    assert stub.complete("s", "never scripted", None) == "0, 0, 0, 0"


def test_llm_wrong_call_count_is_rejected(llm_round):
    work, out = llm_round
    work.stub.calls += 1
    try:
        assert any("stub calls" in p for p in work.check(out))
    finally:
        work.stub.calls -= 1


def test_llm_unknown_or_underserved_prompt_is_rejected(llm_round):
    work, out = llm_round
    served = dict(work.stub.served)
    key = next(iter(served))
    try:
        work.stub.served[key] -= 1
        assert any("not served exactly" in p for p in work.check(out))
        work.stub.served[key] += 1
        work.stub.served["unknown"] = 1
        assert any("does not know" in p for p in work.check(out))
    finally:
        work.stub.served = served


def test_llm_perturbed_forecast_or_metric_is_rejected(llm_round):
    work, out = llm_round
    forecast = work.forecasters[0].forecasts[0]
    original = forecast[0, 0]
    forecast[0, 0] += 1e-6
    try:
        assert any("scripted median" in p for p in work.check(out))
    finally:
        forecast[0, 0] = original
    report = work.reports[0]
    work.reports[0] = replace(report, mae=report.mae * (1 + 1e-7))
    try:
        assert any("mae/mse" in p for p in work.check(out))
    finally:
        work.reports[0] = report


def test_stub_script_has_spaced_failures():
    lengths = [workloads.script_length(p) for p in range(12)]
    assert lengths == [5] * 5 + [6] + [5] * 5 + [6]
    assert workloads.failure_draw(5) == 0 and workloads.failure_draw(11) == 1
    assert workloads.script_reply(1, 5, 0, 4, False) == "I am unable to continue this sequence."
    assert workloads.script_reply(1, 11, 1, 4, False) == "7, 8"
