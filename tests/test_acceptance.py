"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
heavyweight robustness criteria (5 and 6) fit many small linear models and
take a couple of minutes each; every other criterion finishes in seconds.
"""

import csv
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from castlab import (
    CostRecord,
    ForecastTask,
    FunctionSpec,
    LastValueForecaster,
    LinearModelConfig,
    LinearSingleShotForecaster,
    NoiseSpec,
    PolynomialExtrapolator,
    ScalingConfig,
    SeasonalRepeatForecaster,
    SplitSpec,
    aggregate_costs,
    aggregate_median,
    build_prompt,
    compare_cost_families,
    decode_response,
    fit_single_shot,
    generate_function_series,
    inject_noise,
    plan_windows,
    predict_linear,
    run_last_sample,
    run_sliding,
    validate_series,
    window_count,
)
from castlab.config import config_from_dict
from castlab.data_io import FUNCTION_KINDS
from castlab.linear import _forward, _init_params, decompose_moving_average, loss_and_gradients
from castlab.llm.prompts import PROMPT_STYLES, render_sequence
from castlab.runner import diff_runs, run_experiment

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} FAIL - {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s (> {budget_seconds}s)"
    print(f"\nACCEPTANCE {number} PASS - {name} ({elapsed:.1f}s)")


# -- 1: window-count reproduction ------------------------------------------


def test_criterion_1_window_counts():
    with criterion(1, "window-count reproduction", 1.0):
        published = [
            (7, 384, 192, 1351),
            (8, 384, 192, 1544),
            (21, 384, 192, 4053),
            (321, 96, 48, 15729),
            (862, 96, 48, 42238),
        ]
        for d, i, o, k in published:
            assert plan_windows(ForecastTask(i, o), d).window_count == k

        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 25))
            ii = int(rng.integers(1, 40))
            oo = int(rng.integers(1, 40))
            i = ii + oo + int(rng.integers(0, 60))
            brute = 0
            for _channel in range(d):
                start = 0
                while start + ii + oo <= i:
                    brute += 1
                    start += 1
            assert window_count(d, i, ii, oo) == brute


# -- 2: prompt golden files -------------------------------------------------


def test_criterion_2_prompt_goldens():
    with criterion(2, "prompt golden files and figure decode", 1.0):
        fixture = np.array(
            [-12, -13, -15, -7, -11, -6, 43, 98, 43, -10,
             -11, -9, -11, -12, -9, -10, -12, -8, -9, -13], dtype=float)
        identity = ScalingConfig(decimals=0)
        cases = [
            ("llmtime_base", "user_text", "llmtime_base_user.txt"),
            ("llmtime_chat", "system_text", "llmtime_chat_system.txt"),
            ("llmtime_chat", "user_text", "llmtime_chat_user.txt"),
            ("llmp_single", "system_text", "llmp_single_system.txt"),
            ("llmp_single", "user_text", "llmp_single_user.txt"),
            ("ts_cot", "user_text", "ts_cot_user.txt"),
            ("ts_incontext", "user_text", "ts_incontext_user.txt"),
        ]
        for style, attr, filename in cases:
            bundle = build_prompt(fixture, 5, style, identity, shots=3)
            golden = (GOLDEN / filename).read_bytes().decode("utf-8")
            assert getattr(bundle, attr) == golden, f"{style}.{attr} differs from {filename}"

        decoded = decode_response("-9, -10, -12, -8, -9", 5, identity)
        assert decoded.tolist() == [-9.0, -10.0, -12.0, -8.0, -9.0]


# -- 3: codec round-trip ------------------------------------------------------


def test_criterion_3_codec_round_trip():
    with criterion(3, "codec round-trip over 1000 sequences x 5 styles", 10.0):
        rng = np.random.default_rng(3)
        for case in range(1000):
            decimals = int(rng.integers(0, 5))
            scaling = ScalingConfig(scale=1.0, decimals=decimals)
            tol = 0.5 * 10.0 ** (-decimals) * (1 + 1e-9)
            length = int(rng.integers(1, 12))
            values = rng.uniform(-1000.0, 1000.0, size=length)
            for style in PROMPT_STYLES:
                payload = render_sequence(values, scaling)
                if style == "ts_cot":
                    text = f"Answer 1) Looks periodic to me.\nAnswer 2) {payload}"
                else:
                    text = payload
                decoded = decode_response(text, length, scaling)
                assert np.max(np.abs(decoded - values)) <= tol


# -- 4: gradient check ---------------------------------------------------------


def test_criterion_4_gradient_check():
    with criterion(4, "linear-model gradient check and exact decomposition", 30.0):
        rng = np.random.default_rng(4)
        combos = [(v, l) for v in ("dlinear", "rlinear") for l in ("l1", "l2")]
        h = 1e-5
        for instance in range(50):
            variant, loss = combos[instance % 4]
            k = int(rng.integers(2, 8))
            i_in = int(rng.integers(2, 7))
            o_out = int(rng.integers(1, 6))
            kernel = int(rng.choice([1, 3]))
            X = rng.normal(size=(k, i_in))
            params = _init_params(variant, i_in, o_out, seed=instance)
            for name in params:
                params[name] = params[name] + 0.05 * rng.normal(size=params[name].shape)
            pred, _ = _forward(params, X, variant, kernel)
            signs = np.where(rng.normal(size=pred.shape) >= 0, 1.0, -1.0)
            Y = pred - signs * rng.uniform(0.3, 1.2, size=pred.shape)

            _, analytic = loss_and_gradients(params, X, Y, variant, loss, kernel)
            for name, value in params.items():
                numeric = np.zeros_like(value)
                flat = value.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    bump = {p: q.copy() for p, q in params.items()}
                    bump[name].ravel()[idx] = orig + h
                    up, _ = loss_and_gradients(bump, X, Y, variant, loss, kernel)
                    bump[name].ravel()[idx] = orig - h
                    down, _ = loss_and_gradients(bump, X, Y, variant, loss, kernel)
                    numeric.ravel()[idx] = (up - down) / (2 * h)
                rel = np.abs(analytic[name] - numeric) / np.maximum(np.maximum(np.abs(numeric), np.abs(analytic[name])), 1e-6)
                assert rel.max() < 1e-4, f"{variant}/{loss}/{name} rel err {rel.max():.2e}"

        for _ in range(50):
            n = int(rng.integers(2, 50))
            kernel = int(rng.choice(range(1, 2 * n, 2)))
            x = rng.normal(scale=5.0, size=n)
            trend, seasonal = decompose_moving_average(x, kernel)
            assert np.abs(trend + seasonal - x).max() <= 1e-12


# -- 5 and 6 share the function-suite setup -----------------------------------

SUITE_LENGTH = 400
SUITE_INPUT = 280
SUITE_HORIZON = 120


def _function_suite():
    suite = {}
    for kind in FUNCTION_KINDS:
        v = generate_function_series(FunctionSpec(kind=kind, length=SUITE_LENGTH)).values[:, 0]
        suite[kind] = (v[:SUITE_INPUT], v[SUITE_INPUT:].reshape(-1, 1))
    return suite


def _linear_suite_config(variant: str, epochs: int) -> LinearModelConfig:
    return LinearModelConfig(variant=variant, loss="l1", learning_rate=0.05,
                             max_epochs=epochs, patience=epochs,
                             decomposition_kernel=25, seed=0)


def _corrupted(values: np.ndarray, kind: str, seed: int) -> np.ndarray:
    # canonical criterion corruption: sigma = 5% of std; eta = 0.1 with a
    # one-std constant offset; missing points filled at the input mean
    # (the zero of standardized benchmark space)
    std = values.std()
    if kind == "gaussian":
        spec = NoiseSpec(kind="gaussian", sigma=0.05 * std, seed=seed)
    elif kind == "constant":
        spec = NoiseSpec(kind="constant", contamination=0.1, epsilon=std, seed=seed)
    else:
        spec = NoiseSpec(kind="missing", contamination=0.1, epsilon=float(values.mean()), seed=seed)
    return inject_noise(validate_series(values), spec).values[:, 0]


def test_criterion_5_noise_robustness_contrast():
    with criterion(5, "linear robustness vs brittle-baseline contrast", 300.0):
        suite = _function_suite()
        task = ForecastTask(SUITE_INPUT, SUITE_HORIZON)
        seeds = (0, 1)

        def linear_mae(values, truth, variant):
            model = fit_single_shot(validate_series(values), task,
                                    _linear_suite_config(variant, epochs=800))
            forecast = predict_linear(model, values[-model.inner_input:], SUITE_HORIZON)
            return float(np.abs(forecast - truth).mean())

        poly = PolynomialExtrapolator(degree=10, fit_span=100)

        def poly_mae(values, truth):
            return float(np.abs(poly.predict(values.reshape(-1, 1), SUITE_HORIZON) - truth).mean())

        for variant in ("dlinear", "rlinear"):
            clean = np.mean([linear_mae(v, t, variant) for v, t in suite.values()])
            for kind in ("gaussian", "constant", "missing"):
                corrupted = np.mean([
                    np.mean([linear_mae(_corrupted(v, kind, s), t, variant)
                             for v, t in suite.values()])
                    for s in seeds
                ])
                ratio = corrupted / clean
                print(f"  criterion 5: {variant} {kind}: clean={clean:.4f} "
                      f"corrupted={corrupted:.4f} ratio={ratio:.3f}")
                assert ratio < 1.25, f"{variant}/{kind} degraded {ratio:.3f}x"

        poly_clean = np.mean([poly_mae(v, t) for v, t in suite.values()])
        for kind in ("gaussian", "constant", "missing"):
            poly_bad = np.mean([
                np.mean([poly_mae(_corrupted(v, kind, s), t) for v, t in suite.values()])
                for s in seeds
            ])
            ratio = poly_bad / poly_clean
            print(f"  criterion 5: poly {kind}: ratio={ratio:.1f}")
            assert ratio > 2.0, f"brittle baseline only degraded {ratio:.2f}x under {kind}"


def test_criterion_6_noise_sweep_shape(tmp_path):
    with criterion(6, "noise-sweep shape via plot-data files", 300.0):
        raw = {
            "seed": 0,
            "output_dir": str(tmp_path / "sweep"),
            "protocol": "last_sample",
            "metric_space": "raw",
            "split": {"test_fraction": 0.995, "val_fraction": 0.0},
            "task": {"input_length": 278, "output_length": 120},
            "datasets": [
                {"name": kind, "function": {"kind": kind, "length": SUITE_LENGTH}}
                for kind in FUNCTION_KINDS
            ],
            "noise": {"kind": "gaussian", "sigma": 0.0, "seed": 17},
            "sweep": {"parameter": "noise.sigma",
                      "values": [0.0, 0.001, 0.01, 0.05], "replicates": 3},
            "forecasters": [
                {"name": "dlinear-s", "linear": {
                    "variant": "dlinear", "loss": "l2", "learning_rate": 0.05,
                    "max_epochs": 600, "patience": 600,
                    "decomposition_kernel": 25, "seed": 0}},
                {"name": "rlinear-s", "linear": {
                    "variant": "rlinear", "loss": "l2", "learning_rate": 0.05,
                    "max_epochs": 600, "patience": 600,
                    "decomposition_kernel": 25, "seed": 0}},
                {"name": "poly-brittle", "baseline": {
                    "type": "polynomial", "degree": 10, "fit_span": 100}},
            ],
        }
        config = config_from_dict(raw, base_dir=tmp_path)
        result = run_experiment(config)
        assert result.status == 0

        mean_path = config.output_dir / "plots" / "noise_sweep_mean.csv"
        assert mean_path.exists()
        curves: dict[str, list[tuple[float, float]]] = {}
        with open(mean_path) as fh:
            for row in csv.DictReader(fh):
                curves.setdefault(row["forecaster"], []).append(
                    (float(row["value"]), float(row["mean_mae"]))
                )
        for name, curve in curves.items():
            curve.sort()
            maes = [m for _, m in curve]
            print(f"  criterion 6: {name}: " +
                  ", ".join(f"{v}:{m:.4f}" for v, m in curve))
            if name == "poly-brittle":
                assert all(maes[i + 1] >= maes[i] for i in range(len(maes) - 1)), \
                    f"brittle curve not monotone: {maes}"
            else:
                center = np.mean(maes)
                deviation = max(abs(m - center) / center for m in maes)
                assert deviation <= 0.10, f"{name} curve not flat: {maes}"


# -- 7: median aggregation ------------------------------------------------------


def test_criterion_7_median_aggregation():
    with criterion(7, "median aggregation vs sort oracle", 5.0):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            length = int(rng.integers(1, 8))
            samples = rng.normal(scale=10.0, size=(k, length))
            got = aggregate_median(list(samples))
            for pos in range(length):
                column = np.sort(samples[:, pos])
                expected = (column[k // 2] if k % 2
                            else 0.5 * (column[k // 2 - 1] + column[k // 2]))
                assert got[pos] == expected

        # single-outlier insensitivity: where four of five samples agree,
        # replacing the fifth by +-1e6 moves the median by exactly zero
        for _ in range(100):
            agreed = rng.normal(scale=10.0, size=6)
            outlier_index = int(rng.integers(0, 5))
            samples = np.tile(agreed, (5, 1))
            samples[outlier_index] = rng.normal(size=6)
            base = aggregate_median(list(samples))
            samples[outlier_index] = 1e6 * np.where(rng.normal(size=6) > 0, 1.0, -1.0)
            moved = aggregate_median(list(samples))
            assert np.array_equal(base, agreed)
            assert np.array_equal(moved, agreed)


# -- 8: cost-model arithmetic ----------------------------------------------------


def test_criterion_8_cost_model():
    with criterion(8, "cost-model arithmetic and inequalities", 1.0):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            records = [CostRecord(float(rng.uniform(0, 5)), float(rng.uniform(0, 5)))
                       for _ in range(n)]
            domain = aggregate_costs(records, "domain")
            linear = aggregate_costs(records, "linear")
            llm = aggregate_costs(records, "llm")
            assert domain == pytest.approx(
                sum(r.train_seconds + r.infer_seconds for r in records) / n)
            assert linear == pytest.approx(domain)
            assert llm == pytest.approx(sum(r.infer_seconds for r in records) / n)
            assert llm <= domain + 1e-12  # C^T excluded from the llm family

        comparison = compare_cost_families(
            llm_records=[CostRecord(0.0, 2.0), CostRecord(0.0, 4.0)],
            domain_records=[CostRecord(30.0, 1.0)],
            linear_records=[CostRecord(1.0, 0.5)],
        )
        lines = comparison.lines()
        for line in lines:
            print(f"  criterion 8: {line}")
        assert comparison.beats_domain is True
        assert comparison.beats_linear is False
        assert any("C_LLM < C_Domain" in l and "PASS" in l for l in lines)
        assert any("C_LLM < C_Linear" in l and "FAIL" in l for l in lines)


# -- 9: protocol equivalence -----------------------------------------------------


def test_criterion_9_protocol_equivalence():
    with criterion(9, "sliding equals last-sample on single-window fixtures", 30.0):
        rng = np.random.default_rng(9)
        for case in range(20):
            i = int(rng.integers(8, 24)) * 2
            o = int(rng.integers(2, 8)) * 2
            d = int(rng.integers(1, 4))
            n = 2 * (i + o)  # split 0.5 -> test slice exactly I+O
            base = rng.normal(size=(n, d)).cumsum(axis=0)
            series = validate_series(base + rng.normal(scale=0.1, size=(n, d)))
            if case % 3 == 0:
                make = lambda: LastValueForecaster()
            elif case % 3 == 1:
                make = lambda o=o: SeasonalRepeatForecaster(period=o)
            else:
                make = lambda: LinearSingleShotForecaster(
                    LinearModelConfig(variant="rlinear", max_epochs=25, seed=3))
            task = ForecastTask(i, o)
            split = SplitSpec(0.5, 0.0)
            a = run_sliding(series, task, make(), split=split, metric_space="standardized")
            b = run_last_sample(series, task, make(), split=split, metric_space="standardized")
            assert a.window_count == 1
            assert a.mae == b.mae and a.mse == b.mse
            assert a.per_channel_mae == b.per_channel_mae
            assert a.per_channel_mse == b.per_channel_mse


# -- 10: offline end-to-end --------------------------------------------------------


def test_criterion_10_offline_end_to_end(tmp_path):
    with criterion(10, "offline end-to-end with mock adapter", 120.0):
        def build_raw(out_name):
            return {
                "seed": 0,
                "output_dir": str(tmp_path / out_name),
                "protocol": "last_sample",
                "metric_space": "raw",
                "split": {"test_fraction": 0.5, "val_fraction": 0.0},
                "task": {"input_length": 40, "output_length": 10},
                "datasets": [
                    {"name": "sine", "function": {"kind": "sine", "length": 120, "seed": 1}},
                    {"name": "beat", "function": {"kind": "beat_interference", "length": 120, "seed": 2}},
                ],
                "forecasters": [
                    {"name": "dlinear-s", "linear": {
                        "variant": "dlinear", "loss": "l2", "learning_rate": 0.05,
                        "max_epochs": 120, "patience": 120,
                        "decomposition_kernel": 5, "seed": 0}},
                    {"name": "llm-mock", "llm": {
                        "style": "llmtime_chat", "decimals": 2,
                        "decoding": {"temperature": 1.0, "top_p": 0.8,
                                     "num_samples": 5, "max_attempts_per_sample": 2},
                        "adapter": {"type": "mock",
                                    "responses": [", ".join(["0.50"] * 10)]}}},
                    {"name": "naive", "baseline": {"type": "last_value"}},
                ],
            }

        first = run_experiment(config_from_dict(build_raw("run-a"), base_dir=tmp_path))
        second = run_experiment(config_from_dict(build_raw("run-b"), base_dir=tmp_path))
        assert first.status == 0 and second.status == 0
        # every record field but cost and traceback, and the transcripts as multisets
        assert diff_runs(first.output_dir, second.output_dir) == []

        transcript = Path(first.output_dir) / "transcripts.jsonl"
        assert transcript.exists()
        entries = [json.loads(line) for line in transcript.read_text().splitlines()]
        assert len(entries) == 10  # 2 datasets x 5 samples, one channel each
        assert all(e["payload"]["response"] for e in entries)

        with open(first.summary_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["forecaster"] for r in rows} == {"dlinear-s", "llm-mock", "naive"}
        assert all(r["mae"] for r in rows)
        manifest = json.loads((Path(first.output_dir) / "manifest.json").read_text())
        assert manifest["status"] == "ok"
