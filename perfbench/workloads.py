"""The three benchmark workloads: their seeded inputs and castlab configs.

Every input is a function of the workload seed. Only the seeds move between
runs; shapes, grid sizes and the stub's script layout stay fixed, so every
run does the same amount of work.

* ``sweep-linear``: acceptance criterion 6's grid (six-family function
  suite, I=278, O=120, gaussian sigma in {0, 0.001, 0.01, 0.05} x 3
  replicates, ``last_sample``, raw metrics) with dlinear, rlinear and the
  degree-10 polynomial. The seed moves the corruption draws and the linear
  initialisation.
* ``sliding-csv``: an ETTm2-sized informer CSV (69,680 x 7) written during
  set-up, evaluated with the ``sliding`` protocol at d=7, I=384, O=192 in
  standardized space by last-value, seasonal-repeat, polynomial and dlinear.
* ``llm-stub``: ``LlmPromptForecaster`` in four prompt styles under
  ``run_sliding`` on two in-memory (540 x 3) arrays, answered by
  :class:`StubAdapter` after a fixed delay per call.
"""

from __future__ import annotations

import csv
import hashlib
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from castlab import eval as ev
from castlab import runner
from castlab.data_io import FUNCTION_KINDS
from castlab.forecasters import LlmPromptForecaster
from castlab.llm.adapters import LlmAdapter, TranscriptWriter
from castlab.llm.prompts import ScalingConfig, build_prompt
from castlab.series import validate_series

WORKLOADS = ("sweep-linear", "sliding-csv", "llm-stub")

# sweep-linear
SWEEP_EPOCHS = 40
SWEEP_SIGMAS = (0.0, 0.001, 0.01, 0.05)
SWEEP_REPLICATES = 3

# sliding-csv: ETTm2's size and channel names, 15-minute sampling
CSV_ROWS = 69_680
CSV_COLUMNS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
CSV_PERIOD = 96  # one day of 15-minute steps
CSV_DLINEAR_EPOCHS = 4
# forecaster name -> (baseline kind, period) of the baselines checked against numpy
CSV_BASELINES = {"last-value": ("last_value", 1), "seasonal-repeat": ("seasonal_repeat", CSV_PERIOD)}

# llm-stub
STUB_ARRAYS = 2
STUB_ROWS = 540
STUB_CHANNELS = 3
STUB_STYLES = ("llmtime_chat", "llmp_single", "ts_cot", "ts_incontext")
STUB_NUM_SAMPLES = 5
STUB_DELAY_SECONDS = 0.020
# Prompt p gets one undecodable reply when p % FAIL_EVERY == FAIL_EVERY - 1.
STUB_FAIL_EVERY = 6
STUB_VALUE_RANGE = 20


def sweep_linear_config(seed: int, output_dir: Path) -> dict:
    linear = {"loss": "l2", "learning_rate": 0.05, "max_epochs": SWEEP_EPOCHS,
              "patience": SWEEP_EPOCHS, "decomposition_kernel": 25, "seed": seed}
    return {
        "seed": seed,
        "output_dir": str(output_dir),
        "protocol": "last_sample",
        "metric_space": "raw",
        "split": {"test_fraction": 0.995, "val_fraction": 0.0},
        "task": {"input_length": 278, "output_length": 120},
        "datasets": [{"name": kind, "function": {"kind": kind, "length": 400}}
                     for kind in FUNCTION_KINDS],
        "noise": {"kind": "gaussian", "sigma": 0.0, "seed": seed},
        "sweep": {"parameter": "noise.sigma", "values": list(SWEEP_SIGMAS),
                  "replicates": SWEEP_REPLICATES},
        "forecasters": [
            {"name": "dlinear-s", "linear": {"variant": "dlinear", **linear}},
            {"name": "rlinear-s", "linear": {"variant": "rlinear", **linear}},
            {"name": "poly-brittle",
             "baseline": {"type": "polynomial", "degree": 10, "fit_span": 100}},
        ],
    }


def sliding_csv_values(seed: int) -> np.ndarray:
    """The CSV's values in thousandths, as int64 of shape (CSV_ROWS, 7).

    Each channel is a level, a daily and a weekly sinusoid with seeded
    amplitudes and phases, a random walk and white noise.
    """
    rng = np.random.default_rng([seed, 1])
    t = np.arange(CSV_ROWS, dtype=np.float64)
    d = len(CSV_COLUMNS)
    level = rng.uniform(5.0, 40.0, size=d)
    daily = rng.uniform(1.0, 8.0, size=d)
    weekly = rng.uniform(0.5, 4.0, size=d)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(2, d))
    walk = np.cumsum(rng.normal(0.0, 0.02, size=(CSV_ROWS, d)), axis=0)
    white = rng.normal(0.0, 0.3, size=(CSV_ROWS, d))
    values = (
        level
        + daily * np.sin(2.0 * np.pi * t[:, None] / CSV_PERIOD + phase[0])
        + weekly * np.sin(2.0 * np.pi * t[:, None] / (7 * CSV_PERIOD) + phase[1])
        + walk
        + white
    )
    return np.round(values * 1000.0).astype(np.int64)


def write_sliding_csv(thousandths: np.ndarray, path: Path) -> None:
    """Write the informer-layout CSV: a timestamp column plus seven channels.

    ``thousandths / 1000`` parses back to exactly the float a correctly
    rounded reader produces for each 3-decimal field.
    """
    stamps = (np.datetime64("2016-07-01T00:00") + np.arange(CSV_ROWS) * np.timedelta64(15, "m"))
    stamp_text = [s.replace("T", " ") + ":00" for s in stamps.astype(str)]
    values = thousandths / 1000.0
    lines = ["date," + ",".join(CSV_COLUMNS)]
    lines += [stamp + "," + ",".join(f"{v:.3f}" for v in row)
              for stamp, row in zip(stamp_text, values.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sliding_csv_config(seed: int, output_dir: Path, csv_path: Path) -> dict:
    return {
        "seed": seed,
        "output_dir": str(output_dir),
        "protocol": "sliding",
        "metric_space": "standardized",
        "split": {"test_fraction": 0.2, "val_fraction": 0.0},
        "task": {"input_length": 384, "output_length": 192},
        "datasets": [{"name": "ettm2-synth", "csv": {"path": str(csv_path), "layout": "informer"}}],
        "forecasters": [
            {"name": "last-value", "baseline": {"type": "last_value"}},
            {"name": "seasonal-repeat", "baseline": {"type": "seasonal_repeat", "period": CSV_PERIOD}},
            {"name": "poly", "baseline": {"type": "polynomial", "degree": 10, "fit_span": 100}},
            {"name": "dlinear-s", "linear": {
                "variant": "dlinear", "loss": "l2", "learning_rate": 0.01,
                "max_epochs": CSV_DLINEAR_EPOCHS, "patience": CSV_DLINEAR_EPOCHS,
                "decomposition_kernel": 25, "seed": seed}},
        ],
    }


def stub_arrays(seed: int) -> list[np.ndarray]:
    """Two (540, 3) float arrays: seeded sinusoids over a slope, plus noise."""
    arrays = []
    t = np.arange(STUB_ROWS, dtype=np.float64)
    for a in range(STUB_ARRAYS):
        rng = np.random.default_rng([seed, 2, a])
        period = rng.uniform(12.0, 48.0, size=STUB_CHANNELS)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=STUB_CHANNELS)
        slope = rng.uniform(-1.0, 1.0, size=STUB_CHANNELS)
        noise = rng.normal(0.0, 0.1, size=(STUB_ROWS, STUB_CHANNELS))
        arrays.append(np.sin(2.0 * np.pi * t[:, None] / period + phase)
                      + slope * t[:, None] / STUB_ROWS + noise)
    return arrays


def llm_stub_config(seed: int, output_dir: Path, array_paths: list[Path]) -> dict:
    """The llm-stub run as a castlab config.

    The datasets point at CSV copies of :func:`stub_arrays`, written so the
    config validates; the run itself uses the in-memory arrays. The mock
    adapter entry is replaced by :class:`StubAdapter` when forecasters are
    built.
    """
    decoding = {"temperature": 1.0, "top_p": 0.8, "num_samples": STUB_NUM_SAMPLES,
                "max_attempts_per_sample": 3}
    return {
        "seed": seed,
        "output_dir": str(output_dir),
        "protocol": "sliding",
        "metric_space": "standardized",
        "split": {"test_fraction": 0.4, "val_fraction": 0.0},
        "task": {"input_length": 96, "output_length": 24},
        "datasets": [{"name": f"stub-{i}", "csv": {"path": str(p), "layout": "plain"}}
                     for i, p in enumerate(array_paths)],
        "noise": {"kind": "gaussian", "sigma": 0.1, "seed": seed},
        "filter": {"kind": "gaussian_kernel", "kernel_sigma": 1.0},
        "forecasters": [
            {"name": style, "llm": {"style": style, "decimals": 0, "shots": 3,
                                    "decoding": decoding,
                                    "adapter": {"type": "mock", "responses": ["0"]}}}
            for style in STUB_STYLES
        ],
    }


def write_stub_arrays(seed: int, directory: Path) -> list[Path]:
    paths = []
    for i, arr in enumerate(stub_arrays(seed)):
        path = directory / f"stub-{i}.csv"
        lines = [",".join(f"c{c}" for c in range(arr.shape[1]))]
        lines += [",".join(repr(v) for v in row) for row in arr.tolist()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def prepare(workload: str, seed: int, run_dir: Path) -> tuple[dict, dict]:
    """Write the workload's input files into ``run_dir``.

    Returns its raw config and the reference figures the checks need that
    come from the generated inputs alone (``sliding-csv``: the baselines'
    MAE and MSE), so the measured worker neither regenerates the inputs nor
    holds them.
    """
    out = run_dir / "out"
    if workload == "sweep-linear":
        return sweep_linear_config(seed, out), {}
    if workload == "sliding-csv":
        csv_path = run_dir / "ettm2-synth.csv"
        thousandths = sliding_csv_values(seed)
        write_sliding_csv(thousandths, csv_path)
        cfg = sliding_csv_config(seed, out, csv_path)
        reference = checks.baseline_reference(
            thousandths / 1000.0, cfg["split"]["test_fraction"], cfg["task"]["input_length"],
            cfg["task"]["output_length"], CSV_BASELINES)
        return cfg, reference
    if workload == "llm-stub":
        return llm_stub_config(seed, out, write_stub_arrays(seed, run_dir)), {}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# -- the scripted LLM stub ------------------------------------------------------


def script_length(prompt: int) -> int:
    """Replies the script holds for prompt ``prompt``: one per sample, plus
    one undecodable reply on every STUB_FAIL_EVERY-th prompt."""
    return STUB_NUM_SAMPLES + (prompt % STUB_FAIL_EVERY == STUB_FAIL_EVERY - 1)


def failure_draw(prompt: int) -> int | None:
    """Draw index of the prompt's undecodable reply, if it has one."""
    if script_length(prompt) == STUB_NUM_SAMPLES:
        return None
    # among the first num_samples draws, so one sample is sure to receive it
    return (prompt // STUB_FAIL_EVERY) % STUB_NUM_SAMPLES


def script_values(seed: int, prompt: int, draw: int, horizon: int) -> np.ndarray:
    """Integer forecast of one decodable reply, in the prompt's scaled units."""
    rng = np.random.default_rng([seed, 3, prompt, draw])
    return rng.integers(-STUB_VALUE_RANGE, STUB_VALUE_RANGE + 1, size=horizon)


def script_reply(seed: int, prompt: int, draw: int, horizon: int, reasoning: bool) -> str:
    if draw == failure_draw(prompt):
        if (prompt // STUB_FAIL_EVERY) % 2 == 0:
            return "I am unable to continue this sequence."
        return "7, 8"  # too few values
    text = ", ".join(str(v) for v in script_values(seed, prompt, draw, horizon).tolist())
    if reasoning:
        text = "The series repeats its recent cycle, so the continuation follows it.\n" + text
    return text


def prompt_key(system_text: str, user_text: str) -> str:
    return hashlib.sha256(f"{system_text}\0{user_text}".encode("utf-8")).hexdigest()


class StubAdapter(LlmAdapter):
    """Scripted completion backend with a fixed latency per call.

    ``prompts`` maps the key of every prompt text the round should send to
    the prompt's number in the script. The adapter counts the draws served
    per key and answers with that prompt's next draw, so what a prompt
    receives depends on its text alone, not on the order or the threads in
    which calls arrive. Whichever sample receives the undecodable reply
    retries, so the decoded multiset of every prompt is fixed. A prompt the
    table does not know is answered with zeros and shows in ``served``.
    Counts calls, the latency slept and the calls in flight.
    """

    def __init__(self, seed: int, horizon: int, prompts: dict[str, int],
                 delay_seconds: float = STUB_DELAY_SECONDS):
        self.seed = seed
        self.horizon = horizon
        self.prompts = prompts
        self.delay_seconds = delay_seconds
        self._lock = threading.Lock()
        self.served: dict[str, int] = {}
        self.calls = 0
        self.in_flight = 0
        self.in_flight_max = 0
        self.delay_total = 0.0

    def complete(self, system_text: str, user_text: str, config) -> str:
        key = prompt_key(system_text, user_text)
        with self._lock:
            draw = self.served.get(key, 0)
            self.served[key] = draw + 1
            self.calls += 1
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
        prompt = self.prompts.get(key)
        if prompt is None:
            reply = ", ".join(["0"] * self.horizon)
        else:
            reply = script_reply(self.seed, prompt, draw, self.horizon,
                                 reasoning="step by step" in user_text)
        start = time.perf_counter()
        time.sleep(self.delay_seconds)
        slept = time.perf_counter() - start
        with self._lock:
            self.in_flight -= 1
            self.delay_total += slept
        return reply


class RecordingLlmForecaster(LlmPromptForecaster):
    """``LlmPromptForecaster`` that keeps every forecast for the checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forecasts: list[np.ndarray] = []

    def predict(self, window: np.ndarray, horizon: int) -> np.ndarray:
        out = super().predict(window, horizon)
        self.forecasts.append(out)
        return out


# -- one round of each workload -------------------------------------------------


class GridRound:
    """One ``run_experiment`` call over the config's grid; an operation is a cell.

    ``reference`` holds what :func:`prepare` computed from the generated
    inputs: on ``sliding-csv``, forecaster name -> [MAE, MSE] of the
    baselines.
    """

    stub = None

    def __init__(self, workload: str, cfg, reference: dict):
        self.workload = workload
        self.cfg = cfg
        self.reference = reference
        sweep = cfg.sweep
        self.cells = [(ds.name, fc.name, "" if v is None else repr(v), str(r))
                      for ds in cfg.datasets for fc in cfg.forecasters
                      for v in (sweep.values if sweep else [None])
                      for r in range(sweep.replicates if sweep else 1)]
        self.operations = len(self.cells)
        if workload == "sliding-csv":
            n_rows = CSV_ROWS
        else:
            n_rows = next(ds.function.length for ds in cfg.datasets)
        _, _, n_test = checks.split_sizes(n_rows, cfg.split.test_fraction, cfg.split.val_fraction)
        task = cfg.task
        self.windows_per_cell = (1 if cfg.protocol == "last_sample" else
                                 checks.sliding_window_count(n_test, task.input_length, task.output_length))

    def run(self, out: Path) -> tuple[float, int]:
        """Run the grid into ``out``; return (reported cost, failed cells)."""
        result = runner.run_experiment(replace(self.cfg, output_dir=out))
        cost = sum(r.report.cost.total_seconds for r in result.results if r.report is not None)
        return cost, sum(r.error is not None for r in result.results)

    def check(self, out: Path) -> list[str]:
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        problems = checks.check_rows(rows, self.cells, self.windows_per_cell)
        if self.workload == "sweep-linear":
            with open(out / "plots" / "noise_sweep_mean.csv", newline="", encoding="utf-8") as fh:
                mean_rows = list(csv.DictReader(fh))
            problems += checks.check_sigma0_replicates(rows)
            problems += checks.check_sweep_shape(rows, "poly-brittle", ("dlinear-s", "rlinear-s"))
            problems += checks.check_mean_curve_file(rows, mean_rows)
        else:
            problems += checks.check_baseline_rows(rows, self.reference)
        return problems


class LlmStubRound:
    """Every style x array under ``run_sliding``; an operation is a prompt.

    Set-up numbers the round's prompts p = 0, 1, ... in (style, array,
    window, channel) order. For each it corrupts and smooths the window and
    derives the channel's scale apart from castlab, builds the prompt text
    with castlab's ``build_prompt`` at that scale, so the stub can tell the
    prompts apart by their text, and computes the expected forecast: the
    elementwise median of p's decodable scripted draws times the scale.
    """

    def __init__(self, cfg, seed: int):
        self.cfg = cfg
        self.seed = seed
        arrays = stub_arrays(seed)
        self.datasets = [(f"stub-{i}", validate_series(a)) for i, a in enumerate(arrays)]
        self.tests = [checks.standardized_test(a, cfg.split.test_fraction) for a in arrays]
        task = cfg.task
        self.windows = checks.sliding_window_count(self.tests[0].shape[0], task.input_length,
                                                   task.output_length)
        self.prompt_table: dict[str, int] = {}
        self.expected = self._script_prompts()
        self.operations = len(self.prompt_table)
        self.stub = None

    def _script_prompts(self) -> list[list[np.ndarray]]:
        """Fill the prompt table; return per (style, array), per window, the
        expected forecast."""
        task, noise, filt = self.cfg.task, self.cfg.noise, self.cfg.noise_filter
        expected = []
        for forecaster in self.cfg.forecasters:
            llm = forecaster.llm
            for test in self.tests:
                per_window = []
                for w, (window, _) in enumerate(
                        checks.sliding_windows(test, task.input_length, task.output_length)):
                    corrupted = checks.corrupted_window(window, w, noise.sigma, noise.seed,
                                                        filt.kernel_sigma)
                    columns = []
                    for channel in range(window.shape[1]):
                        values = corrupted[:, channel]
                        scale = checks.prompt_scale(values)
                        bundle = build_prompt(values, task.output_length, llm.style,
                                              ScalingConfig(scale=scale, decimals=llm.decimals),
                                              shots=llm.shots)
                        key = prompt_key(bundle.system_text, bundle.user_text)
                        if key in self.prompt_table:
                            raise ValueError(f"prompts {self.prompt_table[key]} and "
                                             f"{len(self.prompt_table)} have the same text")
                        prompt = self.prompt_table[key] = len(self.prompt_table)
                        draws = [script_values(self.seed, prompt, j, task.output_length)
                                 for j in range(script_length(prompt)) if j != failure_draw(prompt)]
                        columns.append(np.median(np.array(draws, dtype=np.float64), axis=0) * scale)
                    per_window.append(np.column_stack(columns))
                expected.append(per_window)
        return expected

    def run(self, out: Path) -> tuple[float, int]:
        cfg = self.cfg
        self.stub = StubAdapter(self.seed, cfg.task.output_length, self.prompt_table)
        writer = TranscriptWriter(out / "transcripts.jsonl")
        self.forecasters = [RecordingLlmForecaster(
            adapter=self.stub, style=f.llm.style, decoding=f.llm.decoding, decimals=f.llm.decimals,
            shots=f.llm.shots, transcript=writer, channel_concurrency=f.llm.channel_concurrency,
            name=f.name) for f in cfg.forecasters]
        self.reports = [ev.run_sliding(series, cfg.task, forecaster, split=cfg.split,
                                       metric_space=cfg.metric_space, dataset_name=name,
                                       noise=cfg.noise, noise_filter=cfg.noise_filter)
                        for forecaster in self.forecasters for name, series in self.datasets]
        return sum(r.cost.total_seconds for r in self.reports), 0

    def check(self, out: Path) -> list[str]:
        task = self.cfg.task
        calls = sum(script_length(p) for p in range(self.operations))
        problems = checks.check_count("stub calls", self.stub.calls, calls)
        served = self.stub.served
        unknown = len(served.keys() - self.prompt_table.keys())
        if unknown:
            problems.append(f"{unknown} prompt texts sent that the script does not know")
        short = sorted(p for key, p in self.prompt_table.items()
                       if served.get(key, 0) != script_length(p))
        if short:
            problems.append(f"{len(short)} prompts not served exactly their scripted draws, "
                            f"first {short[:5]}")
        with open(out / "transcripts.jsonl", encoding="utf-8") as fh:
            problems += checks.check_count("transcript records", sum(1 for _ in fh), calls)
        n = len(self.datasets)
        for f, forecaster in enumerate(self.forecasters):
            for d, test in enumerate(self.tests):
                label = f"{forecaster.name}/stub-{d}"
                want = self.expected[f * n + d]
                got = forecaster.forecasts[d * self.windows:(d + 1) * self.windows]
                problems += [f"{label}: {p}" for p in checks.check_llm_forecasts(got, want)]
                report = self.reports[f * n + d]
                problems += checks.check_count(f"{label} window_count", report.window_count, self.windows)
                mae, mse = checks.sliding_metrics(test, task.input_length, task.output_length, want)
                if not (checks.close(report.mae, mae) and checks.close(report.mse, mse)):
                    problems.append(f"{label}: mae/mse {report.mae!r}/{report.mse!r} "
                                    f"!= reference {mae!r}/{mse!r}")
        return problems


def make_round(workload: str, cfg, seed: int, reference: dict):
    if workload == "llm-stub":
        return LlmStubRound(cfg, seed)
    return GridRound(workload, cfg, reference)
