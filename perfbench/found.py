"""Re-observe three known faults on the benchmark's own inputs.

    python3 perfbench/found.py sampling     # thread pool per prompt, zero latency
    python3 perfbench/found.py transcript   # TranscriptWriter.record per call
    python3 perfbench/found.py blas         # fit bits and CPU vs BLAS thread count

Each prints what it measured; none is part of a benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]


def _llm_stub_predicts(num_samples: int, with_transcript: bool, repeats: int) -> tuple[float, float, int]:
    """Every llm-stub prompt of seed 1, ``repeats`` times, against the stub
    with no delay; returns (wall s, CPU s, adapter calls)."""
    from dataclasses import replace

    import workloads
    from castlab.config import config_from_dict
    from castlab.eval import run_sliding
    from castlab.forecasters import LlmPromptForecaster
    from castlab.llm.adapters import TranscriptWriter
    from castlab.series import validate_series

    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        tmp = Path(tmp)
        cfg = config_from_dict(workloads.llm_stub_config(1, tmp, workloads.write_stub_arrays(1, tmp)))
        prompts = workloads.LlmStubRound(cfg, 1).prompt_table
        series = [validate_series(a) for a in workloads.stub_arrays(1)]
        calls = 0
        c0, t0 = time.process_time(), time.perf_counter()
        for r in range(repeats):
            stub = workloads.StubAdapter(1, cfg.task.output_length, prompts, delay_seconds=0.0)
            writer = TranscriptWriter(tmp / f"t{r}.jsonl") if with_transcript else None
            for f in cfg.forecasters:
                fc = LlmPromptForecaster(stub, style=f.llm.style, decimals=0, transcript=writer,
                                         decoding=replace(f.llm.decoding, num_samples=num_samples))
                for s in series:
                    run_sliding(s, cfg.task, fc, split=cfg.split, noise=cfg.noise,
                                noise_filter=cfg.noise_filter)
            calls += stub.calls
        return time.perf_counter() - t0, time.process_time() - c0, calls


def sampling() -> None:
    for num_samples in (5, 1):
        for _ in range(4):
            wall, cpu, calls = _llm_stub_predicts(num_samples, False, 4)
            print(f"num_samples={num_samples}: {calls} calls, wall {wall:.3f} s, CPU {cpu:.3f} s")


def transcript() -> None:
    for _ in range(3):
        for label, with_transcript in (("no transcript", False), ("transcript", True)):
            wall, _, calls = _llm_stub_predicts(1, with_transcript, 4)
            print(f"num_samples=1, {label}: {1000 * wall / calls:.3f} ms per call ({calls} calls)")


FIT = """
import sys, time
sys.path[:0] = {paths!r}
import numpy as np, workloads, checks
from castlab import ForecastTask, LinearModelConfig, TimeSeries, fit_single_shot
test = checks.standardized_test(workloads.sliding_csv_values(1) / 1000.0, 0.2)
cfg = LinearModelConfig(variant="dlinear", learning_rate=0.01, max_epochs=200, patience=200)
c0, t0 = time.process_time(), time.perf_counter()
model = fit_single_shot(TimeSeries(test[:384]), ForecastTask(384, 192), cfg)
print(repr(model.training_stats.train_loss), f"wall {{time.perf_counter() - t0:.2f}} s",
      f"CPU {{time.process_time() - c0:.2f}} s")
"""


def blas() -> None:
    code = FIT.format(paths=sys.path[:2])
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.strip()
        print(f"OPENBLAS_NUM_THREADS={threads or 'unset'}: train_loss {out}")


if __name__ == "__main__":
    {"sampling": sampling, "transcript": transcript, "blas": blas}[sys.argv[1]]()
