"""The benchmark's per-layer tracer still finds castlab's layer entry points.

``perfbench/tracing.py`` patches public names in castlab's module namespaces.
If a refactor moves or renames one of them, the traced metrics silently read
zero; this test runs one tiny sliding-protocol CSV grid of three cells (linear,
baseline and a mock LLM) under the tracer, in a subprocess so the patches do
not leak into other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import tracing
from castlab.config import config_from_dict
from castlab.data_io import write_csv
from castlab.series import validate_series

tracer = tracing.Tracer()
tracing.install(tracer)
from castlab import runner

rng = np.random.default_rng(0)
t = np.arange(200.0)
values = np.column_stack([np.sin(t / 6.0), np.cos(t / 9.0)]) + 0.01 * rng.normal(size=(200, 2))
write_csv(validate_series(values), "tiny.csv")
cfg = config_from_dict({
    "output_dir": "out",
    "protocol": "sliding",
    "split": {"test_fraction": 0.5},
    "task": {"input_length": 40, "output_length": 10},
    "datasets": [{"name": "tiny", "csv": {"path": "tiny.csv"}}],
    "forecasters": [{"name": "dlin", "linear": {"variant": "dlinear", "max_epochs": 5,
                                                "decomposition_kernel": 5}},
                    {"name": "naive", "baseline": {"type": "last_value"}},
                    {"name": "llm", "llm": {"decoding": {"num_samples": 3}, "adapter": {
                        "type": "mock", "responses": [", ".join(["1"] * 10)]}}}],
}, base_dir=".")
result = runner.run_experiment(cfg)
print(json.dumps({"status": result.status, "counts": tracer.counts,
                  "calls": {name: span[0] for name, span in tracer.spans.items()}}))
"""


def test_tracer_records_every_layer_on_a_sliding_csv_grid(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(REPO / "perfbench"), str(REPO / "src")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["status"] == 0
    for span in ("eval.protocol", "linear.fit", "windowing.make_windows", "linear.predict",
                 "runner.run_experiment", "llm.prompts.build", "llm.sampling",
                 "llm.decode.decode_response", "llm.decode.aggregate_median",
                 "llm.adapters.transcript"):
        assert out["calls"].get(span, 0) >= 1, (span, out["calls"])
    # the cells share one load, through the name the tracer patches
    assert out["calls"].get("data_io.load_csv") == 1, out["calls"]
    # 6 sliding windows, each fit on K = 2 * (40 - 10 + 1) pairs: a count of
    # pairs, so a window set whose size counted values would fail here
    assert out["counts"]["windowing.windows"] == 6 * 62, out["counts"]
    assert out["counts"]["linear.fits"] == 6, out["counts"]
    # the mock LLM cell waits for its samples once per window, inside the
    # name the tracer patches, so llm.sampling.s times every wait
    assert out["calls"]["llm.sampling"] == 6, out["calls"]
    # and the names it patches are still called once per prompt (6 windows x 2
    # channels), completion (x 3 samples) and channel-window
    llm_calls = {name: out["calls"].get(name) for name in (
        "llm.prompts.build", "llm.decode.decode_response", "llm.adapters.transcript",
        "llm.decode.aggregate_median")}
    assert llm_calls == {"llm.prompts.build": 12, "llm.decode.decode_response": 36,
                         "llm.adapters.transcript": 36, "llm.decode.aggregate_median": 12}, out["calls"]
