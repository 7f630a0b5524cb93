"""Offline runs start without the HTTP client or the YAML parser.

A fresh interpreter (in a subprocess, so modules other tests imported do not
count) imports castlab, validates a dict config with a linear, a baseline
and a mock-LLM forecaster, and diffs a run's records against themselves;
``requests`` and ``yaml`` must stay unloaded until a YAML file is read, and
``hashlib`` (which loads OpenSSL) unloaded throughout.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import castlab
from castlab import config, runner
config.config_from_dict({
    "task": {"input_length": 20, "output_length": 5},
    "datasets": [{"name": "sine", "function": {"kind": "sine", "length": 80}}],
    "forecasters": [
        {"name": "dlinear", "linear": {"variant": "dlinear", "max_epochs": 5}},
        {"name": "naive", "baseline": {"type": "last_value"}},
        {"name": "llm", "llm": {"adapter": {"type": "mock", "responses": ["1, 2, 3"]}}},
    ],
})
watched = {"requests", "yaml", "hashlib"}
loaded = {"after_config": sorted(watched & set(sys.modules))}
golden = Path(sys.argv[2])
assert runner.diff_runs(golden, golden) == []
loaded["after_diff"] = sorted(watched & set(sys.modules))
path = Path("specs.yaml")
path.write_text("- {kind: sine, length: 8}\n")
assert config.read_yaml(path) == [{"kind": "sine", "length": 8}]
loaded["after_read_yaml"] = sorted(watched & set(sys.modules))
print(json.dumps(loaded))
"""


def test_offline_config_loads_neither_requests_nor_yaml(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(REPO / "src"),
         str(REPO / "tests" / "golden" / "records-with-report-stem")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {"after_config": [], "after_diff": [], "after_read_yaml": ["yaml"]}
