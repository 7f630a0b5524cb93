"""castlab benchmark: one workload, one seed, one run.

Usage, from the root of a castlab checkout::

    python3 perfbench/run.py --workload sweep-linear --seed 1 --seconds 20 --trace 0

Set-up writes the workload's inputs into a fresh directory under
``.perfbench_out/`` and times castlab's set-up (imports and config
validation) in PROBES fresh interpreters, half of them before the rounds
and half after. A worker process runs whole rounds of the workload for
``--seconds`` and checks every round. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. Every timing is the median over
the rounds (or probes) of the run. Exits 1 when a check fails and 2 when
the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUTPUT_ROOT = ROOT / ".perfbench_out"
PROBES = 8
RUN_LIMIT_SECONDS = 170.0

# One BLAS thread: at OpenBLAS's default of one thread per core, fits burn
# twice the CPU for no wall-time gain, and their last bits depend on the
# thread count.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]),
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "run_cpu_s": "s",
                    "reported_cost_s": "s", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def _run_child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not (ROOT / "src" / "castlab" / "__init__.py").is_file():
        print(f"no castlab sources under {ROOT / 'src'}; run from a castlab checkout",
              file=sys.stderr)
        return 2
    os.environ.update(WORKER_ENV)
    sys.path[:0] = WORKER_ENV["PYTHONPATH"].split(os.pathsep)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    run_dir = OUTPUT_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    config, reference = workloads.prepare(args.workload, args.seed, run_dir)
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "run_dir": str(run_dir), "config": config,
            "reference": reference}
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    setup, imports, configs = [], [], []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            spawned = time.monotonic()
            probe = _run_child(["probe", str(spec_path)], timeout=60)
            setup.append(probe["ready"] - spawned)
            imports.append(probe["import_s"])
            configs.append(probe["config_s"])

    # Half the probes before the rounds and half after, so they sample the
    # machine at two moments rather than one.
    probe_setup(PROBES // 2)
    result = _run_child(["rounds", str(spec_path)],
                        timeout=RUN_LIMIT_SECONDS - 10 - (time.monotonic() - began))
    probe_setup(PROBES - PROBES // 2)
    rounds = result["rounds"]

    def median(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    if args.trace:
        units = layer_units()
        values = {"setup.import_s": statistics.median(imports),
                  "config.load_s": statistics.median(configs),
                  "trace.run_s": median("run_s")}
        for name in rounds[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in rounds)
    else:
        units = END_TO_END_UNITS
        values = {"setup_s": statistics.median(setup), "run_s": median("run_s"),
                  "run_cpu_s": median("run_cpu_s"), "reported_cost_s": median("reported_cost_s"),
                  "peak_rss_mb": result["peak_rss_mb"]}

    correct = not result["problems"]
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
          f"{time.monotonic() - began:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
