"""One measured process of the benchmark, started by ``run.py``.

``worker.py probe SPEC`` times the set-up of castlab: imports, then
validation of the workload's config. It prints the monotonic clock at the
moment the config is validated, so the parent can add interpreter start.

``worker.py rounds SPEC`` runs whole rounds of the workload until the
spec's seconds have passed, checks every round's output and prints one
JSON result with the per-round timings, the checks' problems and the
process's peak resident memory.

Only the standard library is imported at module level, so the probe's
import time covers castlab and its dependencies.
"""

from __future__ import annotations

import json
import sys
import time


def probe(spec: dict) -> dict:
    start = time.perf_counter()
    from castlab import config, runner  # noqa: F401

    imported = time.perf_counter()
    config.config_from_dict(spec["config"], base_dir=spec["run_dir"])
    ready = time.monotonic()
    return {"ready": ready, "import_s": imported - start,
            "config_s": time.perf_counter() - imported}


def rounds(spec: dict) -> dict:
    import resource
    import shutil
    from pathlib import Path

    import checks
    import tracing
    import workloads
    from castlab.config import config_from_dict

    run_dir = Path(spec["run_dir"])
    cfg = config_from_dict(spec["config"], base_dir=run_dir)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    work = workloads.make_round(spec["workload"], cfg, spec["seed"], spec["reference"])

    records, problems, failed = [], [], 0
    start = time.perf_counter()
    while not records or time.perf_counter() - start < spec["seconds"]:
        out = run_dir / f"round-{len(records)}"
        if tracer is not None:
            tracer.reset()
        c0, t0 = time.process_time(), time.perf_counter()
        cost, round_failed = work.run(out)
        t1, c1 = time.perf_counter(), time.process_time()
        record = {"run_s": t1 - t0, "run_cpu_s": c1 - c0, "reported_cost_s": cost}
        failed += round_failed
        round_problems = work.check(out)
        if tracer is not None:
            record["layers"] = tracer.layer_metrics(work.stub)
            for fit in tracer.fits:
                round_problems += checks.check_linear_fit(fit)
        if not round_problems:
            shutil.rmtree(out)
        problems += round_problems
        records.append(record)
    return {
        "rounds": records,
        "attempted": work.operations * len(records),
        "failed": failed,
        "problems": problems[:50],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = probe(spec) if mode == "probe" else rounds(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
