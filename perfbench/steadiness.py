"""Run-to-run spread of the benchmark.

Runs each workload repeatedly, one seed per run, and prints every metric's
median and quartiles with the spread ``(q3 - q1) / median`` beside the
metric's bound from BENCHMARK.json. With ``--sets 2`` it repeats the whole
set of runs and prints how far the second median moved from the first.
With ``--trace 1`` the per-layer metrics are summarised instead; adding
``--overhead`` follows each traced run with an untraced run of the same
seed and prints the tracing overhead, ``trace.run_s / run_s - 1``.

    python3 perfbench/steadiness.py --workload sweep-linear --runs 10
    python3 perfbench/steadiness.py --runs 10 --sets 2 --save .perfbench_out/steady.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(results: list[dict], bounds: dict[str, float]) -> dict[str, dict]:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        table[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                       "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name),
                       "values": values}
    return table


def print_table(title: str, table: dict[str, dict]) -> None:
    print(f"\n{title}")
    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, row in table.items():
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{name:34} {row['unit']:6} {row['median']:12.6g} {row['q1']:12.6g} "
              f"{row['q3']:12.6g} {row['spread']:8.4f} {bound:>6}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--overhead", action="store_true",
                        help="with --trace 1, also run each seed untraced and report the tracing overhead")
    parser.add_argument("--save", type=Path, help="write every run's result to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    saved: dict = {}
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            results, overheads = [], []
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                results.append(run_once(workload, seed, seconds, args.trace))
                if args.trace and args.overhead:
                    plain = run_once(workload, seed, seconds, 0)
                    overheads.append(results[-1]["metrics"]["trace.run_s"]["value"]
                                     / plain["metrics"]["run_s"]["value"] - 1)
                print(f"{workload} set {s + 1} seed {seed}: attempted {results[-1]['attempted']}, "
                      f"failed {results[-1]['failed']}", file=sys.stderr, flush=True)
            table = summarise(results, bounds)
            shares = sorted({r["failed"] / r["attempted"] for r in results})
            first = 1 + s * args.runs
            print_table(f"{workload}, set {s + 1}: {args.runs} runs of {seconds} s, seeds "
                        f"{first}..{first + args.runs - 1}, attempted "
                        f"{sum(r['attempted'] for r in results)}, failed "
                        f"{sum(r['failed'] for r in results)} (share per run {shares}), correct "
                        f"{all(r['correct'] for r in results)}", table)
            sets.append({"results": results, "table": table})
            if overheads:
                print(f"\n{workload}: tracing overhead, traced trace.run_s over untraced run_s "
                      f"of the same seed, minus 1: median {statistics.median(overheads):+.4f} "
                      f"of {[round(o, 4) for o in overheads]}")
        if args.sets > 1:
            print(f"\n{workload}: median drift, set 2 against set 1")
            for name, row in sets[0]["table"].items():
                second = sets[1]["table"][name]["median"]
                drift = (second - row["median"]) / row["median"] if row["median"] else 0.0
                bound = "" if row["bound"] is None else f"bound {row['bound']:.2f}"
                print(f"  {name:34} {row['median']:12.6g} -> {second:12.6g}  {drift:+.4f}  {bound}")
        saved[workload] = sets
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
