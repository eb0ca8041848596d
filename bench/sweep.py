"""Run the benchmark over several seeds and workloads, each run in a fresh
process, and summarise every metric by median and quartiles.

    python3 bench/sweep.py                      # one run of each workload
    python3 bench/sweep.py --runs 10 --first-seed 1
    python3 bench/sweep.py --workloads bounds --runs 1 --trace 1

The spread column is (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``; the bound column repeats the bound that
BENCHMARK.json allows for the metric.  Every run's result line is also kept in
``bench/out/sweep-<label>.jsonl``.
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
OUT = BENCH_DIR / "out"


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(detail_path.read_text(encoding="utf-8"))


def summarise(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    p.add_argument("--runs", type=int, default=1, help="runs per workload, one seed each")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="run length (default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="latest", help="name of the kept jsonl file")
    args = p.parse_args(argv)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    seeds = range(args.first_seed, args.first_seed + args.runs)
    ok = True
    with open(OUT / f"sweep-{args.label}.jsonl", "w", encoding="utf-8") as log:
        for workload in args.workloads:
            runs = []
            for seed in seeds:
                result, detail = run_one(workload, seed, seconds, args.trace)
                runs.append((result, detail))
                log.write(json.dumps({"workload": workload, "seed": seed, "result": result,
                                      "op_p90_ms": detail["op_p90_ms"],
                                      "passes": detail["passes"]}) + "\n")
                log.flush()
                ok &= result["correct"] and result["failed"] == 0
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} passes="
                      f"{detail['passes']} " + " ".join(
                          f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            print(f"\n{workload}: {len(runs)} runs, seeds {seeds.start}-{seeds.stop - 1}")
            print(f"  {'metric':44s} {'unit':>10s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
                  f"{'spread':>8s} {'bound':>6s}")
            names = list(runs[0][0]["metrics"])
            extra = [] if args.trace else [("op_p90_ms (reference)", "ms",
                                            [d["op_p90_ms"] for _, d in runs])]
            rows = [(n, runs[0][0]["metrics"][n]["unit"], [r["metrics"][n]["value"] for r, _ in runs])
                    for n in names] + extra
            for name, unit, values in rows:
                med, q1, q3 = summarise(values)
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds.get(name)
                print(f"  {name:44s} {unit:>10s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.2%} {'' if bound is None else f'{bound:.2f}':>6s}")
            print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
