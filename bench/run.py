"""qhist benchmark: one seeded workload, timed in whole passes, outputs checked.

    python3 bench/run.py --workload bounds --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports qhist from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A summary, p90
included, goes to standard error and, with the full detail, to
``bench/out/result-<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans and counters to ``bench/out/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, and inherited by the set-up interpreters.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("bounds", "histories", "records")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="run whole passes until this much time has gone (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe(args) -> int:
    """Body of one set-up interpreter: import, generate and write the inputs."""
    t0 = time.perf_counter()
    import qhist  # noqa: F401
    t1 = time.perf_counter()
    if args.workload == "bounds":
        import scipy.optimize  # noqa: F401  (optimize_settings loads it on first call)
    t2 = time.perf_counter()
    import workloads

    workloads.generate(args.workload, args.seed, args.probe)
    print(json.dumps({"cpu_s": time.process_time(), "import_qhist_ms": (t1 - t0) * 1e3,
                      "import_scipy_optimize_ms": (t2 - t1) * 1e3}), flush=True)
    return 0


def time_setup(args) -> list[tuple[float, dict]]:
    """Start one priming interpreter (discarded: it compiles the .pyc files)
    and SETUP_PROBES timed ones; each reports the CPU time it took to have
    its inputs ready.  Returns (wall seconds, report) per timed interpreter."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        workdir = OUT / f"probe-{os.getpid()}-{i}"
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", str(workdir),
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        try:
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up interpreter exited with code {proc.returncode}")
        if i > 0:
            samples.append((elapsed, json.loads(lines[0])))
    return samples


def run_passes(ops, seconds: float, tracer=None) -> dict:
    """Closed loop, one caller: whole passes over ``ops`` until ``seconds`` of
    wall time have gone.  Only the program call is timed, by the CPU time of
    the calling thread (the program runs on this one thread) and by wall
    time; checks run between calls."""
    import checks

    samples: list[tuple[int, float, float]] = []  # (op index, CPU s, wall s)
    first_texts: dict[int, tuple] = {}
    failures: list[str] = []
    errors: list[str] = []
    attempted = failed = passes = 0
    t_start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            attempted += 1
            close = None
            if tracer is not None:
                tracer.op = attempted - 1
                close = tracer.root(op.kind)
            try:
                t0, c0 = time.perf_counter(), time.thread_time()
                out = op.run()
                dc, dt = time.thread_time() - c0, time.perf_counter() - t0
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                failures.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
                continue
            finally:
                if close is not None:
                    close()
            if op.cli and any(r.code != 0 for r in out):
                failed += 1
                failures.append(f"{op.kind}: exit codes {[r.code for r in out]}")
                continue
            samples.append((i, dc, dt))
            try:
                op.check(out)
                if op.cli:
                    texts = tuple(r.text for r in out)
                    checks.check_repeated(first_texts.setdefault(i, texts), texts)
            except Exception as exc:  # an unreadable output is a wrong output
                errors.append(f"{op.kind} (pass {passes + 1}): {type(exc).__name__}: {exc}")
        passes += 1
        if time.perf_counter() - t_start >= seconds:
            break
    return {"samples": samples, "failures": failures, "errors": errors, "attempted": attempted,
            "failed": failed, "passes": passes, "wall_s": time.perf_counter() - t_start}


def op_p50(samples, col: int) -> float | None:
    """Median over the operation list of each operation's mean time across
    the passes (col 1: CPU, col 2: wall).  The host's speed drifts in spells
    of seconds, and the operations near the middle of a workload's cost range
    differ in cost by tens of percent, so the median of single calls jumps
    between spells; a mean per operation first smooths them."""
    by_op: dict[int, list[float]] = {}
    for sample in samples:
        by_op.setdefault(sample[0], []).append(sample[col])
    return statistics.median(statistics.fmean(v) for v in by_op.values()) if by_op else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qhist" / "__init__.py").is_file():
        print(f"error: no qhist sources at {SRC / 'qhist'}; run from a qhist checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe is not None:
        return probe(args)

    t_run = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    try:
        setup = time_setup(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    import qhist

    if Path(qhist.__file__).resolve().parent != (SRC / "qhist").resolve():
        print(f"error: imported qhist from {qhist.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "bounds":
        import scipy.optimize  # noqa: F401
    import workloads

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    tracer = None
    try:
        ops = workloads.operations(workloads.generate(args.workload, args.seed, str(workdir)))
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        res = run_passes(ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    lat = [cpu for _, cpu, _ in res["samples"]]
    wall = [w for _, _, w in res["samples"]]
    by_kind: dict[str, list[float]] = {}
    for i, cpu, _ in res["samples"]:
        by_kind.setdefault(ops[i].kind, []).append(cpu)
    setup_times = [info["cpu_s"] for _, info in setup]
    ops_per_s = len(lat) / sum(lat) if lat else 0.0
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_p50_ms": {"value": op_p50(res["samples"], 1) * 1e3 if lat else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    p90_ms = statistics.quantiles(lat, n=10)[-1] * 1e3 if len(lat) > 1 else None
    if tracer is not None:
        import tracing

        units = tracing.per_layer_units()
        layer = tracer.layer_metrics(res["passes"])
        for key in ("import_qhist_ms", "import_scipy_optimize_ms"):
            layer[f"setup.{key}"] = statistics.median(info[key] for _, info in setup)
        layer["trace.ops_per_s"] = ops_per_s
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(trace_path), {"workload": args.workload, "seed": args.seed,
                                       "passes": res["passes"], "ops_per_pass": len(ops)}, t_run)
        reported = {k: {"value": layer[k], "unit": units[k]} for k in units}
    else:
        reported = metrics

    result = {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": reported,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blas_threads": BLAS_THREADS, "passes": res["passes"], "ops_per_pass": len(ops),
        "timed_wall_s": res["wall_s"], "op_time_s": sum(lat), "op_p90_ms": p90_ms,
        "setup_cpu_s": setup_times, "setup_wall_s": [s for s, _ in setup],
        "wall_ops_per_s": len(wall) / sum(wall) if wall else None,
        "wall_op_p50_ms": op_p50(res["samples"], 2) * 1e3 if wall else None,
        "end_to_end": metrics,
        "median_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
        "op_cpu_s": res["samples"], "failures": res["failures"][:20],
        "errors": res["errors"][:20], **result,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for msg in res["failures"][:5] + res["errors"][:5]:
        print(msg, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {res['passes']} passes x {len(ops)} ops, "
          f"{res['attempted']} attempted, {res['failed']} failed, p90 "
          f"{p90_ms if p90_ms is None else round(p90_ms, 3)} ms, "
          + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
