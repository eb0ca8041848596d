"""One pass of each workload runs clean, and the command keeps its contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_has_no_failed_operations(workload, workdir):
    ops = workloads.operations(workloads.generate(workload, 3, str(workdir)))
    res = run.run_passes(ops, 0.0)
    assert res["passes"] == 1
    assert res["attempted"] == len(ops)
    assert res["failures"] == [] and res["failed"] == 0
    assert res["errors"] == []


def test_unreadable_output_is_wrong_not_fatal():
    op = workloads.Op("lgi", lambda: (workloads.CliRun(0, "not json"),),
                      lambda out: json.loads(out[0].text), cli=True)
    res = run.run_passes([op], 0.0)
    assert res["failed"] == 0 and len(res["errors"]) == 1


def test_op_p50_is_the_median_of_per_operation_means():
    # per-operation means 5, 2 and 10; the median of the single calls is 5.5
    samples = [(0, 1.0, 0.5), (1, 2.0, 1.0), (2, 10.0, 5.0), (0, 9.0, 4.5), (1, 2.0, 1.0),
               (2, 10.0, 5.0)]
    assert run.op_p50(samples, 1) == 5.0
    assert run.op_p50(samples, 2) == 2.5


def test_same_seed_gives_same_inputs(workdir):
    for sub in ("a", "b"):
        (workdir / sub).mkdir()
        workloads.generate("histories", 11, str(workdir / sub))
    names = sorted(os.listdir(workdir / "a"))
    assert names and names == sorted(os.listdir(workdir / "b"))
    for name in names:
        assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()


def _run_command(*args, cwd=run.ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    proc = _run_command("--workload", "records", "--seed", "2", "--seconds", "0",
                        "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_per_layer_units_match_benchmark_json():
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert tracing.per_layer_units() == want


def test_without_sources_exits_nonzero_and_prints_no_result(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.BENCH_DIR, workdir / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_command("--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout == ""
