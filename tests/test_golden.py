"""Byte-for-byte golden outputs of every subcommand.

Each file under ``tests/golden/`` is the exact stdout of one ``qhist`` call,
so a change in any digit of a value, an angle, the optimizer's trace, its
evaluation count or certified bound, or a probability table shows up here.
Each spec file in ``tests/golden/specs/`` is one case of the subcommand its
name starts with (``weight``, ``abl``, ``lgi``, ``chained`` or ``monogamy``;
the monogamy spec also runs in ``--mode chained``).  The two scenarios with
reductions run both at ``--alpha 0.6`` and at their default equal amplitudes,
where the reduced spectrum is degenerate and the members are the canonical
ones ``temporal_partial_trace`` documents.  To rewrite the files from the package on
``PYTHONPATH`` (for a deliberate output change, stated in CHANGES.md)::

    PYTHONPATH=src python tests/test_golden.py

The chain-kernel cases (``CHAIN_KERNEL_CASES``) are also rerun in a
subprocess under another OpenBLAS kernel (``OPENBLAS_CORETYPE``) and with
numpy's SIMD dispatch cut to its baseline (``NPY_DISABLE_CPU_FEATURES``),
and must keep their bytes.  Every case is also rerun with ``builtins.sum``
compensated over floats, as CPython 3.12 made it, and must keep its bytes,
so printed values do not depend on the Python version.
"""

import builtins
import contextlib
import io
import math
import os
import pathlib
import platform
import subprocess
import sys

import pytest

from qhist.cli import EXIT_OK, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SPECS = GOLDEN / "specs"

# name -> (argv without --format, expected exit code)
CASES = {
    "optimize-s_lgi": (["optimize", "--objective", "s_lgi"], EXIT_OK),
    "optimize-chained_bell-n2": (["optimize", "--objective", "chained_bell", "-n", "2"], EXIT_OK),
    "optimize-chained_bell-n3": (["optimize", "--objective", "chained_bell", "-n", "3"], EXIT_OK),
    "optimize-monogamy_sum": (["optimize", "--objective", "monogamy_sum"], EXIT_OK),
    "lgi-tsirelson": (["lgi"], EXIT_OK),
    "chained-tsirelson-n3": (["chained", "-n", "3"], EXIT_OK),
    "monogamy-paper-independent": (["monogamy", "--mode", "independent"], EXIT_OK),
    "monogamy-paper-chained": (["monogamy", "--mode", "chained"], EXIT_OK),
    "scenario-temporal-ghz": (["scenario", "temporal-ghz", "--alpha", "0.6"], EXIT_OK),
    "scenario-temporal-ghz-slots2": (["scenario", "temporal-ghz", "--slots", "2", "--alpha", "0.6"],
                                     EXIT_OK),
    "scenario-temporal-ghz-slots4": (["scenario", "temporal-ghz", "--slots", "4", "--alpha", "0.6"],
                                     EXIT_OK),
    "scenario-temporal-ghz-slots5": (["scenario", "temporal-ghz", "--slots", "5", "--alpha", "0.6"],
                                     EXIT_OK),
    "scenario-temporal-ghz-slots6": (["scenario", "temporal-ghz", "--slots", "6", "--alpha", "0.6"],
                                     EXIT_OK),
    "scenario-temporal-ghz-default": (["scenario", "temporal-ghz"], EXIT_OK),
    "scenario-mach-zehnder": (["scenario", "mach-zehnder", "--alpha", "0.6"], EXIT_OK),
    "scenario-mach-zehnder-default": (["scenario", "mach-zehnder"], EXIT_OK),
    "scenario-example1": (["scenario", "example1"], EXIT_OK),
    "scenario-pauli-cycle": (["scenario", "pauli-cycle"], EXIT_OK),
    "scenario-two-time-hab": (["scenario", "two-time-hab"], EXIT_OK),
    "scenario-two-time-hab-psi-plus": (["scenario", "two-time-hab", "--psi", "+"], EXIT_OK),
    "abl-post-one-slot-minus": (["abl", "--spec", str(SPECS / "abl-post-one.json"),
                                 "--slot", "0", "--outcome", "-"], EXIT_OK),
    "monogamy-unitaries-chained": (["monogamy", "--spec", str(SPECS / "monogamy-unitaries.json"),
                                    "--mode", "chained"], EXIT_OK),
}
CASES.update({spec.stem: ([spec.stem.split("-")[0], "--spec", str(spec)], EXIT_OK)
              for spec in SPECS.glob("*.json")})
FORMATS = ("json", "csv", "pretty")


def run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, fmt):
    argv, expected_code = CASES[name]
    code, out = run(argv + ["--format", fmt])
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


def _compensated_sum(real_sum):
    """``sum`` with math.fsum for a float-only iterable and no start value,
    close to CPython 3.12's compensated float sum."""
    def summed(iterable, /, *start):
        items = list(iterable)
        if not start and items and all(isinstance(x, float) for x in items):
            with contextlib.suppress(OverflowError):
                return math.fsum(items)
        return real_sum(items, *start)
    return summed


def test_goldens_under_a_compensated_float_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", _compensated_sum(builtins.sum))
    moved = [f"{name}.{fmt}" for name in sorted(CASES) for fmt in FORMATS
             if run(CASES[name][0] + ["--format", fmt])[1].encode("utf-8")
             != (GOLDEN / f"{name}.{fmt}").read_bytes()]
    assert moved == []


# cases that kept their bytes under every OpenBLAS kernel tried (Prescott,
# Sandybridge, Haswell, Zen, SkylakeX) and with numpy's dispatch cut to its
# baseline: the abl tables, weights and Bell correlators come from the chain
# kernel alone (see ``histories``), the optimizer's spectral start from einsum
# and elementwise arithmetic, and the scenarios' Grams and the certificate's
# eigensolve rounded the same on each.  Still moving under some kernel
# (ROADMAP item 1): weight-random-16 and -64 (Gram products and complex
# multiply), and scenario-example1 and -pauli-cycle (eigensolves, Prescott and
# Sandybridge only)
CHAIN_KERNEL_CASES = sorted(name for name in CASES if name.startswith(
    ("abl-", "weight-matrices", "scenario-mach-zehnder", "scenario-temporal-ghz", "lgi-", "chained-",
     "monogamy-", "optimize-")))


def _other_kernels() -> list[dict]:
    """Environment settings that make OpenBLAS or numpy pick other kernels."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    settings = [{"OPENBLAS_CORETYPE": "Prescott"}]
    with open("/proc/cpuinfo") as f:
        if "avx2" in f.read().split():
            settings.append({"OPENBLAS_CORETYPE": "Haswell"})
    dispatched = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if dispatched:
        settings.append({"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)})
    return settings


_RERUN = """
import sys
sys.path.insert(0, {tests!r})
from test_golden import CASES, FORMATS, GOLDEN, run
for name in {names!r}:
    for fmt in FORMATS:
        argv, _ = CASES[name]
        if run(argv + ["--format", fmt])[1].encode("utf-8") != (GOLDEN / f"{{name}}.{{fmt}}").read_bytes():
            print(f"{{name}}.{{fmt}}")
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64") or not os.path.exists("/proc/cpuinfo"),
                    reason="kernel selection by environment is checked on x86-64 Linux")
def test_chain_kernel_goldens_under_other_kernels():
    import qhist

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(pathlib.Path(qhist.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    code = _RERUN.format(tests=str(pathlib.Path(__file__).parent), names=CHAIN_KERNEL_CASES)
    for setting in _other_kernels():
        proc = subprocess.run([sys.executable, "-c", code], env=env | setting, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "", f"{setting}: differ from the goldens: {proc.stdout.split()}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        for fmt in FORMATS:
            code, out = run(argv + ["--format", fmt])
            if code != expected_code:
                sys.exit(f"{name}: exit {code}, expected {expected_code}")
            (GOLDEN / f"{name}.{fmt}").write_bytes(out.encode("utf-8"))
            print(f"wrote {name}.{fmt}")
