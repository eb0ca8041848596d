#!/usr/bin/env python3
"""Reproduce the headline bound values in one run.

Prints the classical CHSH comparator, the optimized temporal functional,
the two-pair sum in both evaluation modes, and the chained totals, each next
to its target.  With --out DIR the same reports are written as JSON.  Exits 1,
naming each row, when a value is further than TOLERANCE from its target.
"""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qhist import (
    chained_bell,
    chained_classical_bound,
    classical_bound_bruteforce,
    monogamy_preset_settings,
    monogamy_sum,
    optimize_settings,
    tsirelson_settings,
)
from qhist.bell import CHAINED, INDEPENDENT
from qhist.linalg import maximally_mixed
from qhist.serialize import dumps_report

SQRT2 = math.sqrt(2.0)
# largest |value - target| a row may show; every row is within 3.6e-15 today
TOLERANCE = 1e-12


def row(errors: dict, label: str, value: float, target: float) -> float:
    """Print one value next to its target; its error is returned and kept
    in ``errors`` under ``label``."""
    err = errors[label] = abs(value - target)
    print(f"  {label:<44} {value:>14.10f}  target {target:>14.10f}  err {err:.2e}")
    return err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chain-max", type=int, default=8,
                        help="largest chain length to evaluate (default 8)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="directory for JSON copies of each report")
    args = parser.parse_args(argv)

    # stem: (report name, artifacts), written by dumps_report
    reports = {}
    errors = {}

    print("classical comparator")
    bound = classical_bound_bruteforce()
    row(errors, "deterministic CHSH maximum", bound, 2.0)
    reports["classical"] = ("classical-bound", {"value": bound})

    print("optimized temporal functional")
    opt = optimize_settings("s_lgi")
    row(errors, "best value over Bloch settings", opt.value, 2.0 * SQRT2)
    row(errors, "certified upper bound", opt.certified_bound, 2.0 * SQRT2)
    print(f"  converged={opt.converged} after {opt.evaluations} evaluations")
    reports["optimize"] = (
        "optimize", {"value": opt.value, "certified_bound": opt.certified_bound,
                     "converged": opt.converged, "evaluations": opt.evaluations,
                     "angles": opt.angles})

    print("two-pair sum (preset settings, maximally mixed input)")
    a, b, c = monogamy_preset_settings()
    for mode in (INDEPENDENT, CHAINED):
        res = monogamy_sum(maximally_mixed(2), a, b, c, mode=mode)
        row(errors, f"{mode} total", res.total, 4.0 * SQRT2)
        reports[f"monogamy-{mode}"] = (
            "monogamy", {"mode": mode, "total": res.total,
                         "spatial_reference": res.spatial_reference})
    print(f"  spatial reference cap: {4.0}")

    print("chained totals")
    firsts, seconds = tsirelson_settings()
    chain_rows = []
    for n in range(1, args.chain_max + 1):
        res = chained_bell(n, firsts, seconds)
        row(errors, f"n={n}", res.total, 2.0 * SQRT2 * n)
        chain_rows.append({"n": n, "total": res.total,
                           "quantum_bound": res.quantum_bound,
                           "classical_bound": res.classical_bound,
                           "classical_bruteforce": chained_classical_bound(n)})
    reports["chained"] = ("chained", {"rows": chain_rows})

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        for stem, report in reports.items():
            path = args.out / f"{stem}.json"
            path.write_text(dumps_report(*report))
            print(f"wrote {path}")
    failed = [(label, err) for label, err in errors.items() if not err <= TOLERANCE]
    for label, err in failed:
        print(f"error: {label}: {err:.2e} from its target, more than {TOLERANCE:g}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
