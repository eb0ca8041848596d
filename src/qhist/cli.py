"""Command-line front end.

Subcommands: scenario, lgi, chained, monogamy, optimize, weight, abl.
Exit codes: 0 success, 2 input error, 3 optimizer result not certified (the
start's certificate is open after its one evaluation), 4 impossible
post-selection.  Identical arguments produce byte-identical output.  Every
subcommand takes --format and --out; --tol belongs to weight, its reader.
Without --spec, lgi and chained run the tsirelson preset and monogamy the
paper preset, on the maximally mixed qubit with no unitaries.

A process builds one argument parser, on its first ``main`` call, and reuses
it: parsing does not change a parser, and each call gets a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import sys

from . import serialize
from .bell import (
    CHAINED,
    INDEPENDENT,
    MAX_CHAIN_BLOCKS,
    chained_bell,
    monogamy_preset_settings,
    monogamy_sum,
    optimize_settings,
    s_lgi,
    tsirelson_settings,
)
from .errors import ImpossiblePostselectionError
from .histories import _term_consistency, hs_norm, weight
from .linalg import maximally_mixed
from .scenarios import SCENARIOS, run_scenario
from .twostate import mixed_sequence_distribution, sequence_distribution

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3
EXIT_IMPOSSIBLE = 4


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"), default="json",
                        help="output format (default json)")
    common.add_argument("--out", default=None, help="write the report to this path")

    parser = argparse.ArgumentParser(prog="qhist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", parents=[common], help="run a named scenario")
    p.add_argument("name")
    p.add_argument("--slots", type=int, default=None, help="slot count (temporal-ghz)")
    p.add_argument("--alpha", type=float, default=None, help="first branch amplitude")
    p.add_argument("--beta", type=float, default=None, help="second branch amplitude")
    p.add_argument("--psi", default=None, help="input state name (two-time-hab)")

    p = sub.add_parser("lgi", parents=[common], help="evaluate the two-time Bell functional")
    p.add_argument("--spec", default=None, help="JSON spec file; without it, the tsirelson preset")

    p = sub.add_parser("chained", parents=[common], help="evaluate the chained functional")
    p.add_argument("-n", type=int, default=None,
                   help=f"number of chained blocks (1 to {MAX_CHAIN_BLOCKS})")
    p.add_argument("--spec", default=None, help="JSON spec file; without it, the tsirelson preset")

    p = sub.add_parser("monogamy", parents=[common], help="evaluate the three-party sum")
    p.add_argument("--mode", choices=("independent", "chained"), default="independent")
    p.add_argument("--spec", default=None, help="JSON spec file; without it, the paper preset")

    p = sub.add_parser("optimize", parents=[common], help="search settings for a functional")
    p.add_argument("--objective", choices=("s_lgi", "chained_bell", "monogamy_sum"),
                   default="s_lgi")
    p.add_argument("-n", type=int, default=1,
                   help=f"blocks for chained_bell, 1 to {MAX_CHAIN_BLOCKS} (checked for every objective)")

    p = sub.add_parser("weight", parents=[common], help="weight and consistency of a history file")
    p.add_argument("--spec", required=True, help="JSON history document")
    p.add_argument("--tol", type=float, default=1e-9, help="consistency tolerance override")

    p = sub.add_parser("abl", parents=[common], help="pre/post-selected outcome distribution")
    p.add_argument("--spec", required=True, help="JSON experiment document")
    p.add_argument("--slot", type=int, default=None, help="slot for the single-slot probability")
    p.add_argument("--outcome", choices=("+", "-"), default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use (nothing is built at import)."""
    return build_parser()


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report, special_csv_or_None, exit_code),
# the report being the (name, artifacts, notes) of its document; the report is
# None when the special CSV is the whole output

# each scenario flag and the keyword it sets
_SCENARIO_FLAGS = (("--slots", "n_slots"), ("--alpha", "alpha"), ("--beta", "beta"), ("--psi", "psi"))


def _run_scenario(args):
    fn = SCENARIOS.get(args.name)
    kwargs = {}
    for flag, keyword in _SCENARIO_FLAGS:
        value = getattr(args, flag[2:])
        if value is None:
            continue
        if fn is not None and keyword not in inspect.signature(fn).parameters:
            raise serialize.SpecError(f"scenario {args.name} does not take {flag}")
        if isinstance(value, float) and not math.isfinite(value):
            raise serialize.SpecError(f"{flag} must be a finite number, got {value}")
        kwargs[keyword] = value
    if args.name == "temporal-ghz" and args.alpha is not None and args.beta is None:
        # the unit-norm complement; an |alpha| above 1 has none, and the scenario rejects it
        kwargs["beta"] = math.sqrt(max(0.0, 1.0 - args.alpha**2)) if abs(args.alpha) <= 1.0 else 0.0
    result = run_scenario(args.name, **kwargs)
    return (result.name, result.artifacts, result.notes), None, EXIT_OK


def _bell_inputs(args) -> tuple:
    """``bell_spec_from_document``'s reading of the command's spec, or its
    preset: the maximally mixed qubit, the preset settings and no unitaries."""
    if args.spec is not None:
        return serialize.bell_spec_from_document(serialize.load_document(args.spec), args.command)
    pairs = monogamy_preset_settings() if args.command == "monogamy" else tsirelson_settings()
    return maximally_mixed(2), pairs, (None,) * (len(pairs) - 1), 1


def _run_lgi(args):
    initial, pairs, unitaries, _ = _bell_inputs(args)
    report = s_lgi(initial, *pairs, *unitaries)
    return ("lgi", report, ()), None, EXIT_OK


def _run_chained(args):
    initial, pairs, unitaries, n = _bell_inputs(args)
    result = chained_bell(n if args.n is None else args.n, *pairs, initial, *unitaries)
    return ("chained", result, ()), None, EXIT_OK


def _run_monogamy(args):
    initial, pairs, unitaries, _ = _bell_inputs(args)
    mode = INDEPENDENT if args.mode == "independent" else CHAINED
    result = monogamy_sum(initial, *pairs, unitaries=unitaries, mode=mode)
    return ("monogamy", result, ()), None, EXIT_OK


def _run_optimize(args):
    result = optimize_settings(objective=args.objective, n=args.n)
    code = EXIT_OK if result.converged else EXIT_NONCONVERGED
    table = serialize.trace_csv(result) if args.format == "csv" else None
    return ("optimize", result, ()), table, code


def _run_weight(args):
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be a finite nonnegative number, got {args.tol}")
    doc = serialize.load_document(args.spec)
    history, bridging = serialize.history_from_document(doc)
    report = _term_consistency(history, bridging, tol=args.tol)
    artifacts = {
        "weight": weight(history, bridging),
        "norm": hs_norm(history),
        "n_terms": history.n_terms,
        "term_consistency": report,
    }
    return ("weight", artifacts, ()), None, EXIT_OK


def _run_abl(args):
    if args.outcome is not None and args.slot is None:
        raise serialize.SpecError("--outcome needs --slot")
    doc = serialize.load_document(args.spec)
    parsed = serialize.experiment_from_document(doc)
    slots, unitaries, post = parsed["slots"], parsed["unitaries"], parsed["post"]
    artifacts: dict = {}
    if parsed["initial"] == "mixed":
        if args.slot is not None:
            raise serialize.SpecError("single-slot probability needs a pure 'pre' state")
        dist = mixed_sequence_distribution(maximally_mixed(2), slots, unitaries, post)
    else:
        if args.slot is not None:
            # the single-slot (ABL) probability's preconditions, before any table
            if post is None:
                raise ValueError("a post-selection is required")
            if tuple(i for i, s in enumerate(slots) if s is not None) != (args.slot,):
                raise ValueError("exactly one measured slot, matching `slot`, is required")
        dist = sequence_distribution(parsed["pre"], slots, unitaries, post)
        if args.slot is not None:
            # the slot's ABL probability, read off the one table
            outcome = args.outcome or "+"
            artifacts.update(slot=args.slot, outcome=outcome, abl_probability=dist.probability(outcome))
    if args.format == "csv":
        # the table is the whole output: no document is built
        return None, serialize.distribution_csv(dist), EXIT_OK
    artifacts["distribution"] = dist
    return ("abl", artifacts, ()), None, EXIT_OK


_HANDLERS = {
    "scenario": _run_scenario,
    "lgi": _run_lgi,
    "chained": _run_chained,
    "monogamy": _run_monogamy,
    "optimize": _run_optimize,
    "weight": _run_weight,
    "abl": _run_abl,
}


def _render(report: tuple, fmt: str, special_csv: str | None) -> str:
    """Every format written from the report's objects, with no plain document
    built."""
    if fmt == "csv" and special_csv is not None:
        return special_csv
    if fmt == "json":
        return serialize.dumps_report(*report)
    doc = serialize._report(*report)
    return serialize.dumps_csv(doc) if fmt == "csv" else serialize.dumps_pretty(doc)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, special_csv, code = _HANDLERS[args.command](args)
    except serialize.SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ImpossiblePostselectionError as exc:
        print(f"error: impossible post-selection: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except (ValueError, KeyError, TypeError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_INPUT

    text = _render(report, args.format, special_csv)
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
