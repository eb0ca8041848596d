"""Opt-in spans and counters around the calls into each qhist layer.

``install`` replaces each public function named in ``TARGETS`` by a wrapper
in every qhist module that holds it (for example both ``linalg.partial_trace``
and the ``partial_trace`` that ``histories`` and ``scenarios`` imported), so
calls between layers are seen as well as the benchmark's own calls.  Spans
and counters are kept in memory and written as JSON lines when the run ends;
``layer_metrics`` derives the per-layer figures from them.  Nothing here runs
unless the benchmark is started with ``--trace 1``.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict

QHIST_MODULES = ("qhist", "qhist.linalg", "qhist.histories", "qhist.twostate", "qhist.bell",
                 "qhist.scenarios", "qhist.serialize", "qhist.cli")


def _count_outcomes(args, kwargs, result):
    table = getattr(result, "table", result)
    return [("twostate.outcome_strings", len(table))]


def _count_reduction(args, kwargs, result):
    dims = args[0].grid.slot_dims
    dim = math.prod(d * d for d in dims)
    return [("histories.history_dim_max", dim),
            # the dense |psi><psi| the reduction builds, complex128: computed, not measured
            ("histories.dense_bytes_computed", 16 * dim * dim),
            ("histories.ensemble_terms", sum(h.n_terms for _, h in result.ensemble))]


def _count_evals(args, kwargs, result):
    return [("bell.objective_evals", result.evaluations)]


def _count_strategies(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    return [("bell.classical_strategies", 4 ** (n + 1))]


def _count_bytes(args, kwargs, result):
    return [("serialize.out_bytes", len(result.encode("utf-8")))]


# (module, function, span name, counter); several functions may share a span
# name, and a call nested in a span of the same name opens no new span.
TARGETS = (
    ("qhist.linalg", "partial_trace", "linalg.partial_trace", None),
    ("qhist.histories", "temporal_partial_trace", "histories.temporal_partial_trace", _count_reduction),
    ("qhist.histories", "weight", "histories.weight", None),
    ("qhist.histories", "is_consistent_family", "histories.is_consistent_family", None),
    ("qhist.histories", "subsystem_trace_out", "histories.subsystem_trace_out", None),
    ("qhist.histories", "purity", "histories.purity", None),
    ("qhist.histories", "mixed_history_density", "histories.mixed_history_density", None),
    ("qhist.twostate", "sequence_distribution", "twostate.sequence_distribution", _count_outcomes),
    ("qhist.twostate", "mixed_sequence_distribution", "twostate.mixed_sequence_distribution",
     _count_outcomes),
    ("qhist.twostate", "coherent_bundle_weights", "twostate.coherent_bundle_weights", _count_outcomes),
    ("qhist.bell", "optimize_settings", "bell.optimize_settings", _count_evals),
    ("qhist.bell", "settings_from_angles", "bell.settings_from_angles", None),
    ("qhist.bell", "s_lgi", "bell.s_lgi", None),
    ("qhist.bell", "temporal_correlator", "bell.temporal_correlator", None),
    ("qhist.bell", "chained_bell", "bell.chained_bell", None),
    ("qhist.bell", "monogamy_sum", "bell.monogamy_sum", None),
    ("qhist.bell", "chained_classical_bound", "bell.chained_classical_bound", _count_strategies),
    ("scipy.optimize", "minimize", "bell.minimize", None),
    ("qhist.scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("qhist.serialize", "load_document", "serialize.parse", None),
    ("qhist.serialize", "state_from_document", "serialize.parse", None),
    ("qhist.serialize", "unitary_from_document", "serialize.parse", None),
    ("qhist.serialize", "setting_from_document", "serialize.parse", None),
    ("qhist.serialize", "history_from_document", "serialize.parse", None),
    ("qhist.serialize", "experiment_from_document", "serialize.parse", None),
    ("qhist.serialize", "to_jsonable", "serialize.encode", None),
    ("qhist.serialize", "document", "serialize.encode", None),
    ("qhist.serialize", "scenario_document", "serialize.encode", None),
    ("qhist.serialize", "dumps_json", "serialize.render", _count_bytes),
    ("qhist.serialize", "dumps_csv", "serialize.render", _count_bytes),
    ("qhist.serialize", "dumps_pretty", "serialize.render", _count_bytes),
    ("qhist.serialize", "distribution_csv", "serialize.render", _count_bytes),
    ("qhist.serialize", "trace_csv", "serialize.render", _count_bytes),
    ("qhist.cli", "main", "cli.main", None),
)

# Per-layer metrics.  Self times and summed counts are per pass, so runs of
# different lengths compare; the largest sizes are maxima over the run.
SELF_TIME_SPANS = (
    "bell.optimize_settings", "bell.minimize", "bell.s_lgi", "bell.temporal_correlator",
    "bell.settings_from_angles", "bell.chained_bell", "bell.monogamy_sum",
    "bell.chained_classical_bound", "histories.temporal_partial_trace", "histories.weight",
    "histories.is_consistent_family", "histories.subsystem_trace_out", "histories.purity",
    "histories.mixed_history_density", "linalg.partial_trace", "twostate.sequence_distribution",
    "twostate.mixed_sequence_distribution", "twostate.coherent_bundle_weights", "serialize.parse",
    "serialize.encode", "serialize.render", "scenarios.run_scenario", "cli.main",
)
CALL_COUNTS = ("bell.s_lgi", "linalg.partial_trace")
SUMMED_COUNTERS = ("bell.objective_evals", "bell.classical_strategies", "histories.ensemble_terms",
                   "twostate.outcome_strings", "serialize.out_bytes")
MAX_COUNTERS = ("histories.history_dim_max", "histories.dense_bytes_computed")


def per_layer_units() -> dict[str, str]:
    units = {f"{s}.self_ms": "ms/pass" for s in SELF_TIME_SPANS}
    units.update({f"{s}.calls": "count/pass" for s in CALL_COUNTS})
    units.update({c: "count/pass" for c in SUMMED_COUNTERS})
    units["serialize.out_bytes"] = "B/pass"
    units.update({"histories.history_dim_max": "dim", "histories.dense_bytes_computed": "B",
                  "setup.import_qhist_ms": "ms", "setup.import_scipy_optimize_ms": "ms",
                  "trace.ops_per_s": "1/s"})
    return units


class Tracer:
    """Spans [name, start, end, parent, op] and counters (name, value, op, span)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: list[tuple] = []
        self.stack: list[int] = []
        self.op = -1
        self._restore: list[tuple] = []

    def wrap(self, fn, name: str, count=None):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                counters.extend((c, v, self.op, idx) for c, v in count(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in QHIST_MODULES]
        for modname, fname, span, count in TARGETS:
            home = importlib.import_module(modname)
            original = getattr(home, fname)
            wrapper = self.wrap(original, span, count)
            for mod in set(modules) | {home}:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def root(self, kind: str):
        """Open the span of one benchmark operation; returns its closer."""
        idx = len(self.spans)
        span = [f"op.{kind}", time.perf_counter(), 0.0, -1, self.op]
        self.spans.append(span)
        self.stack.append(idx)

        def close():
            span[2] = time.perf_counter()
            self.stack.pop()

        return close

    def layer_metrics(self, passes: int) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_ms[name] += (end - start - covered) * 1e3
            calls[name] += 1
        out = {f"{s}.self_ms": self_ms[s] / passes for s in SELF_TIME_SPANS}
        out.update({f"{s}.calls": calls[s] / passes for s in CALL_COUNTS})
        sums: dict[str, float] = defaultdict(float)
        maxes: dict[str, float] = defaultdict(float)
        for name, value, _, _ in self.counters:
            sums[name] += value
            maxes[name] = max(maxes[name], value)
        out.update({c: sums[c] / passes for c in SUMMED_COUNTERS})
        out.update({c: maxes[c] for c in MAX_COUNTERS})
        return out

    def write(self, path: str, header: dict, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")
            for name, value, op, span in self.counters:
                fh.write(json.dumps({"counter": name, "value": value, "op": op, "span": span}) + "\n")
