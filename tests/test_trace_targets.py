"""The benchmark's traced functions exist under the names it looks them up by.

``bench/tracing.py`` wraps each ``(module, function)`` in its ``TARGETS`` by
name, so renaming or deleting one of them would first fail in a traced
benchmark run.  This test fails instead.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable():
    targets = _tracing_module().TARGETS
    assert targets
    missing = [
        f"{modname}.{fname}"
        for modname, fname, _, _ in targets
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert missing == []
