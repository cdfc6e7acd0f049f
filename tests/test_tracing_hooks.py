"""The benchmark's tracer patches potbet functions by name, but only under
--trace 1; an untraced run never notices that one was renamed or deleted."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # tracing.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    tracing = load_tracing()
    assert tracing.WRAPPED
    for module in tracing.MODULES:
        importlib.import_module(module)
    missing = [(module, attr) for module, attr, *_ in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
