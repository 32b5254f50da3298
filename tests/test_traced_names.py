"""The benchmark's layer tracing wraps library functions by name, so renaming
one must fail here, not only in the benchmark's smoke run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for mod_name, fn_name in tracing.FUNCTIONS:
        module = importlib.import_module(f"catpurify.{mod_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(f"{mod_name}.{fn_name}")
    for mod_name, cls_name, meth, span_name in tracing.METHODS:
        cls = getattr(importlib.import_module(f"catpurify.{mod_name}"), cls_name, None)
        if cls is None or not callable(vars(cls).get(meth)):
            missing.append(span_name)
    assert tracing.FUNCTIONS and tracing.METHODS
    assert not missing, f"traced names missing from the package: {missing}"
