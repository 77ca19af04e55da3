"""Guard for the benchmark's tracer: every (owner, attribute) it wraps must
still exist, so a rename fails here before it breaks a benchmark run."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
