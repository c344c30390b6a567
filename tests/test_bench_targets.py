"""Every name the benchmark's span tracer wraps still exists in ntnsim."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer() as traced:
        pass
    assert traced.missing == []
