"""The bench tracer patches spinmaps functions at every module that binds
them (bench/tracing.py); a binding it names that no longer exists breaks
`bench/run.py --trace 1` and `bench/selftest.py`."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = ("qlinalg", "network", "reduced", "analytic", "ensemble", "disorder", "measure")


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = {name: importlib.import_module(f"spinmaps.{name}") for name in MODULES}
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracing.trace_targets(mods)
               if attr not in vars(owner)]
    assert missing == []
