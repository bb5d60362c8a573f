"""The traced benchmark run patches package names from outside; every name
it patches must exist where its callers look it up."""

import importlib
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_traced_names_exist_where_looked_up(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.targets()
               if attr not in vars(owner)]
    assert missing == []
    with tracing.installed(tracing.Tracer()):
        pass
    assert tracing.leftover_wrappers() == []
