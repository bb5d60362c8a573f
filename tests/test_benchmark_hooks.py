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


def test_workspace_build_is_traced(monkeypatch):
    # the mesh builders must be looked up when a Workspace is built, not bound
    # at import time, or the traced run loses its mesh.build spans
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    from interface_surrogates import pipeline

    cfg = pipeline.ExperimentConfig(problem="elliptic", d=4, n_points=2,
                                    h_interface=0.06, h_far=0.15)
    with tracing.installed(tracing.Tracer()) as tracer:
        pipeline.Workspace(cfg)
    names = [span[0] for span in tracer.spans]
    assert names.count("mesh.build") == 1
    assert names.count("pde.setup") == 1
