"""The fixed-pattern assembly reproduces the committed reference solves, and
a sample evaluates the map's Jacobian on the band triangles only, with one
interface-series evaluation for both the Jacobian and the mapped points."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from interface_surrogates import geometry, pde, pipeline
from interface_surrogates.geometry import BAND_INNER, BAND_OUTER

REFERENCE = Path(__file__).resolve().parents[1] / "benchmark" / "reference.json"
# ROADMAP aim 3: a solver change reproduces the QoI to this relative tolerance
QOI_RTOL = 1e-9

# the generation workloads whose reference QoIs benchmark/reference.json holds
CONFIGS = {
    "elliptic-gen": dataclasses.replace(pipeline.preset("desk-elliptic"),
                                        d=16, p=1.0, n_points=64),
    "helmholtz-gen": pipeline.preset("desk-helmholtz"),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def case(request):
    return request.param, pipeline.Workspace(CONFIGS[request.param])


def test_reference_solves_reproduced(case):
    name, ws = case
    reference = json.loads(REFERENCE.read_text())
    for k, expected in enumerate(reference[name]["qoi"]):
        y = pipeline.sample_parameters(reference["ref_seed"], k, ws.config.d)
        np.testing.assert_allclose(ws.solve(y), expected, rtol=QOI_RTOL, atol=0)


def test_assemble_evaluates_jacobian_once_per_band_point(case, monkeypatch):
    _, ws = case
    points = []
    original = pde.map_jacobian

    def counting(dm, y, pts, band=None, **kwargs):
        points.append(len(pts))
        return original(dm, y, pts, band, **kwargs)

    monkeypatch.setattr(pde, "map_jacobian", counting)
    ws.problem.assemble(pipeline.sample_parameters(3, 0, ws.config.d))
    band = np.isin(ws.mesh.band, (BAND_INNER, BAND_OUTER))
    assert sum(points) == 3 * np.count_nonzero(band)


def test_assemble_sums_the_series_once(case, monkeypatch):
    _, ws = case
    calls = []
    series = geometry._series

    def counting_series(*args):
        calls.append("series")
        return series(*args)

    def no_forward(*args, **kwargs):
        raise AssertionError("assembly called pde.map_forward")

    monkeypatch.setattr(geometry, "_series", counting_series)
    monkeypatch.setattr(pde, "map_forward", no_forward)
    ws.problem.assemble(pipeline.sample_parameters(3, 1, ws.config.d))
    assert calls == ["series"]


def test_jacobian_image_matches_map_forward(case):
    _, ws = case
    cache = ws.problem.cache
    dm = ws.problem.dm
    for k in range(3):
        y = pipeline.sample_parameters(3, k, ws.config.d)
        J, mapped = pde.map_jacobian(dm, y, cache.moving_quad, cache.moving_band,
                                     image=True)
        np.testing.assert_array_equal(
            J, pde.map_jacobian(dm, y, cache.moving_quad, cache.moving_band))
        np.testing.assert_allclose(mapped, geometry.map_forward(dm, y, cache.moving_quad),
                                   rtol=1e-15, atol=0)
