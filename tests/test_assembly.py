"""The fixed-pattern assembly reproduces the committed reference solves, and
a sample evaluates the map's Jacobian on the band triangles only."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from interface_surrogates import pde, pipeline
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

    def counting(dm, y, pts, band=None):
        points.append(len(pts))
        return original(dm, y, pts, band)

    monkeypatch.setattr(pde, "map_jacobian", counting)
    ws.problem.assemble(pipeline.sample_parameters(3, 0, ws.config.d))
    band = np.isin(ws.mesh.band, (BAND_INNER, BAND_OUTER))
    assert sum(points) == 3 * np.count_nonzero(band)
