"""The fixed-pattern assembly reproduces the committed reference solves, and
a sample sums the interface series once, on a (template points, m) grid of
6 points per band strip and their m rotations, and evaluates neither the
map nor its Jacobian.  The polar-frame template kernel matches a Cartesian
reference built from the Jacobian, on the band and on the fixed triangles
with the absorbing layer, on the workload meshes and on a disk of 16
sectors whose series has more terms than sectors, and the transmission
field adds the incident wave only where it is read."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from interface_surrogates import geometry, pde, pipeline
from interface_surrogates import mesh as meshes
from interface_surrogates.geometry import BAND_INNER, BAND_OUTER, BAND_PML
from interface_surrogates.mesh import REGION_INNER, Mesh, MeshError

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


def _band(mesh):
    """The band triangles of mesh, their quadrature points (t, 3, 2) and chi
    branches, read off the mesh."""
    tris = np.nonzero(np.isin(mesh.band, (BAND_INNER, BAND_OUTER)))[0]
    quad = np.einsum("qi,tid->tqd", pde._Q2, mesh.vertices[mesh.triangles[tris]])
    return tris, quad, mesh.band[tris]


def test_assemble_evaluates_the_series_at_six_points_per_band_strip(case, monkeypatch):
    # two template triangles of three quadrature points per strip, each
    # point rotated to all m sectors by the matmul, whatever m is
    _, ws = case
    grids = []
    original = pde.rotated_series

    def recording(model, y, powers, omega):
        grids.append((powers[..., 0].size, omega.shape[1]))
        return original(model, y, powers, omega)

    monkeypatch.setattr(pde, "rotated_series", recording)
    ws.problem.assemble(pipeline.sample_parameters(3, 0, ws.config.d))
    m = ws.mesh.rings.m
    strips = _band(ws.mesh)[0].size // (2 * m)
    assert grids == [(6 * strips, m)]


def test_assemble_sums_the_series_once(case, monkeypatch):
    _, ws = case
    calls = []
    series = pde.rotated_series

    def counting_series(*args):
        calls.append("series")
        return series(*args)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"assembly called {name}")
        return call

    monkeypatch.setattr(pde, "rotated_series", counting_series)
    monkeypatch.setattr(geometry, "_series", forbidden("geometry._series"))
    monkeypatch.setattr(pde, "map_forward", forbidden("pde.map_forward"))
    monkeypatch.setattr(pde, "map_jacobian", forbidden("pde.map_jacobian"))
    ws.problem.assemble(pipeline.sample_parameters(3, 1, ws.config.d))
    assert calls == ["series"]


def test_jacobian_image_matches_map_forward(case):
    # the band's polar factors at every rotated template point give DPhi and
    # Phi = x m11 to rounding
    _, ws = case
    problem = ws.problem
    el, dm = problem.band, problem.dm
    x = (el.x[..., None] * el.rotation).ravel()
    points, tags = np.stack([x.real, x.imag], 1), np.repeat(el.band, x.size // el.size)
    for k in range(3):
        y = pipeline.sample_parameters(3, k, ws.config.d)
        g, m01, m11 = (f.ravel() for f in problem._band(y)[0])
        J = geometry.polar_jacobian(x.real / abs(x), x.imag / abs(x), g, m01, m11)
        assert abs(J - pde.map_jacobian(dm, y, points, tags)).max() <= 1e-14
        np.testing.assert_allclose(points * m11[:, None], geometry.map_forward(dm, y, points),
                                   rtol=1e-14, atol=0)


# ------------------------------------------------------- band kernel reference


def _pullback(J):
    """Pullback metric J^-1 J^-T detJ and detJ for Jacobians J of shape (..., 2, 2)."""
    a, b = J[..., 0, 0], J[..., 0, 1]
    c, d = J[..., 1, 0], J[..., 1, 1]
    det = a * d - b * c
    K = np.empty_like(J)
    K[..., 0, 0] = (d * d + b * b) / det
    K[..., 0, 1] = -(c * d + a * b) / det
    K[..., 1, 0] = K[..., 0, 1]
    K[..., 1, 1] = (a * a + c * c) / det
    return K, det


def _reference(problem, tris, J, y):
    """Matrix (CSR over interior dofs) and load vector of problem's triangles
    tris from the Jacobian J (t, 3, 2, 2) at their quadrature points, through
    _pullback and per-triangle einsums (y is None for the nominal matrix,
    which has no load)."""
    mesh = problem.mesh
    v = mesh.vertices[mesh.triangles[tris]]
    area = mesh.areas()[tris]
    grads = np.empty((tris.size, 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = (v[:, j, 1] - v[:, k, 1]) / (2 * area)
        grads[:, i, 1] = (v[:, k, 0] - v[:, j, 0]) / (2 * area)
    inner = mesh.region[tris] == REGION_INNER
    alpha = np.where(inner, problem.alpha_i, 1.0)
    K, det = _pullback(J)
    Kbar = np.einsum("q,tqde->tde", pde._W2, K)
    S = np.einsum("tid,tde,tje->tij", grads, (alpha * area)[:, None, None] * Kbar, grads)
    helmholtz = isinstance(problem, pde.HelmholtzProblem)
    if helmholtz:
        kappa2 = np.where(inner, problem.kappa_i**2, problem.kappa_o**2)
        S = S - ((kappa2 * area)[:, None] * (det @ pde._MASS)).reshape(-1, 3, 3)
    dof = np.full(mesh.n_vertices, -1)
    dof[problem.interior] = np.arange(problem.n_int)
    d = dof[mesh.triangles[tris]]
    rows, cols = np.repeat(d, 3, axis=1).ravel(), np.tile(d, 3).ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = problem.n_int
    A = sp.csr_matrix((S.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n))
    if y is None:
        return A, None
    quad = np.einsum("qi,tid->tqd", pde._Q2, v)
    mapped = geometry.map_forward(problem.dm, y, quad)
    if helmholtz:
        uinc = np.exp(1j * problem.kappa_o * (mapped @ problem.direction))
        adj = np.stack([np.stack([J[..., 1, 1], -J[..., 0, 1]], -1),
                        np.stack([-J[..., 1, 0], J[..., 0, 0]], -1)], -2)
        flux = (adj @ problem.direction) * (1j * problem.kappa_o * uinc)[..., None]
        stiff = np.einsum("tqd,tid->tqi", (problem.alpha_i - 1.0) * flux, grads)
        mass = (problem.kappa_i**2 - problem.kappa_o**2) * det * uinc
        bt = area[:, None] * np.einsum("q,tqi->ti", pde._W2,
                                       -stiff + np.einsum("tq,qi->tqi", mass, pde._Q2))
        bt[~inner] = 0.0
    else:
        fval = problem.source(mapped) * det
        bt = area[:, None] * np.einsum("q,tq,qi->ti", pde._W2, fval, pde._Q2)
    b = np.zeros(n, dtype=bt.dtype)
    np.add.at(b, d[d >= 0], bt[d >= 0])
    return A, b


def _fixed_matrix(problem):
    return sp.csr_matrix((problem._fixed[0], problem.indices, problem.indptr),
                         shape=(problem.n_int, problem.n_int))


def _assert_close(got, want):
    scale = abs(want).max()
    assert abs(got - want).max() <= 1e-13 * scale


def _assert_band_matches_reference(problem, y):
    tris, quad, tags = _band(problem.mesh)
    J = pde.map_jacobian(problem.dm, y, quad.reshape(-1, 2), np.repeat(tags, 3))
    ref_A, ref_b = _reference(problem, tris, J.reshape(-1, 3, 2, 2), y)
    A, b = problem.assemble(y)
    _assert_close(A - _fixed_matrix(problem), ref_A)
    _assert_close(b - problem._fixed[1], ref_b)


def test_band_kernel_matches_cartesian_reference(case):
    _, ws = case
    for k in range(3):
        _assert_band_matches_reference(ws.problem, pipeline.sample_parameters(5, k, ws.config.d))


def test_nominal_band_values_match_identity_reference(case, monkeypatch):
    _, ws = case
    fresh = pipeline.Workspace(ws.config).problem
    factored = []
    monkeypatch.setattr(pde, "nominal_factor",
                        lambda A, rings: factored.append(A) or "factor")
    assert fresh._nominal_factor() == "factor"
    tris = _band(fresh.mesh)[0]
    J = np.broadcast_to(np.eye(2), (tris.size, 3, 2, 2))
    ref_A, _ = _reference(fresh, tris, J, None)
    _assert_close(factored[0] - _fixed_matrix(fresh), ref_A)


def _small_disk(d):
    """A disk of m = 16 sectors with an absorbing layer (finer than any mesh
    builder makes it), and both problems on it for a series of d terms."""
    radii = np.array([0.125, 0.25, 0.375, 0.5, 0.65, 0.8, 0.9, 1.0])
    _, points, bands = meshes._rings(radii, 16, (0.25, 0.5, 0.8), 0.8)
    mesh = meshes._ring_mesh(points, bands, (0.25, 0.5, 0.8, 1.0), radii.size)
    meshes.check_mesh(mesh)
    dm = geometry.DomainMap(geometry.InterfaceModel(0.5, d, 1.0, 0.05), 0.25, 0.8)
    return mesh, [pde.EllipticProblem(mesh, dm, 10.0),
                  pde.HelmholtzProblem(mesh, dm, 10.0, 3.0, 2.0)]


def test_band_kernel_matches_reference_with_more_modes_than_sectors():
    # d/2 = 32 modes on 16 sectors: e^(2 pi i k a / m) for k > m must not
    # alias to a wrong mode
    _, problems = _small_disk(64)
    rng = np.random.default_rng(11)
    for problem in problems:
        for _ in range(3):
            _assert_band_matches_reference(problem, rng.uniform(-1, 1, 64))


@pytest.mark.parametrize("y", [np.zeros(63), np.zeros((2, 64)), np.full(64, 1.5)],
                         ids=["short", "matrix", "outside"])
def test_assemble_rejects_a_bad_sample(y):
    for problem in _small_disk(64)[1]:
        with pytest.raises(geometry.GeometryError):
            problem.assemble(y)


def test_band_without_ring_layout_raises_mesh_error():
    mesh, (problem, _) = _small_disk(8)
    bare = Mesh(mesh.vertices, mesh.triangles, mesh.region, mesh.band,
                mesh.boundary, mesh.circles)
    with pytest.raises(MeshError, match="strips between circles of a ring mesh"):
        pde.EllipticProblem(bare, problem.dm, 10.0)


def test_fixed_values_match_cartesian_reference(case, monkeypatch):
    # the core, the far field and the absorbing layer, summed once at set-up;
    # the layer's Jacobian is d e_rho e_rho^T + s e_phi e_phi^T
    _, ws = case
    problem, mesh = ws.problem, ws.mesh
    tris = np.nonzero(~np.isin(mesh.band, (BAND_INNER, BAND_OUTER)))[0]
    quad = np.einsum("qi,tid->tqd", pde._Q2, mesh.vertices[mesh.triangles[tris]])
    J = np.broadcast_to(np.eye(2), (tris.size, 3, 2, 2))
    pml = mesh.band[tris] == BAND_PML
    if pml.any():
        J = J.astype(complex)
        qp = quad[pml]
        rho = np.hypot(qp[..., 0], qp[..., 1])
        t = problem.pml_thickness
        tau = (rho - problem.R) / t
        amp = 2.0 * problem.pml_damping * problem.kappa_o * t
        d = 1.0 + 1j * amp * tau**2
        s = (rho + 1j * amp * t * tau**3 / 3.0) / rho
        e_rho = qp / rho[..., None]
        e_phi = e_rho[..., ::-1] * np.array([-1.0, 1.0])
        J[pml] = (np.einsum("...,...d,...e->...de", d, e_rho, e_rho)
                  + np.einsum("...,...d,...e->...de", s, e_phi, e_phi))
    assert pml.any() == isinstance(problem, pde.HelmholtzProblem)
    ref_A, ref_b = _reference(problem, tris, J, np.zeros(ws.config.d))
    _assert_close(_fixed_matrix(problem), ref_A)
    _assert_close(problem._fixed[1], ref_b)
    # the map moves no fixed quadrature point, so the load is the one of
    # identity factors, whatever the layer's stretch
    monkeypatch.setattr(type(problem), "_fixed_factors", pde._MappedProblem._fixed_factors)
    identity = pipeline.Workspace(ws.config).problem
    np.testing.assert_array_equal(problem._fixed[1], identity._fixed[1])


def test_elliptic_assembly_forms_no_mass_term(monkeypatch):
    ws = pipeline.Workspace(CONFIGS["elliptic-gen"])
    y = pipeline.sample_parameters(5, 0, ws.config.d)
    A, b = ws.problem.assemble(y)
    # a mass term read through NaN weights would leave NaN entries
    monkeypatch.setattr(pde, "_MASS", np.full_like(pde._MASS, np.nan))
    fresh = pipeline.Workspace(ws.config)
    A2, b2 = fresh.problem.assemble(y)
    assert np.array_equal(A2.data, A.data) and np.array_equal(b2, b)
    assert np.isfinite(fresh.solve(y)).all()


def test_total_field_adds_incident_wave_where_read(monkeypatch):
    ws = pipeline.Workspace(CONFIGS["helmholtz-gen"])
    y = pipeline.sample_parameters(5, 1, ws.config.d)
    read = []
    forward = pde.map_forward

    def counting(dm, y, points):
        read.append(len(points))
        return forward(dm, y, points)

    monkeypatch.setattr(pde, "map_forward", counting)
    ws.solve(y)
    assert 0 < sum(read) <= 3 * ws.config.n_points
    # a point evaluation agrees with interpolating the total at every vertex,
    # inside the interface, outside it and in the absorbing layer
    field = ws.problem.solve(y)
    rng = np.random.default_rng(0)
    R = ws.mesh.circles[3]
    rho, phi = R * np.sqrt(rng.uniform(0, 0.95, 40)), rng.uniform(0, 2 * np.pi, 40)
    points = np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=1)
    points = np.concatenate([points, ws.points])
    want = ws.mesh.interpolate(field.data, points)
    assert abs(field(points) - want).max() <= 1e-14 * abs(want).max()
