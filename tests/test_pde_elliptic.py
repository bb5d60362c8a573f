import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from interface_surrogates.geometry import (
    BAND_FAR,
    DomainMap,
    InterfaceModel,
    map_forward,
    map_jacobian,
)
from interface_surrogates.mesh import (
    REGION_INNER,
    REGION_OUTER,
    Mesh,
    build_disk_mesh,
    build_square_mesh,
)
from interface_surrogates.oracles import manufactured_poisson, radial_two_zone
from interface_surrogates import geometry, pde
from interface_surrogates.pde import (
    EllipticProblem,
    SolverError,
    circle_points,
    evaluate_qoi,
    l2_error,
)


def make_map(r0=0.5):
    model = InterfaceModel(r0=r0, d=8, p=3, c=0.08)
    return DomainMap(model)


def lsq_order(hs, errs):
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


# ---------------------------------------------------------------- patch test


def unit_square_patch():
    """Two-triangle unit square placed outside all mollifier circles."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) + 5.0
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    region = np.full(2, REGION_OUTER)
    band = np.full(2, BAND_FAR)
    boundary = np.array([], dtype=np.uint32)
    return Mesh(verts, tris, region, band, boundary, (0.2, 0.4, 0.7))


def test_patch_stiffness_matches_hand_values():
    mesh = unit_square_patch()
    model = InterfaceModel(r0=0.4, d=8, p=3, c=0.08)
    dm = DomainMap(model, r_inner=0.2, r_outer=0.7)
    prob = EllipticProblem(mesh, dm, alpha_i=1.0,
                           source=lambda x: np.ones(np.atleast_2d(x).shape[0]))
    A, b = prob.assemble(np.zeros(8))
    expected = np.array([
        [1.0, -0.5, 0.0, -0.5],
        [-0.5, 1.0, -0.5, 0.0],
        [0.0, -0.5, 1.0, -0.5],
        [-0.5, 0.0, -0.5, 1.0],
    ])
    np.testing.assert_allclose(A.toarray(), expected, atol=1e-14)
    np.testing.assert_allclose(b, [1 / 3, 1 / 6, 1 / 3, 1 / 6], atol=1e-14)


# ------------------------------------------------------- coefficient pullback


def _point_metric(dm, y, pts, band):
    """Pullback metric (n, 2, 2) and detDPhi (n,) at pts, through the
    assembly's pde._metric on the polar factors, as the three quadrature
    points of one 'triangle' each, rotated out of the polar frame Q."""
    cs, sn, *factors = geometry._band_factors(dm, y, pts, np.hypot(*pts.T), band)
    K = pde._metric(*(np.tile(f[:, None, None], (1, 3, 1)) for f in factors))
    (k00, k01, k11, det), Q = K[:, ::3, 0].T, np.stack([np.stack([cs, -sn], -1),
                                                       np.stack([sn, cs], -1)], -2)
    polar = np.stack([np.stack([k00, k01], -1), np.stack([k01, k11], -1)], -2)
    return Q @ polar @ Q.swapaxes(1, 2), det


def test_transformed_coefficients_identity_outside():
    dm = make_map()
    pts = np.array([[0.95, 0.1], [0.05, 0.02], [-0.9, 0.9]])
    band = np.array([BAND_FAR, 0, BAND_FAR], dtype=np.uint8)
    rng = np.random.default_rng(0)
    y = rng.uniform(-1, 1, 8)
    K, det = _point_metric(dm, y, pts, band)
    K = 3.5 * K
    for k in range(3):
        np.testing.assert_allclose(K[k], 3.5 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(det, 1.0, atol=1e-14)


def test_transformed_coefficients_eigenvalue_bounds():
    # eigenvalues of J^-1 J^-T detJ are exactly {smin/smax, smax/smin}
    dm = make_map()
    rng = np.random.default_rng(4)
    pts = np.empty((200, 2))
    rho = rng.uniform(0.13, 0.87, 200)
    phi = rng.uniform(0, 2 * np.pi, 200)
    pts[:, 0] = rho * np.cos(phi)
    pts[:, 1] = rho * np.sin(phi)
    from interface_surrogates.geometry import band_of
    band = band_of(dm, rho)
    y = rng.uniform(-1, 1, 8)
    J = map_jacobian(dm, y, pts, band)
    K, det = _point_metric(dm, y, pts, band)
    assert np.all(det > 0)
    for k in range(200):
        w = np.linalg.eigvalsh(K[k])
        s = np.linalg.svd(J[k], compute_uv=False)
        lo, hi = s.min() / s.max(), s.max() / s.min()
        assert lo - 1e-10 <= w[0] and w[1] <= hi + 1e-10


# ------------------------------------------------------------- convergence


def test_manufactured_convergence_nominal():
    dm = make_map()
    u_ex, f_ex = manufactured_poisson()
    y0 = np.zeros(8)
    hs = np.array([0.04, 0.02, 0.01])
    errs = []
    for h in hs:
        mesh = build_square_mesh(dm.r0, dm.r_inner, dm.r_outer, h, h)
        field = EllipticProblem(mesh, dm, alpha_i=1.0, source=f_ex).solve(y0)
        errs.append(l2_error(field, u_ex))
    order = lsq_order(hs, errs)
    assert 1.85 <= order <= 2.15, (errs, order)


def test_mapped_manufactured_convergence_random_sample():
    # alpha = 1 keeps the physical problem independent of y, so the exact
    # mapped solution is u*(Phi(xhat)); this exercises the full pullback.
    dm = make_map()
    rng = np.random.default_rng(7)
    y = rng.uniform(-1, 1, 8)
    u_star = lambda x: np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    f = lambda x: 2 * np.pi**2 * u_star(x)
    hs = np.array([0.04, 0.02, 0.01])
    errs = []
    for h in hs:
        mesh = build_square_mesh(dm.r0, dm.r_inner, dm.r_outer, h, h)
        field = EllipticProblem(mesh, dm, alpha_i=1.0, source=f).solve(y)
        errs.append(l2_error(field, lambda p: u_star(map_forward(dm, y, p))))
    order = lsq_order(hs, errs)
    assert 1.85 <= order <= 2.15, (errs, order)


def test_radial_two_zone_oracle():
    r0, R, alpha_i = 0.5, 1.0, 10.0
    model = InterfaceModel(r0=r0, d=8, p=3, c=0.08)
    dm = DomainMap(model, r_inner=r0 / 4, r_outer=0.875)
    u_ex = radial_two_zone(alpha_i, r0, R, f_const=1.0)
    src = lambda x: np.full(np.atleast_2d(x).shape[0], 1.0)
    mesh = build_disk_mesh(r0, r0 / 4, R, 0.0, h_interface=0.01, h_far=0.04)
    field = EllipticProblem(mesh, dm, alpha_i=alpha_i, source=src).solve(np.zeros(8))
    assert l2_error(field, u_ex) <= 1e-3


# ------------------------------------------------- dual-route nominal check


def plain_p1_system(mesh, alpha_tri, source):
    """Independent textbook assembly: edge-vector stiffness, exact P1 load
    by the same order-2 rule, Dirichlet rows eliminated by restriction."""
    n = mesh.n_vertices
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    quad_b = np.array([[2 / 3, 1 / 6, 1 / 6],
                       [1 / 6, 2 / 3, 1 / 6],
                       [1 / 6, 1 / 6, 2 / 3]])
    for t, tri in enumerate(mesh.triangles):
        v = mesh.vertices[tri]
        # edges opposite each vertex
        e = np.array([v[2] - v[1], v[0] - v[2], v[1] - v[0]])
        area = 0.5 * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        K = alpha_tri[t] * (e @ e.T) / (4 * area)
        for i in range(3):
            for j in range(3):
                rows.append(tri[i])
                cols.append(tri[j])
                vals.append(K[i, j])
        qp = quad_b @ v
        fq = source(qp)
        for i in range(3):
            b[tri[i]] += area * np.sum(fq * quad_b[:, i]) / 3
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    interior = mesh.interior_nodes()
    return A[interior][:, interior], b[interior], interior


def test_nominal_solution_matches_plain_assembly():
    dm = make_map()
    mesh = build_square_mesh(dm.r0, dm.r_inner, dm.r_outer, 0.04, 0.08)
    alpha_i = 10.0
    prob = EllipticProblem(mesh, dm, alpha_i=alpha_i)
    field = prob.solve(np.zeros(8))

    alpha_tri = np.where(mesh.region == REGION_INNER, alpha_i, 1.0)
    A, b, interior = plain_p1_system(mesh, alpha_tri, prob.source)
    u_ref = np.zeros(mesh.n_vertices)
    u_ref[interior] = spla.spsolve(A.tocsc(), b)

    scale = np.abs(u_ref).max()
    assert np.abs(field.data - u_ref).max() <= 1e-8 * scale

    pts = circle_points(dm.r0, 16)
    q = evaluate_qoi(field, dm, np.zeros(8), pts, "value")
    q_ref = mesh.interpolate(u_ref, pts)
    np.testing.assert_allclose(q, q_ref, atol=1e-8 * scale)


def test_rotation_symmetry_discrete():
    # radially symmetric data on the polar mesh: one-step azimuthal
    # rotation is an exact symmetry of the discrete system
    r0 = 0.5
    model = InterfaceModel(r0=r0, d=8, p=3, c=0.08)
    dm = DomainMap(model, r_inner=r0 / 4, r_outer=0.875)
    mesh = build_disk_mesh(r0, r0 / 4, 1.0, 0.0, 0.05, 0.1)
    src = lambda x: np.full(np.atleast_2d(x).shape[0], 1.0)
    field = EllipticProblem(mesh, dm, alpha_i=10.0, source=src).solve(np.zeros(8))

    rho = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    phi = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
    perm = np.arange(mesh.n_vertices)
    order = np.argsort(np.round(rho, 12), kind="stable")
    groups = np.split(order, np.nonzero(np.diff(np.round(rho[order], 12)))[0] + 1)
    for g in groups:
        if len(g) == 1:
            continue
        ring = g[np.argsort(phi[g])]
        perm[ring] = np.roll(ring, -1)
    u = field.data
    assert np.abs(u[perm] - u).max() <= 1e-8 * np.abs(u).max()


# --------------------------------------------------------------- guarantees


def test_stiffness_spd_spot_check():
    dm = make_map()
    mesh = build_square_mesh(dm.r0, dm.r_inner, dm.r_outer, 0.1, 0.15)
    rng = np.random.default_rng(12)
    y = rng.uniform(-1, 1, 8)
    A, _ = EllipticProblem(mesh, dm, alpha_i=100.0).assemble(y)
    dense = A.toarray()
    np.testing.assert_allclose(dense, dense.T, atol=1e-12)
    assert np.linalg.eigvalsh(dense).min() > 0


def test_galerkin_residual_at_solution():
    dm = make_map()
    mesh = build_square_mesh(dm.r0, dm.r_inner, dm.r_outer, 0.05, 0.1)
    rng = np.random.default_rng(3)
    y = rng.uniform(-1, 1, 8)
    prob = EllipticProblem(mesh, dm, alpha_i=10.0)
    A, b = prob.assemble(y)
    field = prob.solve(y)
    u_int = field.data[mesh.interior_nodes()]
    res = np.linalg.norm(b - A @ u_int) / np.linalg.norm(b)
    assert res <= 1e-9


def test_nonconvergence_records_sample(monkeypatch):
    monkeypatch.setattr(pde, "COCG_MAXIT", 3)
    dm = make_map()
    mesh = build_square_mesh(dm.r0, dm.r_inner, dm.r_outer, 0.1, 0.15)
    y = np.full(8, 0.25)
    prob = EllipticProblem(mesh, dm, alpha_i=100.0)
    with pytest.raises(SolverError) as err:
        prob.solve(y)
    np.testing.assert_array_equal(err.value.y, y)


def test_qoi_vertex_value_and_outside_error():
    dm = make_map()
    mesh = build_square_mesh(dm.r0, dm.r_inner, dm.r_outer, 0.05, 0.1)
    field = EllipticProblem(mesh, dm, alpha_i=10.0).solve(np.zeros(8))
    k = mesh.n_vertices // 3
    q = evaluate_qoi(field, dm, np.zeros(8), mesh.vertices[k], "value")
    assert abs(q[0] - field.data[k]) <= 1e-13
    with pytest.raises(Exception):
        evaluate_qoi(field, dm, np.zeros(8), np.array([[3.0, 3.0]]), "value")
