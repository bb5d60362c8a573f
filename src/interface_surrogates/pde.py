"""Mapped finite element solvers on the nominal configuration.

Interface randomness never touches the mesh: a sample y enters only
through the transformed coefficients

    Ahat = DPhi^-1 DPhi^-T detDPhi * alpha,   fhat = f(Phi) detDPhi,
    kappahat^2 = detDPhi * kappa^2,

assembled on the fixed nominal mesh with piecewise linear elements and a
3-point order-2 quadrature rule.  Region coefficients (alpha, kappa) are
constant per triangle since the mesh conforms to the nominal circle; the
chi-branch of each triangle resolves the one-sided Jacobian at the
mollifier breakpoints.

The transmission problem is solved for the scattered field with the
incident plane wave imposed through a volume term supported on the inner
region (where the coefficients deviate from the background), and a radial
complex-stretching absorbing layer closes the truncated exterior.
"""

import numpy as np

from .geometry import (
    BAND_INNER,
    BAND_OUTER,
    BAND_PML,
    map_forward,
    map_inverse,
    map_jacobian,
)
from .linalg import (
    NotConvergedError,
    SingularMatrixError,
    assemble_csr,
    cg_solve,
    lu_solve,
)
from .mesh import REGION_INNER


class SolverError(RuntimeError):
    """Linear solve failed; carries the offending parameter sample."""

    def __init__(self, message, y):
        super().__init__(message)
        self.y = np.array(y, dtype=float)

# order-2 rule: barycentric points (2/3,1/6,1/6) and permutations, weight 1/3
_Q2 = np.array([[2 / 3, 1 / 6, 1 / 6],
                [1 / 6, 2 / 3, 1 / 6],
                [1 / 6, 1 / 6, 2 / 3]])
_W2 = np.full(3, 1 / 3)

# order-4 rule (6 points), used for error integrals only
_Q4 = np.array([
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
])
_W4 = np.array([0.109951743655322] * 3 + [0.223381589678011] * 3)


def default_source(x):
    """Volume load of the diffusion problem, 20 + 10 sin(x1) - 5 exp(x1 x2)."""
    x = np.asarray(x, dtype=float)
    return 20.0 + 10.0 * np.sin(x[..., 0]) - 5.0 * np.exp(x[..., 0] * x[..., 1])


def circle_points(r0, n):
    """n equispaced evaluation points on the nominal interface circle."""
    angles = 2 * np.pi * np.arange(n) / n
    return r0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def transformed_coefficients(dm, y, points, band, alpha=1.0):
    """Pullback coefficient Ahat = J^-1 J^-T detJ alpha and detJ at points."""
    J = map_jacobian(dm, y, points, band)
    a, b = J[:, 0, 0], J[:, 0, 1]
    c, d = J[:, 1, 0], J[:, 1, 1]
    det = a * d - b * c
    K = np.empty_like(J)
    K[:, 0, 0] = (d * d + b * b) / det
    K[:, 0, 1] = -(c * d + a * b) / det
    K[:, 1, 0] = K[:, 0, 1]
    K[:, 1, 1] = (a * a + c * c) / det
    return alpha * K, det


class ScalarField:
    """Nodal P1 field on a mesh, with optional extras from the solver."""

    def __init__(self, mesh, data, scattered=None, pml_mask=None, info=None):
        self.mesh = mesh
        self.data = data
        self.scattered = scattered
        self.pml_mask = pml_mask
        self.info = info or {}

    def __call__(self, points):
        return self.mesh.interpolate(self.data, points)


class _FemCache:
    """Mesh-dependent arrays shared by every sample: P1 gradients, areas,
    quadrature points and their chi-branch, Dirichlet dof numbering."""

    def __init__(self, mesh):
        tri = mesh.triangles.astype(np.int64)
        v = mesh.vertices[tri]
        x, ybar = v[..., 0], v[..., 1]
        self.area = 0.5 * ((x[:, 1] - x[:, 0]) * (ybar[:, 2] - ybar[:, 0])
                           - (x[:, 2] - x[:, 0]) * (ybar[:, 1] - ybar[:, 0]))
        grads = np.empty((tri.shape[0], 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            grads[:, i, 0] = (ybar[:, j] - ybar[:, k])
            grads[:, i, 1] = (x[:, k] - x[:, j])
        self.grads = grads / (2 * self.area)[:, None, None]
        self.quad = np.einsum("qi,tid->tqd", _Q2, v)
        self.quad_err = np.einsum("qi,tid->tqd", _Q4, v)
        self.tri = tri
        self.v = v

        n = mesh.n_vertices
        dof = np.full(n, -1, dtype=np.int64)
        interior = mesh.interior_nodes()
        dof[interior] = np.arange(interior.size)
        self.dof = dof
        self.interior = interior
        self.n_int = interior.size

        ii = np.broadcast_to(tri[:, :, None], (tri.shape[0], 3, 3))
        jj = np.broadcast_to(tri[:, None, :], (tri.shape[0], 3, 3))
        self.rows = ii.reshape(-1)
        self.cols = jj.reshape(-1)

    def scatter_matrix(self, S):
        """Restrict element matrices to interior dofs and build CSR."""
        ri = self.dof[self.rows]
        ci = self.dof[self.cols]
        keep = (ri >= 0) & (ci >= 0)
        return assemble_csr(ri[keep], ci[keep], S.reshape(-1)[keep], self.n_int)

    def scatter_vector(self, bt):
        idx = self.dof[self.tri].reshape(-1)
        vals = bt.reshape(-1)
        keep = idx >= 0
        b = np.zeros(self.n_int, dtype=vals.dtype)
        np.add.at(b, idx[keep], vals[keep])
        return b

    def embed(self, u_int, n, dtype=float):
        u = np.zeros(n, dtype=dtype)
        u[self.interior] = u_int
        return u


def _metric_terms(dm, y, cache, mesh, triangles):
    """Averaged pullback metric Kbar and detJ at quadrature points for the
    selected triangles; identity-band triangles shortcut to (I, 1)."""
    band = mesh.band[triangles]
    active = (band == BAND_INNER) | (band == BAND_OUTER)
    m = triangles.size
    Kbar = np.tile(np.eye(2), (m, 1, 1))
    det = np.ones((m, 3))
    if np.any(active):
        tsel = triangles[active]
        pts = cache.quad[tsel].reshape(-1, 2)
        bands = np.repeat(mesh.band[tsel], 3)
        K, dets = transformed_coefficients(dm, y, pts, bands)
        K = K.reshape(-1, 3, 2, 2)
        Kbar[active] = np.einsum("q,tqde->tde", _W2, K)
        det[active] = dets.reshape(-1, 3)
    return Kbar, det, active


class EllipticProblem:
    """Dirichlet diffusion problem with a random inclusion.

    -div(alpha grad u) = f on the square, u = 0 on the boundary, alpha =
    alpha_i inside the interface and 1 outside.  Solved on the nominal
    mesh via the pullback coefficients; the linear systems are SPD and go
    through Jacobi-preconditioned conjugate gradients.
    """

    def __init__(self, mesh, dm, alpha_i, source=default_source,
                 cg_tol=1e-10, cg_maxit=50_000):
        self.mesh = mesh
        self.dm = dm
        self.alpha_i = float(alpha_i)
        self.source = source
        self.cg_tol = cg_tol
        self.cg_maxit = cg_maxit
        self.cache = _FemCache(mesh)
        self.alpha_tri = np.where(mesh.region == REGION_INNER, self.alpha_i, 1.0)

    def assemble(self, y):
        """Stiffness matrix and load vector on interior dofs."""
        cache = self.cache
        mesh = self.mesh
        all_tris = np.arange(mesh.n_triangles)
        Kbar, det, _ = _metric_terms(self.dm, y, cache, mesh, all_tris)

        coef = self.alpha_tri * cache.area
        S = np.einsum("tid,tde,tje->tij", cache.grads, coef[:, None, None] * Kbar,
                      cache.grads)

        # fhat = f(Phi(x)) detJ at the quadrature points
        qpts = cache.quad.reshape(-1, 2)
        mapped = map_forward(self.dm, y, qpts)
        fval = (self.source(mapped).reshape(-1, 3)) * det
        bt = np.einsum("tq,q,qi->ti", fval, _W2, _Q2) * cache.area[:, None]

        A = cache.scatter_matrix(S)
        b = cache.scatter_vector(bt)
        return A, b

    def solve(self, y):
        A, b = self.assemble(y)
        try:
            u_int, info = cg_solve(A, b, tol=self.cg_tol, maxit=self.cg_maxit)
        except (NotConvergedError, SingularMatrixError) as exc:
            raise SolverError(f"CG failed for y={np.asarray(y)!r}: {exc}", y) from exc
        u = self.cache.embed(u_int, self.mesh.n_vertices)
        return ScalarField(self.mesh, u, info=info)


class HelmholtzProblem:
    """Plane-wave transmission problem with an absorbing outer annulus.

    -div(alpha grad u) - kappa^2 u = 0 with alpha = alpha_i, kappa =
    kappa_i inside the interface and 1, kappa_o outside; the total field
    is u = u_s + exp(i kappa_o d.x).  The scattered field is the unknown:
    its volume source lives on the inner region only, since the incident
    wave solves the background equation elsewhere, and the absorbing layer
    applies the radial stretch rho -> rho (1 + i sigma0 ((rho-R)/t)^2) to
    it.  Nontrapping requires kappa_i^2/kappa_o^2 <= alpha_i.
    """

    def __init__(self, mesh, dm, alpha_i, kappa_i, kappa_o,
                 direction=(1.0, 0.0), pml_damping=0.5):
        if kappa_i**2 / kappa_o**2 > alpha_i + 1e-12:
            raise ValueError(
                f"nontrapping violated: kappa_i^2/kappa_o^2 = "
                f"{kappa_i**2 / kappa_o**2:.3g} > alpha_i = {alpha_i}")
        if len(mesh.circles) < 4:
            raise ValueError("transmission problem needs a mesh with an absorbing annulus")
        self.mesh = mesh
        self.dm = dm
        self.alpha_i = float(alpha_i)
        self.kappa_i = float(kappa_i)
        self.kappa_o = float(kappa_o)
        self.direction = np.asarray(direction, dtype=float)
        self.direction = self.direction / np.hypot(*self.direction)
        self.pml_damping = float(pml_damping)
        self.R = mesh.circles[2]
        self.pml_thickness = mesh.circles[3] - mesh.circles[2]
        self.cache = _FemCache(mesh)
        self._phys = np.nonzero(mesh.band != BAND_PML)[0]
        self._pml = np.nonzero(mesh.band == BAND_PML)[0]
        self._inner = np.nonzero(mesh.region == REGION_INNER)[0]

    def _pml_factors(self, rho):
        """Complex radial stretch (rho~/rho, drho~/drho) inside the layer.

        Quadratic damping ramp d(rho~)/d(rho) = 1 + 2i sigma0 kappa_o t tau^2
        with tau the relative depth: the smooth ramp keeps the discrete
        transition reflection small while the optical depth grows with the
        layer, giving one-way attenuation exp(-2 sigma0 (kappa_o t)^2 / 3).
        """
        t = self.pml_thickness
        tau = (rho - self.R) / t
        amp = 2.0 * self.pml_damping * self.kappa_o * t
        d = 1.0 + 1j * amp * tau**2
        stretched = rho + 1j * amp * t * tau**3 / 3.0
        return stretched / rho, d

    def assemble(self, y):
        cache = self.cache
        mesh = self.mesh
        m = mesh.n_triangles
        S = np.zeros((m, 3, 3), dtype=complex)
        Mm = np.zeros((m, 3, 3), dtype=complex)

        # physical region: pullback coefficients, region-wise alpha, kappa
        phys = self._phys
        Kbar, det, _ = _metric_terms(self.dm, y, cache, mesh, phys)
        alpha = np.where(mesh.region[phys] == REGION_INNER, self.alpha_i, 1.0)
        kappa2 = np.where(mesh.region[phys] == REGION_INNER,
                          self.kappa_i**2, self.kappa_o**2)
        coef = (alpha * cache.area[phys])[:, None, None] * Kbar
        S[phys] = np.einsum("tid,tde,tje->tij", cache.grads[phys], coef,
                            cache.grads[phys])
        mloc = np.einsum("tq,q,qi,qj->tij", det, _W2, _Q2, _Q2)
        Mm[phys] = (kappa2 * cache.area[phys])[:, None, None] * mloc

        # absorbing annulus: complex radial stretch of the background
        pml = self._pml
        if pml.size:
            qp = cache.quad[pml].reshape(-1, 2)
            rho = np.hypot(qp[:, 0], qp[:, 1])
            s, dstr = self._pml_factors(rho)
            cs, sn = qp[:, 0] / rho, qp[:, 1] / rho
            arad = s / dstr
            aang = dstr / s
            K = np.empty((qp.shape[0], 2, 2), dtype=complex)
            K[:, 0, 0] = arad * cs * cs + aang * sn * sn
            K[:, 0, 1] = (arad - aang) * cs * sn
            K[:, 1, 0] = K[:, 0, 1]
            K[:, 1, 1] = arad * sn * sn + aang * cs * cs
            K = K.reshape(-1, 3, 2, 2)
            Kbar_pml = np.einsum("q,tqde->tde", _W2, K)
            S[pml] = np.einsum("tid,tde,tje->tij", cache.grads[pml],
                               cache.area[pml][:, None, None] * Kbar_pml,
                               cache.grads[pml])
            mfac = (s * dstr).reshape(-1, 3)
            mloc_pml = np.einsum("tq,q,qi,qj->tij", mfac, _W2, _Q2, _Q2)
            Mm[pml] = (self.kappa_o**2 * cache.area[pml])[:, None, None] * mloc_pml

        A = cache.scatter_matrix(S - Mm)

        # incident-wave source, supported where coefficients deviate from
        # the background (the inner region)
        inner = self._inner
        bt = np.zeros((m, 3), dtype=complex)
        if inner.size:
            pts = cache.quad[inner].reshape(-1, 2)
            bands = np.repeat(mesh.band[inner], 3)
            K, detq = transformed_coefficients(self.dm, y, pts, bands)
            mapped = map_forward(self.dm, y, pts)
            uinc = np.exp(1j * self.kappa_o * (mapped @ self.direction))
            # grad of the pulled-back incident wave: J^T (i kappa_o dhat) uinc
            J = map_jacobian(self.dm, y, pts, bands)
            ginc = np.einsum("ped,e->pd", J, self.direction) * (
                1j * self.kappa_o * uinc)[:, None]
            flux = np.einsum("pde,pe->pd", K, ginc).reshape(-1, 3, 2)
            stiff_term = np.einsum("tqd,tid->tqi", (self.alpha_i - 1.0) * flux,
                                   cache.grads[inner])
            mass_term = ((self.kappa_i**2 - self.kappa_o**2)
                         * (detq * uinc).reshape(-1, 3))
            integrand = -stiff_term + np.einsum("tq,qi->tqi", mass_term, _Q2)
            bt[inner] = cache.area[inner][:, None] * np.einsum(
                "q,tqi->ti", _W2, integrand)
        b = cache.scatter_vector(bt)
        return A, b

    def solve(self, y):
        A, b = self.assemble(y)
        try:
            us_int = lu_solve(A, b)
        except SingularMatrixError as exc:
            raise SolverError(f"LU failed for y={np.asarray(y)!r}: {exc}", y) from exc
        us = self.cache.embed(us_int, self.mesh.n_vertices, dtype=complex)

        rho = np.hypot(self.mesh.vertices[:, 0], self.mesh.vertices[:, 1])
        pml_mask = rho > self.R + 1e-12
        mapped = map_forward(self.dm, y, self.mesh.vertices[~pml_mask])
        total = us.copy()
        total[~pml_mask] += np.exp(1j * self.kappa_o * (mapped @ self.direction))
        return ScalarField(self.mesh, total, scattered=us, pml_mask=pml_mask)


def evaluate_qoi(field, dm, y, points, kind):
    """Point values of the solution in physical coordinates.

    Physical evaluation points are pulled back through the inverse map and
    interpolated on the nominal mesh.  kind = "value" returns the real
    field value, "amplitude" its modulus.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nominal = map_inverse(dm, y, points)
    vals = field(nominal)
    if kind == "value":
        return np.real(vals)
    if kind == "amplitude":
        return np.abs(vals)
    raise ValueError(f"unknown QoI kind {kind!r}")


def l2_error(field, exact, physical_only=False):
    """Relative L2 distance between a P1 field and a callable reference."""
    cache = _FemCache(field.mesh)
    pts = cache.quad_err
    uh = np.einsum("qi,ti->tq", _Q4, field.data[cache.tri])
    ue = exact(pts.reshape(-1, 2)).reshape(pts.shape[0], -1)
    w = cache.area[:, None] * _W4[None, :]
    if physical_only:
        w = w * (field.mesh.band != BAND_PML)[:, None]
    num = np.sum(w * np.abs(uh - ue) ** 2)
    den = np.sum(w * np.abs(ue) ** 2)
    return float(np.sqrt(num / den))


def probe_kink(problem, y_a, y_b, x0, n_steps=41, kind="value"):
    """QoI derivative profile along the segment y(t) = y_a + t (y_b - y_a).

    Evaluates q(y(t)) on a uniform t-grid and returns a dict with the
    samples, first and second central finite differences, and the crossing
    location t_star predicted by the interface hyperplane (None when the
    segment does not cross it).
    """
    from .geometry import kink_hyperplane

    y_a = np.asarray(y_a, dtype=float)
    y_b = np.asarray(y_b, dtype=float)
    ts = np.linspace(0.0, 1.0, n_steps)
    h = ts[1] - ts[0]
    qs = np.empty(n_steps)
    for k, t in enumerate(ts):
        y = y_a + t * (y_b - y_a)
        field = problem.solve(y)
        qs[k] = evaluate_qoi(field, problem.dm, y, np.asarray(x0), kind)[0]
    plane = kink_hyperplane(problem.dm, np.asarray(x0))
    t_star = None
    if plane is not None:
        normal, offset = plane
        sa = offset - normal @ y_a
        sb = offset - normal @ y_b
        if sa * sb < 0:
            t_star = float(sa / (sa - sb))
    return {
        "ts": ts,
        "qs": qs,
        "d1": (qs[2:] - qs[:-2]) / (2 * h),
        "d2": (qs[2:] - 2 * qs[1:-1] + qs[:-2]) / h**2,
        "t_star": t_star,
    }


def spike_stats(probe, guard=1):
    """Jump magnitudes of the difference profiles at the crossing.

    Returns for each difference order the largest increment |Δd| between
    consecutive samples near t_star ("inside") and away from it
    ("outside").  A slope jump of q makes the d1 increments spike; a
    curvature jump leaves d1 increments flat but makes the d2 increments
    spike.  The window covers increments whose stencil support contains
    t_star, widened by `guard` samples.
    """
    ts, t_star = probe["ts"], probe["t_star"]
    n = len(ts)
    out = {}
    for name, order in (("d1", 2), ("d2", 3)):
        # increment of the order-1 difference profile = order-th difference
        diffs = np.abs(np.diff(probe["qs"], order))
        centers = np.arange(diffs.size) + order / 2.0
        if t_star is None:
            out[name] = (None, float(diffs.max()))
            continue
        pos = t_star * (n - 1)
        window = np.abs(centers - pos) <= order / 2.0 + guard
        inside = float(diffs[window].max()) if np.any(window) else 0.0
        outside = float(diffs[~window].max()) if np.any(~window) else 0.0
        out[name] = (inside, outside)
    return out
