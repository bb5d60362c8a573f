"""Mapped finite element solvers on the nominal configuration.

Interface randomness never touches the mesh: a sample y enters only
through the transformed coefficients

    Ahat = DPhi^-1 DPhi^-T detDPhi * alpha,   fhat = f(Phi) detDPhi,
    kappahat^2 = detDPhi * kappa^2,

assembled on the fixed nominal mesh with piecewise linear elements and a
3-point order-2 quadrature rule.  Region coefficients (alpha, kappa) are
constant per triangle since the mesh conforms to the nominal circle; the
chi-branch of each triangle resolves the one-sided Jacobian at the
mollifier breakpoints.  Phi is the identity outside the two mollifier
bands, so only band triangles move with y: the CSR pattern, the slot of
every element-matrix entry in it and the sums over all other triangles are
built once per problem, and a sample adds its band triangles with bincount.
Every triangle is read off the polar factors of its Jacobian (map_jacobian
with polar=True in the band, the identity or the absorbing layer's radial
stretch elsewhere): the stiffness needs only the quadrature-averaged
pullback metric, three numbers per triangle, and no 2 x 2 Jacobian is formed.
For the same reason A(y) stays close to the nominal A(0): both problems
factor A(0) once and solve each sample by CG preconditioned by that factor
(mean-based preconditioning, Powell & Elman 2009).  linalg.nominal_factor
picks the factor by what the mesh shows: on a mesh whose rings are all
circles (every disk mesh) A(0) is block-circulant in azimuth and is solved
by an FFT along the rings and a Thomas sweep over the modes; on any other mesh,
the square one among them, by a sparse LU of A(0).  Both problems check a
solution by its normwise backward error (Rigal & Gaches 1967).

The transmission problem is solved for the scattered field with the
incident plane wave imposed through a volume term supported on the inner
region (where the coefficients deviate from the background), and a radial
complex-stretching absorbing layer closes the truncated exterior.  The
total field adds the incident wave where it is read: at every vertex when
its data is first accessed, at the corners of the located triangles for a
point evaluation.
"""

import functools

import numpy as np
import scipy.sparse as sp

from .geometry import (
    BAND_INNER,
    BAND_OUTER,
    BAND_PML,
    kink_hyperplane,
    map_forward,
    map_inverse,
    map_jacobian,
)
from .linalg import (
    NotConvergedError,
    NotFiniteError,
    SingularMatrixError,
    assemble_csr,
    cg_solve,
    lu_solve,  # not called here; benchmark/tracing.py wraps pde.lu_solve
    nominal_factor,
)
from .mesh import REGION_INNER


class SolverError(RuntimeError):
    """Linear solve failed; carries the offending parameter sample."""

    def __init__(self, message, y):
        super().__init__(message)
        self.y = np.array(y, dtype=float)

# Helmholtz solves stop at this relative residual (QoIs then match a direct
# solve to ~1e-10).  Both problems stop at COCG_MAXIT iterations (they take
# 7-14, preconditioned by A(0)^-1) and reject a solution whose backward error
# ||b - A x|| / (||A(0)||_1 ||x|| + ||b||) exceeds BACKWARD_ERROR_FACTOR tol.
# It never exceeds the relative residual, so a solve that meets tol passes on
# any mesh (measured: <= 6e-5 tol on the presets, 1.2e-2 tol on the coarsest
# square mesh), and unlike the residual it ignores conditioning.
COCG_TOL = 1e-12
COCG_MAXIT = 500
BACKWARD_ERROR_FACTOR = 1.0

# order-2 rule: barycentric points (2/3,1/6,1/6) and permutations, weight 1/3
_Q2 = np.array([[2 / 3, 1 / 6, 1 / 6],
                [1 / 6, 2 / 3, 1 / 6],
                [1 / 6, 1 / 6, 2 / 3]])
_W2 = np.full(3, 1 / 3)
# mass weights W2[q] phi_i(q) phi_j(q) of that rule, as a (3, 9) matrix,
# and load weights W2[q] phi_i(q), as a (3, 3) matrix
_MASS = np.einsum("q,qi,qj->qij", _W2, _Q2, _Q2).reshape(3, 9)
_LOAD = _W2[:, None] * _Q2

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


def _metric(cs, sn, g, m01, m11):
    """Averaged pullback metric Kbar = [[Kxx, Kxy], [Kxy, Kyy]], (t,) each,
    and detDPhi (3, t) of t triangles, from the polar factors (3, t) of DPhi
    = Q [[g, m01], [0, m11]] Q^T, Q the rotation by phi, at their points."""
    # pullback metric [[k00, k01], [k01, k11]] of [[g, m01], [0, m11]]
    k01 = -m01 / m11
    k11 = g / m11
    k00 = (m11 - m01 * k01) / g
    # rotated by phi: Kxx, Kyy = mean +- half and Kxy = off, with
    # cos 2 phi = c2 and sin 2 phi = s2
    c2, s2 = cs * cs - sn * sn, 2 * cs * sn
    mean, diff = (k00 + k11) / 2, (k00 - k11) / 2
    half, off = diff * c2 - k01 * s2, diff * s2 + k01 * c2
    # averaged over the three quadrature points (equal weights)
    mean, half, off = ((a[0] + a[1] + a[2]) / 3 for a in (mean, half, off))
    return mean + half, off, mean - half, g * m11


class ScalarField:
    """Nodal P1 field on a mesh, with the solver's info."""

    def __init__(self, mesh, data, info=None):
        self.mesh = mesh
        self.data = data
        self.info = info or {}

    def __call__(self, points):
        return self.mesh.interpolate(self.data, points)


class _TotalField(ScalarField):
    """Total transmission field u_s + u_inc of the sample y.

    data, the total at every vertex, is formed on first access.  A point
    evaluation adds the incident wave only at the corners of the triangles
    that hold the points, which is all a point QoI reads.
    """

    def __init__(self, problem, y, scattered, info):
        # ScalarField.__init__ would set data, which is computed here
        self.mesh = problem.mesh
        self.scattered = scattered
        self.pml_mask = problem._pml_mask
        self.info = info
        self._problem, self._y = problem, np.array(y, dtype=float)

    @functools.cached_property
    def data(self):
        phys = ~self.pml_mask
        total = self.scattered.copy()
        total[phys] += self._problem._incident(self._y, self.mesh.vertices[phys])
        return total

    def __call__(self, points):
        tri, lams = self.mesh.locate(points)
        corners = self.mesh.triangles[tri]
        vals = self.scattered[corners]
        phys = ~self.pml_mask[corners]
        vals[phys] += self._problem._incident(self._y, self.mesh.vertices[corners[phys]])
        return (vals * lams).sum(axis=1)


def _bincount(slots, vals, n):
    """Sum vals into n bins by slot; slot n collects the dropped entries."""
    slots, vals = slots.ravel(), vals.ravel()
    if np.iscomplexobj(vals):
        return _bincount(slots, vals.real, n) + 1j * _bincount(slots, vals.imag, n)
    return np.bincount(slots, vals, minlength=n + 1)[:n]


class _Elements:
    """P1 data of a set of triangles, triangle index last.

    tris lists the triangles inside the interface first; n_inner counts
    them.  area is (t,); gx and gy (3, t) are the gradients of the
    barycentric coordinates; quad (3 t, 2) holds the quadrature points
    quadrature-major (point q of triangle k is row q t + k), so a sum over
    q is two adds of (t,) rows; slots (9, t) is the CSR slot of
    element-matrix entry (i, j) in row 3 i + j, and dof_slots (3, t) the
    load slot of vertex i.
    """

    def __init__(self, mesh, tris, area, slots, dof_slots):
        inside = mesh.region[tris] == REGION_INNER
        self.tris = tris[np.argsort(~inside, kind="stable")]
        self.n_inner = int(np.count_nonzero(inside))
        self.size = self.tris.size
        v = mesh.vertices[mesh.triangles[self.tris]]  # (t, 3, 2)
        x, y = v[..., 0].T, v[..., 1].T
        self.area = area[self.tris]
        twice = 2 * self.area
        self.gx = (y[[1, 2, 0]] - y[[2, 0, 1]]) / twice
        self.gy = (x[[2, 0, 1]] - x[[1, 2, 0]]) / twice
        self.quad = (_Q2 @ v).transpose(1, 0, 2).reshape(-1, 2)
        self.slots = np.ascontiguousarray(slots[self.tris].T)
        self.dof_slots = np.ascontiguousarray(dof_slots[self.tris].T)

    def region_values(self, inside, outside):
        """Per-triangle values: inside for the first n_inner triangles, outside after."""
        return np.where(np.arange(self.size) < self.n_inner, inside, outside)


class _MappedProblem:
    """Assembly of -div(alpha grad u) - kappa2 u shared by both problems.

    A subclass sets its own fields, then calls __init__, which builds the
    Dirichlet dof numbering, the interior-dof CSR pattern and the _Elements
    of the band triangles, the only ones that move with y, and sums the
    others once.  The subclass defines
      tol: the relative residual at which its solves stop;
      _coefficients(el): alpha area and kappa2 area per triangle of an
        _Elements, with None for a kappa2 that vanishes, so that no mass
        term is formed;
      _load(el, cs, sn, g, m01, m11): el's summed load vector, given the
        polar factors (3, t) of DPhi at its quadrature points;
    and may override _fixed_factors(el), the identity, with an absorbing
    layer's stretch.  __init__ sums the fixed triangles from
    _fixed_factors and keeps no per-triangle array of them; _assemble(y)
    adds the band triangles from one map_jacobian(..., polar=True) call.
    Both take the stiffness's averaged pullback metric Kbar from _metric;
    with DPhi = Q [[g, m01], [0, m11]] Q^T, detDPhi = g m11 and Phi is the
    points times m11, so no 2 x 2 Jacobian is formed.

    The first _solve factors A(0) (linalg.nominal_factor, by FFT or LU as
    the mesh's ring layout allows); each sample then runs CG (COCG for the
    complex Helmholtz matrix) preconditioned by it, is rejected when its
    backward error exceeds BACKWARD_ERROR_FACTOR tol, and its info names
    the nominal solve ("nominal"), that factor's fill ("nominal_fill") and
    the backward error ("backward_error").  assemble never factors.
    """

    _factor = None

    def __init__(self, mesh, dm, alpha_i):
        self.mesh, self.dm, self.alpha_i = mesh, dm, float(alpha_i)
        dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
        self.interior = interior = mesh.interior_nodes()
        dof[interior] = np.arange(interior.size)
        n = self.n_int = interior.size

        # entry (i, j) of a triangle's element matrix goes to CSR slot
        # slots[t, 3 i + j], read back from a pattern whose values are their
        # own slot numbers; entries on a Dirichlet row or column go to the
        # dropped slot nnz
        d = dof[mesh.triangles]
        rows, cols = np.repeat(d, 3, axis=1).ravel(), np.tile(d, 3).ravel()
        keep = (rows >= 0) & (cols >= 0)
        pattern = assemble_csr(rows[keep], cols[keep], np.ones(keep.sum()), n)
        self.indptr, self.indices, self.nnz = pattern.indptr, pattern.indices, pattern.nnz
        pattern.data = np.arange(self.nnz, dtype=float)
        slots = np.full(rows.size, self.nnz)
        slots[keep] = np.asarray(pattern[rows[keep], cols[keep]]).ravel()
        slots = slots.reshape(-1, 9)
        dof_slots = np.where(d >= 0, d, n)

        area = mesh.areas()
        moving = (mesh.band == BAND_INNER) | (mesh.band == BAND_OUTER)
        self.band = _Elements(mesh, np.nonzero(moving)[0], area, slots, dof_slots)
        # chi branch of each band quadrature point, laid out like band.quad
        self.band_tags = np.tile(mesh.band[self.band.tris], 3)
        fixed = _Elements(mesh, np.nonzero(~moving)[0], area, slots, dof_slots)
        factors = self._fixed_factors(fixed)
        self._fixed = (self._values(fixed, self._coefficients(fixed), *_metric(*factors)),
                       self._load(fixed, *factors))
        self._band_coef = self._coefficients(self.band)

    def _values(self, el, coef, Kxx, Kxy, Kyy, det):
        """CSR values of el's element matrices alpha area g_i^T Kbar g_j,
        minus kappa2 area times the mass matrix of weight det (3, t), for
        coef = (alpha area, kappa2 area or None) and the averaged pullback
        metric Kbar = [[Kxx, Kxy], [Kxy, Kyy]] per triangle."""
        alpha, kappa2 = coef
        kxx, kxy, kyy = alpha * Kxx, alpha * Kxy, alpha * Kyy
        gx, gy = el.gx, el.gy
        # S[i, j] = g_i . (alpha area Kbar g_j)
        S = gx[:, None] * (kxx * gx + kxy * gy) + gy[:, None] * (kxy * gx + kyy * gy)
        if kappa2 is not None:
            S -= (_MASS.T @ (kappa2 * det)).reshape(3, 3, -1)
        return _bincount(el.slots, S, self.nnz)

    def _fixed_factors(self, el):
        """Polar factors (3, t) of the fixed triangles: the identity."""
        return [np.full((3, el.size), f) for f in (1.0, 0.0, 1.0, 0.0, 1.0)]

    def _matrix(self, band_values):
        """CSR matrix of the fixed triangles plus the band triangles' values."""
        return sp.csr_matrix((self._fixed[0] + band_values, self.indices.copy(),
                              self.indptr.copy()), shape=(self.n_int, self.n_int))

    def _assemble(self, y):
        el = self.band
        factors = [f.reshape(3, -1) for f in map_jacobian(
            self.dm, y, el.quad, self.band_tags, polar=True)]
        values = self._values(el, self._band_coef, *_metric(*factors))
        return self._matrix(values), self._fixed[1] + self._load(el, *factors)

    def _nominal_factor(self):
        """linalg.NominalFactor of A(0): the map is the identity at y = 0, so
        the band triangles take Kbar = I and detDPhi = 1, and no load."""
        if self._factor is None:
            el = self.band
            values = self._values(el, self._band_coef, 1.0, 0.0, 1.0, np.ones((3, el.size)))
            self._factor = nominal_factor(self._matrix(values), self.mesh.rings)
        return self._factor

    def _solve(self, y):
        """Nodal solution of A(y) u = b(y) to relative residual tol, zero on
        the Dirichlet boundary, and the solver info; a failed or inaccurate
        solve raises SolverError with y."""
        A, b = self.assemble(y)
        try:
            factor = self._nominal_factor()
            u_int, info = cg_solve(A, b, tol=self.tol, maxit=COCG_MAXIT,
                                   precond=factor.solve)
        except (NotConvergedError, SingularMatrixError, NotFiniteError) as exc:
            raise SolverError(f"COCG failed for y={np.asarray(y)!r}: {exc}", y) from exc
        # ||A(y)|| is taken as ||A(0)||_1; b = 0 gives x = 0 and eta = 0
        bnorm = np.linalg.norm(b)
        eta = info["residual"] * bnorm / (factor.norm * np.linalg.norm(u_int) + bnorm or 1.0)
        bound = BACKWARD_ERROR_FACTOR * self.tol
        if eta > bound:
            raise SolverError(f"COCG failed for y={np.asarray(y)!r}: backward error "
                              f"{eta:.3e} above {bound:.1e}", y)
        info.update(nominal=factor.method, nominal_fill=factor.fill, backward_error=eta)
        u = np.zeros(self.mesh.n_vertices, dtype=u_int.dtype)
        u[self.interior] = u_int
        return u, info


class EllipticProblem(_MappedProblem):
    """Dirichlet diffusion problem with a random inclusion.

    -div(alpha grad u) = f on the square, u = 0 on the boundary, alpha =
    alpha_i inside the interface and 1 outside.  Solved on the nominal
    mesh via the pullback coefficients; the linear systems are SPD and go
    through conjugate gradients preconditioned by the nominal factor (a
    sparse LU on the square mesh, the azimuthal FFT solve on a disk mesh),
    to relative residual cg_tol.
    """

    def __init__(self, mesh, dm, alpha_i, source=default_source, cg_tol=1e-10):
        self.source = source
        self.tol = cg_tol
        super().__init__(mesh, dm, alpha_i)

    def _coefficients(self, el):
        return el.area * el.region_values(self.alpha_i, 1.0), None

    def _load(self, el, cs, sn, g, m01, m11):
        # fhat = f(Phi(x)) detDPhi at the quadrature points, Phi(x) = x m11
        fval = self.source(el.quad * m11.reshape(-1, 1)).reshape(3, -1) * (g * m11)
        return _bincount(el.dof_slots, (_LOAD.T @ fval) * el.area, self.n_int)

    def assemble(self, y):
        """Stiffness matrix and load vector on interior dofs."""
        return self._assemble(y)

    def solve(self, y):
        u, info = self._solve(y)
        return ScalarField(self.mesh, u, info=info)


class HelmholtzProblem(_MappedProblem):
    """Plane-wave transmission problem with an absorbing outer annulus.

    -div(alpha grad u) - kappa^2 u = 0 with alpha = alpha_i, kappa =
    kappa_i inside the interface and 1, kappa_o outside; the total field
    is u = u_s + exp(i kappa_o d.x).  The scattered field is the unknown:
    its volume source lives on the inner region only, since the incident
    wave solves the background equation elsewhere, and the absorbing layer
    applies the radial stretch rho -> rho (1 + i sigma0 ((rho-R)/t)^2) to
    it.  Nontrapping requires kappa_i^2/kappa_o^2 <= alpha_i.

    Each sample runs COCG preconditioned by the nominal factor to relative
    residual COCG_TOL (see _MappedProblem).  The mesh is a disk of circular
    rings, so the nominal factor is the azimuthal FFT solve of
    linalg.nominal_factor.  solve returns the total field; it adds the
    incident wave where it is read (see _TotalField).
    """

    tol = COCG_TOL

    def __init__(self, mesh, dm, alpha_i, kappa_i, kappa_o,
                 direction=(1.0, 0.0), pml_damping=0.5):
        if kappa_i**2 / kappa_o**2 > alpha_i + 1e-12:
            raise ValueError(
                f"nontrapping violated: kappa_i^2/kappa_o^2 = "
                f"{kappa_i**2 / kappa_o**2:.3g} > alpha_i = {alpha_i}")
        if len(mesh.circles) < 4:
            raise ValueError("transmission problem needs a mesh with an absorbing annulus")
        if not pml_damping >= 0:
            raise ValueError(f"pml_damping must be >= 0 (a negative one amplifies "
                             f"the outgoing wave), got {pml_damping}")
        self.kappa_i = float(kappa_i)
        self.kappa_o = float(kappa_o)
        self.direction = np.asarray(direction, dtype=float)
        self.direction = self.direction / np.hypot(*self.direction)
        self.pml_damping = float(pml_damping)
        self.R = mesh.circles[2]
        self.pml_thickness = mesh.circles[3] - mesh.circles[2]
        super().__init__(mesh, dm, alpha_i)
        self._pml_mask = np.hypot(*mesh.vertices.T) > self.R + 1e-12

    def _coefficients(self, el):
        return (el.area * el.region_values(self.alpha_i, 1.0),
                el.area * el.region_values(self.kappa_i**2, self.kappa_o**2))

    def _fixed_factors(self, el):
        """The identity, but (cos phi, sin phi, d, 0, s) in the absorbing
        layer, whose Jacobian is d e_rho e_rho^T + s e_phi e_phi^T."""
        cs, sn, g, m01, m11 = super()._fixed_factors(el)
        g, m11 = g.astype(complex), m11.astype(complex)
        pml = self.mesh.band[el.tris] == BAND_PML
        qp = el.quad.reshape(3, -1, 2)[:, pml]
        rho = np.hypot(qp[..., 0], qp[..., 1])
        cs[:, pml], sn[:, pml] = qp[..., 0] / rho, qp[..., 1] / rho
        g[:, pml], m11[:, pml] = self._pml_stretch(rho)
        return cs, sn, g, m01, m11

    def _pml_stretch(self, rho):
        """(d, s) = (drho~/drho, rho~/rho) of the complex stretch rho -> rho~
        at layer radii rho: the polar factors (g, m11) of its Jacobian.

        Quadratic damping ramp d(rho~)/d(rho) = 1 + 2i sigma0 kappa_o t tau^2
        with tau the relative depth: the smooth ramp keeps the discrete
        transition reflection small while the optical depth grows with the
        layer, giving one-way attenuation exp(-2 sigma0 (kappa_o t)^2 / 3).
        """
        t = self.pml_thickness
        tau = (rho - self.R) / t
        amp = 2.0 * self.pml_damping * self.kappa_o * t
        return 1.0 + 1j * amp * tau**2, (rho + 1j * amp * t * tau**3 / 3.0) / rho

    def _load(self, el, cs, sn, g, m01, m11):
        # incident-wave source, supported where coefficients deviate from
        # the background: el's first n_inner triangles
        n = el.n_inner
        cs, sn, g, m01, m11 = (f[:, :n] for f in (cs, sn, g, m01, m11))
        points = el.quad.reshape(3, -1, 2)[:, :n]
        uinc = np.exp(1j * self.kappa_o * ((points @ self.direction) * m11))
        # the pulled-back incident wave has gradient DPhi^T (i kappa_o dhat)
        # uinc and K DPhi^T = adj(DPhi) = Q [[m11, -m01], [0, g]] Q^T, so
        # its pulled-back flux is adj(DPhi) (i kappa_o dhat) uinc
        d0, d1 = self.direction
        radial, angular = cs * d0 + sn * d1, cs * d1 - sn * d0
        u, v = m11 * radial - m01 * angular, g * angular
        fx = ((cs * u - sn * v) * uinc).sum(axis=0)
        fy = ((sn * u + cs * v) * uinc).sum(axis=0)
        stiff = el.gx[:, :n] * fx + el.gy[:, :n] * fy
        mass = _LOAD.T @ (g * m11 * uinc)
        bt = el.area[:n] * ((self.kappa_i**2 - self.kappa_o**2) * mass
                            - (1j * self.kappa_o * (self.alpha_i - 1.0) / 3) * stiff)
        return _bincount(el.dof_slots[:, :n], bt, self.n_int)

    def _incident(self, y, points):
        """Incident wave exp(i kappa_o dhat . Phi(y; x)) at nominal points x."""
        return np.exp(1j * self.kappa_o * (map_forward(self.dm, y, points) @ self.direction))

    def assemble(self, y):
        """Stiffness minus mass matrix and load vector on interior dofs."""
        return self._assemble(y)

    def solve(self, y):
        us, info = self._solve(y)
        return _TotalField(self, y, us, info)


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


def l2_error(field, exact):
    """Relative L2 distance between a P1 field and a callable reference."""
    mesh = field.mesh
    pts = np.einsum("qi,tid->tqd", _Q4, mesh.vertices[mesh.triangles])
    uh = np.einsum("qi,ti->tq", _Q4, field.data[mesh.triangles])
    ue = exact(pts.reshape(-1, 2)).reshape(pts.shape[0], -1)
    w = mesh.areas()[:, None] * _W4[None, :]
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
