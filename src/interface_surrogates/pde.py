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
built once per problem.  The band fills strips between circular rings, so a
band triangle is one of two per-strip templates rotated by 2 pi a / m, with
its template's data in the polar frame of each quadrature point.  A sample
sums the interface series at all rotations of the template points with one
matmul, forms the polar pullback metric and detDPhi there (no 2 x 2
Jacobian, no rotation), contracts them with per-template weights in one
batched matmul and adds the result to the CSR values with bincount.  Since
only the band moves, A(y) stays close to the nominal A(0): both problems
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
    map_jacobian,  # not called here; benchmark/tracing.py wraps pde.map_jacobian
    mollifier,
    mollifier_slope,
    rotated_series,
    rotation_tables,
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
from .mesh import REGION_INNER, MeshError


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
_I, _J = np.divmod(np.arange(9), 3)  # (i, j) of element-matrix entry 3 i + j
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


def _metric(g, m01, m11):
    """K (T, 12, c): in row 3 r + q, for r = 0 ... 3, the polar pullback
    metric [[k00, k01], [k01, k11]] and detDPhi at point q, from the polar
    factors (T, 3, c) of DPhi = Q [[g, m01], [0, m11]] Q^T there: k01 = -m01
    / m11, k11 = g / m11, k00 = (m11 - m01 k01) / g and detDPhi = g m11, each
    written into one contiguous block of a buffer, which one copy turns into K."""
    T, _, c = np.broadcast_shapes(g.shape, m01.shape, m11.shape)
    blocks = np.empty((4, T, 3, c), dtype=np.result_type(g, m01, m11))
    k00, k01, k11, det = blocks
    np.negative(np.divide(m01, m11, out=k01), out=k01)
    np.divide(g, m11, out=k11)
    np.subtract(m11, np.multiply(m01, k01, out=k00), out=k00)
    np.divide(k00, g, out=k00)
    np.multiply(g, m11, out=det)
    return blocks.transpose(1, 0, 2, 3).reshape(T, 12, c)


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
        out = np.empty(n, dtype=vals.dtype)
        out.real, out.imag = _bincount(slots, vals.real, n), _bincount(slots, vals.imag, n)
        return out
    return np.bincount(slots, vals, minlength=n + 1)[:n]


class _Elements:
    """P1 data of triangles tris (T, c): copy a of template t is tris[t, a],
    tris[t, 0] rotated by 2 pi a / c (c = 1: each triangle its own template).
    The n_inner templates inside the interface (inner) come first.  area is
    (T,); x (T, 3) the quadrature points of copy 0 as x1 + i x2, rho and z
    their moduli and phases, and copy a's are x rotation[a]; grad (2, T, 3,
    3) the radial and angular components of the gradient of coordinate i at
    point q, in row (q, i), the same for every copy; slots (T, 9, c) the CSR
    slot of entry (i, j) of copy a in row 3 i + j, dof_slots (T, 3, c) that
    of vertex i."""

    def __init__(self, mesh, tris, area, slots, dof_slots):
        inside = mesh.region[tris[:, 0]] == REGION_INNER
        tris = tris[np.argsort(~inside, kind="stable")]
        self.n_inner = int(np.count_nonzero(inside))
        self.size, c = tris.shape
        self.inner = np.arange(self.size) < self.n_inner
        self.band = mesh.band[tris[:, 0]]
        v = mesh.vertices.view(complex)[mesh.triangles[tris[:, 0]], 0]  # (T, 3)
        self.area = area[tris[:, 0]]
        self.x = v @ _Q2.T
        self.rho, self.z = np.abs(self.x), np.exp(1j * np.angle(self.x))  # z = 1 at 0
        # gradient gx + i gy of coordinate i, in the polar frame of point q
        grad = 1j * (v[:, [2, 0, 1]] - v[:, [1, 2, 0]]) / (2 * self.area[:, None])
        polar = np.conj(self.z[:, :, None]) * grad[:, None, :]
        self.grad = np.array([polar.real, polar.imag])
        self.rotation = np.exp(2j * np.pi * np.arange(c) / c)
        self.slots = np.ascontiguousarray(slots[tris].transpose(0, 2, 1))
        self.dof_slots = np.ascontiguousarray(dof_slots[tris].transpose(0, 2, 1))


def _ring_templates(mesh, mask):
    """The triangles of mask as (rotations (T, m), rest (S, 1)): on a ring
    mesh, the fan and each strip between circular rings that mask covers
    whole are m rotations of a template; rest holds the others."""
    if mesh.rings is None:
        return np.empty((0, 1), dtype=np.int64), np.nonzero(mask)[0][:, None]
    m, count, circles = mesh.rings
    # fan triangle a, and triangle m + 2 m s + 2 a + j of the strip between
    # rings s and s + 1, are copy a of template 0 and of template 1 + 2 s + j
    strips = m + 2 * m * np.arange(count - 1)[:, None, None] + np.arange(2)[:, None]
    tris = np.concatenate([np.arange(m)[None], (strips + 2 * np.arange(m)).reshape(-1, m)])
    tris = tris[mask[tris].all(axis=1) & (np.arange(2 * count - 1) < 2 * circles - 1)]
    # the rest: triangles of mask that no template counts
    return tris, np.flatnonzero(np.bincount(tris.ravel(), minlength=mask.size) < mask)[:, None]


class _MappedProblem:
    """Assembly of -div(alpha grad u) - kappa2 u shared by both problems.

    A subclass sets its own fields, then calls __init__, which builds the
    Dirichlet dof numbering, the interior-dof CSR pattern and the _Elements
    of the band's ring templates, the only triangles that move with y, and
    sums the others once.  The subclass defines
      tol: the relative residual at which its solves stop;
      _coefficients(el): alpha area and kappa2 area per template of an
        _Elements, with None for a kappa2 that vanishes, so that no mass
        term is formed;
      _load_tables(el): the y-independent tables _load reads, formed once
        per _Elements and kept as its load_tables;
      _load(el, g, m01, m11): el's summed load vector, given the polar
        factors (T, 3, c) of DPhi at its quadrature points;
    and may override _fixed_factors(el), the identity, with an absorbing
    layer's stretch.  The fixed triangles (once, in __init__) and the band
    (per sample, in _band) share one kernel: _metric contracted with _weights.

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
        self._fixed = 0.0, 0.0
        for tris in filter(np.size, _ring_templates(mesh, ~moving)):
            el = _Elements(mesh, tris, area, slots, dof_slots)
            el.load_tables = self._load_tables(el)
            factors = self._fixed_factors(el)
            self._fixed = (self._fixed[0] + self._values(el, self._weights(el), _metric(*factors)),
                           self._fixed[1] + self._load(el, *factors))
        rotations, rest = _ring_templates(mesh, moving)
        if rest.size:
            raise MeshError("band triangles must fill strips between circles of a ring mesh")
        el = self.band = _Elements(mesh, rotations, area, slots, dof_slots)
        el.load_tables = self._load_tables(el)
        self._band_weights = self._weights(el)
        # the band's slots fill one block of the CSR values (ring-major dofs
        # keep them together); shifted to it, they sum W @ K into it alone,
        # and the dropped slot nnz becomes the block's end
        start = el.slots.min(initial=self.nnz)
        stop = el.slots.max(initial=start - 1, where=el.slots < self.nnz) + 1
        self._block = slice(start, stop)
        el.slots = np.minimum(el.slots - start, stop - start)
        self._rotations = rotation_tables(el.z, el.rotation.size, dm.model.d // 2)
        # chi' per template and chi / rho per point, against (T, 3, m) grids
        self._chi = (mollifier_slope(dm, el.rho, el.band[:, None])[..., None],
                     (mollifier(dm, el.rho) / el.rho)[..., None])

    def _weights(self, el):
        """W (T, 9, 12): entry (i, j) of copy a of template t is (W @ K)[t, 3 i
        + j, a] for the K of _metric, alpha area sum_q g_i^T Kq g_j / 3 minus
        kappa2 area times the mass weights, with _coefficients' factors."""
        alpha, kappa2 = self._coefficients(el)
        # radial and angular gradient components of i and j, (T, q, 3 i + j)
        ri, ai = el.grad[..., _I] * (alpha / 3)[:, None, None]
        rj, aj = el.grad[..., _J]
        mass = 0 * ri if kappa2 is None else -kappa2[:, None, None] * _MASS
        W = np.stack([ri * rj, ri * aj + ai * rj, ai * aj, mass], axis=1)
        return np.ascontiguousarray(W.reshape(-1, 12, 9).transpose(0, 2, 1))

    def _values(self, el, W, K):
        """CSR values of el's element matrices W @ K (see _weights)."""
        if np.iscomplexobj(K):
            return self._values(el, W, K.real) + 1j * self._values(el, W, K.imag)
        return _bincount(el.slots, W @ K, self.nnz)

    def _fixed_factors(self, el):
        """Polar factors (g, m01, m11), (T, 3, c), of fixed triangles: the identity."""
        one = np.ones((el.size, 3, el.rotation.size))
        return one, 0 * one, one

    def _band(self, y):
        """Polar factors (g, m01, m11), (T, 3, m), at the band points and the
        band's CSR values in _block, from one rotated_series call; (1, 0, 1)
        at y = 0."""
        slope, chi = self._chi
        # r - r0 and dr/dphi, turned in place into m11 = 1 + chi (r - r0) and
        # m01 = chi dr/dphi once g = 1 + chi' (r - r0) is formed
        m11, m01 = rotated_series(self.dm.model, y, *self._rotations)
        g = np.multiply(slope, m11)
        g += 1.0
        m01 *= chi
        m11 *= chi
        m11 += 1.0
        return (g, m01, m11), self._band_values(_metric(g, m01, m11))

    def _band_values(self, K):
        """The band's CSR values in _block for the real K of _metric."""
        return _bincount(self.band.slots, self._band_weights @ K,
                         self._block.stop - self._block.start)

    def _matrix(self, band_values):
        """CSR matrix of the fixed triangles plus the band's real values."""
        values = self._fixed[0].copy()
        values.real[self._block] += band_values
        return sp.csr_matrix((values, self.indices.copy(), self.indptr.copy()),
                             shape=(self.n_int, self.n_int))

    def _assemble(self, y):
        factors, values = self._band(y)
        return self._matrix(values), self._fixed[1] + self._load(self.band, *factors)

    def _nominal_factor(self):
        """linalg.NominalFactor of A(0): the band kernel at y = 0's identity factors."""
        if self._factor is None:
            values = self._band_values(_metric(*_MappedProblem._fixed_factors(self, self.band)))
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
        return el.area * np.where(el.inner, self.alpha_i, 1.0), None

    def _load_tables(self, el):
        # the quadrature points of every copy, x rotation[a]
        return el.x[..., None] * el.rotation

    def _load(self, el, g, m01, m11):
        # fhat = f(Phi(x)) detDPhi at the quadrature points, Phi(x) = x m11
        x = el.load_tables * m11
        fval = self.source(x.view(float).reshape(-1, 2)).reshape(x.shape)
        bt = el.area[:, None, None] * (_LOAD.T @ (fval * (g * m11)))
        return _bincount(el.dof_slots, bt, self.n_int)

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
        return (el.area * np.where(el.inner, self.alpha_i, 1.0),
                el.area * np.where(el.inner, self.kappa_i**2, self.kappa_o**2))

    def _fixed_factors(self, el):
        """The identity, but (d, 0, s) in the absorbing layer, whose Jacobian
        is d e_rho e_rho^T + s e_phi e_phi^T."""
        g, m01, m11 = (f.astype(complex) for f in super()._fixed_factors(el))
        pml = el.band == BAND_PML
        d, s = self._pml_stretch(el.rho[pml])
        g[pml], m11[pml] = d[..., None], s[..., None]
        return g, m01, m11

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

    def _load_tables(self, el):
        """For el's n_inner templates, where the incident-wave source lives
        (the coefficients deviate from the background there): kappa_o x .
        dhat and dhat's radial and angular components, (n, 3, c) each, at
        the quadrature points of every copy, and the weights W (n, 3, 9) of
        _load's u, (i, row 3 r + q)."""
        n = el.n_inner
        # conj(x) dhat = x . dhat + i x x dhat: rho times dhat's polar components
        along = np.conj(el.x[:n, :, None] * el.rotation) * complex(*self.direction)
        polar = along / el.rho[:n, :, None]
        # the load at vertex i is area ((kappa_i^2 - kappa_o^2) sum_q L_qi u2
        # - i kappa_o (alpha_i - 1) / 3 sum_q (grad_r_qi u0 + grad_phi_qi u1))
        area = el.area[:n, None, None]
        flux = -1j * self.kappa_o * (self.alpha_i - 1.0) / 3 * area * el.grad[:, :n].swapaxes(2, 3)
        mass = (self.kappa_i**2 - self.kappa_o**2) * area * _LOAD.T
        W = np.concatenate([flux[0], flux[1], mass], axis=2)
        return self.kappa_o * along.real, polar.real, polar.imag, W

    def _load(self, el, g, m01, m11):
        n = el.n_inner
        g, m01, m11 = (f[:n] for f in (g, m01, m11))
        phase, radial, angular, W = el.load_tables
        uinc = np.exp(1j * (phase * m11))
        # the pulled-back incident wave has gradient DPhi^T (i kappa_o dhat)
        # uinc and K DPhi^T = adj(DPhi) = Q [[m11, -m01], [0, g]] Q^T, so its
        # pulled-back flux is adj(DPhi) (i kappa_o dhat) uinc: u0 and u1 are
        # its polar components over i kappa_o, u2 detDPhi uinc
        u = np.empty((n, 3) + g.shape[1:], dtype=complex)
        np.multiply(m11 * radial - m01 * angular, uinc, out=u[:, 0])
        np.multiply(g * angular, uinc, out=u[:, 1])
        np.multiply(g * m11, uinc, out=u[:, 2])
        return _bincount(el.dof_slots[:n], W @ u.reshape(n, 9, -1), self.n_int)

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
