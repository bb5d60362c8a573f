"""Sparse solvers used by the finite element discretizations.

Matrices are scipy CSR, complex for Helmholtz rather than a 2n x 2n real
block form.  The conjugate gradient loop is written out so iteration counts,
the preconditioned residual history and the true final residual reach
callers and tests; its products are unconjugated, so on a complex-symmetric
matrix (A = A^T, not Hermitian) it is the conjugate orthogonal CG (COCG),
and it updates its vectors in place.  Both problems precondition it by the
exact inverse of their nominal matrix A(0) from nominal_factor: an FFT
along the rings and a Thomas sweep over the mode systems (Hockney 1965)
inside the last circle, and on the square mesh a dense Schur complement on
that circle and a sparse LU beyond it (the capacitance-matrix method,
Buzbee, Golub & Nielson 1970); a mesh without rings takes a sparse LU of
A(0).  lu_solve is the one-shot direct solver, the reference the iterative
path is tested against.
"""

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NotConvergedError(RuntimeError):
    def __init__(self, iterations, residual):
        super().__init__(
            f"CG did not converge in {iterations} iterations "
            f"(relative residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class SingularMatrixError(RuntimeError):
    pass


class NotFiniteError(RuntimeError):
    """An iterative solve produced a non-finite iterate."""


# the azimuthal solve refuses a matrix with an entry this far, relative to
# its largest entry, from the mean of its (ring, ring offset, azimuth
# offset) class; the disk meshes' A(0) stays near 5e-14
CIRCULANT_TOL = 1e-12


class NominalFactor(NamedTuple):
    """A factored nominal matrix: method (see nominal_method), fill, the
    entries it stores (3 per mode and ring, plus m^2 and F's L + U for
    "schur"; L + U for "lu"), solve, r -> A(0)^-1 r, and norm, ||A(0)||_1."""

    method: str
    fill: int
    solve: Callable
    norm: float


def assemble_csr(rows, cols, vals, n):
    """Sum duplicate COO triplets into an n x n CSR matrix."""
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return mat.tocsr()


def cg_solve(A, b, *, precond, tol=1e-10, maxit=20_000):
    """Preconditioned conjugate gradients for SPD or complex-symmetric systems.

    precond is a callable r -> M^-1 r.  With complex A and b the
    unconjugated products r^T z and p^T A p make this COCG, which needs
    A = A^T (and M symmetric) rather than A Hermitian.

    Stops when ||r||_2 <= tol * ||b||_2 for the recursively updated
    residual r, tested before r is preconditioned, so a solve that converges
    in k iterations applies precond k times.  Returns (x, info) where info
    carries the iteration count, the preconditioned residual norm history
    sqrt|r^T M^-1 r| with one entry per precond call (monotone for SPD A
    and M in exact arithmetic; the final residual, which is never
    preconditioned, has none) and the true final residual ||b - A x|| /
    ||b||, which costs one more product with A.  Raises NotConvergedError
    past maxit and NotFiniteError when r^T M^-1 r (tested before the
    product with A that would use it), the residual or x is not finite.

    x, r and p are updated in place through one scratch vector, so an
    iteration allocates only precond's result and A p, and every iterate is
    bit-identical to that of the allocating loop x += alpha p, r -= alpha A
    p, p = z + beta p.  (BLAS axpy is not: it fuses the multiply and the
    add, which rounds once instead of twice.)
    """
    A = A if sp.issparse(A) else sp.csr_matrix(A)
    b = np.asarray(b)
    n = b.shape[0]
    x = np.zeros(n, dtype=np.result_type(A.dtype, b.dtype, float))
    r = b.astype(x.dtype)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual_norms": [], "residual": 0.0}

    p, tmp = np.empty_like(x), np.empty_like(x)
    real = not np.iscomplexobj(x)
    history = []
    for it in range(1, maxit + 1):
        z = precond(r)
        rz_new = r @ z
        if not cmath.isfinite(rz_new):
            raise NotFiniteError(f"non-finite preconditioned residual at iteration {it}")
        history.append(np.sqrt(abs(rz_new)))
        # p = z + (rz_new / rz) p; a complex z does not fit a real p.  The
        # scalar is the first factor of every product, since numpy rounds a
        # complex p * beta differently from beta * p
        if it == 1:
            np.copyto(p, z, casting="same_kind")
        else:
            np.multiply(rz_new / rz, p, out=p)
            p += z
        rz = rz_new
        Ap = A @ p
        pAp = p @ Ap
        if pAp == 0 or (real and pAp < 0):
            raise SingularMatrixError("matrix is not positive definite" if real
                                      else "COCG breakdown: p^T A p = 0")
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, Ap, out=tmp)
        rnorm = math.sqrt(abs(np.vdot(r, r)))
        if not math.isfinite(rnorm):
            raise NotFiniteError(f"non-finite residual at iteration {it}")
        if rnorm <= tol * bnorm:
            if not np.all(np.isfinite(x)):
                raise NotFiniteError(f"non-finite solution after {it} iterations")
            residual = np.linalg.norm(b - A @ x) / bnorm
            return x, {"iterations": it, "residual_norms": history,
                       "residual": float(residual)}
    raise NotConvergedError(maxit, np.linalg.norm(r) / bnorm)


def _splu(A, order):
    """SuperLU factor of A with column ordering order; an exactly zero
    pivot raises SingularMatrixError."""
    try:
        return spla.splu(sp.csc_matrix(A), permc_spec=order)
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc


def nominal_method(rings):
    """The nominal solve nominal_factor runs on a mesh of this RingLayout
    (None for a mesh not built from rings): "fft" when every ring, the
    boundary ring included, is a circle, "schur" when the circles stop
    before it, and "lu" when there is none."""
    if rings is None or not rings.circles:
        return "lu"
    return "fft" if rings.circles == rings.count else "schur"


def _mode_systems(A, m, nring, nd, exact):
    """The mode systems (diag, lower, upper), each (nring + 1, m) with row 0
    the centre (an identity row but in mode 0) and row k + 1 ring k, and
    their largest |eigenvalue|, of the centre and rings 0 ... nring - 1 of
    CSR A read as block-circulant from its entries in a row or column below
    nd.  Each (ring, ring offset, azimuth offset) class is averaged, relative
    to one member when exact so that equal members keep their value; an
    entry more than CIRCULANT_TOL max|A| from its class mean, or one
    coupling rings more than one apart, raises ValueError."""
    ne = 1 + nring * m
    stop = A.indptr[ne]
    row = np.repeat(np.arange(ne, dtype=np.int32), np.diff(A.indptr[:ne + 1]))
    col, val = A.indices[:stop], A.data[:stop]
    keep = (col < ne) & ((row < nd) | (col < nd))
    # an entry between a row below nd and a column beyond ring nring - 1
    far = np.any(A.indices[stop:A.indptr[-1]] < nd)
    if not keep.all():
        far |= np.any(row[~keep] < nd)
        row, col, val = row[keep], col[keep], val[keep]
    # ring and azimuth of each entry's row and column; the centre is ring -1
    kr, ir = np.divmod(row - 1, m)
    kc, ic = np.divmod(col - 1, m)
    centre = (row == 0) | (col == 0)
    kc -= kr  # the ring offset
    if far or np.any(centre & (np.maximum(kr, kr + kc) > 0)) or np.any(np.abs(kc) > 1):
        raise ValueError("matrix couples rings more than one apart")
    # class 0 is the centre's diagonal, 1 its row, 2 its column, and
    # 3 + (3 k + dk + 1) m + s ring k's entries at ring offset dk and
    # azimuth offset s
    cls = np.where(centre, (col > 0) + 2 * (row > 0),
                   3 + (3 * kr + kc + 1) * m + (ic - ir) % m)
    size = 3 + 3 * nring * m
    count = np.bincount(cls, minlength=size)
    ref = np.zeros(size, dtype=val.dtype)
    if exact:
        ref[cls] = val
        val = val - ref[cls]
    total = np.bincount(cls, val.real, minlength=size)
    if np.iscomplexobj(val):
        total = total + 1j * np.bincount(cls, val.imag, minlength=size)
    mean = total / np.maximum(count, 1)
    deviation = np.abs(val - mean[cls]).max(initial=0.0)
    bound = CIRCULANT_TOL * np.abs(A.data[:stop]).max(initial=0.0)
    if np.any(count[1:] % m) or deviation > bound:
        raise ValueError(f"matrix is not block-circulant: an entry is {deviation:.2e} "
                         f"from its class mean, above {bound:.2e}")
    mean += ref
    # eigenvalues sum_s c_s e^(2 pi i p s / m) of each circulant block, (nring, 3, m)
    lam = m * np.fft.ifft(mean[3:].reshape(nring, 3, m), axis=-1)
    diag = np.ones((nring + 1, m), dtype=complex)
    lower, upper = np.zeros_like(diag), np.zeros_like(diag)
    diag[0, 0], upper[0, 0], lower[1, 0] = mean[0], np.sqrt(m) * mean[1], np.sqrt(m) * mean[2]
    diag[1:], upper[1:], lower[2:] = lam[:, 1], lam[:, 2], lam[1:, 0]
    return diag, lower, upper, np.abs(lam).max(initial=0.0)


def nominal_factor(A, rings):
    """Factor the nominal matrix A, on the interior dofs of a mesh with
    RingLayout rings (the boundary ring eliminated), for repeated solves.

    Returns a NominalFactor by nominal_method(rings).  "lu" is a supernodal
    LU of A.  "fft" reads A as block-circulant (_mode_systems, with exact
    class means for equal entries when A is real); a unitary DFT along the
    azimuth (rfft when A is real) turns it into one tridiagonal system in
    the ring index per mode (mode 0 also carrying the centre), all factored
    by one Thomas recurrence without pivoting; an apply is an FFT, two
    sweeps and an inverse FFT.  "schur" solves D, the centre and the rings
    inside ring k = circles - 1, that way; F, the rings beyond, gets a sparse
    LU and G, ring k, a dense LU of its Schur complement A_GG - A_GD A_DD^-1
    A_DG (a circulant) - A_GF A_FF^-1 A_FG, solved between D's two sweeps.
    A Thomas pivot not finite or not above 1e-14 max|eigenvalue|, or a
    complement pivot not above 1e-14 of its largest entry, raises
    SingularMatrixError.

    Either solve works in an array the factor keeps, so two threads must not
    call one at once; called in turn, it leaves r as it is and returns a new
    array.
    """
    A = sp.csr_matrix(A)
    # 1-norm: the largest column sum
    norm = float(np.bincount(A.indices, np.abs(A.data), minlength=A.shape[1]).max(initial=0.0))
    method = nominal_method(rings)
    if method == "lu":
        # minimum degree on A^T + A keeps about half COLAMD's fill on the FEM
        # matrices; no U is built: a tiny pivot shows as slow convergence
        lu = _splu(A, "MMD_AT_PLUS_A")
        return NominalFactor("lu", lu.nnz, lu.solve, norm)
    m, nring = rings.m, rings.count - 1
    n = 1 + nring * m
    if A.shape != (n, n):
        raise ValueError(f"matrix of shape {A.shape} on {nring} interior rings of {m}")
    real, schur = not np.iscomplexobj(A.data), method == "schur"
    # D is mode-system rows 0 ... k; under rfft (A real) modes m - p, the
    # conjugates of modes p, are left out
    k = rings.circles - 1 if schur else nring
    nd, modes = 1 + k * m, m // 2 + 1 if real else m
    fft, ifft = ((np.fft.rfft, lambda a, **kw: np.fft.irfft(a, m, **kw)) if real
                 else (np.fft.fft, np.fft.ifft))
    diag, lower, upper, scale = _mode_systems(A, m, min(k + 1, nring), nd, real)
    # D's couplings to and from G per mode, then D's systems alone
    to_g, from_g = upper[k, :modes].copy(), lower[-1, :modes]
    diag, lower, upper = (a[:k + 1, :modes] for a in (diag, lower, upper))
    upper[k] = 0.0
    # Thomas: diag becomes the pivots and upper is scaled by them; a bad
    # pivot spoils the rows after it, so the first is the one to name
    floor = 1e-14 * scale  # lu_solve's relative floor
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(k + 1):
            diag[j] -= lower[j] * upper[j - 1]
            upper[j] /= diag[j]
    ok = np.isfinite(diag) & (np.abs(diag) > floor)
    if not ok.all():
        j, p = np.unravel_index(np.argmin(ok), ok.shape)
        raise SingularMatrixError(f"mode {p} has pivot {abs(diag[j, p]):.3e} at ring "
                                  f"{j - 1} (-1 is the centre), not above {floor:.3e}")
    inv, lower = 1.0 / diag, lower / diag
    # both sweeps as (row, coefficient, neighbour row) views of z, in order;
    # call overhead is most of a sweep, so the ufuncs are local names
    z, temp = np.empty(diag.shape, dtype=complex), np.empty(modes, dtype=complex)
    forward = [(z[j], lower[j], z[j - 1]) for j in range(1, k + 1)]
    backward = [(z[j], upper[j], z[j + 1]) for j in range(k - 1, -1, -1)]
    subtract, multiply = np.subtract, np.multiply
    fill = 3 * inv.size
    if schur:
        g, f = slice(nd, nd + m), slice(nd + m, n)
        gf, fg = A[g, f], A[f, g].tocsc()
        # COLAMD factors and solves these thin annuli faster than minimum degree
        lu = _splu(A[f, f], "COLAMD")
        # D's circulant has symbol from_g to_g over D's last pivot; A_FF^-1
        # A_FG is formed 256 columns at a time, which bounds its right sides
        S = A[g, g].toarray() - scipy.linalg.circulant(ifft(from_g * inv[k] * to_g))
        for j in range(0, m, 256):
            S[:, j:j + 256] -= gf @ lu.solve(fg[:, j:j + 256].toarray(order="F"))
        getrf, getrs = scipy.linalg.lapack.get_lapack_funcs(("getrf", "getrs"), (S,))
        floor = 1e-14 * np.abs(S).max(initial=0.0)
        S, pivots, _ = getrf(S, overwrite_a=True)
        if not np.all(np.abs(S.diagonal()) > floor):
            raise SingularMatrixError(f"the Schur complement on ring {k} has a pivot "
                                      f"not above {floor:.3e}")
        to_g *= inv[k]
        fill += S.size + lu.nnz

    def solve(r):
        z[0], z[0, 0] = 0.0, r[0]
        fft(r[1:nd].reshape(k, m), axis=1, norm="ortho", out=z[1:])
        np.multiply(z, inv, out=z)  # in place: z belongs to the closure
        for row, coefficient, neighbour in forward:
            subtract(row, multiply(coefficient, neighbour, temp), row)
        x = np.empty(n, dtype=float if real else complex)
        if schur:
            # G's right side less D's and F's parts, then G, F, and D's last
            # ring less its coupling to G
            x[g] = getrs(S, pivots, r[g] - ifft(from_g * z[k], norm="ortho")
                         - gf @ lu.solve(r[f]))[0]
            x[f] = lu.solve(r[f] - fg @ x[g])
            z[k] -= to_g * fft(x[g], norm="ortho")
        for row, coefficient, neighbour in backward:
            subtract(row, multiply(coefficient, neighbour, temp), row)
        x[0] = z[0, 0].real if real else z[0, 0]
        ifft(z[1:], axis=1, norm="ortho", out=x[1:nd].reshape(k, m))
        return x

    return NominalFactor(method, fill, solve, norm)


def lu_solve(A, b):
    """Sparse direct solve via supernodal LU (COLAMD ordering, partial pivoting).

    Works for real and complex systems; raises SingularMatrixError when a
    pivot falls below 1e-14 times the largest matrix entry.
    """
    threshold = 1e-14 * abs(A).max()
    lu = _splu(A, "COLAMD")
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= threshold:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold {threshold:.3e}")
    return lu.solve(np.asarray(b))
