"""Sparse solvers used by the finite element discretizations.

Matrices are scipy CSR, complex for Helmholtz rather than a 2n x 2n real
block form.  The conjugate gradient loop is written out so iteration counts,
the preconditioned residual history and the true final residual reach
callers and tests; its products are unconjugated, so on a complex-symmetric
matrix (A = A^T, not Hermitian) it is the conjugate orthogonal CG (COCG).
Both problems precondition it by the exact inverse of their nominal matrix
A(0) from nominal_factor: on a mesh whose rings are all circles, an FFT
along the rings and a Thomas sweep over the ring-major mode systems (the
Fourier-analysis fast solver, Hockney 1965); on any other mesh, such as the
square one, a sparse LU.  lu_solve is the one-shot direct solver, the
reference the iterative path is tested against.
"""

import math
from typing import Callable, NamedTuple

import numpy as np
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
    """A factored nominal matrix: method "fft" (azimuthal FFT and Thomas
    sweep) or "lu" (sparse LU), fill, the entries it stores (L + U, or 3
    (nring + 1) m), solve, r -> A(0)^-1 r, and norm, the 1-norm of A(0)."""

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
    past maxit and NotFiniteError when the residual or x stops being
    finite.
    """
    A = A if sp.issparse(A) else sp.csr_matrix(A)
    b = np.asarray(b)
    n = b.shape[0]
    x = np.zeros(n, dtype=np.result_type(A.dtype, b.dtype, float))
    r = b.astype(x.dtype)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual_norms": [], "residual": 0.0}

    real = not np.iscomplexobj(x)
    z = precond(r)
    p = z.copy()
    rz = r @ z
    history = [np.sqrt(abs(rz))]
    for it in range(1, maxit + 1):
        Ap = A @ p
        pAp = p @ Ap
        if pAp == 0 or (real and pAp < 0):
            raise SingularMatrixError("matrix is not positive definite" if real
                                      else "COCG breakdown: p^T A p = 0")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rnorm = np.linalg.norm(r)
        if not math.isfinite(rnorm):
            raise NotFiniteError(f"non-finite residual at iteration {it}")
        if rnorm <= tol * bnorm:
            if not np.all(np.isfinite(x)):
                raise NotFiniteError(f"non-finite solution after {it} iterations")
            residual = np.linalg.norm(b - A @ x) / bnorm
            return x, {"iterations": it, "residual_norms": history,
                       "residual": float(residual)}
        z = precond(r)
        rz_new = r @ z
        history.append(np.sqrt(abs(rz_new)))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
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
    boundary ring included, is a circle, else "lu"."""
    return "fft" if rings is not None and rings.circles == rings.count else "lu"


def nominal_factor(A, rings):
    """Factor the nominal matrix A, on the interior dofs of a mesh with
    RingLayout rings (the boundary ring eliminated), for repeated solves.

    Returns a NominalFactor.  The "lu" method is a supernodal LU of A.  The
    "fft" method reads A as block-circulant: it averages each class of entries
    that one (ring, ring offset, azimuth offset) shares, raising ValueError
    when an entry is more than CIRCULANT_TOL max|A| from its class mean or
    couples rings more than one apart.  A unitary DFT along the azimuth
    then turns A into one tridiagonal system in the ring index per mode,
    mode 0 also carrying the centre vertex.  One Thomas recurrence over the
    rings, vectorised across modes, factors them all; an apply is an FFT, two
    sweeps and an inverse FFT.  It does not pivot: a pivot not finite or not
    above 1e-14 max|eigenvalue| raises SingularMatrixError naming mode and ring.
    """
    norm = float(abs(A).sum(axis=0).max())  # 1-norm: largest column sum
    if nominal_method(rings) == "lu":
        # minimum degree on A^T + A keeps about half COLAMD's fill on the FEM
        # matrices; no U is built: a tiny pivot shows as slow convergence
        lu = _splu(A, "MMD_AT_PLUS_A")
        return NominalFactor("lu", lu.nnz, lu.solve, norm)
    m, nring = rings.m, rings.count - 1
    n = 1 + nring * m
    coo = sp.coo_matrix(A)
    if coo.shape != (n, n):
        raise ValueError(f"matrix of shape {coo.shape} on {nring} interior rings of {m}")
    row, col, val = coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data
    # ring and azimuth of each entry's row and column; the centre is ring -1
    kr, ir = np.divmod(row - 1, m)
    kc, ic = np.divmod(col - 1, m)
    dk = kc - kr
    centre = (row == 0) | (col == 0)
    if np.any(centre & (np.maximum(kr, kc) > 0)) or np.any(np.abs(dk) > 1):
        raise ValueError("matrix couples rings more than one apart")
    # class 0 is the centre's diagonal, 1 its row, 2 its column, and
    # 3 + (3 k + dk + 1) m + s ring k's entries at ring offset dk and
    # azimuth offset s
    cls = np.where(centre, (col > 0) + 2 * (row > 0),
                   3 + (3 * kr + dk + 1) * m + (ic - ir) % m)
    size = 3 + 3 * nring * m
    count = np.bincount(cls, minlength=size)
    total = np.bincount(cls, val.real, minlength=size)
    if np.iscomplexobj(val):
        total = total + 1j * np.bincount(cls, val.imag, minlength=size)
    mean = total / np.maximum(count, 1)
    deviation = np.abs(val - mean[cls]).max(initial=0.0)
    bound = CIRCULANT_TOL * np.abs(val).max(initial=0.0)
    if np.any(count[1:] % m) or deviation > bound:
        raise ValueError(f"matrix is not block-circulant: an entry is {deviation:.2e} "
                         f"from its class mean, above {bound:.2e}")
    # eigenvalues sum_s c_s e^(2 pi i p s / m) of each circulant block, (nring, 3, m)
    lam = m * np.fft.ifft(mean[3:].reshape(nring, 3, m), axis=-1)
    # mode p's tridiagonal system is column p of these ring-major arrays: row 0
    # the centre (an identity row but in mode 0), row k + 1 ring k
    diag = np.ones((nring + 1, m), dtype=complex)
    lower, upper = np.zeros_like(diag), np.zeros_like(diag)
    diag[0, 0], upper[0, 0], lower[1, 0] = mean[0], np.sqrt(m) * mean[1], np.sqrt(m) * mean[2]
    diag[1:], upper[1:-1], lower[2:] = lam[:, 1], lam[:-1, 2], lam[1:, 0]
    floor = 1e-14 * np.abs(lam).max(initial=0.0)  # lu_solve's relative floor
    # Thomas: diag becomes the pivots and upper is scaled by them; lower[0]
    # and upper[-1] are 0, so row 0 is left as it is
    for j in range(nring + 1):
        diag[j] -= lower[j] * upper[j - 1]
        ok = np.isfinite(diag[j]) & (np.abs(diag[j]) > floor)
        if not ok.all():
            p = int(np.argmin(ok))
            raise SingularMatrixError(f"mode {p} has pivot {abs(diag[j, p]):.3e} at ring "
                                      f"{j - 1} (-1 is the centre), not above {floor:.3e}")
        upper[j] /= diag[j]
    inv, lower = 1.0 / diag, lower / diag
    real = not np.iscomplexobj(val)

    def solve(r):
        z = np.empty((nring + 1, m), dtype=complex)
        z[0], z[0, 0] = 0.0, r[0]
        np.fft.fft(r[1:].reshape(nring, m), axis=1, norm="ortho", out=z[1:])
        z *= inv
        for j in range(1, nring + 1):
            z[j] -= lower[j] * z[j - 1]
        for j in range(nring - 1, -1, -1):
            z[j] -= upper[j] * z[j + 1]
        x = np.empty(n, dtype=complex)
        x[0] = z[0, 0]
        np.fft.ifft(z[1:], axis=1, norm="ortho", out=x[1:].reshape(nring, m))
        return x.real if real else x

    return NominalFactor("fft", 3 * inv.size, solve, norm)


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
