"""Sparse solvers used by the finite element discretizations.

Matrices are scipy CSR (row offsets, column indices, values); Helmholtz
systems are stored as native complex CSR rather than a 2n x 2n real block
form.  The preconditioned conjugate gradient loop is written out so iteration
counts, the preconditioned residual history and the true final residual are
available to callers and tests.  Its inner products are unconjugated, so on
a complex-symmetric matrix (A = A^T, not Hermitian) the same loop is the
conjugate orthogonal CG method (COCG).  Both problems run it preconditioned
by an LU factorization of their nominal matrix (lu_factor).  lu_solve is
the one-shot direct solver, with partial pivoting and an explicit
zero-pivot check, kept as the reference the iterative path is tested
against.
"""

import math

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


def lu_factor(A):
    """Supernodal LU of A for repeated solves, ordered by minimum degree on
    A^T + A, which on the (structurally symmetric) FEM matrices keeps about
    half the fill of COLAMD.

    Returns scipy's SuperLU object; its .solve applies A^-1.  Raises
    SingularMatrixError when SuperLU meets an exactly zero pivot.  The
    factor's U is never built for a pivot check: a factor used as a
    preconditioner shows a tiny pivot as slow or failed convergence.
    """
    try:
        return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc


def lu_solve(A, b):
    """Sparse direct solve via supernodal LU (COLAMD ordering, partial pivoting).

    Works for real and complex systems; raises SingularMatrixError when a
    pivot falls below 1e-14 times the largest matrix entry.
    """
    A = A.tocsc() if not sp.isspmatrix_csc(A) else A
    threshold = 1e-14 * abs(A).max()
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= threshold:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold {threshold:.3e}")
    return lu.solve(np.asarray(b))
