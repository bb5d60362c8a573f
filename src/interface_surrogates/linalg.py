"""Sparse solvers used by the finite element discretizations.

Matrices are scipy CSR (row offsets, column indices, values); Helmholtz
systems are stored as native complex CSR rather than a 2n x 2n real block
form.  The conjugate gradient loop is written out so iteration counts and
the preconditioned residual history are available to callers and tests;
the direct solver wraps a supernodal LU with fill-reducing ordering and
partial pivoting, with an explicit zero-pivot check.
"""

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


def assemble_csr(rows, cols, vals, n):
    """Sum duplicate COO triplets into an n x n CSR matrix."""
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return mat.tocsr()


def cg_solve(A, b, tol=1e-10, maxit=20_000, precond="jacobi"):
    """Preconditioned conjugate gradients for SPD systems.

    Stops when ||r||_2 <= tol * ||b||_2.  Returns (x, info) where info
    carries the iteration count and the preconditioned residual norm
    history sqrt(r' M^-1 r), which decreases monotonically for SPD A in
    exact arithmetic.  Raises NotConvergedError past maxit.
    """
    A = A.tocsr() if not sp.issparse(A) else A
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if precond == "jacobi":
        diag = A.diagonal().astype(float)
        if np.any(diag <= 0):
            raise SingularMatrixError("non-positive diagonal entry; matrix not SPD")
        minv = 1.0 / diag
    elif precond is None or precond == "none":
        minv = np.ones(n)
    else:
        raise ValueError(f"unknown preconditioner {precond!r}")

    x = np.zeros(n)
    r = b.copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual_norms": [0.0]}

    z = minv * r
    p = z.copy()
    rz = r @ z
    history = [np.sqrt(rz)]
    for it in range(1, maxit + 1):
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0:
            raise SingularMatrixError("matrix is not positive definite")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = minv * r
        rz_new = r @ z
        history.append(np.sqrt(max(rz_new, 0.0)))
        if np.linalg.norm(r) <= tol * bnorm:
            return x, {"iterations": it, "residual_norms": history}
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    raise NotConvergedError(maxit, np.linalg.norm(r) / bnorm)


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
