"""Solver checks against dense references and the worked tridiagonal case."""

import numpy as np
import pytest
import scipy.sparse as sp

from interface_surrogates import pipeline
from interface_surrogates.linalg import (
    NotConvergedError,
    NotFiniteError,
    SingularMatrixError,
    assemble_csr,
    cg_solve,
    lu_solve,
    nominal_factor,
    nominal_method,
)
from interface_surrogates.mesh import RingLayout


def jacobi(A):
    """Diagonal preconditioner r -> D^-1 r of A."""
    minv = 1.0 / A.diagonal()
    return lambda r: minv * r


def identity(r):
    return r.copy()


def laplacian_1d(n):
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def test_cg_worked_tridiagonal():
    # unit load at the middle of a 5-point discrete Laplacian
    A = laplacian_1d(5)
    b = np.zeros(5)
    b[2] = 1.0
    x, info = cg_solve(A, b, tol=1e-12, precond=jacobi(A))
    assert np.allclose(x, [0.5, 1.0, 1.5, 1.0, 0.5], atol=1e-10)
    assert 0 < info["iterations"] <= 5


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(0)
    n = 120
    Q = rng.normal(size=(n, n))
    A_dense = Q @ Q.T + n * np.eye(n)
    A = sp.csr_matrix(A_dense)
    b = rng.normal(size=n)
    x, info = cg_solve(A, b, tol=1e-12, precond=jacobi(A))
    assert np.allclose(x, np.linalg.solve(A_dense, b), atol=1e-8)


def test_cg_accepts_dense_matrix():
    x, info = cg_solve(2 * np.eye(2), np.ones(2), precond=np.copy)
    np.testing.assert_allclose(x, [0.5, 0.5])
    assert info["iterations"] == 1


def test_cg_preconditioned_residual_monotone():
    # badly scaled SPD system where Jacobi actually matters
    rng = np.random.default_rng(3)
    n = 200
    scales = 10.0 ** rng.uniform(-3, 3, n)
    Q = rng.normal(size=(n, n))
    A = sp.csr_matrix((np.diag(scales) @ (Q @ Q.T / n + np.eye(n)) @ np.diag(scales)))
    b = rng.normal(size=n)
    _, info = cg_solve(A, b, tol=1e-10, maxit=5000, precond=jacobi(A))
    res = np.array(info["residual_norms"])
    assert np.all(np.diff(res) <= res[:-1] * 1e-12 + 1e-300)


def test_cg_iteration_count_drops_with_nominal_factor():
    # badly scaled SPD nominal matrix plus a small symmetric perturbation of
    # a few rows, as a sample's band triangles perturb A(0)
    rng = np.random.default_rng(5)
    n = 300
    scales = 10.0 ** rng.uniform(-2, 2, n)
    body = sp.random(n, n, density=0.02, random_state=7)
    nominal = (body @ body.T).toarray() + np.eye(n)
    E = np.zeros((n, n))
    E[:20, :20] = 0.1 * rng.normal(size=(20, 20))
    D = np.diag(scales)
    A0 = sp.csr_matrix(D @ nominal @ D)
    A = sp.csr_matrix(D @ (nominal + E @ E.T) @ D)
    b = rng.normal(size=n)
    _, plain = cg_solve(A, b, tol=1e-10, maxit=100_000, precond=identity)
    x, nom = cg_solve(A, b, tol=1e-10, maxit=100_000, precond=nominal_factor(A0, None).solve)
    assert nom["iterations"] <= 25 < plain["iterations"]
    assert nom["residual"] <= 1e-9


def test_cg_raises_past_maxit():
    A = laplacian_1d(50)
    b = np.ones(50)
    with pytest.raises(NotConvergedError):
        cg_solve(A, b, tol=1e-14, maxit=3, precond=jacobi(A))


def test_cg_rejects_indefinite():
    A = sp.csr_matrix(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(SingularMatrixError):
        cg_solve(A, np.ones(3), precond=identity)


def test_cocg_complex_symmetric_with_factor_preconditioner():
    # complex-symmetric (A = A^T, not Hermitian) perturbation of a nominal
    # matrix, preconditioned by the nominal LU factor as the Helmholtz solve is
    rng = np.random.default_rng(11)
    n = 90
    Q = rng.normal(size=(n, n))
    nominal = (Q + Q.T) / 4 + n * np.eye(n) + 1j * np.diag(rng.uniform(1, 5, n))
    E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A_dense = nominal + 0.5 * (E + E.T)
    assert np.array_equal(A_dense, A_dense.T)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    factor = nominal_factor(sp.csr_matrix(nominal), None)
    x, info = cg_solve(sp.csr_matrix(A_dense), b, tol=1e-12, precond=factor.solve)
    exact = np.linalg.solve(A_dense, b)
    assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)
    assert info["iterations"] < 30
    true_res = np.linalg.norm(b - A_dense @ x) / np.linalg.norm(b)
    assert info["residual"] == pytest.approx(true_res, rel=1e-3, abs=1e-15)
    assert info["residual"] <= 1e-11


def test_cg_reports_true_residual():
    A = laplacian_1d(40)
    b = np.ones(40)
    x, info = cg_solve(A, b, tol=1e-10, precond=jacobi(A))
    true_res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert info["residual"] == pytest.approx(true_res, rel=1e-12, abs=1e-300)


def test_cg_raises_on_non_finite_iterate():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, np.nan]]))
    with pytest.raises(NotFiniteError):
        cg_solve(A, np.ones(2), precond=identity)


class _CountingMatrix(sp.csr_matrix):
    """CSR matrix that counts its products with a vector."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


@pytest.mark.filterwarnings("error")
def test_cg_raises_when_the_preconditioner_turns_non_finite():
    # the second apply returns NaNs: the solve stops there, before a second
    # product with A and without a numpy warning
    A = _CountingMatrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    calls = []

    def turning(r):
        calls.append(r)
        return r.copy() if len(calls) == 1 else np.full_like(r, np.nan)

    with pytest.raises(NotFiniteError, match="iteration 2"):
        cg_solve(A, np.array([1.0, 2.0]), precond=turning)
    assert len(calls) == 2 and A.products == 1


def test_lu_factor_detects_exact_singularity():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        nominal_factor(A, None)


def polar_stencil(m, nring, complex_shift=0.0, diagonal=6.0):
    """Symmetric block-circulant matrix on a centre plus nring rings of m
    vertices, numbered as a ring mesh's interior dofs: each ring couples to
    its azimuth neighbours, to the next ring at azimuth offsets 0 and +1
    and, ring 0, to the centre; ring k's diagonal is diagonal + k."""
    n = 1 + nring * m
    vid = lambda k, i: 1 + k * m + i % m
    A = sp.lil_matrix((n, n), dtype=complex)
    A[0, 0] = 4.0
    for i in range(m):
        A[0, vid(0, i)] = A[vid(0, i), 0] = -0.5
        for k in range(nring):
            A[vid(k, i), vid(k, i)] = diagonal + k + 1j * complex_shift * (k + 1)
            A[vid(k, i), vid(k, i + 1)] = A[vid(k, i + 1), vid(k, i)] = -1.0
            if k + 1 < nring:
                A[vid(k, i), vid(k + 1, i)] = A[vid(k + 1, i), vid(k, i)] = -1.5
                A[vid(k, i), vid(k + 1, i + 1)] = A[vid(k + 1, i + 1), vid(k, i)] = -0.25
    A = A.tocsr()
    return A if complex_shift else A.real


def mode_system(A, m, nring, p):
    """The nring x nring tridiagonal system of azimuthal mode p != 0 of a
    block-circulant A, by projecting A onto that mode's Fourier vectors."""
    V = np.zeros((A.shape[0], nring), dtype=complex)
    for k in range(nring):
        V[1 + k * m:1 + (k + 1) * m, k] = np.exp(2j * np.pi * p * np.arange(m) / m) / np.sqrt(m)
    return V.conj().T @ A.toarray() @ V


def test_nominal_method_follows_ring_layout():
    assert nominal_method(RingLayout(8, 4, 4)) == "fft"
    # circles that stop before the boundary, as on the square meshes
    assert nominal_method(RingLayout(8, 4, 3)) == "schur"
    assert nominal_method(RingLayout(56, 13, 11)) == "schur"
    assert nominal_method(RingLayout(104, 21, 18)) == "schur"
    assert nominal_method(RingLayout(104, 21, 0)) == "lu"
    assert nominal_method(None) == "lu"


@pytest.mark.parametrize("shift", [0.0, 0.7])
def test_nominal_factor_fft_inverts_block_circulant(shift):
    m, nring = 8, 3
    A = polar_stencil(m, nring, shift)
    factor = nominal_factor(A, RingLayout(m, nring + 1, nring + 1))
    assert factor.method == "fft"
    # one tridiagonal mode system, banded under the natural order
    assert factor.fill <= 5 * A.shape[0]
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    x = factor.solve(b)
    assert np.iscomplexobj(x) == bool(shift)
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-12, atol=1e-12)
    # the same matrix without a ring layout goes to LU
    lu = nominal_factor(A, None)
    assert lu.method == "lu"
    np.testing.assert_allclose(lu.solve(b), x, rtol=1e-12, atol=1e-12)
    # both carry the 1-norm of A
    assert factor.norm == lu.norm == np.abs(A.toarray()).sum(axis=0).max()


def test_nominal_factor_rejects_matrix_that_is_not_circulant():
    m, nring = 8, 3
    rings = RingLayout(m, nring + 1, nring + 1)
    A = polar_stencil(m, nring)
    A[5, 5] *= 1 + 1e-10
    with pytest.raises(ValueError, match="not block-circulant"):
        nominal_factor(A, rings)
    # a coupling between rings two apart
    A = polar_stencil(m, nring).tolil()
    A[1, 1 + 2 * m] = A[1 + 2 * m, 1] = -0.1
    with pytest.raises(ValueError, match="more than one apart"):
        nominal_factor(A.tocsr(), rings)


@pytest.mark.parametrize("shift", [0.0, 0.7])
@pytest.mark.parametrize("circles", [1, 3, 5])
def test_nominal_factor_schur_inverts_stencil_with_fill_rings(shift, circles):
    # rings circles ... nring - 1 play the square mesh's fill (none when
    # circles is nring): their rows get an entry that no rotation shares
    m, nring = 8, 5
    A = polar_stencil(m, nring, shift).tolil()
    for k in range(circles, nring):
        A[1 + k * m, 1 + k * m] += 0.5 + k
        A[1 + k * m, 2 + k * m] = A[2 + k * m, 1 + k * m] = -0.3
    A = A.tocsr()
    factor = nominal_factor(A, RingLayout(m, nring + 1, circles))
    assert factor.method == "schur"
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    x = factor.solve(b)
    assert np.iscomplexobj(x) == bool(shift)
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-12, atol=1e-12)


def test_nominal_factor_schur_rejects_matrix_that_is_not_circulant_inside():
    # an entry of ring 0, inside the first ring that is not a circle
    m, nring = 8, 4
    A = polar_stencil(m, nring)
    A[1 + m + 3, 1 + m + 3] *= 1 + 1e-10
    with pytest.raises(ValueError, match="not block-circulant"):
        nominal_factor(A, RingLayout(m, nring + 1, 3))
    # on the first ring that is not a circle, nothing averages it
    assert nominal_factor(A, RingLayout(m, nring + 1, 2)).method == "schur"
    # a coupling from ring 0 to ring 2, beyond the first ring that is not a
    # circle, both ways and from ring 2's row alone
    A = polar_stencil(m, nring).tolil()
    A[1, 1 + 2 * m] = A[1 + 2 * m, 1] = -0.1
    for B in (A.tocsr(), sp.csr_matrix(polar_stencil(m, nring) + sp.csr_matrix(
            ([-0.1], ([1 + 2 * m], [1])), shape=A.shape))):
        with pytest.raises(ValueError, match="more than one apart"):
            nominal_factor(B, RingLayout(m, nring + 1, 2))


def test_nominal_factor_schur_detects_singular_complement():
    # ring 2 (the first whose row is not block-circulant) decoupled with a
    # zero diagonal block: its Schur complement vanishes
    m, nring = 8, 4
    A = polar_stencil(m, nring).tolil()
    ring = np.arange(1 + 2 * m, 1 + 3 * m)
    A[ring, :] = 0.0
    A[:, ring] = 0.0
    A = A.tocsr()
    A.eliminate_zeros()
    with pytest.raises(SingularMatrixError, match="Schur complement on ring 2"):
        nominal_factor(A, RingLayout(m, nring + 1, 3))


def test_nominal_factor_fft_detects_singular_mode_system():
    # the rings' diagonal blocks vanish: every mode system has a zero pivot
    m, nring = 8, 2
    n = 1 + nring * m
    A = sp.csr_matrix(([1.0], ([0], [0])), shape=(n, n))
    with pytest.raises(SingularMatrixError):
        nominal_factor(A, RingLayout(m, nring + 1, nring + 1))


def test_nominal_factor_fft_detects_one_singular_mode():
    # shift the last ring's diagonal by mode p's last pivot: that mode
    # system alone turns singular.  A = A^T gives modes p and m - p the same
    # pivots, so p is m / 2, its own partner
    m, nring, p = 8, 3, 4
    A = polar_stencil(m, nring, 0.7)
    M = mode_system(A, m, nring, p)
    last_pivot = 1 / np.linalg.inv(M)[-1, -1]
    A = A.tolil()
    for i in range(1 + (nring - 1) * m, 1 + nring * m):
        A[i, i] -= last_pivot
    A = A.tocsr()
    singular_values = np.linalg.svd(A.toarray(), compute_uv=False)
    # one singular direction, so one mode system is singular
    assert singular_values[-1] <= 1e-13 * singular_values[0]
    assert singular_values[-2] >= 1e-6 * singular_values[0]
    with pytest.raises(SingularMatrixError, match=f"mode {p} .* ring {nring - 1}"):
        nominal_factor(A, RingLayout(m, nring + 1, nring + 1))


def test_nominal_factor_fft_solves_indefinite_mode_systems():
    # a small diagonal: the mode systems are indefinite and not diagonally
    # dominant, so the unpivoted recurrence meets pivots of either sign
    m, nring = 8, 5
    A = polar_stencil(m, nring, diagonal=0.5)
    dense = A.toarray()
    eigenvalues = np.linalg.eigvalsh(dense)
    assert eigenvalues.min() < 0 < eigenvalues.max()
    M = mode_system(A, m, nring, 1)
    off = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
    assert np.any(np.abs(np.diag(M)) < off)
    factor = nominal_factor(A, RingLayout(m, nring + 1, nring + 1))
    b = np.random.default_rng(6).standard_normal(A.shape[0])
    exact = np.linalg.solve(dense, b)
    assert np.linalg.norm(factor.solve(b) - exact) <= 1e-12 * np.linalg.norm(exact)


def test_assemble_sums_duplicates():
    rows = np.array([0, 0, 1, 2, 2])
    cols = np.array([0, 0, 1, 2, 2])
    vals = np.array([1.0, 2.0, 5.0, 1.5, 1.5])
    A = assemble_csr(rows, cols, vals, 3)
    assert np.allclose(A.toarray(), np.diag([3.0, 5.0, 3.0]))


def test_lu_real_and_complex():
    rng = np.random.default_rng(1)
    n = 80
    A_dense = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    x = lu_solve(sp.csr_matrix(A_dense), b)
    assert np.allclose(A_dense @ x, b, atol=1e-9)

    C_dense = A_dense + 1j * rng.normal(size=(n, n))
    bc = b + 1j * rng.normal(size=n)
    xc = lu_solve(sp.csr_matrix(C_dense), bc)
    assert np.allclose(C_dense @ xc, bc, atol=1e-9)


def test_lu_detects_singular():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        lu_solve(A, np.ones(2))


# ------------------------------------------------ one precond call per iteration


def _loop_preconditioning_last_residual(A, b, precond, tol, maxit=1000):
    """cg_solve's loop as it was when it preconditioned the residual before
    testing it for convergence: (x, iterations, true residual)."""
    x = np.zeros(b.shape[0], dtype=np.result_type(A.dtype, b.dtype, float))
    r = b.astype(x.dtype)
    bnorm = np.linalg.norm(b)
    z = precond(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, maxit + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = precond(r)
        rz_new = r @ z
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it, float(np.linalg.norm(b - A @ x) / bnorm)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    raise AssertionError("reference loop did not converge")


def _spd_system():
    rng = np.random.default_rng(21)
    n = 150
    Q = rng.normal(size=(n, n))
    D = np.diag(10.0 ** rng.uniform(-2, 2, n))
    A = sp.csr_matrix(D @ (Q @ Q.T / n + np.eye(n)) @ D)
    return A, rng.normal(size=n), jacobi(A)


def _complex_symmetric_system():
    rng = np.random.default_rng(22)
    n = 90
    Q = rng.normal(size=(n, n))
    nominal = (Q + Q.T) / 4 + n * np.eye(n) + 1j * np.diag(rng.uniform(1, 5, n))
    E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = sp.csr_matrix(nominal + 0.5 * (E + E.T))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return A, b, nominal_factor(sp.csr_matrix(nominal), None).solve


@pytest.mark.parametrize("system", [_spd_system, _complex_symmetric_system])
def test_cg_preconditions_once_per_iteration(system):
    A, b, precond = system()
    calls = []

    def counting(r):
        calls.append(1)
        return precond(r)

    x, info = cg_solve(A, b, tol=1e-12, precond=counting)
    assert info["iterations"] > 1
    assert len(calls) == info["iterations"]
    assert len(info["residual_norms"]) == info["iterations"]
    # the iterates, the count and the true residual are those of the loop
    # that preconditioned the final residual too
    ref_x, ref_it, ref_residual = _loop_preconditioning_last_residual(A, b, precond, 1e-12)
    np.testing.assert_array_equal(x, ref_x)
    assert info["iterations"] == ref_it
    assert info["residual"] == ref_residual


def test_cg_zero_load_runs_no_preconditioner():
    x, info = cg_solve(laplacian_1d(4), np.zeros(4), precond=pytest.fail)
    assert not x.any()
    assert info["iterations"] == 0 and info["residual_norms"] == []


# ------------------------------------------- in-place loop vs the allocating one


def _allocating_cg(A, b, precond, tol, maxit=1000):
    """cg_solve's loop as it was when every update allocated a new vector:
    (x, iterations)."""
    x = np.zeros(b.shape[0], dtype=np.result_type(A.dtype, b.dtype, float))
    r = b.astype(x.dtype)
    bnorm = np.linalg.norm(b)
    for it in range(1, maxit + 1):
        z = precond(r)
        rz_new = r @ z
        p = z.copy() if it == 1 else z + (rz_new / rz) * p
        rz = rz_new
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
    raise AssertionError("reference loop did not converge")


def _real_matrix_complex_load():
    A, b, precond = _spd_system()
    return A, b + 1j * np.random.default_rng(23).normal(size=b.size), precond


def _complex_matrix_real_load():
    A, b, precond = _complex_symmetric_system()
    return A, b.real.copy(), precond


def _float32_matrix():
    A, b, _ = _spd_system()
    A = A.astype(np.float32)
    return A, b, jacobi(A)


def _strided_preconditioner():
    # the FFT nominal solve, returned as the real part of a complex array: a
    # view with twice the stride
    m, nring = 8, 4
    A0 = polar_stencil(m, nring)
    rng = np.random.default_rng(24)
    A = (A0 + sp.diags(rng.uniform(0.0, 2.0, A0.shape[0]))).tocsr()
    fft = nominal_factor(A0, RingLayout(m, nring + 1, nring + 1)).solve
    solve = lambda r: fft(r).astype(complex).real
    b = rng.normal(size=A.shape[0])
    assert not solve(b).flags.c_contiguous
    return A, b, solve


@pytest.mark.parametrize("system", [_spd_system, _complex_symmetric_system,
                                    _real_matrix_complex_load, _complex_matrix_real_load,
                                    _float32_matrix, _strided_preconditioner])
def test_cg_matches_the_allocating_loop(system):
    A, b, precond = system()
    x, info = cg_solve(A, b, tol=1e-12, precond=precond)
    ref_x, ref_it = _allocating_cg(A, b, precond, 1e-12)
    assert info["iterations"] == ref_it > 1
    assert x.dtype == ref_x.dtype
    assert np.linalg.norm(x - ref_x) <= 1e-12 * np.linalg.norm(ref_x)


# ------------------------------------------------- the nominal solve is pure


def _nominal_case(case):
    """(A(0), ring layout, load) of a desk problem: the complex FFT solve on
    the Helmholtz disk mesh, the real one on a ring stencil, the Schur split
    on the elliptic square mesh and the LU on its matrix without a layout."""
    rng = np.random.default_rng(25)
    if case == "fft-real":
        m, nring = 8, 4
        A = polar_stencil(m, nring)
        return A, RingLayout(m, nring + 1, nring + 1), rng.normal(size=(2, A.shape[0]))
    problem = pipeline.Workspace(pipeline.preset(
        "desk-helmholtz" if case == "fft" else "desk-elliptic")).problem
    A, _ = problem.assemble(np.zeros(problem.dm.model.d))
    loads = rng.normal(size=(2, A.shape[0]))
    if np.iscomplexobj(A.data):
        loads = loads + 1j * rng.normal(size=loads.shape)
    return A, None if case == "lu" else problem.mesh.rings, loads


@pytest.mark.parametrize("case", ["fft", "fft-real", "schur", "lu"])
def test_nominal_solve_behaves_as_a_pure_function(case):
    A, rings, (r1, r2) = _nominal_case(case)
    factor = nominal_factor(A, rings)
    assert factor.method == case.split("-")[0]
    kept = r1.copy(), r2.copy()
    x1 = factor.solve(r1)
    first = x1.copy()
    x2 = factor.solve(r2)
    # the loads are untouched and each call returns its own array, which a
    # later call leaves as it was
    np.testing.assert_array_equal(r1, kept[0])
    np.testing.assert_array_equal(r2, kept[1])
    assert not np.shares_memory(x1, x2)
    np.testing.assert_array_equal(x1, first)
    # the bits of a factor built for each call, and of a repeated call
    for r, x in ((r1, x1), (r2, x2)):
        np.testing.assert_array_equal(nominal_factor(A, rings).solve(r), x)
    np.testing.assert_array_equal(factor.solve(r1), first)
