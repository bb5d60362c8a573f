import dataclasses
import os
import types

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from interface_surrogates import linalg, pde, pipeline
from interface_surrogates.geometry import DomainMap, InterfaceModel, map_forward
from interface_surrogates.linalg import NotConvergedError, SingularMatrixError
from interface_surrogates.mesh import build_disk_mesh
from interface_surrogates.pde import (
    EllipticProblem,
    HelmholtzProblem,
    SolverError,
    circle_points,
    evaluate_qoi,
)
from interface_surrogates.oracles import scattering_series

KAPPA_O = 200 * np.pi / 3
R0, R, THICK = 0.01, 0.055, 0.02
LAM = 2 * np.pi / KAPPA_O


@pytest.fixture(scope="module")
def dm():
    model = InterfaceModel(r0=R0, d=8, p=3, c=0.08)
    return DomainMap(model, r_inner=R0 / 4, r_outer=R)


@pytest.fixture(scope="module")
def mesh():
    return build_disk_mesh(R0, R0 / 4, R, THICK, h_interface=LAM / 12,
                           h_far=LAM / 12)


@pytest.fixture(scope="module")
def mesh_thick():
    return build_disk_mesh(R0, R0 / 4, R, 2 * THICK, h_interface=LAM / 12,
                           h_far=LAM / 12)


PROBE = np.array([[R0, 0.0]])


@pytest.mark.parametrize("alpha_i,ratio", [(10.0, 0.8), (100.0, 0.8), (1.0, 0.08)])
def test_mie_amplitude_agreement(mesh, dm, alpha_i, ratio):
    kappa_i = ratio * KAPPA_O
    prob = HelmholtzProblem(mesh, dm, alpha_i, kappa_i, KAPPA_O)
    field = prob.solve(np.zeros(8))
    amp = evaluate_qoi(field, dm, np.zeros(8), PROBE, "amplitude")[0]
    exact = scattering_series(alpha_i, kappa_i, KAPPA_O, R0)
    amp_ex = abs(exact(PROBE)[0])
    assert abs(amp - amp_ex) / amp_ex <= 0.02


def test_pml_thickness_doubling_consistency(mesh, mesh_thick, dm):
    alpha_i, kappa_i = 10.0, 0.8 * KAPPA_O
    a = []
    for m in (mesh, mesh_thick):
        field = HelmholtzProblem(m, dm, alpha_i, kappa_i, KAPPA_O).solve(np.zeros(8))
        a.append(evaluate_qoi(field, dm, np.zeros(8), PROBE, "amplitude")[0])
    exact = scattering_series(alpha_i, kappa_i, KAPPA_O, R0)
    amp_ex = abs(exact(PROBE)[0])
    assert abs(a[0] - a[1]) / amp_ex <= 0.02


def test_no_scatterer_zero_scattered_field(mesh, dm):
    rng = np.random.default_rng(2)
    y = rng.uniform(-1, 1, 8)
    prob = HelmholtzProblem(mesh, dm, 1.0, KAPPA_O, KAPPA_O)
    field = prob.solve(y)
    # b = 0, so x = 0 with a zero backward error
    assert field.info["backward_error"] == 0.0
    # max |u_inc| = 1
    assert np.abs(field.scattered).max() <= 1e-3
    # at physical nodes the total field is the incident wave: amplitude 1
    sel = np.nonzero(~field.pml_mask)[0][::37]
    nodes_phys = map_forward(dm, y, mesh.vertices[sel])
    amp = evaluate_qoi(field, dm, y, nodes_phys, "amplitude")
    np.testing.assert_allclose(amp, 1.0, atol=1e-9)
    # between nodes P1 interpolation of the wave stays within the chord bound
    pts = circle_points(R0, 16)
    amp = evaluate_qoi(field, dm, y, pts, "amplitude")
    np.testing.assert_allclose(amp, 1.0, atol=0.05)


def test_total_field_split_and_pml_flag(mesh, dm):
    y = np.zeros(8)
    prob = HelmholtzProblem(mesh, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O)
    field = prob.solve(y)
    rho = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    np.testing.assert_array_equal(field.pml_mask, rho > R + 1e-12)
    phys = ~field.pml_mask
    uinc = np.exp(1j * KAPPA_O * map_forward(dm, y, mesh.vertices[phys])[:, 0])
    np.testing.assert_allclose(field.data[phys] - field.scattered[phys], uinc,
                               atol=1e-12)
    np.testing.assert_allclose(field.data[field.pml_mask],
                               field.scattered[field.pml_mask], atol=0)
    # scattered field vanishes on the outer Dirichlet boundary
    assert np.abs(field.scattered[mesh.boundary]).max() == 0.0


def test_incidence_direction_equivariance(mesh, dm):
    # y = 0 scatterer is a disk; rotating the incidence by 90 degrees maps
    # the discrete system onto itself (azimuthal count divisible by 4)
    y = np.zeros(8)
    f1 = HelmholtzProblem(mesh, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O,
                          direction=(1.0, 0.0)).solve(y)
    f2 = HelmholtzProblem(mesh, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O,
                          direction=(0.0, 1.0)).solve(y)
    pts = circle_points(R0, 8)
    rot = pts[:, [1, 0]] * np.array([-1.0, 1.0])
    a1 = evaluate_qoi(f1, dm, y, pts, "amplitude")
    a2 = evaluate_qoi(f2, dm, y, rot, "amplitude")
    np.testing.assert_allclose(a1, a2, atol=1e-9)


def test_nontrapping_rejected(mesh, dm):
    with pytest.raises(ValueError):
        HelmholtzProblem(mesh, dm, 1.0, 2.0 * KAPPA_O, KAPPA_O)


@pytest.mark.parametrize("damping", [-0.5, np.nan])
def test_negative_pml_damping_rejected(mesh, dm, damping):
    # a negative damping turns the absorbing layer into an amplifying one
    with pytest.raises(ValueError, match="pml_damping"):
        HelmholtzProblem(mesh, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O, pml_damping=damping)
    HelmholtzProblem(mesh, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O, pml_damping=0.0)


def test_requires_absorbing_layer(dm):
    bare = build_disk_mesh(R0, R0 / 4, R, 0.0, h_interface=LAM / 8, h_far=LAM / 8)
    with pytest.raises(ValueError):
        HelmholtzProblem(bare, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O)


def _fail(error):
    def raising(*args, **kwargs):
        raise error
    return raising


def test_singular_system_raises_solver_error(mesh, dm, monkeypatch):
    monkeypatch.setattr(pde, "cg_solve", _fail(SingularMatrixError("zero pivot")))
    prob = HelmholtzProblem(mesh, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O)
    y = np.full(8, 0.3)
    with pytest.raises(SolverError, match="COCG failed.*zero pivot") as err:
        prob.solve(y)
    np.testing.assert_array_equal(err.value.y, y)


def test_singular_nominal_factor_raises_solver_error(mesh, dm, monkeypatch):
    monkeypatch.setattr(pde, "nominal_factor", _fail(SingularMatrixError("exactly singular")))
    prob = HelmholtzProblem(mesh, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O)
    y = np.full(8, -0.2)
    with pytest.raises(SolverError, match="exactly singular") as err:
        prob.solve(y)
    np.testing.assert_array_equal(err.value.y, y)


def _both_problems(mesh, dm):
    return [HelmholtzProblem(mesh, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O),
            pipeline.Workspace(pipeline.preset("desk-elliptic")).problem]


def test_not_converged_raises_solver_error(mesh, dm, monkeypatch):
    # both problems stop at the one COCG_MAXIT
    monkeypatch.setattr(pde, "COCG_MAXIT", 2)
    y = np.full(8, 0.5)
    for prob in _both_problems(mesh, dm):
        with pytest.raises(SolverError, match="did not converge in 2") as err:
            prob.solve(y)
        assert isinstance(err.value.__cause__, NotConvergedError)
        np.testing.assert_array_equal(err.value.y, y)


def test_residual_above_bound_raises_solver_error(mesh, dm, monkeypatch):
    # both problems share the one backward-error check
    monkeypatch.setattr(pde, "BACKWARD_ERROR_FACTOR", 0.0)
    y = np.full(8, 0.1)
    for prob in _both_problems(mesh, dm):
        with pytest.raises(SolverError, match="backward error") as err:
            prob.solve(y)
        np.testing.assert_array_equal(err.value.y, y)


def test_perturbed_solution_raises_solver_error(mesh, dm, monkeypatch):
    # a solution 1e-6 off, relative, with its own true residual, is rejected
    real = pde.cg_solve

    def perturbed(A, b, **kwargs):
        x, info = real(A, b, **kwargs)
        noise = np.random.default_rng(3).standard_normal(x.shape)
        x = x + 1e-6 * np.linalg.norm(x) / np.linalg.norm(noise) * noise
        info["residual"] = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        return x, info

    monkeypatch.setattr(pde, "cg_solve", perturbed)
    y = np.full(8, -0.3)
    for prob in _both_problems(mesh, dm):
        with pytest.raises(SolverError, match="backward error") as err:
            prob.solve(y)
        np.testing.assert_array_equal(err.value.y, y)


@pytest.mark.filterwarnings("error")
def test_corrupted_preconditioner_raises_solver_error(mesh, dm):
    # a nominal solve that returns NaNs fails the sample instead of passing
    # it, before numpy has anything to warn about
    y = np.full(8, 0.2)
    for prob in _both_problems(mesh, dm):
        prob._factor = prob._nominal_factor()._replace(solve=lambda r: np.full_like(r, np.nan))
        with pytest.raises(SolverError, match="COCG failed") as err:
            prob.solve(y)
        np.testing.assert_array_equal(err.value.y, y)


def test_solver_stats_recorded(mesh, dm):
    for prob in _both_problems(mesh, dm):
        info = prob.solve(np.full(8, 0.4)).info
        assert 0 < info["iterations"] <= 30
        assert 0.0 <= info["backward_error"] <= pde.BACKWARD_ERROR_FACTOR * prob.tol


# ----------------------- nominal-LU CG/COCG of both problems vs the direct solve

DESK = pipeline.preset("desk-helmholtz")
DESK_ELLIPTIC = pipeline.preset("desk-elliptic")
EQUIVALENCE_CONFIGS = {
    "desk": DESK,
    "d16-p1": dataclasses.replace(DESK, d=16, p=1.0),
    "alpha1000": dataclasses.replace(DESK, alpha_i=1000.0),
    "alpha1-d16": dataclasses.replace(DESK, alpha_i=1.0, d=16),
    "elliptic-desk": DESK_ELLIPTIC,
    "elliptic-d16-p1-np64": dataclasses.replace(DESK_ELLIPTIC, d=16, p=1.0,
                                                n_points=64),
    "elliptic-alpha1000": dataclasses.replace(DESK_ELLIPTIC, alpha_i=1000.0),
}


def _direct(A, b, **kwargs):
    return linalg.lu_solve(A, b), {"iterations": 0, "residual": 0.0}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CONFIGS))
def test_cocg_matches_direct_solve(name, monkeypatch):
    # ROADMAP aim 3: a solver change reproduces the QoI to 1e-9 relative
    ws = pipeline.Workspace(EQUIVALENCE_CONFIGS[name])
    ys = [pipeline.sample_parameters(17, k, ws.config.d) for k in range(3)]
    iterative = [ws.solve(y) for y in ys]
    monkeypatch.setattr(pde, "cg_solve", _direct)
    for y, q in zip(ys, iterative):
        np.testing.assert_allclose(q, ws.solve(y), rtol=1e-9, atol=0)


def test_nominal_matrix_factored_once(monkeypatch):
    # one nominal factor per Workspace, at its first solve; only the square
    # mesh's LU calls SuperLU, the disk's mode systems never do
    factors, splus = [], []

    def counting_factor(*args):
        factors.append(1)
        return linalg.nominal_factor(*args)

    def counting_splu(*args, **kwargs):
        splus.append(1)
        return spla.splu(*args, **kwargs)

    monkeypatch.setattr(pde, "nominal_factor", counting_factor)
    monkeypatch.setattr(linalg, "spla", types.SimpleNamespace(splu=counting_splu))
    for config, lu_calls in ((DESK, 0), (DESK_ELLIPTIC, 1)):
        factors.clear()
        splus.clear()
        ws = pipeline.Workspace(config)
        ys = [pipeline.sample_parameters(5, k, config.d) for k in range(3)]
        ws.problem.assemble(ys[0])
        assert factors == [] and splus == []
        for y in ys:
            ws.solve(y)
        assert len(factors) == 1
        assert len(splus) == lu_calls


def test_nominal_factor_builds_no_load(mesh, dm, monkeypatch):
    prob = HelmholtzProblem(mesh, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return map_forward(*args, **kwargs)

    monkeypatch.setattr(pde, "map_forward", counting)
    factor = prob._nominal_factor()
    assert calls == []
    # still the factor of A(0)
    A0, _ = prob.assemble(np.zeros(8))
    x = np.random.default_rng(2).standard_normal(A0.shape[0])
    np.testing.assert_allclose(factor.solve(A0 @ x), x, rtol=1e-8, atol=1e-8)


# ------------------------------- azimuthal FFT nominal solve vs the LU one

def _desk_problem(mesh, dm):
    return pipeline.Workspace(DESK).problem


def _desk_alpha1000_problem(mesh, dm):
    # the table 5 contrast on the desk mesh: the smallest mode pivot is
    # 3e-8 of the largest eigenvalue
    return pipeline.Workspace(dataclasses.replace(DESK, alpha_i=1000.0)).problem


def _fixture_problem(mesh, dm):
    return HelmholtzProblem(mesh, dm, 10.0, 0.8 * KAPPA_O, KAPPA_O)


def _elliptic_disk_problem(mesh, dm):
    # no absorbing layer: A(0) is real
    r0 = 0.5
    disk_map = DomainMap(InterfaceModel(r0=r0, d=8, p=3, c=0.08), r0 / 4, 0.875)
    disk = build_disk_mesh(r0, r0 / 4, 1.0, 0.0, 0.05, 0.1)
    return EllipticProblem(disk, disk_map, alpha_i=10.0)


@pytest.mark.parametrize("build", [_desk_problem, _desk_alpha1000_problem, _fixture_problem,
                                   _elliptic_disk_problem],
                         ids=["desk-helmholtz", "desk-alpha1000", "fixture", "elliptic-disk"])
def test_fft_nominal_factor_matches_lu(build, mesh, dm):
    prob = build(mesh, dm)
    d = prob.dm.model.d
    fft = prob._nominal_factor()
    assert fft.method == "fft" and fft.fill > 0
    A0, _ = prob.assemble(np.zeros(d))
    lu = linalg.nominal_factor(A0, None)
    assert lu.method == "lu"
    x = np.random.default_rng(4).standard_normal(A0.shape[0])
    got = fft.solve(A0 @ x)
    assert got.dtype == (A0 @ x).dtype
    assert np.linalg.norm(got - x) <= 1e-9 * np.linalg.norm(x)
    # per-sample COCG iterations over a fixed sample set match the LU ones
    ys = [pipeline.sample_parameters(31, k, d) for k in range(4)]
    runs = {}
    for factor in (fft, lu):
        prob._factor = factor
        infos = [prob.solve(y).info for y in ys]
        assert all(info["nominal"] == factor.method for info in infos)
        assert all(info["nominal_fill"] == factor.fill for info in infos)
        runs[factor.method] = [info["iterations"] for info in infos]
    assert runs["fft"] == runs["lu"]


@pytest.mark.nightly
@pytest.mark.skipif(os.environ.get("NIGHTLY") != "1",
                    reason="factors the full-scale table8-2k0 A(0) by LU; "
                           "set NIGHTLY=1 to enable")
def test_fft_nominal_factor_matches_lu_at_full_scale():
    # the FFT solve inverts A(0) with each entry class averaged, which on
    # table8-2k0 puts it 9.0e-11 from the LU solve of a random right side
    # (so did the SuperLU mode solve before the Thomas sweep); the bound is
    # that of the desk-size test above
    prob = pipeline.Workspace(pipeline.preset("table8-2k0")).problem
    fft = prob._nominal_factor()
    A0, _ = prob.assemble(np.zeros(prob.dm.model.d))
    r = np.random.default_rng(8).standard_normal(A0.shape[0])
    expected = linalg.nominal_factor(A0, None).solve(r)
    assert np.linalg.norm(fft.solve(r) - expected) <= 1e-9 * np.linalg.norm(expected)
