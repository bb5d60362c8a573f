"""Oracle-backed validation suites: geometry, fem, mie, kink, gradcheck.

Each suite returns CheckResult records with the measured value and the
bound it is held to, so callers can print one line per check.  The same
functions back the command-line `validate` subcommand and the acceptance
test battery.
"""

import dataclasses

import numpy as np

from . import surrogate
from .geometry import (
    DomainMap,
    InterfaceModel,
    kink_hyperplane,
    map_forward,
    map_inverse,
    map_jacobian,
    radius,
)
from .mesh import build_disk_mesh, build_square_mesh
from .oracles import manufactured_poisson, radial_two_zone, scattering_series
from .pde import (
    EllipticProblem,
    HelmholtzProblem,
    circle_points,
    evaluate_qoi,
    l2_error,
    probe_kink,
    spike_stats,
)

KAPPA_O = 200 * np.pi / 3
WAVELENGTH = 2 * np.pi / KAPPA_O

TABLE_GRID = [(p, d) for p in (1.0, 2.0, 3.0) for d in (8, 16, 32, 64)]


@dataclasses.dataclass
class CheckResult:
    name: str
    measured: float
    bound: float
    relation: str = "<="
    detail: str = ""

    @property
    def passed(self):
        if self.relation == "<=":
            return self.measured <= self.bound
        if self.relation == ">=":
            return self.measured >= self.bound
        raise ValueError(f"unknown relation {self.relation!r}")

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"[{status}] {self.name}: measured {self.measured:.4g} "
                f"{self.relation} bound {self.bound:.4g}{extra}")


# ----------------------------------------------------------------- geometry


def _random_points(rng, dm, n, margin=1e-3):
    lo = margin
    hi = dm.r_outer * 1.2
    rho = rng.uniform(lo, hi, n)
    for c in (dm.r_inner, dm.r0, dm.r_outer):
        near = np.abs(rho - c) < margin
        rho[near] = c + margin * np.where(rho[near] >= c, 1.0, -1.0)
    phi = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi)])


def geometry_suite(seed=0, pairs_per_preset=10_000):
    rng = np.random.default_rng(seed)
    worst_det = np.inf
    worst_round = 0.0
    worst_jac = 0.0
    worst_affine = 0.0
    for p, d in TABLE_GRID:
        model = InterfaceModel(r0=0.5, d=d, p=p, c=0.08)
        dm = DomainMap(model)
        n_y = 20
        n_pts = pairs_per_preset // n_y
        for _ in range(n_y):
            y = rng.uniform(-1, 1, d)
            pts = _random_points(rng, dm, n_pts)
            J = map_jacobian(dm, y, pts)
            det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            worst_det = min(worst_det, det.min())

        y = rng.uniform(-1, 1, d)
        pts = _random_points(rng, dm, 200)
        back = map_inverse(dm, y, map_forward(dm, y, pts))
        worst_round = max(worst_round, np.abs(back - pts).max())

        # finite differences stay on one chi branch thanks to the margin
        pts = _random_points(rng, dm, 40, margin=1e-3)
        J = map_jacobian(dm, y, pts)
        h = 1e-7
        fd = np.empty_like(J)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd[:, :, k] = (map_forward(dm, y, pts + e)
                           - map_forward(dm, y, pts - e)) / (2 * h)
        scale = np.abs(J).reshape(len(pts), -1).max(axis=1)
        err = np.abs(fd - J).reshape(len(pts), -1).max(axis=1) / scale
        worst_jac = max(worst_jac, err.max())

        x0 = np.array([0.51, 0.02])
        plane = kink_hyperplane(dm, x0)
        if plane is not None:
            normal, offset = plane
            phi0 = np.arctan2(x0[1], x0[0])
            rho0 = np.hypot(*x0)
            j = int(np.argmax(np.abs(normal)))
            for _ in range(50):
                y = rng.uniform(-1, 1, d)
                y[j] = (offset - normal @ y + normal[j] * y[j]) / normal[j]
                if np.abs(y[j]) > 1:
                    continue
                res = abs(radius(model, y, phi0) - rho0)
                worst_affine = max(worst_affine, res)

    return [
        CheckResult("geometry.jacobian-determinant-positive", worst_det, 0.0,
                    ">=", "min det over random (y, point) draws"),
        CheckResult("geometry.inverse-roundtrip", worst_round, 1e-10),
        CheckResult("geometry.jacobian-vs-finite-differences", worst_jac, 1e-6),
        CheckResult("geometry.kink-hyperplane-affinity", worst_affine, 1e-12),
    ]


# ---------------------------------------------------------------------- fem


def _lsq_order(hs, errs):
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def fem_suite():
    model = InterfaceModel(r0=0.5, d=8, p=3, c=0.08)
    dm = DomainMap(model)
    u_ex, f_ex = manufactured_poisson()
    hs = np.array([0.04, 0.02, 0.01])

    errs = []
    for h in hs:
        mesh = build_square_mesh(dm.r0, dm.r_inner, dm.r_outer, h, h)
        field = EllipticProblem(mesh, dm, alpha_i=1.0, source=f_ex).solve(np.zeros(8))
        errs.append(l2_error(field, u_ex))
    order_nominal = _lsq_order(hs, errs)

    rng = np.random.default_rng(7)
    y = rng.uniform(-1, 1, 8)
    errs = []
    for h in hs:
        mesh = build_square_mesh(dm.r0, dm.r_inner, dm.r_outer, h, h)
        field = EllipticProblem(mesh, dm, alpha_i=1.0, source=f_ex).solve(y)
        errs.append(l2_error(field, lambda p: u_ex(map_forward(dm, y, p))))
    order_mapped = _lsq_order(hs, errs)

    r0, R, alpha_i = 0.5, 1.0, 10.0
    dm2 = DomainMap(InterfaceModel(r0=r0, d=8, p=3, c=0.08), r0 / 4, 0.875)
    u_zone = radial_two_zone(alpha_i, r0, R, f_const=1.0)
    src = lambda x: np.full(np.atleast_2d(x).shape[0], 1.0)
    mesh = build_disk_mesh(r0, r0 / 4, R, 0.0, h_interface=0.005, h_far=0.02)
    field = EllipticProblem(mesh, dm2, alpha_i=alpha_i, source=src).solve(np.zeros(8))
    err_zone = l2_error(field, u_zone)

    checks = [
        CheckResult("fem.manufactured-order-nominal", order_nominal, 1.85, ">=",
                    f"order {order_nominal:.3f}, bound [1.85, 2.15]"),
        CheckResult("fem.manufactured-order-nominal-upper", order_nominal, 2.15),
        CheckResult("fem.manufactured-order-mapped", order_mapped, 1.85, ">=",
                    f"order {order_mapped:.3f}, bound [1.85, 2.15]"),
        CheckResult("fem.manufactured-order-mapped-upper", order_mapped, 2.15),
        CheckResult("fem.two-zone-relative-l2", err_zone, 1e-3),
    ]
    return checks


# ---------------------------------------------------------------------- mie


def mie_suite():
    r0, R, thick = 0.01, 0.055, 0.02
    model = InterfaceModel(r0=r0, d=8, p=3, c=0.08)
    dm = DomainMap(model, r_inner=r0 / 4, r_outer=R)
    mesh = build_disk_mesh(r0, r0 / 4, R, thick, h_interface=WAVELENGTH / 12,
                           h_far=WAVELENGTH / 12)
    probe = np.array([[r0, 0.0]])
    y0 = np.zeros(8)
    checks = []
    for alpha_i, ratio in ((10.0, 0.8), (100.0, 0.8), (1.0, 0.08)):
        kappa_i = ratio * KAPPA_O
        field = HelmholtzProblem(mesh, dm, alpha_i, kappa_i, KAPPA_O).solve(y0)
        amp = evaluate_qoi(field, dm, y0, probe, "amplitude")[0]
        amp_ex = abs(scattering_series(alpha_i, kappa_i, KAPPA_O, r0)(probe)[0])
        rel = abs(amp - amp_ex) / amp_ex
        checks.append(CheckResult(
            f"mie.amplitude-alpha{alpha_i:g}-ratio{ratio:g}", rel, 0.02,
            detail=f"fem {amp:.6f} vs series {amp_ex:.6f}"))
    field = HelmholtzProblem(mesh, dm, 1.0, KAPPA_O, KAPPA_O).solve(y0)
    checks.append(CheckResult("mie.no-scatterer-scattered-amplitude",
                              float(np.abs(field.scattered).max()), 1e-3,
                              detail="max |u_inc| = 1"))
    return checks


# --------------------------------------------------------------------- kink


def _crossing_segment(dm, x0, d, seed=11):
    normal, offset = kink_hyperplane(dm, x0)
    rng = np.random.default_rng(seed)
    while True:
        y_a = rng.uniform(-0.9, 0.9, d)
        y_b = rng.uniform(-0.9, 0.9, d)
        sa = offset - normal @ y_a
        sb = offset - normal @ y_b
        if sa * sb < 0:
            return y_a, y_b


def kink_suite():
    checks = []

    # genuine slope jump for alpha contrast
    model = InterfaceModel(r0=0.5, d=8, p=3, c=0.08)
    dm = DomainMap(model)
    x0 = np.array([0.505, 0.08])
    y_a, y_b = _crossing_segment(dm, x0, 8)
    mesh = build_square_mesh(0.5, 0.125, 0.875, 0.03, 0.08)
    prob = EllipticProblem(mesh, dm, alpha_i=100.0)
    res = probe_kink(prob, y_a, y_b, x0, n_steps=21, kind="value")
    st = spike_stats(res)
    d1_ratio = st["d1"][0] / max(st["d1"][1], 1e-300)
    checks.append(CheckResult("kink.elliptic-slope-jump-ratio", d1_ratio, 5.0,
                              ">=", "alpha contrast 100, crossing segment"))

    # kappa-only contrast: curvature spike with no persistent slope jump.
    # A discrete slope artifact of size O(h) appears because the pullback
    # evaluation crosses the nominal ring, so the slope jump must shrink
    # under interface refinement while the alpha-contrast jump persists.
    r0, R, thick = 0.01, 0.055, 0.02
    model_h = InterfaceModel(r0=r0, d=8, p=3, c=0.08)
    dm_h = DomainMap(model_h, r_inner=r0 / 4, r_outer=R)
    x0_h = np.array([0.0101, 0.0012])
    ya_h, yb_h = _crossing_segment(dm_h, x0_h, 8)
    d1_in = []
    d2_ratio = None
    for div in (12, 24, 48):
        mesh_h = build_disk_mesh(r0, r0 / 4, R, thick,
                                 h_interface=WAVELENGTH / div,
                                 h_far=WAVELENGTH / 12)
        prob_h = HelmholtzProblem(mesh_h, dm_h, 1.0, 0.8 * KAPPA_O, KAPPA_O)
        res_h = probe_kink(prob_h, ya_h, yb_h, x0_h, n_steps=41, kind="amplitude")
        st_h = spike_stats(res_h)
        d1_in.append(st_h["d1"][0])
        if div == 12:
            d2_ratio = st_h["d2"][0] / max(st_h["d2"][1], 1e-300)
    shrink = min(d1_in[0] / d1_in[1], d1_in[1] / d1_in[2])
    checks.append(CheckResult("kink.helmholtz-curvature-spike-ratio", d2_ratio,
                              5.0, ">=", "kappa contrast only, alpha = 1"))
    checks.append(CheckResult(
        "kink.helmholtz-slope-artifact-shrinks", shrink, 1.5, ">=",
        "slope jump per interface-refinement halving: "
        + ", ".join(f"{v:.3e}" for v in d1_in)))

    # control: the alpha-contrast slope jump must NOT shrink under the
    # same refinement
    d1_ell = []
    for h in (0.02, 0.01, 0.005):
        mesh_e = build_square_mesh(0.5, 0.125, 0.875, h, 0.06)
        prob_e = EllipticProblem(mesh_e, dm, alpha_i=100.0)
        res_e = probe_kink(prob_e, y_a, y_b, x0, n_steps=41, kind="value")
        d1_ell.append(spike_stats(res_e)["d1"][0])
    ratios = [d1_ell[0] / d1_ell[1], d1_ell[1] / d1_ell[2]]
    detail = "slope jump per halving: " + ", ".join(f"{v:.3e}" for v in d1_ell)
    checks.append(CheckResult("kink.elliptic-slope-jump-persists-lower",
                              min(ratios), 0.7, ">=", detail))
    checks.append(CheckResult("kink.elliptic-slope-jump-persists-upper",
                              max(ratios), 1.4, "<=", detail))
    return checks


# ---------------------------------------------------------------- gradcheck


def _fd_gradient_error():
    net = surrogate.init([3, 4, 2], seed=21)
    rng = np.random.default_rng(2)
    Y = rng.uniform(-1, 1, (5, 3))
    Q = rng.uniform(0.5, 1.5, (5, 2))
    _, grad = surrogate.backward(net, Y, Q)
    h = 1e-6
    fd = np.empty_like(grad)
    for k, orig in enumerate(net.params.copy()):
        net.params[k] = orig + h
        up = surrogate.loss(net, Y, Q)
        net.params[k] = orig - h
        dn = surrogate.loss(net, Y, Q)
        net.params[k] = orig
        fd[k] = (up - dn) / (2 * h)
    return float(np.abs(grad - fd).max() / np.abs(fd).max())


def gradcheck_suite():
    checks = [CheckResult("gradcheck.backward-vs-finite-differences",
                          _fd_gradient_error(), 1e-5)]

    rng = np.random.default_rng(42)
    M = rng.normal(size=(3, 4)) * 0.5
    cvec = rng.normal(size=3)
    Y_tr = rng.uniform(-1, 1, (512, 4))
    Y_te = rng.uniform(-1, 1, (256, 4))
    tr = (Y_tr, Y_tr @ M.T + cvec)
    te = (Y_te, Y_te @ M.T + cvec)

    runs = [surrogate.train(tr, te, [4, 10, 3], epochs=200, restarts=2,
                            base_seed=7) for _ in range(2)]
    drift = float(np.abs(runs[0][1].loss_history - runs[1][1].loss_history).max())
    checks.append(CheckResult("gradcheck.restarts-deterministic", drift, 0.0,
                              detail="repeated run, identical loss history"))

    _, rep, _ = surrogate.train(tr, te, [4, 10, 3], epochs=2000, restarts=2,
                                base_seed=0, lr=1e-2)
    checks.append(CheckResult("gradcheck.affine-target-test-error",
                              rep.test_error, 1e-3))

    Q_tr = np.maximum(0.0, Y_tr[:, :1]) + 0.5
    Q_te = np.maximum(0.0, Y_te[:, :1]) + 0.5
    _, rep, _ = surrogate.train((Y_tr, Q_tr), (Y_te, Q_te), [4, 10, 1],
                                epochs=5000, restarts=2, base_seed=0, lr=1e-2)
    checks.append(CheckResult("gradcheck.relu-target-test-error",
                              rep.test_error, 1e-2))
    return checks


SUITES = {
    "geometry": geometry_suite,
    "fem": fem_suite,
    "mie": mie_suite,
    "kink": kink_suite,
    "gradcheck": gradcheck_suite,
}


def run_suites(names=None, report=print):
    """Run the named suites (all by default); returns (results, all_passed)."""
    names = list(SUITES) if names is None else list(names)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; available: {list(SUITES)}")
    results = []
    for name in names:
        for check in SUITES[name]():
            results.append(check)
            if report is not None:
                report(check.line())
    return results, all(c.passed for c in results)
