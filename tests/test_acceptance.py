"""Acceptance battery.

Each test prints one [PASS]/[FAIL] line for its criterion (written through
to the terminal even under capture) and asserts it.  Criteria 1-7 run on
every invocation; criterion 8 retrains at several operating points and is
gated behind NIGHTLY=1.
"""

import dataclasses
import os
import time

import pytest

from interface_surrogates import pipeline as pl
from interface_surrogates import validation
from interface_surrogates.geometry import InterfaceModel, max_shape_variation
from interface_surrogates.plotting import fit_log_line

DIMS = (8, 16, 32, 64)
SHAPE_VARIATION_TABLE = {
    1: (23.55, 30.75, 38.25, 45.92),
    2: (16.11, 17.28, 17.93, 18.26),
    3: (13.32, 13.52, 13.58, 13.60),
}


def _report(capfd, number, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert passed, line


def _suite_criterion(capfd, number, suite, budget, label):
    t0 = time.perf_counter()
    results = validation.SUITES[suite]()
    elapsed = time.perf_counter() - t0
    for r in results:
        print(r.line())
    n_ok = sum(r.passed for r in results)
    ok = n_ok == len(results) and elapsed < budget
    _report(capfd, number, ok,
            f"{label}: {n_ok}/{len(results)} checks passed "
            f"in {elapsed:.1f} s (budget {budget:.0f} s)")


def test_criterion_1_shape_variation_table(capfd):
    t0 = time.perf_counter()
    worst = 0.0
    for p, row in SHAPE_VARIATION_TABLE.items():
        for d, expected in zip(DIMS, row):
            model = InterfaceModel(0.5, d, float(p), 0.08)
            value = 100.0 * max_shape_variation(model)
            worst = max(worst, abs(value - expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.03 and elapsed < 1.0
    _report(capfd, 1, ok,
            f"12 maximal-shape-variation values match the reference table, "
            f"max deviation {worst:.4f} pp (tol 0.03 pp; {elapsed:.2f} s < 1 s)")


def test_criterion_2_geometry_suite(capfd):
    _suite_criterion(capfd, 2, "geometry", 30.0,
                     "positivity, roundtrip, Jacobian and kink-affinity checks")


def test_criterion_3_elliptic_fem(capfd):
    _suite_criterion(capfd, 3, "fem", 120.0,
                     "manufactured-solution orders and two-zone radial oracle")


def test_criterion_4_helmholtz_verification(capfd):
    _suite_criterion(capfd, 4, "mie", 300.0,
                     "cylinder-series amplitudes and silent-scatterer limit")


def test_criterion_5_smoothness_probes(capfd):
    _suite_criterion(capfd, 5, "kink", 180.0,
                     "derivative-jump and C1 structure probes")


def test_criterion_6_surrogate_machinery(capfd):
    _suite_criterion(capfd, 6, "gradcheck", 120.0,
                     "gradient, determinism and representable-target checks")


def test_criterion_7_desk_surrogate_quality(tmp_path, capfd):
    cfg = pl.preset("desk-elliptic")
    t0 = time.perf_counter()
    record = pl.run_experiment(cfg, out_dir=tmp_path, workers=1)
    elapsed = time.perf_counter() - t0
    err = record["test_error"]
    ok = err <= 0.01 and elapsed <= 1200
    _report(capfd, 7, ok,
            f"desk elliptic preset reaches test error {err:.3e} "
            f"(bound 1e-2) in {elapsed:.0f} s (budget 1200 s, single worker)")


@pytest.mark.nightly
@pytest.mark.skipif(os.environ.get("NIGHTLY") != "1",
                    reason="trend reproduction retrains many networks; "
                           "set NIGHTLY=1 to enable")
def test_criterion_8_trend_reproduction(tmp_path, capfd):
    t0 = time.perf_counter()
    errors = {}
    for problem in ("elliptic", "helmholtz"):
        for p in (1.0, 3.0):
            cfg = dataclasses.replace(pl.preset(f"desk-{problem}"), d=16, p=p)
            record = pl.run_experiment(cfg, out_dir=tmp_path)
            errors[problem, p] = record["test_error"]
            print(f"{record['tag']}: test error {errors[problem, p]:.3e}")

    summary = pl.sweep(pl.preset("desk-elliptic"), {"n_points": [1, 8, 64]},
                       tmp_path, kind="figure", name="points-trend")
    cells = [c for c in summary["cells"] if "value" in c]
    _, slope = fit_log_line([c["axes"]["n_points"] for c in cells],
                            [c["value"] for c in cells])

    base = pl.preset("desk-helmholtz")
    low = pl.run_experiment(base, out_dir=tmp_path)["test_error"]
    high = pl.run_experiment(dataclasses.replace(base, kappa_o=2 * pl.K0),
                             out_dir=tmp_path)["test_error"]

    checks = [
        ("elliptic error grows from p=3 to p=1 at d=16",
         errors["elliptic", 1.0] > errors["elliptic", 3.0],
         f"{errors['elliptic', 1.0]:.3e} > {errors['elliptic', 3.0]:.3e}"),
        ("helmholtz error grows from p=3 to p=1 at d=16",
         errors["helmholtz", 1.0] > errors["helmholtz", 3.0],
         f"{errors['helmholtz', 1.0]:.3e} > {errors['helmholtz', 3.0]:.3e}"),
        ("error vs log n_points has positive fitted slope over {1, 8, 64}",
         len(cells) == 3 and slope > 0, f"slope {slope:.3e}"),
        ("helmholtz error exceeds elliptic error in the matched config",
         errors["helmholtz", 3.0] > errors["elliptic", 3.0],
         f"{errors['helmholtz', 3.0]:.3e} > {errors['elliptic', 3.0]:.3e}"),
        ("helmholtz error grows when the driving wavenumber doubles",
         high > low, f"{high:.3e} > {low:.3e}"),
    ]
    for label, ok, detail in checks:
        print(f"{'ok    ' if ok else 'FAILED'} {label} ({detail})")
    elapsed = time.perf_counter() - t0
    n_ok = sum(ok for _, ok, _ in checks)
    _report(capfd, 8, n_ok == len(checks),
            f"{n_ok}/{len(checks)} desk-scale trend checks passed "
            f"in {elapsed / 60:.0f} min")
