"""Geometry checks: frozen worked values, finite-difference Jacobian oracle,
inverse roundtrips, and kink hyperplane location verified by root finding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interface_surrogates import geometry
from interface_surrogates.geometry import (
    BAND_INNER,
    BAND_OUTER,
    DomainMap,
    GeometryError,
    InterfaceModel,
    band_of,
    basis,
    kink_hyperplane,
    map_forward,
    map_inverse,
    map_jacobian,
    max_shape_variation,
    mollifier,
    mollifier_slope,
    radius,
)

# worst-case relative interface displacement in percent, one row per decay
# exponent p, columns d = 8, 16, 32, 64
SHAPE_VARIATION_TABLE = {
    1: [23.55, 30.75, 38.25, 45.92],
    2: [16.11, 17.28, 17.93, 18.26],
    3: [13.32, 13.52, 13.58, 13.60],
}
DIMS = [8, 16, 32, 64]


def make_map(r0=0.5, d=8, p=3, c=0.08, r_inner=None, r_outer=0.875):
    return DomainMap(InterfaceModel(r0, d, p, c), r_inner, r_outer)


def test_basis_values():
    phi = np.pi / 3
    assert basis(1, phi) == pytest.approx(np.sin(phi), abs=1e-15)
    assert basis(2, phi) == pytest.approx(np.cos(phi), abs=1e-15)
    assert basis(3, phi) == pytest.approx(np.sin(2 * phi), abs=1e-15)
    assert basis(4, phi) == pytest.approx(np.cos(2 * phi), abs=1e-15)
    assert basis(7, phi) == pytest.approx(np.sin(4 * phi), abs=1e-15)
    assert basis(8, phi) == pytest.approx(np.cos(4 * phi), abs=1e-15)


def test_basis_periodic():
    phis = np.linspace(-3.0, 3.0, 17)
    for j in range(1, 11):
        assert np.allclose(basis(j, phis + 2 * np.pi), basis(j, phis), atol=1e-9)


def test_radius_worked_value():
    # all-ones sample at phi = 0 picks out the cosine amplitudes:
    # 0.5 + 0.04 * (1 + 1/8 + 1/27 + 1/64)
    m = InterfaceModel(0.5, 8, 3, 0.08)
    expected = 0.5 + 0.04 * (1 + 1 / 8 + 1 / 27 + 1 / 64)
    assert radius(m, np.ones(8), 0.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.54710648, abs=1e-8)


def test_radius_degenerate():
    m = InterfaceModel(0.5, 8, 2, 0.0)
    phis = np.linspace(0, 2 * np.pi, 50)
    assert np.all(radius(m, np.full(8, 0.7), phis) == 0.5)


def test_radius_lower_bound():
    # r >= r0/2 for every admissible model and sample
    rng = np.random.default_rng(7)
    phis = np.linspace(0, 2 * np.pi, 721)
    for p in (1, 2, 3):
        for d in DIMS:
            m = InterfaceModel(0.5, d, p, 0.08)
            for _ in range(20):
                y = rng.uniform(-1, 1, d)
                assert radius(m, y, phis).min() >= 0.25 - 1e-12


def test_radius_dphi_fd():
    m = InterfaceModel(0.5, 16, 2, 0.08)
    y = np.random.default_rng(3).uniform(-1, 1, 16)
    phis = np.linspace(0, 2 * np.pi, 11)
    h = 1e-6
    fd = (radius(m, y, phis + h) - radius(m, y, phis - h)) / (2 * h)
    dr = geometry._series(m, y, np.exp(1j * phis))[1]
    assert np.allclose(dr, fd, atol=1e-7)


SERIES_DIMS = [2, 8, 16, 64, 128]
# the axes, both ends of arctan2's range and random angles
SERIES_ANGLES = np.concatenate([
    [0.0, np.pi / 2, np.pi, -np.pi / 2, -np.pi, 3 * np.pi / 2],
    np.random.default_rng(2).uniform(-np.pi, np.pi, 200)])


def _series_reference(model, y, phi):
    """r - r0 and dr/dphi summed term by term with np.sin and np.cos."""
    shift, dr = np.zeros_like(phi), np.zeros_like(phi)
    for j in range(1, model.d + 1):
        k, a = (j + 1) // 2, model.b[j - 1] * y[j - 1]
        if j % 2 == 1:
            shift += a * np.sin(k * phi)
            dr += a * k * np.cos(k * phi)
        else:
            shift += a * np.cos(k * phi)
            dr -= a * k * np.sin(k * phi)
    return shift, dr


@pytest.mark.parametrize("d", SERIES_DIMS)
def test_series_matches_direct_trigonometric_sum(d):
    m = InterfaceModel(0.5, d, 1, 0.05)
    y = np.random.default_rng(d).uniform(-1, 1, d)
    phi = SERIES_ANGLES
    shift, dr = _series_reference(m, y, phi)
    tol = 1e-13
    got_shift, got_dr = geometry._series(m, y, np.exp(1j * phi))
    assert np.abs(got_shift - shift).max() <= tol * np.abs(shift).max()
    assert np.abs(got_dr - dr).max() <= tol * np.abs(dr).max()
    # unit numbers taken from points, as the map functions form them
    pts = 0.3 * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    from_points = geometry._series(m, y, (pts[:, 0] + 1j * pts[:, 1]) / rho)[0]
    assert np.abs(from_points - shift).max() <= tol * np.abs(shift).max()
    r = radius(m, y, phi)
    assert np.abs(r - (m.r0 + shift)).max() <= tol * np.abs(r).max()
    # scalar and 2-D angle arrays keep their shape
    assert np.shape(radius(m, y, 0.25)) == ()
    z = np.exp(1j * phi.reshape(2, -1))
    assert geometry._series(m, y, z)[1].shape == (2, phi.size // 2)


@pytest.mark.parametrize("d", SERIES_DIMS)
def test_map_forward_bit_exact_outside_band(d):
    dm = make_map(d=d, p=1, c=0.05)
    rng = np.random.default_rng(d + 1)
    y = rng.uniform(-1, 1, d)
    rad = np.concatenate([[0.0, dm.r_inner, dm.r_outer],
                          rng.uniform(0.0, 1.5, 400)])
    phi = np.concatenate([[0.0, np.pi, -np.pi / 2], rng.uniform(-np.pi, np.pi, 400)])
    pts = rad[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    out = map_forward(dm, y, pts)
    still = (rad <= dm.r_inner) | (rad >= dm.r_outer)
    assert still.any() and not still.all()
    assert np.array_equal(out[still], pts[still])
    # points that all move take the unmasked path and agree with the masked one
    band = map_forward(dm, y, pts[~still])
    assert np.abs(band - out[~still]).max() <= 1e-15
    back = map_inverse(dm, y, out)
    assert np.abs(back - pts).max() <= 1e-14


def test_jacobian_rejects_origin_and_breakpoints():
    dm = make_map()
    y = np.full(8, 0.5)
    for band in (BAND_INNER, BAND_OUTER):
        with pytest.raises(GeometryError, match="origin"):
            map_jacobian(dm, y, np.zeros((1, 2)), band=band)
    for rho in (dm.r_inner, dm.r0, dm.r_outer):
        with pytest.raises(GeometryError, match="breakpoint"):
            map_jacobian(dm, y, np.array([[0.0, -rho]]))


def test_jacobian_fast_path_matches_masked():
    dm = make_map(d=16, p=1)
    rng = np.random.default_rng(12)
    y = rng.uniform(-1, 1, 16)
    pts = _sample_off_circle(rng, dm, 100)
    both = np.concatenate([pts, [[0.95, 0.1], [0.02, 0.03]]])
    masked = map_jacobian(dm, y, both)
    assert np.abs(map_jacobian(dm, y, pts) - masked[:100]).max() <= 1e-15
    assert np.all(masked[100:] == np.eye(2))
    # in the polar frame Q = [e_rho, e_phi], Q^T DPhi Q = [[g, m01], [0, m11]],
    # and the image is Phi = x m11
    cs, sn = (pts / np.hypot(pts[:, 0], pts[:, 1])[:, None]).T
    Q = np.stack([np.stack([cs, -sn], -1), np.stack([sn, cs], -1)], -2)
    polar = Q.swapaxes(1, 2) @ masked[:100] @ Q
    assert np.abs(polar[:, 1, 0]).max() <= 1e-15
    assert np.abs(pts * polar[:, 1, 1, None] - map_forward(dm, y, pts)).max() <= 1e-15


def test_amplitude_bound_rejects():
    with pytest.raises(GeometryError):
        InterfaceModel(0.5, 64, 1, 0.3)
    # every tabulated preset must construct
    for p in (1, 2, 3):
        for d in DIMS:
            InterfaceModel(0.5, d, p, 0.08)


def test_model_validation():
    with pytest.raises(GeometryError):
        InterfaceModel(0.5, 7, 1, 0.08)
    with pytest.raises(GeometryError):
        InterfaceModel(0.5, 8, 0.5, 0.08)
    with pytest.raises(GeometryError):
        InterfaceModel(-0.5, 8, 1, 0.08)
    with pytest.raises(GeometryError):
        InterfaceModel(0.5, 8, 1, -0.01)


def test_shape_variation_table():
    for p, row in SHAPE_VARIATION_TABLE.items():
        for d, expected in zip(DIMS, row):
            m = InterfaceModel(0.5, d, p, 0.08)
            assert 100 * max_shape_variation(m) == pytest.approx(expected, abs=0.03)


def test_shape_variation_degenerate():
    assert max_shape_variation(InterfaceModel(0.5, 2, 1, 0.0)) == 0.0


def test_mollifier_values():
    dm = make_map()
    assert mollifier(dm, 0.5) == 1.0
    assert mollifier(dm, 0.6875) == pytest.approx(0.5, abs=1e-15)
    assert mollifier(dm, 0.3125) == pytest.approx(0.5, abs=1e-15)
    assert mollifier(dm, 0.05) == 0.0
    assert mollifier(dm, 0.9) == 0.0
    assert mollifier(dm, 0.875) == 0.0
    # continuity across the breakpoints
    for rho in (0.125, 0.5, 0.875):
        lo, hi = mollifier(dm, rho - 1e-9), mollifier(dm, rho + 1e-9)
        assert abs(hi - lo) < 1e-8


def test_mollifier_slope_branches():
    dm = make_map()
    assert mollifier_slope(dm, BAND_INNER) == pytest.approx(1 / 0.375)
    assert mollifier_slope(dm, BAND_OUTER) == pytest.approx(-1 / 0.375)
    assert mollifier_slope(dm, np.uint8(3)) == 0.0


def test_band_classification():
    dm = make_map()
    bands = band_of(dm, np.array([0.05, 0.3, 0.7, 0.95]))
    assert list(bands) == [0, 1, 2, 3]
    with pytest.raises(GeometryError):
        band_of(dm, np.array([0.5]))


def test_map_identity_outside_support():
    dm = make_map()
    y = np.random.default_rng(0).uniform(-1, 1, 8)
    pts = np.array([[0.0, 0.0], [0.1, 0.05], [-0.9, 0.3], [0.7, 0.7], [1.0, -1.0]])
    out = map_forward(dm, y, pts)
    assert np.all(out == pts)


def test_map_sends_circle_to_interface():
    dm = make_map(d=16, p=1)
    y = np.random.default_rng(1).uniform(-1, 1, 16)
    phis = np.linspace(0, 2 * np.pi, 33)[:-1]
    pts = 0.5 * np.stack([np.cos(phis), np.sin(phis)], axis=1)
    out = map_forward(dm, y, pts)
    rho_out = np.hypot(out[:, 0], out[:, 1])
    assert np.allclose(rho_out, radius(dm.model, y, phis), atol=1e-12)


def test_map_preserves_angles():
    dm = make_map(d=32, p=2)
    rng = np.random.default_rng(5)
    y = rng.uniform(-1, 1, 32)
    rho = rng.uniform(0.13, 0.87, 200)
    phi = rng.uniform(-np.pi, np.pi, 200)
    pts = rho[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    out = map_forward(dm, y, pts)
    assert np.allclose(np.arctan2(out[:, 1], out[:, 0]), phi, atol=1e-12)


def _fd_jacobian(dm, y, pt, h=1e-6):
    J = np.zeros((2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        J[:, k] = (map_forward(dm, y, pt + e) - map_forward(dm, y, pt - e)) / (2 * h)
    return J


def _sample_off_circle(rng, dm, n):
    lo, mid, hi = dm.r_inner, dm.r0, dm.r_outer
    rad = np.concatenate([
        rng.uniform(lo + 2e-3, mid - 2e-3, n // 2),
        rng.uniform(mid + 2e-3, hi - 2e-3, n - n // 2),
    ])
    phi = rng.uniform(-np.pi, np.pi, n)
    return rad[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)


@pytest.mark.parametrize("d,p", [(8, 3), (16, 1), (64, 1)])
def test_jacobian_matches_finite_differences(d, p):
    dm = make_map(d=d, p=p)
    rng = np.random.default_rng(d * 10 + p)
    y = rng.uniform(-1, 1, d)
    pts = _sample_off_circle(rng, dm, 40)
    jac = map_jacobian(dm, y, pts)
    for i, pt in enumerate(pts):
        ref = _fd_jacobian(dm, y, pt)
        err = np.abs(jac[i] - ref).max() / np.abs(ref).max()
        assert err <= 1e-6
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    assert np.all(det > 0)


def test_jacobian_identity_far_field():
    dm = make_map()
    y = np.full(8, 0.9)
    jac = map_jacobian(dm, y, np.array([[0.95, 0.1], [0.02, 0.03]]))
    assert np.all(jac == np.eye(2))


def test_jacobian_positive_at_scale():
    # coarse version of the acceptance sweep: every tabulated preset,
    # random points and samples, detDPhi strictly positive
    rng = np.random.default_rng(11)
    for p in (1, 2, 3):
        for d in DIMS:
            dm = make_map(d=d, p=p)
            y = rng.uniform(-1, 1, d)
            pts = _sample_off_circle(rng, dm, 500)
            jac = map_jacobian(dm, y, pts)
            det = np.linalg.det(jac)
            assert det.min() > 0


def test_jacobian_band_override_on_circle():
    dm = make_map()
    y = np.full(8, 0.5)
    pt = np.array([[0.5, 0.0]])
    with pytest.raises(GeometryError):
        map_jacobian(dm, y, pt)
    inner = map_jacobian(dm, y, pt, band=BAND_INNER)
    outer = map_jacobian(dm, y, pt, band=BAND_OUTER)
    assert np.linalg.det(inner) > 0 and np.linalg.det(outer) > 0
    assert not np.allclose(inner, outer)


def test_inverse_roundtrip():
    dm = make_map(d=16, p=2)
    rng = np.random.default_rng(9)
    y = rng.uniform(-1, 1, 16)
    rad = rng.uniform(0.01, 1.2, 300)
    phi = rng.uniform(-np.pi, np.pi, 300)
    pts = rad[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    fwd = map_forward(dm, y, pts)
    back = map_inverse(dm, y, fwd)
    assert np.abs(back - pts).max() <= 1e-10
    again = map_forward(dm, y, map_inverse(dm, y, pts))
    assert np.abs(again - pts).max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from(DIMS),
    p=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 10_000),
)
def test_inverse_roundtrip_property(d, p, seed):
    dm = make_map(d=d, p=p)
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1, 1, d)
    rad = rng.uniform(0.01, 1.3, 32)
    phi = rng.uniform(-np.pi, np.pi, 32)
    pts = rad[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    back = map_inverse(dm, y, map_forward(dm, y, pts))
    assert np.abs(back - pts).max() <= 1e-10


def test_kink_hyperplane_worked_example():
    dm = make_map(d=8, p=1, c=0.08)
    plane = kink_hyperplane(dm, np.array([0.52, 0.0]))
    assert plane is not None
    normal, offset = plane
    # at phi = 0 the sine terms vanish, leaving the cosine amplitudes
    expected = np.array([0, 0.04, 0, 0.02, 0, 0.04 / 3, 0, 0.01])
    assert np.allclose(normal, expected, atol=1e-15)
    assert offset == pytest.approx(0.02, abs=1e-15)


def test_kink_hyperplane_empty():
    dm = make_map(d=8, p=3, c=0.01)
    assert kink_hyperplane(dm, np.array([0.7, 0.0])) is None


def test_kink_hyperplane_matches_crossing_root():
    # independent oracle: bisect |x0| - r(y(t); phi0) along a segment and
    # compare against the affine prediction from the hyperplane
    dm = make_map(d=8, p=2)
    rng = np.random.default_rng(21)
    x0 = np.array([0.51, -0.04])
    phi0 = np.arctan2(x0[1], x0[0])
    plane = kink_hyperplane(dm, x0)
    assert plane is not None
    normal, offset = plane
    hits = 0
    for _ in range(200):
        ya, yb = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
        sa = offset - normal @ ya
        sb = offset - normal @ yb
        if sa * sb >= 0:
            continue
        hits += 1
        t_pred = sa / (sa - sb)

        def gap(t):
            rho0 = np.hypot(x0[0], x0[1])
            return rho0 - float(radius(dm.model, ya + t * (yb - ya), phi0))

        lo, hi = 0.0, 1.0
        glo = gap(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if glo * gap(mid) <= 0:
                hi = mid
            else:
                lo, glo = mid, gap(mid)
        t_root = 0.5 * (lo + hi)
        assert abs(t_root - t_pred) <= 1e-12
    assert hits > 20


def test_domain_map_validation():
    m = InterfaceModel(0.5, 8, 3, 0.08)
    with pytest.raises(GeometryError):
        DomainMap(m, r_inner=0.6)
    with pytest.raises(GeometryError):
        DomainMap(m, r_outer=0.55)
    # amplitude must stay below the mollifier slack
    tight = InterfaceModel(0.5, 2, 1, 0.17)  # amplitude ~ 0.24
    with pytest.raises(GeometryError):
        DomainMap(tight, r_inner=0.4, r_outer=0.875)
