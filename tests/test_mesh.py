"""Mesh construction invariants and point location."""

import dataclasses

import numpy as np
import pytest

from interface_surrogates import mesh as mesh_module
from interface_surrogates import pipeline
from interface_surrogates.geometry import (
    BAND_CORE,
    BAND_FAR,
    BAND_INNER,
    BAND_OUTER,
    BAND_PML,
    map_inverse,
)
from interface_surrogates.mesh import (
    REGION_INNER,
    REGION_OUTER,
    REGION_PML,
    Mesh,
    MeshError,
    build_disk_mesh,
    build_square_mesh,
    RingLayout,
    check_mesh,
)


def centroids(mesh):
    return mesh.vertices[mesh.triangles].mean(axis=1)


@pytest.fixture(scope="module")
def square_coarse():
    return build_square_mesh(0.5, 0.125, 0.875, 0.04, 0.12)


@pytest.fixture(scope="module")
def disk_coarse():
    return build_disk_mesh(0.01, 0.0025, 0.055, 0.02, 0.002, 0.006)


def test_square_mesh_conforms(square_coarse):
    stats = check_mesh(square_coarse)
    assert stats["total_area"] == pytest.approx(4.0, rel=1e-12)
    # fan triangles at the origin are thin but their max angle stays near 90
    assert stats["min_angle_deg"] > 1.0


def test_square_mesh_desk_scale_vertex_count():
    mesh = build_square_mesh(0.5, 0.125, 0.875, 0.01, 0.06)
    check_mesh(mesh)
    assert 8_000 <= mesh.n_vertices <= 15_000


@pytest.mark.parametrize("sizes", [(-0.01, 0.12), (0.0, 0.12), (np.nan, 0.12),
                                   (0.04, -0.12), (0.04, 0.0), (0.04, np.nan)])
def test_builders_reject_bad_sizes(sizes):
    with pytest.raises(MeshError, match="h_interface > 0 and h_far > 0"):
        build_square_mesh(0.5, 0.125, 0.875, *sizes)
    with pytest.raises(MeshError, match="h_interface > 0 and h_far > 0"):
        build_disk_mesh(0.5, 0.125, 0.875, 0.1, *sizes)


def test_rings_exactly_on_circles(square_coarse):
    rho = np.hypot(square_coarse.vertices[:, 0], square_coarse.vertices[:, 1])
    for c in (0.125, 0.5, 0.875):
        assert np.any(np.abs(rho - c) < 1e-14)


def test_region_tags_partition_square(square_coarse):
    cen = centroids(square_coarse)
    rho = np.hypot(cen[:, 0], cen[:, 1])
    inner = square_coarse.region == REGION_INNER
    assert np.all(rho[inner] < 0.5) and np.all(rho[~inner] > 0.5)
    areas = square_coarse.areas()
    assert areas[inner].sum() == pytest.approx(np.pi * 0.25, rel=2e-3)


def test_band_tags_square(square_coarse):
    cen = centroids(square_coarse)
    rho = np.hypot(cen[:, 0], cen[:, 1])
    assert np.all((rho[square_coarse.band == BAND_INNER] > 0.125))
    assert np.all((rho[square_coarse.band == BAND_INNER] < 0.5))
    assert np.all((rho[square_coarse.band == BAND_OUTER] > 0.5))
    assert np.all((rho[square_coarse.band == BAND_OUTER] < 0.875))


def test_square_boundary_nodes(square_coarse):
    b = square_coarse.vertices[square_coarse.boundary]
    assert np.all(np.isclose(np.abs(b), 1.0, atol=1e-12).any(axis=1))


def test_disk_mesh_conforms(disk_coarse):
    stats = check_mesh(disk_coarse)
    # polygonal approximation of a disk of radius 0.075
    assert stats["total_area"] == pytest.approx(np.pi * 0.075**2, rel=1e-2)


def test_disk_pml_band(disk_coarse):
    cen = centroids(disk_coarse)
    rho = np.hypot(cen[:, 0], cen[:, 1])
    pml = disk_coarse.band == BAND_PML
    assert np.any(pml)
    assert np.all(rho[pml] > 0.055) and np.all(rho[pml] < 0.075 + 1e-12)
    assert np.all(disk_coarse.region[pml] == REGION_PML)
    assert np.all((disk_coarse.region == REGION_PML) == pml)


def test_disk_boundary_on_outer_circle(disk_coarse):
    b = disk_coarse.vertices[disk_coarse.boundary]
    assert np.allclose(np.hypot(b[:, 0], b[:, 1]), 0.075, atol=1e-12)


def test_disk_without_pml():
    mesh = build_disk_mesh(0.5, 0.125, 1.0, 0.0, 0.05, 0.1)
    check_mesh(mesh)
    assert not np.any(mesh.region == REGION_PML)
    b = mesh.vertices[mesh.boundary]
    assert np.allclose(np.hypot(b[:, 0], b[:, 1]), 1.0, atol=1e-12)


def test_wavelength_resolution():
    # >= 12 elements per wavelength at kappa = 200*pi/3 means edges <= 0.0025
    lam = 2 * np.pi / (200 * np.pi / 3)
    mesh = build_disk_mesh(0.01, 0.0025, 0.055, 0.02, 0.0005, lam / 12)
    stats = check_mesh(mesh)
    assert stats["edge_max"] <= lam / 12 * 1.05


def test_locate_centroids(square_coarse):
    cen = centroids(square_coarse)
    idx, lam = square_coarse.locate(cen[::37])
    assert np.all(idx == np.arange(square_coarse.n_triangles)[::37])
    assert np.allclose(lam, 1 / 3, atol=1e-12)


def test_locate_vertices_deterministic(square_coarse):
    # vertex queries touch several triangles; the lowest index must win
    pts = square_coarse.vertices[[5, 100, 500]]
    idx1, _ = square_coarse.locate(pts)
    idx2, _ = square_coarse.locate(pts)
    assert np.all(idx1 == idx2)
    for k, pt in enumerate(pts):
        touching = np.nonzero((square_coarse.vertices[square_coarse.triangles]
                               == pt).all(axis=2).any(axis=1))[0]
        assert idx1[k] == touching.min()


def test_locate_interpolates_linear_exactly(square_coarse):
    # P1 interpolation reproduces affine functions
    v = square_coarse.vertices
    nodal = 2.0 * v[:, 0] - 0.7 * v[:, 1] + 0.25
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.99, 0.99, (200, 2))
    vals = square_coarse.interpolate(nodal, pts)
    expected = 2.0 * pts[:, 0] - 0.7 * pts[:, 1] + 0.25
    assert np.allclose(vals, expected, atol=1e-12)


def test_locate_rejects_outside(square_coarse):
    with pytest.raises(MeshError):
        square_coarse.locate(np.array([[1.5, 0.0]]))


def brute_locate(mesh, points, tol=1e-8):
    """Scan every triangle; keep the lowest index passing the barycentric test."""
    a, b, c = mesh.vertices[mesh.triangles].transpose(1, 2, 0)
    det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    idx, lams = [], []
    for px, py in points:
        l1 = ((px - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (py - a[1])) / det
        l2 = ((b[0] - a[0]) * (py - a[1]) - (px - a[0]) * (b[1] - a[1])) / det
        l0 = 1.0 - l1 - l2
        t = np.flatnonzero((l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol))[0]
        idx.append(t)
        lams.append((l0[t], l1[t], l2[t]))
    return np.array(idx), np.array(lams)


def edge_midpoints(mesh):
    tris = mesh.triangles.astype(np.int64)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    return mesh.vertices[edges].mean(axis=1)


def qoi_points(name, n_samples, **fields):
    """Nominal mesh of a preset (with fields replaced) and its QoI points
    pulled back through the map of the first samples, as a solve locates
    them."""
    cfg = dataclasses.replace(pipeline.preset(name), **fields)
    ws = pipeline.Workspace(cfg)
    pulled = [map_inverse(ws.problem.dm, pipeline.sample_parameters(7, k, cfg.d), ws.points)
              for k in range(n_samples)]
    return ws.mesh, np.concatenate(pulled)


def beyond_boundary(mesh, tol=1e-8):
    """The midpoint of every boundary chord, pushed out by half the snap
    tolerance (as a barycentric coordinate) of its triangle."""
    m, count, _ = mesh.rings
    ring = mesh.vertices[1:].reshape(count, m, 2)[-1]
    p, q = ring, np.roll(ring, -1, axis=0)
    length = np.hypot(*(q - p).T)
    normal = np.stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]], axis=1) / length[:, None]
    # the outer triangle (a0, b1, a1) of each strip of the last ring gap
    height = 2 * mesh.areas()[-2 * m::2] / length
    return (p + q) / 2 + 0.5 * tol * height[:, None] * normal


def near_centre(mesh, tol=1e-8):
    """Points within a few snap tolerances of the fan's centre, where fan
    triangles many sectors away from a point pass the barycentric test."""
    r0 = np.hypot(*mesh.vertices[1])
    theta = np.linspace(0.0, 2 * np.pi, 97, endpoint=False)
    scale = np.array([1e-3, 0.03, 0.1, 0.3, 1.0, 1.9])[:, None, None]
    return (scale * tol * r0 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)).reshape(-1, 2)


@pytest.mark.parametrize("name", ["square", "disk", "elliptic-gen", "desk-helmholtz",
                                  "table2-alpha1000", "square-boundary", "disk-boundary",
                                  "centre"])
def test_locate_matches_brute_force(name, square_coarse):
    # a unit disk with an absorbing annulus, coarse enough for the brute force
    disk = build_disk_mesh(0.5, 0.125, 1.0, 1.0, 0.2, 0.4)
    extra = np.zeros((0, 2))
    if name in ("square", "disk", "elliptic-gen"):
        if name == "square":
            mesh = square_coarse
        elif name == "disk":
            mesh = disk
        else:
            mesh, extra = qoi_points("desk-elliptic", 4, d=16, p=1.0, n_points=64)
        rng = np.random.default_rng(11)
        rnd = rng.uniform(mesh.vertices.min(axis=0), mesh.vertices.max(axis=0), (400, 2))
        if name == "disk":
            rnd = rnd[np.hypot(*rnd.T) < 0.99 * mesh.circles[-1]]
        # vertices and edge midpoints lie on several triangles: ties
        pts = np.concatenate([rnd, mesh.vertices, edge_midpoints(mesh), centroids(mesh),
                              extra])
    elif name == "desk-helmholtz":
        mesh, pts = qoi_points("desk-helmholtz", 8)
    elif name == "table2-alpha1000":
        # the full-scale square mesh (m = 1568, 7 rings past the outer circle)
        mesh, pts = qoi_points("table2-alpha1000", 1, n_points=64)
    elif name == "square-boundary":
        mesh = square_coarse
        pts = np.concatenate([[[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]],
                              beyond_boundary(mesh)])
    elif name == "disk-boundary":
        mesh, pts = disk, beyond_boundary(disk)
    else:
        mesh, pts = square_coarse, np.concatenate([near_centre(square_coarse), [[0.0, 0.0]]])
    idx, lam = mesh.locate(pts)
    ref_idx, ref_lam = brute_locate(mesh, pts)
    assert idx.dtype == np.int64 and lam.shape == (len(pts), 3)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(lam, ref_lam)


@pytest.mark.parametrize("fixture", ["square_coarse", "disk_coarse"])
def test_locate_rejects_point_far_outside(fixture, request):
    mesh = request.getfixturevalue(fixture)
    reach = np.abs(mesh.vertices).max()
    inside = centroids(mesh)[:4]
    for outside in ([3 * reach, 0.0], [-1.5 * reach, -1.5 * reach], [0.0, -1.01 * reach]):
        with pytest.raises(MeshError, match="outside the mesh"):
            mesh.locate(np.vstack([inside[:2], outside, inside[2:]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_locate_rejects_non_finite_point(square_coarse, bad):
    inside = centroids(square_coarse)[:3]
    with pytest.raises(MeshError, match=r"\[.*(nan|inf).*\] is not finite"):
        square_coarse.locate(np.vstack([inside[:2], [0.5, bad], inside[2:]]))


def test_locate_needs_ring_layout(square_coarse):
    plain = Mesh(square_coarse.vertices, square_coarse.triangles, square_coarse.region,
                 square_coarse.band, square_coarse.boundary, square_coarse.circles)
    with pytest.raises(MeshError, match="ring"):
        plain.locate(centroids(square_coarse)[:2])


def test_locate_rejects_point_past_snap_tolerance(square_coarse):
    tol = 1e-8
    # a boundary edge on x = 1 and the height of its triangle
    v = square_coarse.vertices[square_coarse.triangles]
    on_right = np.isclose(v[..., 0], 1.0, rtol=0, atol=1e-14)
    t = np.flatnonzero(on_right.sum(axis=1) == 2)[0]
    edge = v[t][on_right[t]]
    mid = edge.mean(axis=0)
    height = 2 * square_coarse.areas()[t] / np.hypot(*(edge[1] - edge[0]))
    inside = centroids(square_coarse)[:4]
    near = mid + [0.5 * tol * height, 0.0]
    far = mid + [2.0 * tol * height, 0.0]
    idx, lam = square_coarse.locate(np.vstack([inside, near]))
    assert idx[-1] == t and lam[-1].min() < 0
    with pytest.raises(MeshError, match="snap tolerance"):
        square_coarse.locate(np.vstack([inside[:2], far, inside[2:]]))


def test_checker_catches_flipped_triangle(square_coarse):
    tris = square_coarse.triangles.copy()
    tris[10] = tris[10][::-1]
    bad = Mesh(square_coarse.vertices, tris, square_coarse.region,
               square_coarse.band, square_coarse.boundary,
               square_coarse.circles)
    with pytest.raises(MeshError):
        check_mesh(bad)


def test_builders_record_ring_layout(square_coarse, disk_coarse):
    # the square's template rings beyond the outer circle are not circles
    m, count, circles = square_coarse.rings
    assert square_coarse.n_vertices == 1 + count * m and circles < count
    rho = np.hypot(*square_coarse.vertices[1:].T).reshape(count, m)
    assert np.ptp(rho[circles - 1]) <= 1e-15 and np.ptp(rho[circles]) > 0.1
    m, count, circles = disk_coarse.rings
    assert disk_coarse.n_vertices == 1 + count * m and circles == count


def _renumbered(mesh, a, b):
    """mesh with vertices a and b swapped, triangles following them."""
    perm = np.arange(mesh.n_vertices)
    perm[[a, b]] = [b, a]
    return Mesh(mesh.vertices[perm], perm[mesh.triangles], mesh.region, mesh.band,
                mesh.boundary, mesh.circles, mesh.rings)


@pytest.mark.parametrize("fixture", ["square_coarse", "disk_coarse"])
def test_checker_catches_perturbed_or_renumbered_ring(fixture, request):
    mesh = request.getfixturevalue(fixture)
    m, count, circles = mesh.rings
    check_mesh(mesh)
    # one vertex of a circular ring moved outwards along its ray, by far too
    # little to straddle a circle or flip a triangle
    v = 1 + 2 * m + 3
    moved = mesh.vertices.copy()
    moved[v] *= 1 + 1e-7
    bad = Mesh(moved, mesh.triangles, mesh.region, mesh.band, mesh.boundary,
               mesh.circles, mesh.rings)
    with pytest.raises(MeshError, match="more than one radius"):
        check_mesh(bad)
    # the same mesh with two neighbours of one ring renumbered
    with pytest.raises(MeshError, match="numbered ring by ring"):
        check_mesh(_renumbered(mesh, v, v + 1))
    # a ring layout that does not match the mesh
    wrong = Mesh(mesh.vertices, mesh.triangles, mesh.region, mesh.band, mesh.boundary,
                 mesh.circles, RingLayout(m // 2, 2 * count, circles))
    with pytest.raises(MeshError, match="numbered ring by ring"):
        check_mesh(wrong)
    # the same arrays without a layout pass
    check_mesh(Mesh(moved, mesh.triangles, mesh.region, mesh.band, mesh.boundary,
                    mesh.circles))


def test_checker_catches_straddle(square_coarse):
    # retag a triangle band inconsistently with its centroid radius
    band = square_coarse.band.copy()
    outer_tri = np.nonzero(band == BAND_OUTER)[0][0]
    band[outer_tri] = BAND_INNER
    bad = Mesh(square_coarse.vertices, square_coarse.triangles,
               square_coarse.region, band, square_coarse.boundary,
               square_coarse.circles)
    with pytest.raises(MeshError):
        check_mesh(bad)


# -- array ring assembly against the per-triangle loop it replaced ---------


def loop_band(lo, hi, r_inner, r0, r_outer, pml_start):
    mid = 0.5 * (lo + hi)
    if pml_start is not None and mid >= pml_start:
        return BAND_PML
    if mid <= r_inner:
        return BAND_CORE
    if mid <= r0:
        return BAND_INNER
    if mid <= r_outer:
        return BAND_OUTER
    return BAND_FAR


LOOP_REGION = {BAND_CORE: REGION_INNER, BAND_INNER: REGION_INNER,
               BAND_OUTER: REGION_OUTER, BAND_FAR: REGION_OUTER,
               BAND_PML: REGION_PML}


def loop_assemble(ring_points, radii, circles, pml_start):
    """Fan plus strips appended one triangle at a time; each annulus is
    tagged by the mid-radius of the radii bounding it."""
    edges = np.concatenate([[0.0], radii])
    ring_bands = [loop_band(edges[k], edges[k + 1], *circles, pml_start)
                  for k in range(len(radii))]
    m = ring_points[0].shape[0]
    nring = len(ring_points)
    vertices = np.vstack([np.zeros((1, 2))] + list(ring_points))
    tris, bands = [], []
    idx = lambda k, i: 1 + k * m + (i % m)
    for i in range(m):
        tris.append((0, idx(0, i), idx(0, i + 1)))
        bands.append(ring_bands[0])
    for k in range(nring - 1):
        for i in range(m):
            a0, a1 = idx(k, i), idx(k, i + 1)
            b0, b1 = idx(k + 1, i), idx(k + 1, i + 1)
            tris.append((a0, b0, b1))
            tris.append((a0, b1, a1))
            bands.extend([ring_bands[k + 1]] * 2)
    band = np.array(bands, dtype=np.uint8)
    region = np.array([LOOP_REGION[b] for b in band], dtype=np.uint8)
    boundary = np.arange(1 + (nring - 1) * m, 1 + nring * m, dtype=np.uint32)
    return (vertices, np.array(tris, dtype=np.uint32), region, band, boundary)


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("radii, m, pml_start", [
    # every annulus mid-radius lands exactly on a circle or the layer start
    ([0.5, 1.0, 1.5, 2.0, 2.5], 8, None),
    ([0.5, 1.0, 1.5, 2.0, 2.5], 8, 1.75),
    ([0.5, 1.0, 1.5, 2.0, 2.5], 16, 2.25),
    # ring radii on the circles, as the mesh builders place them
    ([0.125, 0.25, 0.5, 0.75, 1.25, 1.5], 24, None),
    ([0.25, 0.75, 1.25, 2.0], 16, 1.25),
    # a single ring: the fan alone
    ([0.3], 8, None),
    ([1.5], 8, 0.5),
])
def test_ring_assembly_matches_loop(radii, m, pml_start):
    radii = np.array(radii)
    circles = (0.25, 0.75, 1.25)
    _, points, bands = mesh_module._rings(radii, m, circles, pml_start)
    got = mesh_module._assemble_rings(points, bands)
    assert_same_arrays(got, loop_assemble(points, radii, circles, pml_start))


@pytest.mark.parametrize("build, args", [
    (build_square_mesh, (0.5, 0.125, 0.875, 0.04, 0.12)),
    (build_square_mesh, (0.5, 0.125, 0.875, 0.06, 0.2)),
    (build_disk_mesh, (0.5, 0.125, 1.0, 0.0, 0.05, 0.1)),
    (build_disk_mesh, (0.01, 0.0025, 0.055, 0.02, 0.002, 0.006)),
    (build_disk_mesh, (0.5, 0.125, 1.0, 1.0, 0.2, 0.4)),
])
def test_mesh_matches_loop_assembly(build, args):
    mesh = build(*args)
    m = int(np.count_nonzero(mesh.triangles[:, 0] == 0))
    points = mesh.vertices[1:].reshape(-1, m, 2)
    # azimuth 0 is the +x axis, where a ring's x coordinate is its radius
    # (and the square's template rings lie beyond the outer circle)
    radii = points[:, 0, 0]
    pml_start = mesh.circles[2] if len(mesh.circles) > 3 else None
    want = loop_assemble(points, radii, mesh.circles[:3], pml_start)
    assert_same_arrays((mesh.vertices, mesh.triangles, mesh.region, mesh.band,
                        mesh.boundary), want)
