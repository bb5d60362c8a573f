"""Structured triangulations of the nominal configuration.

Both problem domains are meshed from the same polar template: a fan around
the origin, concentric vertex rings with graded radial spacing, and one
vertex per ring and azimuth angle 2*pi*i/M.  Rings are placed exactly on
the mollifier breakpoint circles (and the absorbing-layer circles for the
disk), so no triangle straddles a coefficient discontinuity and every
triangle carries an unambiguous chi-branch tag.  The square domain adds a
few template rings that interpolate between the outermost circle and the
square boundary.  A built mesh records this layout (RingLayout), which
check_mesh verifies, the nominal solve of linalg reads and point location
uses: a point's azimuth gives its sector and the ring chords it lies beyond
give its strip, so Mesh.locate tests a few triangles per point and keeps no
index.
"""

from typing import NamedTuple

import numpy as np

from .geometry import BAND_CORE, BAND_FAR, BAND_INNER, BAND_OUTER, BAND_PML

REGION_INNER = 0
REGION_OUTER = 1
REGION_PML = 2

# region of each chi-branch tag, indexed by BAND_CORE ... BAND_PML (0 ... 4)
_REGION_OF_BAND = np.array([REGION_INNER, REGION_INNER, REGION_OUTER,
                            REGION_OUTER, REGION_PML], dtype=np.uint8)

# mesh size grows away from the interface band by this fraction per unit
# distance; 0.3 keeps the ratio of neighbouring ring gaps near 1.3
_GRADE = 0.3


class MeshError(ValueError):
    pass


class RingLayout(NamedTuple):
    """Vertex numbering of a fan-plus-rings mesh: vertex (k, i), azimuth
    2 pi i / m on ring k, is 1 + k m + i; the last ring is the boundary,
    and rings 0 ... circles - 1 are circles."""

    m: int
    count: int
    circles: int


class Mesh:
    """Conforming triangle mesh with region and chi-branch tags.

    vertices  : (n, 2) float64
    triangles : (m, 3) uint32, counterclockwise
    region    : (m,) uint8, REGION_INNER / REGION_OUTER / REGION_PML
    band      : (m,) uint8, geometry.BAND_* chi-branch of each triangle
    boundary  : sorted uint32 vertex ids of the outer (Dirichlet) boundary
    circles   : radii of the circles the mesh conforms to
    rings     : RingLayout of a mesh built from rings, None for any other
    """

    def __init__(self, vertices, triangles, region, band, boundary, circles,
                 rings=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.uint32)
        self.region = np.ascontiguousarray(region, dtype=np.uint8)
        self.band = np.ascontiguousarray(band, dtype=np.uint8)
        self.boundary = np.ascontiguousarray(np.sort(boundary), dtype=np.uint32)
        self.circles = tuple(float(c) for c in circles)
        self.rings = rings

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def areas(self):
        v = self.vertices[self.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def interior_nodes(self):
        mask = np.ones(self.n_vertices, dtype=bool)
        mask[self.boundary] = False
        return np.nonzero(mask)[0]

    # -- point location ---------------------------------------------------

    def locate(self, points, tol=1e-8):
        """Return (triangle index, barycentric coords) for each query point.

        Read off the ring layout: a point's sector i comes from its azimuth,
        and its strip k (0 the fan, k > 0 between rings k - 1 and k) is the
        number of ring chords (k, i) -> (k, i + 1) it lies beyond.  The
        barycentric test runs on the triangles of strips k - 1 ... k + 1 by
        sectors i - 1 ... i + 1.  Ties on shared edges resolve to the lowest
        triangle index.  Non-finite points, points outside the domain beyond
        the snap tolerance and meshes without a ring layout raise MeshError.
        """
        if self.rings is None:
            raise MeshError("point location needs a mesh built from rings")
        m, count, _ = self.rings
        points = np.atleast_2d(np.asarray(points, dtype=float))
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            raise MeshError(f"point {points[np.argmin(finite)]} is not finite")
        px, py = points.T
        sector = np.floor(np.arctan2(py, px) * (m / (2 * np.pi))).astype(np.int64) % m
        # the chord of every ring across each point's sector, (count, n, 2)
        ring = self.vertices[1:].reshape(count, m, 2)
        a = ring.take(sector, axis=1)
        b = ring.take((sector + 1) % m, axis=1)
        beyond = ((b[..., 0] - a[..., 0]) * (py - a[..., 1])
                  < (b[..., 1] - a[..., 1]) * (px - a[..., 0]))
        # candidates (n, 3, 3, 2): strips by sectors by the two triangles of
        # a strip; strip -1 counts as the fan, whose one triangle per sector
        # is listed twice, and strips past the boundary as the last strip
        shift = np.array([-1, 0, 1])
        s = np.minimum(beyond.sum(axis=0)[:, None] + shift, count - 1)[:, :, None, None]
        i = ((sector[:, None] + shift) % m)[:, None, :, None]
        t = np.where(s <= 0, i, (2 * s - 1) * m + 2 * i + np.array([0, 1]))
        found, tri, lams = self._lowest_hit(points, t.reshape(len(points), 18), tol)
        # a fan triangle two or more sectors away passes only within
        # 2 tol |ring 0| of the centre; there every fan triangle is a candidate
        near = np.flatnonzero(np.hypot(px, py) <= 4 * tol * np.hypot(*ring[0].T).max())
        if near.size:
            found[near], tri[near], lams[near] = self._lowest_hit(
                points[near], np.broadcast_to(np.arange(m), (near.size, m)), tol)
        if not found.all():
            raise MeshError(f"point {points[np.argmin(found)]} outside the mesh "
                            f"(snap tolerance {tol})")
        return tri, lams

    def _lowest_hit(self, points, t, tol):
        """For candidate triangles t (n, c) of n points: whether one passes
        the barycentric test, the lowest passing index and its coords."""
        corners = self.triangles.take(t, axis=0)
        a, b, c = np.moveaxis(self.vertices.take(corners, axis=0), (2, 3), (0, 1))
        ux, uy, vx, vy = b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]
        qx, qy = points[:, 0, None] - a[0], points[:, 1, None] - a[1]
        det = ux * vy - vx * uy
        l1 = (qx * vy - vx * qy) / det
        l2 = (ux * qy - qx * uy) / det
        l0 = 1.0 - l1 - l2
        hit = (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
        k = np.arange(len(t)), np.where(hit, t, self.n_triangles).argmin(axis=1)
        return hit.any(axis=1), t[k], np.stack([l0[k], l1[k], l2[k]], axis=1)

    def interpolate(self, nodal, points):
        """P1 interpolation of nodal values at the given points."""
        tri_idx, lams = self.locate(points)
        vals = np.asarray(nodal)[self.triangles[tri_idx]]
        return (vals * lams).sum(axis=1)


def _size_field(rho, r0, h_interface, h_far, pml_start=None, pml_h=None):
    band_lo, band_hi = 0.8 * r0, 1.25 * r0
    dist = np.maximum(0.0, np.maximum(band_lo - rho, rho - band_hi))
    h = np.minimum(h_far, h_interface + _GRADE * dist)
    if pml_start is not None:
        h = np.where(rho >= pml_start - 1e-15, np.minimum(h, pml_h), h)
    return h


def _segment_radii(a, b, size):
    """Subdivide [a, b] so local spacing tracks the size field."""
    xs = np.linspace(a, b, 257)
    dens = 1.0 / size(xs)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(xs))])
    n = max(1, int(round(cum[-1])))
    targets = np.linspace(0.0, cum[-1], n + 1)[1:]
    radii = np.interp(targets, cum, xs)
    radii[-1] = b
    return radii


def _ring_radii(anchors, size):
    radii = []
    lo = 0.0
    for hi in anchors:
        radii.extend(_segment_radii(lo, hi, size))
        lo = hi
    return np.array(radii)


def _rings(radii, m, circles, pml_start=None):
    """Azimuth unit vectors, one m-vertex ring per radius, and the band of
    the fan and of each annulus, tagged by its mid-radius."""
    theta = 2 * np.pi * np.arange(m) / m
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    mid = 0.5 * (np.concatenate([[0.0], radii[:-1]]) + radii)
    # BAND_CORE ... BAND_FAR are 0 ... 3 in circle order; side "left" puts a
    # mid-radius on a circle in the band inside it
    bands = np.searchsorted(circles, mid, side="left")
    if pml_start is not None:
        bands[mid >= pml_start] = BAND_PML
    return unit, radii[:, None, None] * unit, bands


def _ring_triangles(nring, m):
    """The fan, then per ring and azimuth the two strip triangles (a0, b0,
    b1) and (a0, b1, a1), of nring rings of m vertices."""
    first = 1 + m * np.arange(nring)[:, None]
    a = first + np.arange(m)  # vertex (k, i)
    b = first + (np.arange(m) + 1) % m  # vertex (k, i + 1)
    fan = np.stack([np.zeros(m, dtype=np.int64), a[0], b[0]], axis=1)
    strips = np.stack([a[:-1], a[1:], b[1:], a[:-1], b[1:], b[:-1]], axis=-1)
    return np.concatenate([fan, strips.reshape(-1, 3)]).astype(np.uint32)


def _assemble_rings(ring_points, ring_bands):
    """Fan plus strip connectivity for a stack of equal-length vertex rings.

    ring_points is (nring, m, 2); ring_bands holds the band of the fan and
    of each strip.  Returns vertices, triangles (_ring_triangles), region,
    band and boundary, the last ring.
    """
    nring, m = ring_points.shape[:2]
    vertices = np.concatenate([np.zeros((1, 2)), ring_points.reshape(-1, 2)])
    triangles = _ring_triangles(nring, m)
    counts = np.full(nring, 2 * m)
    counts[0] = m
    band = np.repeat(ring_bands, counts).astype(np.uint8)
    boundary = np.arange(1 + (nring - 1) * m, 1 + nring * m, dtype=np.uint32)
    return vertices, triangles, _REGION_OF_BAND[band], band, boundary


def _ring_mesh(ring_points, ring_bands, circles, n_circular):
    """Mesh of _assemble_rings' arrays whose first n_circular rings are circles."""
    nring, m = ring_points.shape[:2]
    return Mesh(*_assemble_rings(ring_points, ring_bands), circles,
                RingLayout(m, nring, n_circular))


def _azimuth_count(radii, size, minimum=16):
    need = (2 * np.pi * radii / size(radii)).max()
    return max(minimum, 8 * int(round(need / 8)))


def _check_sizes(h_interface, h_far):
    # written so that a NaN size fails too
    if not (h_interface > 0 and h_far > 0):
        raise MeshError(f"need h_interface > 0 and h_far > 0, got {h_interface} and {h_far}")


def build_square_mesh(r0, r_inner, r_outer, h_interface, h_far):
    """Mesh of the square (-1,1)^2 conforming to the three mollifier circles.

    Azimuthal resolution is set at the nominal circle; radial rings follow
    the graded size field; template rings blend the outer circle into the
    square boundary.
    """
    if not (0 < r_inner < r0 < r_outer < 1.0):
        raise MeshError("need 0 < r_inner < r0 < r_outer < 1")
    _check_sizes(h_interface, h_far)
    size = lambda rho: _size_field(rho, r0, h_interface, h_far)
    radii = _ring_radii([r_inner, r0, r_outer], size)
    m = max(16, 8 * int(round(2 * np.pi * r0 / h_interface / 8)))
    circles = (r_inner, r0, r_outer)
    unit, ring_points, ring_bands = _rings(radii, m, circles)

    # template corner fill: interpolate radially towards the square boundary,
    # the last ring exactly on the square
    square = unit / np.maximum(np.abs(unit[:, 0]), np.abs(unit[:, 1]))[:, None]
    mean_gap = np.mean(np.hypot(square[:, 0], square[:, 1])) - r_outer
    n_fill = max(2, int(round(mean_gap / h_far)))
    s = np.linspace(0.0, 1.0, n_fill + 1)[1:-1, None, None]
    fill = (1 - s) * r_outer * unit + s * square
    ring_points = np.concatenate([ring_points, fill, square[None]])
    ring_bands = np.concatenate([ring_bands, np.full(n_fill, BAND_FAR)])
    return _ring_mesh(ring_points, ring_bands, circles, len(radii))


def build_disk_mesh(r0, r_inner, R, pml_thickness, h_interface, h_far):
    """Polar mesh of the disk of radius R (+ absorbing annulus if requested).

    The mollifier support is taken to end at R, matching the transmission
    problem setup; rings land exactly on r_inner, r0, R and R+thickness.
    The absorbing annulus uses radial spacing min(h_far, thickness/10).
    """
    if not (0 < r_inner < r0 < R):
        raise MeshError("need 0 < r_inner < r0 < R")
    if pml_thickness < 0:
        raise MeshError("pml_thickness must be >= 0")
    _check_sizes(h_interface, h_far)
    pml = pml_thickness > 0
    pml_h = min(h_far, pml_thickness / 10) if pml else None
    # wave meshes bound every edge (diagonals included) by the size field,
    # so quad legs stay a factor sqrt(2) below it; a plain disk keeps legs
    # at the field value
    shrink = np.sqrt(2.0) if pml else 1.0
    size = lambda rho: _size_field(rho, r0, h_interface, h_far,
                                   R if pml else None, pml_h) / shrink
    anchors = [r_inner, r0, R] + ([R + pml_thickness] if pml else [])
    radii = _ring_radii(anchors, size)
    m = _azimuth_count(radii, size)
    _, ring_points, ring_bands = _rings(radii, m, (r_inner, r0, R),
                                        R if pml else None)
    circles = (r_inner, r0, R) + ((R + pml_thickness,) if pml else ())
    return _ring_mesh(ring_points, ring_bands, circles, len(radii))


def check_mesh(mesh, tol=1e-12):
    """Verify orientation, conformity, tags, circle alignment and the ring
    layout, when the mesh records one.

    Raises MeshError on the first violation, otherwise returns a stats
    dictionary (counts, area total, minimum angle, edge length range).
    """
    areas = mesh.areas()
    if areas.min() <= 0:
        raise MeshError(f"non-positive triangle area: min {areas.min():.3e}")

    if np.unique(mesh.triangles.ravel()).size != mesh.n_vertices:
        raise MeshError("mesh has unreferenced vertices")
    rounded = np.round(mesh.vertices / max(tol, 1e-15))
    if np.unique(rounded, axis=0).shape[0] != mesh.n_vertices:
        raise MeshError("duplicate vertices")

    tris = np.asarray(mesh.triangles, dtype=np.int64)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    edges.sort(axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    if counts.max() > 2:
        raise MeshError("edge shared by more than two triangles")
    once = uniq[counts == 1]
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[mesh.boundary] = True
    if not np.all(on_boundary[once].all(axis=1)):
        raise MeshError("interior edge with a single adjacent triangle")

    rho = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    for c in mesh.circles:
        side = np.zeros(mesh.n_vertices, dtype=np.int8)
        side[rho > c + tol] = 1
        side[rho < c - tol] = -1
        tri_sides = side[tris]
        if np.any((tri_sides.max(axis=1) == 1) & (tri_sides.min(axis=1) == -1)):
            raise MeshError(f"triangle straddles the circle of radius {c}")

    if mesh.rings is not None:
        m, count, circular = mesh.rings
        if (mesh.n_vertices != 1 + count * m
                or not np.array_equal(mesh.triangles, _ring_triangles(count, m))):
            raise MeshError("vertices are not numbered ring by ring")
        if not np.array_equal(mesh.boundary, np.arange(1 + (count - 1) * m, 1 + count * m)):
            raise MeshError("the boundary is not the last ring")
        theta = 2 * np.pi * np.arange(m) / m
        points = mesh.vertices[1:].reshape(count, m, 2)
        # vertex (k, i) lies on the ray at azimuth theta_i
        cs, sn = np.cos(theta), np.sin(theta)
        along = points[..., 0] * cs + points[..., 1] * sn
        across = points[..., 1] * cs - points[..., 0] * sn
        scale = max(1.0, rho.max())
        if along.min() <= 0 or np.abs(across).max() > tol * scale:
            raise MeshError("a ring vertex is off its azimuth")
        radii = rho[1:].reshape(count, m)[:circular]
        if circular and np.ptp(radii, axis=1).max() > tol * scale:
            raise MeshError("a ring called a circle has more than one radius")

    # band tags must be consistent with centroid radii
    cen = mesh.vertices[mesh.triangles].mean(axis=1)
    cen_rho = np.hypot(cen[:, 0], cen[:, 1])
    limits = {BAND_CORE: (0.0, mesh.circles[0]),
              BAND_INNER: (mesh.circles[0], mesh.circles[1]),
              BAND_OUTER: (mesh.circles[1], mesh.circles[2]),
              BAND_FAR: (mesh.circles[2], np.inf)}
    if len(mesh.circles) > 3:
        limits[BAND_PML] = (mesh.circles[2], mesh.circles[3])
    for bval, (lo, hi) in limits.items():
        sel = mesh.band == bval
        if np.any(sel) and (cen_rho[sel].min() < lo - 1e-9 or
                            cen_rho[sel].max() > hi + 1e-9):
            raise MeshError(f"band tag {bval} inconsistent with centroid radius")

    v = mesh.vertices[mesh.triangles]
    e = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 1], v[:, 0] - v[:, 2]])
    lengths = np.hypot(e[..., 0], e[..., 1])
    # law of cosines per corner
    la, lb, lc = lengths[0], lengths[1], lengths[2]
    angles = []
    for x, y, z in ((la, lb, lc), (lb, lc, la), (lc, la, lb)):
        cosv = np.clip((y**2 + z**2 - x**2) / (2 * y * z), -1, 1)
        angles.append(np.arccos(cosv))
    min_angle = np.minimum.reduce(angles).min()

    return {
        "n_vertices": mesh.n_vertices,
        "n_triangles": mesh.n_triangles,
        "total_area": float(areas.sum()),
        "min_angle_deg": float(np.degrees(min_angle)),
        "edge_min": float(lengths.min()),
        "edge_max": float(lengths.max()),
    }
