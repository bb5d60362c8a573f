"""Random interface geometry and the mollified radial domain mapping.

A star-shaped interface around the origin is parametrized in polar
coordinates by a truncated trigonometric expansion

    r(y; phi) = r0 + sum_j b_j y_j psi_j(phi),    y in [-1, 1]^d,

with psi_j(phi) = sin(((j+1)/2) phi) for odd j and cos((j/2) phi) for even
j, and pairwise-equal amplitudes b_{2j-1} = b_{2j} = c r0 j^(-p).  The
mapping Phi sends the nominal configuration (interface = circle of radius
r0) to the perturbed one by displacing points radially,

    Phi(y; xh) = xh + chi(|xh|) (r(y; phih) - r0) xh / |xh|,

where chi is a piecewise linear mollifier supported on [r_inner, r_outer].
Phi preserves angles, is the identity outside the mollifier support, and
is a bijection whenever the perturbation amplitude stays below the
distances from r0 to the mollifier cutoffs.

The series is evaluated without sines or cosines: at z = exp(i phi) it is
Re sum_k w_k z^k with w_k linear in y, and the powers z^k follow from
complex products.  The map functions take z = (x1 + i x2)/|x| from the
points themselves, so a sample costs no angle and no transcendental call.
rotated_series sums it at P points and their m rotations by 2 pi a / m,
from tables built once (rotation_tables), as one matmul; the assembly's
mollifier band reads it there.

In the polar frame Q = [e_rho, e_phi] the Jacobian is upper triangular,
DPhi = Q [[g, m01], [0, m11]] Q^T, detDPhi = g m11 and Phi is the points
times m11; map_jacobian forms DPhi from these polar factors (polar_jacobian).
"""

import numpy as np

# chi-branch tags used for one-sided derivative evaluation at the three
# mollifier breakpoint circles.
BAND_CORE = 0    # rho <= r_inner, identity
BAND_INNER = 1   # r_inner <= rho <= r0, chi rising
BAND_OUTER = 2   # r0 <= rho <= r_outer, chi falling
BAND_FAR = 3     # rho >= r_outer, identity
BAND_PML = 4     # absorbing annulus (disk meshes), identity


class GeometryError(ValueError):
    """Invalid interface model, mapping parameters, or evaluation point."""


def basis(j, phi):
    """Evaluate psi_j: sin(((j+1)/2) phi) for odd j, cos((j/2) phi) for even j."""
    if j < 1:
        raise GeometryError(f"basis index must be >= 1, got {j}")
    phi = np.asarray(phi, dtype=float)
    k = (j + 1) // 2
    return np.sin(k * phi) if j % 2 == 1 else np.cos(k * phi)


class InterfaceModel:
    """Nominal radius r0 plus a d-term random trigonometric perturbation.

    Amplitudes decay as b_{2j-1} = b_{2j} = c r0 j^(-p).  The worst-case
    perturbation of the radius over y in [-1,1]^d and all angles is
    amplitude() = sqrt(2) sum_j b_{2j}; the constructor requires it to stay
    at or below r0/2 so the perturbed radius never drops under r0/2.
    """

    def __init__(self, r0, d, p, c):
        if r0 <= 0:
            raise GeometryError(f"r0 must be positive, got {r0}")
        if d < 2 or d % 2 != 0:
            raise GeometryError(f"d must be even and >= 2, got {d}")
        if p < 1:
            raise GeometryError(f"decay exponent p must be >= 1, got {p}")
        if c < 0:
            raise GeometryError(f"amplitude factor c must be >= 0, got {c}")
        self.r0 = float(r0)
        self.d = int(d)
        self.p = float(p)
        self.c = float(c)
        pair = c * r0 * np.arange(1, d // 2 + 1, dtype=float) ** (-float(p))
        self.b = np.repeat(pair, 2)
        if self.amplitude() > r0 / 2 + 1e-12:
            raise GeometryError(
                f"perturbation amplitude {self.amplitude():.6g} exceeds r0/2 = {r0 / 2:.6g}"
            )

    def amplitude(self):
        """Upper bound for max_{y,phi} |r(y;phi) - r0| (exact per pair)."""
        return float(np.sqrt(2.0) * self.b[1::2].sum())

    def __repr__(self):
        return f"InterfaceModel(r0={self.r0}, d={self.d}, p={self.p}, c={self.c})"


def max_shape_variation(model):
    """Worst-case relative interface displacement, sqrt(2)/r0 * sum_j b_{2j}."""
    return model.amplitude() / model.r0


def _weights(model, y):
    """(w_k, i k w_k), (2, d/2), of a sample y checked for shape and range:
    the series is Re sum_k w_k z^k and its angular derivative Re sum_k i k w_k
    z^k, with w_k = c_k - i s_k (c_k multiplies cos(k phi), s_k sin(k phi))."""
    y = np.asarray(y, dtype=float)
    if y.shape != (model.d,):
        raise GeometryError(f"sample shape {y.shape} does not match d={model.d}")
    if np.abs(y).max() > 1.0 + 1e-12:
        raise GeometryError("sample entries must lie in [-1, 1]")
    w = model.b[1::2] * y[1::2] - 1j * (model.b[0::2] * y[0::2])
    return np.array([w, 1j * np.arange(1, w.size + 1) * w])


def _powers(z, n):
    """Powers z^1 ... z^n, (n, z.size), of complex numbers z, by doubling products."""
    powers = np.empty((n, np.size(z)), dtype=complex)
    powers[0] = np.ravel(z)
    done = 1
    while done < n:
        step = min(done, n - done)
        powers[done:done + step] = powers[:step] * powers[done - 1]
        done += step
    return powers


def _series(model, y, z, derivative=True):
    """r - r0 and dr/dphi at unit complex numbers z = exp(i phi), any shape;
    r - r0 alone with derivative=False."""
    series = (_weights(model, y)[:1 + derivative] @ _powers(z, model.d // 2)).real
    series = series.reshape(-1, *np.shape(z))
    return series if derivative else series[0]


def rotation_tables(z, m, n):
    """rotated_series' tables for unit complex numbers z, m rotations and n =
    d/2 terms: powers z.shape + (n,), z^k, and omega (2 n, m), e^(2 pi i k a /
    m) with the real and imaginary part of each k in two rows, k a reduced mod
    m so that any k is exact."""
    omega = np.exp(2j * np.pi * (np.outer(np.arange(1, n + 1), np.arange(m)) % m) / m)
    omega = np.stack([omega.real, omega.imag], axis=1).reshape(-1, m)
    return np.ascontiguousarray(_powers(z, n).T.reshape(*np.shape(z), n)), omega


def rotated_series(model, y, powers, omega):
    """r - r0 and dr/dphi, (2, *z.shape, m), at z e^(2 pi i a / m) for the
    unit complex numbers z of rotation_tables and a = 0 ... m - 1: Re sum_k
    (w_k z^k) e^(2 pi i k a / m) and the same with i k w_k, the real part of
    one complex matmul, taken as one real matmul."""
    # conj(a) as floats holds Re a_k, -Im a_k in turn
    a = np.conj(_weights(model, y)[:, None] * powers.reshape(-1, powers.shape[-1]))
    return (a.view(float) @ omega).reshape(2, *powers.shape[:-1], omega.shape[1])


def radius(model, y, phi):
    """Perturbed interface radius r(y; phi); phi may be an array."""
    return model.r0 + _series(model, y, np.exp(1j * np.asarray(phi, dtype=float)), False)


class DomainMap:
    """Mollified radial map between the nominal and perturbed configurations.

    r_inner < r0 and r_outer > r0 bound the support of the mollifier

        chi(rho) = (rho - r_inner)/(r0 - r_inner)   on [r_inner, r0)
                 = (r_outer - rho)/(r_outer - r0)   on [r0, r_outer)
                 = 0                                elsewhere.

    Bijectivity of the map requires amplitude < min(r0 - r_inner,
    r_outer - r0), checked here once instead of per evaluation.
    """

    def __init__(self, model, r_inner=None, r_outer=None):
        self.model = model
        r0 = model.r0
        self.r_inner = r0 / 4 if r_inner is None else float(r_inner)
        self.r_outer = 1.75 * r0 if r_outer is None else float(r_outer)
        if not (0 < self.r_inner < r0 < self.r_outer):
            raise GeometryError(
                f"need 0 < r_inner < r0 < r_outer, got {self.r_inner}, {r0}, {self.r_outer}"
            )
        if self.r_outer < 1.5 * r0:
            raise GeometryError(f"r_outer must be >= 1.5*r0, got {self.r_outer}")
        slack = min(r0 - self.r_inner, self.r_outer - r0)
        if model.amplitude() >= slack:
            raise GeometryError(
                f"amplitude {model.amplitude():.6g} >= mollifier slack {slack:.6g}; map not bijective"
            )

    @property
    def r0(self):
        return self.model.r0

    def __repr__(self):
        return f"DomainMap({self.model!r}, r_inner={self.r_inner}, r_outer={self.r_outer})"


def mollifier(dm, rho):
    """Piecewise linear mollifier chi(rho), continuous, chi(r0) = 1."""
    rho = np.asarray(rho, dtype=float)
    up = (rho - dm.r_inner) / (dm.r0 - dm.r_inner)
    down = (dm.r_outer - rho) / (dm.r_outer - dm.r0)
    # the rising branch is the smaller one below r0 and the falling one
    # above, and outside the support the smaller one is negative
    return np.maximum(np.minimum(up, down), 0.0)


def mollifier_slope(dm, rho, band):
    """One-sided slope chi'(rho) on the branch selected by band."""
    rho = np.asarray(rho, dtype=float)
    band = np.asarray(band)
    slope = np.where(band == BAND_INNER, 1.0 / (dm.r0 - dm.r_inner), 0.0)
    return np.where(band == BAND_OUTER, -1.0 / (dm.r_outer - dm.r0), slope)


def band_of(dm, rho, tol=1e-12):
    """Classify radii into chi branches; rejects radii on a breakpoint circle.

    Mesh-aware callers should pass their own per-triangle band instead; this
    helper serves free points only.
    """
    rho = np.asarray(rho, dtype=float)
    for circle in (dm.r_inner, dm.r0, dm.r_outer):
        if np.any(np.abs(rho - circle) <= tol):
            raise GeometryError(
                "point on a mollifier breakpoint circle; pass an explicit band"
            )
    band = np.full(rho.shape, BAND_FAR, dtype=np.uint8)
    band[rho < dm.r_outer] = BAND_OUTER
    band[rho < dm.r0] = BAND_INNER
    band[rho < dm.r_inner] = BAND_CORE
    return band


def _radial_scale(dm, y, points, rho, chi):
    """Factor 1 + chi (r - r0) / rho by which Phi scales points off the origin."""
    shift = _series(dm.model, y, (points[..., 0] + 1j * points[..., 1]) / rho, False)
    return 1.0 + chi * shift / rho


def map_forward(dm, y, points):
    """Apply Phi(y; .) to points of shape (..., 2).

    Bit-exact identity wherever chi vanishes (inside r_inner, outside
    r_outer), so far-field nodes are never perturbed by roundoff.
    """
    points = np.asarray(points, dtype=float)
    rho = np.hypot(points[..., 0], points[..., 1])
    chi = mollifier(dm, rho)
    move = chi != 0.0
    if move.all():
        return points * _radial_scale(dm, y, points, rho, chi)[..., None]
    scale = np.ones_like(rho)
    if move.any():
        scale[move] = _radial_scale(dm, y, points[move], rho[move], chi[move])
    return points * scale[..., None]


def _band_factors(dm, y, points, rho, band):
    """Polar factors (cos, sin, g, m01, m11) of DPhi at points (n, 2) that
    all lie in a chi band."""
    if np.any(rho <= 0):
        raise GeometryError("Jacobian undefined at the origin")
    cs, sn = points[:, 0] / rho, points[:, 1] / rho
    shift, dr = _series(dm.model, y, cs + 1j * sn)
    chi = mollifier(dm, rho)
    g_rho = 1.0 + mollifier_slope(dm, rho, band) * shift
    m01 = chi * dr / rho
    m11 = 1.0 + chi * shift / rho
    return cs, sn, g_rho, m01, m11


def polar_jacobian(cs, sn, g_rho, m01, m11):
    """Q @ [[g_rho, m01], [0, m11]] @ Q.T, with Q the rotation by phi, as (n, 2, 2)."""
    cc, ss, csn = cs * cs, sn * sn, cs * sn
    skew = (g_rho - m11) * csn
    jac = np.stack([g_rho * cc - m01 * csn + m11 * ss, skew + m01 * cc,
                    skew - m01 * ss, g_rho * ss + m01 * csn + m11 * cc], axis=-1)
    return jac.reshape(-1, 2, 2)


def map_jacobian(dm, y, points, band=None):
    """Jacobian DPhi(y; .) at points of shape (n, 2), returned as (n, 2, 2).

    In the frame (e_rho, e_phi) the Jacobian is upper triangular with
    diagonal g = 1 + chi'(rho)(r - r0) and m11 = 1 + chi(rho)(r - r0)/rho
    (the mapped radius over rho) and off-diagonal m01 = chi(rho) r'(phi)/rho,
    so detDPhi = g m11 > 0 exactly when both factors are positive.  The chi'
    branch at a breakpoint circle is ambiguous; the band argument selects it
    (mesh region tags provide it), otherwise it is inferred and points
    sitting on a breakpoint are rejected.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rho = np.hypot(points[:, 0], points[:, 1])
    if band is None:
        band = band_of(dm, rho)
    else:
        band = np.broadcast_to(np.asarray(band), rho.shape)
    active = (band == BAND_INNER) | (band == BAND_OUTER)
    if active.all():
        factors = _band_factors(dm, y, points, rho, band)
    else:
        factors = (np.ones_like(rho), np.zeros_like(rho), np.ones_like(rho),
                   np.zeros_like(rho), np.ones_like(rho))
        if active.any():
            moved = _band_factors(dm, y, points[active], rho[active], band[active])
            for full, part in zip(factors, moved):
                full[active] = part
    return polar_jacobian(*factors)


def map_inverse(dm, y, points):
    """Invert Phi(y; .) at points of shape (..., 2), ray by ray.

    Along each ray the mapped radius g(rhoh) = rhoh + chi(rhoh)(r - r0) is
    strictly increasing and linear on each chi branch, with g(r0) = r.  A
    target radius below r is inverted on the rising branch, any other on the
    falling one, each with one division.
    """
    points = np.asarray(points, dtype=float)
    shape = points.shape
    pts = points.reshape(-1, 2)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    scale = np.ones_like(rho)

    # outside the support g is the identity
    inside = (rho > dm.r_inner) & (rho < dm.r_outer)
    if np.any(inside):
        target = rho[inside]
        shift = _series(dm.model, y, (pts[inside, 0] + 1j * pts[inside, 1]) / target,
                        False)
        up, down = dm.r0 - dm.r_inner, dm.r_outer - dm.r0
        nominal = np.where(target < dm.r0 + shift,
                           (up * target + dm.r_inner * shift) / (up + shift),
                           (down * target - dm.r_outer * shift) / (down - shift))
        scale[inside] = nominal / target
    return (pts * scale[:, None]).reshape(shape)


def kink_hyperplane(dm, x0):
    """Parameter-space hyperplane where the interface crosses the point x0.

    The interface passes through x0 exactly when sum_j b_j psi_j(phi0) y_j
    = |x0| - r0, an affine equation in y.  Returns (normal, offset), or
    None when the hyperplane misses [-1, 1]^d entirely.
    """
    x0 = np.asarray(x0, dtype=float)
    rho0 = float(np.hypot(x0[0], x0[1]))
    if rho0 == 0.0:
        raise GeometryError("kink hyperplane undefined at the origin")
    phi0 = float(np.arctan2(x0[1], x0[0]))
    normal = np.array([dm.model.b[j - 1] * float(basis(j, phi0))
                       for j in range(1, dm.model.d + 1)])
    offset = rho0 - dm.r0
    if abs(offset) > np.abs(normal).sum():
        return None
    return normal, offset
