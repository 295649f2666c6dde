"""Constant-mean-curvature-1-type surfaces in hyperbolic space.

Minimal surfaces come from meromorphic data (g, omega) through the
quaternionic representation df = (i - jg) omega j (i - jg) / 2; the
spectral family deforms them into cmc surfaces of hyperbolic space (the
half-space sits inside Im H with boundary plane Cj and height along i);
a second representation produces the cmc surface directly as a Darboux
transform of its boundary map -jg.  Certification is cross-route: an
independent Euclidean half-space oracle measures the hyperbolic mean
curvature, and the central-sphere congruence metric is checked against
the Liouville equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryContact,
    DegenerateTangent,
    FrameUnavailable,
    InitialOnBoundary,
    MaskedNeighbor,
    MaskedRegion,
    NotClosed,
    PatternMismatch,
    UmbilicRegion,
)
from .grid import (
    _D2_4,
    _along,
    _connection_planes,
    _path_scan,
    FrameField,
    GridSpec,
    QField,
    QForm1,
    diff_axis4,
    dilate_invalid,
    grid_tolerance,
    integrate_form,
    integrate_frame,
    laplacian,
    sample_on_grid,
)
from .quaternion import (
    INFINITY,
    _dot,
    _pair_entry,
    _pair_floats,
    cj,
    dot3,
    lorentz,
    moebius_act,
    point_form,
    qconj,
    qinv_masked,
    qmul,
    qnorm,
    qnormsq,
)
from .surfaces import (
    EPS_IMMERSION,
    PolarizedSurface,
    SurfaceJets,
    fundamental_forms,
    surface_jets,
)
from .transforms import (
    V0,
    FrameConnection,
    canonical_connection,
    darboux_via_connection,
    t_transform,
    t_transform_via_connection,
)

#: height above the boundary plane below which a point counts as on it
EPS_HEIGHT = 1e-6

#: largest deviation of II from dx^2 - dy^2 that a Ribaucour frame accepts
PATTERN_TOL = 1e-2


# ---------------------------------------------------------------------------
# Weierstrass data
# ---------------------------------------------------------------------------

@dataclass
class WeierstrassData:
    """Meromorphic data (g, omega = w dz) sampled on a grid.

    dg may be supplied analytically; otherwise it is differentiated from the
    g samples.  cr_residual reports the discrete Cauchy-Riemann defect of
    both g and w (the holomorphy certificate).
    """

    grid: GridSpec
    g: np.ndarray  # complex (ny, nx)
    w: np.ndarray  # complex (ny, nx)
    dg: np.ndarray = None  # complex (ny, nx), dg/dz

    def __post_init__(self):
        self.g = np.ascontiguousarray(self.g, dtype=complex)
        self.w = np.ascontiguousarray(self.w, dtype=complex)
        if self.dg is None:
            gx, gy = (diff_axis4(self.g, self.grid.h, axis) for axis in (1, 0))
            self.dg = 0.5 * (gx - 1j * gy)
        else:
            self.dg = np.asarray(self.dg, dtype=complex)

    @classmethod
    def sample(cls, grid, g_fn, w_fn, dg_fn=None):
        """Sample array callables fn(grid.zgrid()) -> complex (ny, nx); constants broadcast."""
        g = sample_on_grid(grid, g_fn, dtype=complex)
        w = sample_on_grid(grid, w_fn, dtype=complex)
        dg = sample_on_grid(grid, dg_fn, dtype=complex) if dg_fn else None
        return cls(grid, g, w, dg)

    def cr_residual(self):
        """Max discrete dbar defect of g and w, relative to field scale."""
        out = []
        sel = dilate_invalid(self.grid.valid(), rings=2)
        for arr in (self.g, self.w):
            dx, dy = (diff_axis4(arr, self.grid.h, axis) for axis in (1, 0))
            dbar = 0.5 * (dx + 1j * dy)
            scale = max(
                1e-300,
                float(np.abs(dx[sel]).max()),
                float(np.abs(dy[sel]).max()),
                float(np.abs(arr[sel]).max()),
            )
            out.append(np.abs(dbar[sel]).max() / scale)
        return float(np.max(out))  # a NaN in either field propagates

    def check_holomorphic(self):
        tau = grid_tolerance(self.grid)
        res = self.cr_residual()
        if not res <= tau:
            raise NotClosed(f"Cauchy-Riemann residual {res:.3e} exceeds {tau:.3e}")


def _q1_field(g):
    """The field i - jg with components (0, 1, -Re g, Im g)."""
    g = np.asarray(g)
    out = np.zeros(g.shape + (4,))
    out[..., 1] = 1.0
    out[..., 2] = -g.real
    out[..., 3] = g.imag
    return out


def weierstrass_form(data: WeierstrassData) -> QForm1:
    """The minimal-surface integrand (i - jg) omega j (i - jg) / 2.

    Raises DegenerateTangent where it overflows the float range.
    """
    q1 = _q1_field(data.g)
    try:
        with np.errstate(over="raise", invalid="raise"):
            px = 0.5 * qmul(q1, qmul(cj(data.w), q1))
            py = 0.5 * qmul(q1, qmul(cj(1j * data.w), q1))
    except FloatingPointError:
        raise DegenerateTangent("Weierstrass form overflows at grid spacing "
                                f"{data.grid.h:.3e}") from None
    return QForm1(data.grid, px, py)


def weierstrass_minimal(data: WeierstrassData) -> PolarizedSurface:
    """Minimal surface with the given meromorphic data, pinned at f = 0 at the
    centre node."""
    data.check_holomorphic()
    p0 = data.grid.center_node()
    form = weierstrass_form(data)
    try:
        with np.errstate(over="raise"):
            peak = float(qnorm(form.px)[data.grid.valid()].max())
    except FloatingPointError:
        raise DegenerateTangent("Weierstrass form overflows at grid spacing "
                                f"{data.grid.h:.3e}") from None
    if peak < EPS_IMMERSION:
        raise DegenerateTangent("omega vanishes: the data does not immerse")
    f = integrate_form(form, p0, np.zeros(4))
    return PolarizedSurface(f, "dz2", ("weierstrass_minimal",))


def stereographic(values):
    """Stereographic projection of (..., 4) points of the boundary plane Cj
    onto the unit sphere.

    x -> -i - 2 (i + x)^-1; never singular since |i + x|^2 = 1 + |x|^2.
    """
    i_plus = np.array(values, dtype=float, copy=True)
    i_plus[..., 1] += 1.0
    inv = qconj(i_plus) / qnormsq(i_plus)[..., None]
    out = -2.0 * inv
    out[..., 1] -= 1.0
    return out


def gauss_sphere_map(data: WeierstrassData):
    """Unit-sphere Gauss map (i - jg) i (i - jg)^-1 of the minimal surface."""
    q1 = _q1_field(data.g)
    i_arr = np.zeros_like(q1)
    i_arr[..., 1] = 1.0
    inv = qconj(q1) / qnormsq(q1)[..., None]
    return qmul(q1, qmul(i_arr, inv))


# ---------------------------------------------------------------------------
# cmc surfaces
# ---------------------------------------------------------------------------

@dataclass
class CmcSurface:
    """Surface in the half-space model (boundary plane Cj, height along i).

    lam is the construction parameter: the ambient sectional curvature is
    -4 lam^2 and |mean curvature| = 2 |lam|.
    """

    f: QField
    lam: float
    gauss_hyperbolic: QField
    route: str

    @property
    def grid(self):
        return self.f.grid


def darboux_weierstrass(data: WeierstrassData, lam: float, v0=V0) -> CmcSurface:
    """cmc surface as a Darboux transform of its boundary map -jg.

    Integrates the linear system dv1 = -lam omega j v2, dv2 = j dg v1 and
    returns f = -jg + v2 v1^-1; requires the initial point off the boundary
    plane.
    """
    data.check_holomorphic()
    v0 = np.asarray(v0, dtype=float)
    off0, ok0 = _off_boundary(v0[None, None])
    if not ok0[0, 0] or abs(off0[0, 0, 1]) < EPS_HEIGHT:
        raise InitialOnBoundary("v2 v1^-1 must start off the plane Cj")
    conn = boundary_connection(data)
    prov = (f"darboux_weierstrass({lam})",)
    result = darboux_via_connection(conn, lam, v0, "dz2", prov)
    base = boundary_surface(data)
    return CmcSurface(result.surface.f, lam, base.f, "darboux-weierstrass")


def _off_boundary(v):
    inv, ok = qinv_masked(v[..., 0, :])
    return qmul(v[..., 1, :], inv), ok


def boundary_surface(data: WeierstrassData) -> PolarizedSurface:
    """The boundary map -jg as a polarized surface (the hyperbolic Gauss map)."""
    vals = cj(-np.conj(data.g))
    return PolarizedSurface(QField(data.grid, vals), "dzbar2", ("boundary(-jg)",))


def boundary_connection(data: WeierstrassData) -> FrameConnection:
    """Canonical connection of -jg with the analytic dual form omega j.

    The pair (-jg, integral of omega j) is a Christoffel pair for the
    polarization omega dg, so the dual form is available without numerical
    integration.
    """
    cform = QForm1(data.grid, cj(data.w), cj(1j * data.w))
    return canonical_connection(boundary_surface(data), cform)


def bryant_system(data: WeierstrassData, lam: float, f0=np.zeros(4), fh0=(1.0, 0.0, 0.0, 0.0)):
    """Integrate the coupled first-order system of the perturbed representation.

    d f = fh * [(i - jg) omega j (i - jg) / 2]
    d fh = f * [-2 lam (i - jg)^-1 j dg (i - jg)^-1]

    Both components are quaternion-valued scalars (a row of a spectral
    frame), not points of Im H; see bryant_candidates for the projections
    compared against the unambiguous routes.
    """
    frame = _bryant_frame(data, lam, f0, fh0)
    return QField(data.grid, frame[..., 0, 0, :]), QField(data.grid, frame[..., 0, 1, :])


def _bryant_frame(data, lam, f0, fh0):
    """Frame of the coupled system, F = [[f0, fh0], [1, 0]] at the centre node:
    its first row is the pair (f, fh) of bryant_system, its second the
    companion row."""
    data.check_holomorphic()
    grid = data.grid
    p0 = grid.center_node()
    alpha = weierstrass_form(data)
    q1 = _q1_field(data.g)
    q1_inv = -q1 / (1.0 + np.abs(data.g) ** 2)[..., None]
    jdg_x = cj(np.conj(data.dg))
    jdg_y = cj(np.conj(1j * data.dg))
    beta_x = -2.0 * lam * qmul(q1_inv, qmul(jdg_x, q1_inv))
    beta_y = -2.0 * lam * qmul(q1_inv, qmul(jdg_y, q1_inv))
    shape = (grid.ny, grid.nx, 2, 2, 4)
    phi_x = np.zeros(shape)
    phi_y = np.zeros(shape)
    phi_x[..., 1, 0, :] = alpha.px
    phi_y[..., 1, 0, :] = alpha.py
    phi_x[..., 0, 1, :] = beta_x
    phi_y[..., 0, 1, :] = beta_y
    frame0 = np.zeros((2, 2, 4))
    frame0[0] = (f0, fh0)
    frame0[1, 0, 0] = 1.0
    return integrate_frame(phi_x, phi_y, grid, frame0, p0).values


def bryant_candidates(f_lam: QField, fh_lam: QField):
    """Candidate readings of the coupled-system output as a surface.

    "component": the first component taken verbatim; "ratio": the
    homogeneous reading f * fh^-1 of the row (f, fh).
    """
    inv, ok = qinv_masked(fh_lam.values)
    ratio = qmul(f_lam.values, inv)
    grid = f_lam.grid.merge_mask(ok)
    return {
        "component": f_lam,
        "ratio": QField(grid, ratio),
    }


# ---------------------------------------------------------------------------
# half-space mean curvature oracle
# ---------------------------------------------------------------------------

def mean_curvature_hyperbolic(f: QField, lam: float):
    """Hyperbolic mean curvature via the independent half-space oracle.

    Treats f as a Euclidean surface, measures its Euclidean mean curvature
    and unit normal by fourth-order differences, and converts through the
    conformal factor 1/(2|lam| t): H = 2|lam| (t H_e + n_i), with the
    global orientation sign of the normal field left as reported.

    Returns (field, mean, std) over the valid interior; MaskedRegion where
    no valid interior node is left.
    """
    if lam == 0:
        raise ValueError("hyperbolic oracle needs lam != 0")
    grid = f.grid
    heights = f.values[..., 1]
    sel0 = grid.valid()
    empty = MaskedRegion("mean curvature: no valid interior node is left")
    if not sel0.any():
        raise empty
    sign = 1.0 if np.median(heights[sel0]) >= 0 else -1.0
    vals = f.values if sign > 0 else _reflect_i(f.values)
    surf = PolarizedSurface(QField(grid, vals), "dz2")
    ff = fundamental_forms(surf)
    t = vals[..., 1]
    sel = sel0 & ff.valid & grid.interior()
    if not sel.any():
        raise empty
    if (t[sel] < EPS_HEIGHT).any():
        raise BoundaryContact("surface touches the boundary plane")
    h_e = ff.mean_curvature()
    n_i = ff.normal[..., 1]
    field = 2.0 * abs(lam) * (t * h_e + n_i)
    return field, float(field[sel].mean()), float(field[sel].std()), sel


def _reflect_i(values):
    out = np.array(values, copy=True)
    out[..., 1] = -out[..., 1]
    return out


# ---------------------------------------------------------------------------
# spherical type (Liouville) certificate
# ---------------------------------------------------------------------------

def central_sphere_congruence(surface: PolarizedSurface, jets: SurfaceJets | None = None):
    """Unit R^6_1 components of the mean-curvature sphere congruence.

    s = H_e * (point form of f) - (tangent plane form); <s, s> = 1 without
    further normalization, for any mean curvature including H_e = 0.
    Returns six real fields (s11, s22, s12_w, s12_x, s12_y, s12_z).
    """
    jets = jets or surface_jets(surface)
    ff = fundamental_forms(surface, jets)
    h_e = ff.mean_curvature()
    fvals = surface.f.values
    n = jets.normal
    s11 = h_e
    s22 = h_e * qnormsq(fvals) + 2.0 * dot3(fvals, n)
    s12 = -(h_e[..., None] * fvals + n)
    comps = np.concatenate([s11[..., None], s22[..., None], s12], axis=-1)
    return comps, ff


def spherical_type_certificate(surface: PolarizedSurface):
    """Liouville-equation residual of the central-sphere-congruence metric.

    The congruence metric is <ds, ds> = e^{-2u}(dx^2 + dy^2) exactly when
    the surface is isothermic of spherical type; the certificate reads u
    from the x-direction coefficient and returns max |Delta u - e^{-2u}|
    over the interior (fourth-order stencils throughout).  Nodes whose
    principal gap is at most 1e-6 max(|H|, 1) count as umbilic and are left
    out.
    """
    jets = surface_jets(surface)
    comps, ff = central_sphere_congruence(surface, jets)
    gap = ff.principal_gap()
    scale = np.maximum(np.abs(ff.mean_curvature()), 1.0)
    not_umbilic = gap > 1e-6 * scale
    if not not_umbilic.any():
        raise UmbilicRegion("surface is umbilic everywhere on the patch")
    h = surface.grid.h
    sx = diff_axis4(comps, h, axis=1)
    sy = diff_axis4(comps, h, axis=0)
    e_s = lorentz(sx, sx)
    ok = e_s > 1e-300
    u = -0.5 * np.log(np.where(ok, e_s, 1.0))
    lap = _along(_D2_4, u, h, 0, None) + _along(_D2_4, u, h, 1, None)
    residual_field = np.abs(lap - np.exp(-2.0 * u))
    # three chained stencil levels (jets, ds, laplacian): an 8-ring margin
    # keeps the reported maximum on centered stencils only
    valid = surface.grid.interior(8) & jets.valid & not_umbilic & ok
    if not valid.any():
        raise UmbilicRegion("no valid non-umbilic interior nodes")
    return u, float(residual_field[valid].max())


# ---------------------------------------------------------------------------
# Ribaucour frames
# ---------------------------------------------------------------------------

def quat_from_rotation(r3):
    """Unit quaternions of (..., 3, 3) rotation matrices (sign per node)."""
    m = np.asarray(r3, dtype=float)
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    tr = m00 + m11 + m22

    def safe_sqrt(x):
        return np.sqrt(np.maximum(x, 0.0))

    w_a = 0.5 * safe_sqrt(1.0 + tr)
    den_a = np.where(w_a > 1e-12, 4.0 * w_a, 1.0)
    cand_a = np.stack(
        [
            w_a,
            (m[..., 2, 1] - m[..., 1, 2]) / den_a,
            (m[..., 0, 2] - m[..., 2, 0]) / den_a,
            (m[..., 1, 0] - m[..., 0, 1]) / den_a,
        ],
        axis=-1,
    )
    x_b = 0.5 * safe_sqrt(1.0 + m00 - m11 - m22)
    den_b = np.where(x_b > 1e-12, 4.0 * x_b, 1.0)
    cand_b = np.stack(
        [
            (m[..., 2, 1] - m[..., 1, 2]) / den_b,
            x_b,
            (m[..., 0, 1] + m[..., 1, 0]) / den_b,
            (m[..., 0, 2] + m[..., 2, 0]) / den_b,
        ],
        axis=-1,
    )
    y_c = 0.5 * safe_sqrt(1.0 - m00 + m11 - m22)
    den_c = np.where(y_c > 1e-12, 4.0 * y_c, 1.0)
    cand_c = np.stack(
        [
            (m[..., 0, 2] - m[..., 2, 0]) / den_c,
            (m[..., 0, 1] + m[..., 1, 0]) / den_c,
            y_c,
            (m[..., 1, 2] + m[..., 2, 1]) / den_c,
        ],
        axis=-1,
    )
    z_d = 0.5 * safe_sqrt(1.0 - m00 - m11 + m22)
    den_d = np.where(z_d > 1e-12, 4.0 * z_d, 1.0)
    cand_d = np.stack(
        [
            (m[..., 1, 0] - m[..., 0, 1]) / den_d,
            (m[..., 0, 2] + m[..., 2, 0]) / den_d,
            (m[..., 1, 2] + m[..., 2, 1]) / den_d,
            z_d,
        ],
        axis=-1,
    )
    choice = np.argmax(np.stack([tr, m00, m11, m22], axis=-1), axis=-1)
    out = np.where(
        (choice == 0)[..., None],
        cand_a,
        np.where(
            (choice == 1)[..., None],
            cand_b,
            np.where((choice == 2)[..., None], cand_c, cand_d),
        ),
    )
    norm = qnorm(out)
    return out / np.where(norm > 1e-300, norm, 1.0)[..., None]


def _sign_scan(lines):
    """Flip in place the sign of each node after the first of quaternion
    lines (m, ..., 4) where its dot product with the node before it, as
    flipped, is below 0.  A flip negates a dot product exactly, so a node's
    sign is the product of the signs of the dot products of the unflipped
    nodes back to the last that is 0 or NaN, where it restarts at +1."""
    dots = _dot(lines[1:], lines[:-1], 0)
    neg = dots < 0
    flips = np.ones(lines.shape[:-1], np.int8)
    flips[1:][neg] = -1
    sign = np.multiply.accumulate(flips, axis=0)
    restart = np.ones(sign.shape, bool)
    restart[1:] = ~(neg | (dots > 0))
    index = np.arange(len(lines)).reshape((-1,) + (1,) * (sign.ndim - 1))
    last = np.maximum.accumulate(np.where(restart, index, 0), axis=0)
    sign *= np.take_along_axis(sign, last, axis=0)
    np.negative(lines, out=lines, where=(sign < 0)[..., None])


def _sign_continuity(r, p0):
    """Flip quaternion signs so the field is continuous along the path scheme."""
    return _path_scan(r, p0, _sign_scan)


class _RibaucourFamily(FrameConnection):
    """The frame [[f r, r], [r, 0]] and its family, stored as f, r, e^u, e^-u,
    u_x and u_y only (see FrameConnection); its slopes are upper.

    Diagonal: ( -u_y i - e^-u k )/2 dx + ( u_x i - e^-u j )/2 dy;
    lower-left psi = e^u (j dx + k dy); slope psi* = e^-u (-j dx + k dy).
    """

    def __init__(self, grid, fvals, spin, u, ux, uy):
        self.grid = grid
        self._parts = fvals, spin, np.exp(u), np.exp(-u), ux, uy

    @property
    def slopes(self):
        out = np.zeros((2, self.grid.ny, self.grid.nx, 4))
        out[0, ..., 2], out[1, ..., 3] = -self._parts[3], self._parts[3]
        return out[0], out[1]

    def frame(self, index):
        fvals, spin = (a[index] for a in self._parts[:2])
        out = np.zeros(spin.shape[:-1] + (2, 2, 4))
        out[..., 0, 0, :] = qmul(fvals, spin)
        out[..., 0, 1, :] = spin
        out[..., 1, 0, :] = spin
        return out

    def phi(self, lam):
        return self._phi(True, lam), self._phi(False, lam)

    def _phi(self, x, lam):
        """phi_x (x) or phi_y, entry by entry as const + lam * slope."""
        _, _, e_u, e_mu, ux, uy = self._parts
        d, o = (3, 2) if x else (2, 3)  # components of the diagonal's e^-u and of psi
        out = np.zeros((self.grid.ny, self.grid.nx, 2, 2, 4))
        for r in (0, 1):
            np.multiply(uy if x else ux, -0.5 if x else 0.5, out=out[..., r, r, 1])
            np.multiply(e_mu, -0.5, out=out[..., r, r, d])
        out[..., 1, 0, o] = e_u
        for entry in ((0, 0, 1), (0, 0, d), (1, 1, 1), (1, 1, d), (1, 0, o)):
            out[(...,) + entry] += lam * 0.0
        np.multiply(-e_mu if x else e_mu, lam, out=out[..., 0, 1, o])
        out[..., 0, 1, o] += 0.0
        return out


def ribaucour_connection(surface: PolarizedSurface) -> FrameConnection:
    """Ribaucour frame family of a minimal surface normalized to II = dx^2 - dy^2.

    Straightens the orthonormal frame (f_x/e^u, f_y/e^u, n) to (j, k, i) by a
    unit quaternion spin field (its sign continued from the base node
    grid.center_node()) and rescales homogeneous coordinates so the
    connection form takes the structured shape (curvature data readable from
    the entries).  Requires <f_xx, n> = +1 to tolerance: the surface must be
    minimal and sampled in conformal curvature-line coordinates with the
    standard polarization.
    """
    grid = surface.grid
    jets = surface_jets(surface)
    ff = fundamental_forms(surface, jets)
    sel = grid.valid() & jets.valid
    e2u = ff.E
    if (e2u[sel] <= 0).any():
        raise DegenerateTangent("metric degenerate inside the patch")
    u = 0.5 * np.log(np.where(sel, e2u, 1.0))
    dev_minimal = float(np.abs(ff.e + ff.g)[sel].max())
    dev_norm = float(np.abs(ff.e - 1.0)[sel].max())
    if dev_norm > PATTERN_TOL:
        if float(np.abs(ff.e + 1.0)[sel].max()) < PATTERN_TOL:
            raise PatternMismatch(
                "surface normalized to the conjugate chart (II_xx = -1); "
                "resample with x and y exchanged"
            )
        raise PatternMismatch(
            f"second fundamental form is not dx^2 - dy^2 (|e - 1| up to {dev_norm:.2e})"
        )
    if dev_minimal > PATTERN_TOL:
        raise PatternMismatch(f"surface is not minimal (|e + g| up to {dev_minimal:.2e})")
    e_u = np.exp(u)
    t1 = jets.fx[..., 1:] / e_u[..., None]
    t2 = jets.fy[..., 1:] / e_u[..., None]
    nrm = jets.normal[..., 1:]
    rot = np.stack([nrm, t1, t2], axis=-1)  # columns: images of (i, j, k)
    spin = _sign_continuity(quat_from_rotation(rot), grid.center_node())
    ux = diff_axis4(u, grid.h, axis=1)
    uy = diff_axis4(u, grid.h, axis=0)
    return _RibaucourFamily(grid, surface.f.values, spin, u, ux, uy)


def family_ribaucour_connection(grid: GridSpec, lam: float) -> FrameConnection:
    """Closed-form Ribaucour connection of the reference minimal family."""
    from . import oracles

    zs = grid.zgrid()
    fvals, spin, (u, dzu) = oracles.family_frame_parts(zs, lam)
    spin = _sign_continuity(spin, grid.center_node())
    return _RibaucourFamily(grid, fvals, spin, u, 2.0 * dzu.real, -2.0 * dzu.imag)


#: the entries (row, column, component) of phi_x and of phi_y that the
#: structured form says vanish
_ZERO_X = ((1, 0, 0), (1, 0, 1), (1, 0, 3), (0, 1, 0), (0, 1, 1), (0, 1, 3), (0, 0, 0),
           (0, 0, 2))
_ZERO_Y = ((1, 0, 0), (1, 0, 1), (1, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 0, 0),
           (0, 0, 3))


def _peak(planes, block):
    """Largest |component| of pair planes (2, 2, 2, m, nx) over the nodes
    block (m, nx), as max(max, -min), which is exact; nan where one is nan."""
    x = _pair_floats(planes)
    if not block.all():
        x = x[..., block, :]
    return np.maximum(x.max(), -x.min())


@dataclass
class RibaucourData:
    """Curvature data read off a structured connection form."""

    u: np.ndarray
    H: np.ndarray
    Hhat: np.ndarray
    lam: np.ndarray
    lamhat: np.ndarray
    valid: np.ndarray
    pattern_residual: float
    gauss_residual: float
    codazzi_residual: float


def ribaucour_data_extract(frame: FrameField) -> RibaucourData:
    """Read (u, H, Hhat, lam, lamhat) from Phi = F^-1 dF by pattern matching.

    Expects Phi = [[D, (lamhat e^u dz - lam e^-u dzbar) j], [e^u dz j, D]]
    with D = (i/2)(*du - (H e^u dz + Hhat e^-u dzbar) j).  Derivatives are
    fourth-order; the off-pattern residual is reported and gates nothing
    except a gross mismatch (e^u must be positive).
    """
    grid = frame.grid
    h = grid.h
    sel = dilate_invalid(grid.valid(), rings=2)
    # residual maxima over nodes whose extraction used centered stencils
    # only; sel lies inside the nodes whose Laplacian is valid
    valid = sel & grid.interior(3)
    if not valid.any():
        raise MaskedNeighbor("curvature data extraction needs a node three rings inside "
                             "the grid whose two rings are valid")

    # per block of grid rows, from Phi's pair planes: the entries the data
    # read, the running maximum of every off-pattern piece but the two that
    # need u's derivatives (a NaN propagates), and the largest |component|
    # of each coefficient over the selected nodes
    shape = (grid.ny, grid.nx)
    eu_x, e_u, x_j, y_k, p_k, q_j, xi, yi = (np.empty(shape) for _ in range(8))
    pattern = np.zeros(shape)
    peaks = np.full(2, -np.inf)
    for rows, phi_x, phi_y in _connection_planes(frame):
        eu_x[rows] = _pair_entry(phi_x, 1, 0, 2)
        e_u[rows] = np.where(eu_x[rows] > 0, eu_x[rows], 1.0)
        for out, phi, entry in ((x_j, phi_x, (0, 1, 2)), (y_k, phi_y, (0, 1, 3)),
                                (p_k, phi_x, (0, 0, 3)), (q_j, phi_y, (0, 0, 2)),
                                (xi, phi_x, (0, 0, 1)), (yi, phi_y, (0, 0, 1))):
            out[rows] = _pair_entry(phi, *entry)
        for phi, zero in ((phi_x, _ZERO_X), (phi_y, _ZERO_Y)):
            for piece in [_pair_entry(phi, *e) for e in zero] + [
                    _pair_entry(phi, 0, 0, c) - _pair_entry(phi, 1, 1, c) for c in range(4)]:
                np.maximum(pattern[rows], np.abs(piece), out=pattern[rows])
        np.maximum(pattern[rows], np.abs(_pair_entry(phi_y, 1, 0, 3) - e_u[rows]),
                   out=pattern[rows])
        if sel[rows].any():
            np.maximum(peaks, [_peak(phi, sel[rows]) for phi in (phi_x, phi_y)], out=peaks)

    if (eu_x[sel] <= 0).any():
        raise PatternMismatch("lower-left entry is not e^u dz j (e^u must be > 0)")
    u = np.log(e_u)
    e_mu = 1.0 / e_u
    lamhat = 0.5 * (x_j + y_k) * e_mu
    lam = 0.5 * (y_k - x_j) * e_u
    big_h = (q_j - p_k) * e_mu
    big_hhat = -(q_j + p_k) * e_u

    scale = 1.0 + max(float(peaks[0]), float(peaks[1]))
    ux = diff_axis4(u, h, axis=1)
    uy = diff_axis4(u, h, axis=0)
    np.maximum(pattern, np.abs(xi + 0.5 * uy), out=pattern)
    np.maximum(pattern, np.abs(yi - 0.5 * ux), out=pattern)
    pattern = float(pattern[sel].max() / scale)

    gauss_field = np.abs(
        laplacian(u, grid)[0] + big_h**2 * np.exp(2 * u) - big_hhat**2 * np.exp(-2 * u)
        - 4.0 * np.exp(2 * u) * lamhat
    )
    gauss = float(gauss_field[valid].max())

    def wirtinger(fld, sign):  # d/dzbar of a real field (sign 1), d/dz (sign -1)
        return 0.5 * (diff_axis4(fld, h, axis=1) + sign * 1j * diff_axis4(fld, h, axis=0))

    cod1 = np.abs(wirtinger(lamhat, 1) * e_u + wirtinger(lam, -1) * e_mu)
    cod2 = np.abs(wirtinger(big_h, 1) * e_u - wirtinger(big_hhat, -1) * e_mu)
    codazzi = float(np.maximum(cod1, cod2)[valid].max())
    return RibaucourData(u, big_h, big_hhat, lam, lamhat, valid, pattern, gauss, codazzi)


# ---------------------------------------------------------------------------
# fundamental forms from frames, isometry check, duality
# ---------------------------------------------------------------------------

def frame_point_forms(frame_values):
    """Surface and central-sphere forms carried by a structured frame.

    Returns (s_f, s_center): s_f is the lightlike form of the first column
    in the frame-fixed scaling, s_center the enveloped unit sphere form:
    the Moebius action of the frame on the point form of infinity and on the
    form (0, 0, i).
    """
    forms = np.array([point_form(INFINITY), [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
    pushed = moebius_act(frame_values[..., None, :, :, :], forms)
    return pushed[..., 0, :], pushed[..., 1, :]


@dataclass
class IsometryReport:
    """Fundamental-form identities of the spectral deformation family."""

    first_deviation: float  # max |I_lam - I_0|
    second_deviation: float  # max |II_lam - (II_0 - 2 lam I_0)|
    mean_curvature: float
    mean_curvature_std: float
    metric_scale: float


def _form_metric(comp_fields, h):
    """(E, F, G) coefficient fields of <d s, d s> for a form field."""
    sx = diff_axis4(comp_fields, h, axis=1)
    sy = diff_axis4(comp_fields, h, axis=0)
    return (
        lorentz(sx, sx),
        lorentz(sx, sy),
        lorentz(sy, sy),
        sx,
        sy,
    )


def umehara_yamada_check(minimal: PolarizedSurface, lam: float) -> IsometryReport:
    """Verify the isometric deformation identities of the spectral family.

    Extracts I and II from the structured frames at parameters 0 and lam
    (I = <d s_f, d s_f>, II = -<d s_f, d t> with t = s + 2 lam s_f the
    tangent-plane congruence in hyperbolic space) and checks I_lam = I_0
    and II_lam = II_0 - 2 lam I_0 nodewise.
    """
    try:
        conn = ribaucour_connection(minimal)
    except PatternMismatch as exc:
        raise FrameUnavailable(f"no structured frame for this surface: {exc}") from None
    grid = conn.grid
    h = grid.h

    def forms(frame_values, lam_t):
        s_f, s_c = frame_point_forms(frame_values)
        t = s_c + 2.0 * lam_t * s_f
        e1, f1, g1, sfx, sfy = _form_metric(s_f, h)
        tx = diff_axis4(t, h, axis=1)
        ty = diff_axis4(t, h, axis=0)
        ii_e = -lorentz(sfx, tx)
        ii_f = -0.5 * (lorentz(sfx, ty) + lorentz(sfy, tx))
        ii_g = -lorentz(sfy, ty)
        return (e1, f1, g1), (ii_e, ii_f, ii_g)

    il, iil = i0, ii0 = forms(conn.frame(...), 0.0)
    if lam != 0:
        phx, phy = conn.phi(lam)
        frame_lam = integrate_frame(phx, phy, grid, conn.frame0_at_p0(), conn.p0).values
        il, iil = forms(frame_lam, lam)
    sel = grid.interior(4)
    scale = float(np.mean(i0[0][sel]))
    first_dev = max(float(np.abs(il[k] - i0[k])[sel].max()) for k in range(3))
    second_dev = max(
        float(np.abs(iil[k] - (ii0[k] - 2.0 * lam * i0[k]))[sel].max()) for k in range(3)
    )
    trace_h = (iil[0] + iil[2]) / np.maximum(il[0] + il[2], 1e-300)
    return IsometryReport(
        first_dev,
        second_dev,
        float(trace_h[sel].mean()),
        float(trace_h[sel].std()),
        scale,
    )


def bryant_surface(data: WeierstrassData, lam: float) -> CmcSurface:
    """Surface and Gauss map assembled from the coupled first-order system.

    The quaternion pair of bryant_system is one component row of rescaled
    homogeneous coordinates; the companion row, with initial (1, 0),
    completes them, and the surface is the ratio of the first components
    (Gauss map: ratio of the second).  Both rows are the rows of one frame.
    """
    grid = data.grid
    frame = _bryant_frame(data, lam, np.zeros(4), (1.0, 0.0, 0.0, 0.0))
    top, bottom = frame[..., 0, :, :], frame[..., 1, :, :]
    inv_f, ok_f = qinv_masked(bottom[..., 0, :])
    inv_h, ok_h = qinv_masked(bottom[..., 1, :])
    surf = QField(grid.merge_mask(ok_f), qmul(top[..., 0, :], inv_f))
    gauss = QField(grid.merge_mask(ok_h), qmul(top[..., 1, :], inv_h))
    return CmcSurface(surf, lam, gauss, "bryant")


@dataclass
class DualPair:
    """A cmc surface, one of its duals, and their minimal cousins."""

    surface: CmcSurface
    dual: CmcSurface
    cousin: PolarizedSurface
    dual_cousin: PolarizedSurface
    ns_connection: FrameConnection  # family of the secondary Gauss map


def dual_cmc(data: WeierstrassData, lam: float, v0_dual=None) -> DualPair:
    """Construct a cmc surface and a dual by exchanging its two Gauss maps.

    The dual is realized through the permutability chain: the secondary
    Gauss map is the spectral transform of the boundary map, and the dual
    is a Darboux transform of it at the opposite parameter (initial data
    v0_dual picks the member of the three-parameter dual family).
    """
    v0 = np.asarray(V0, dtype=float)
    v0_dual = v0 if v0_dual is None else np.asarray(v0_dual, dtype=float)
    conn = boundary_connection(data)

    fres = darboux_via_connection(conn, lam, v0, "dz2", ("dual_cmc.f",))
    base = boundary_surface(data)
    f = CmcSurface(fres.surface.f, lam, base.f, "darboux-weierstrass")

    ns_res = t_transform_via_connection(conn, lam, "dz2", ("dual_cmc.ns",))

    dual_res = darboux_via_connection(ns_res.connection, -lam, v0_dual, "dz2",
                                      ("dual_cmc.dual",))
    dual = CmcSurface(dual_res.surface.f, lam, ns_res.surface.f, "dual")

    # minimal cousins from scratch: the chained families carry the exact
    # initial-condition correspondences but a rescaled spectral parameter,
    # so the cousins use the canonical (grid-polarization) transform of the
    # sampled surfaces
    cousin = t_transform(fres.surface, lam).surface
    dual_cousin = t_transform(dual_res.surface, -lam).surface
    return DualPair(f, dual, cousin, dual_cousin, ns_res.connection)


def double_dual(pair: DualPair, data: WeierstrassData, lam: float) -> PolarizedSurface:
    """The dual of the dual: exchange the Gauss-map roles once more.

    Mirrors the dual construction with (n_h, lam) replaced by (n_s, -lam):
    the secondary Gauss map of the dual is the spectral transform of n_s at
    -lam, and the double dual is a Darboux transform of it at +lam.  With
    matching initial data the chain correspondences make it Moebius
    equivalent to the original surface.
    """
    nsh_res = t_transform_via_connection(pair.ns_connection, -lam, "dz2",
                                         ("double_dual.nsh",))
    back = darboux_via_connection(nsh_res.connection, lam, np.asarray(V0, dtype=float),
                                  "dz2", ("double_dual",))
    return back.surface


# ---------------------------------------------------------------------------
# minimal repositioning (for cousin comparisons)
# ---------------------------------------------------------------------------

def common_sphere_point(surface: PolarizedSurface):
    """Least-squares common point of the central sphere congruence.

    For a surface Moebius-equivalent to a minimal one, all central spheres
    pass through one point (the image of infinity).  Returns (the point as
    a (4,) array, or INFINITY; lightlike deviation; incidence residual).
    """
    comps, ff = central_sphere_congruence(surface)
    sel = surface.grid.interior(4) & ff.valid
    # row k of a node is the Lorentz product of its sphere with basis form k
    rows = lorentz(comps[sel][:, None, :], np.eye(6))
    # the Re(s12) pairing column vanishes identically (every sphere in the
    # conformal 3-sphere is orthogonal to its form); drop it or the solver
    # returns that trivial kernel
    keep = [0, 1, 3, 4, 5]
    _, svals, vt = np.linalg.svd(rows[:, keep], full_matrices=False)
    s5 = vt[-1]
    s0 = np.zeros(6)
    s0[keep] = s5
    incidence = float(svals[-1] / max(svals[0], 1e-300))
    light = float(abs(lorentz(s0, s0))) / float(np.dot(s0, s0))
    # normalize to the point shape (s11 = 1) unless the point is infinity
    if abs(s0[0]) < 1e-8 * np.linalg.norm(s0):
        return INFINITY, light, incidence
    return s0[2:] * (-1.0 / s0[0]), light, incidence


def minimal_position(surface: PolarizedSurface):
    """Moebius representative of a minimal-class surface with flat duals.

    Moves the common point p of the central sphere congruence to infinity
    by the inversion x -> (x - p)^-1 (plus nothing if it is already there)
    and returns the moved surface.  Raises
    PatternMismatch when the congruence has no common point, an incidence
    residual above 1e-4 (the class is not minimal).
    """
    p, light, incidence = common_sphere_point(surface)
    if incidence > 1e-4:
        raise PatternMismatch(
            f"central spheres share no common point (residual {incidence:.2e})"
        )
    if p is INFINITY:
        return surface
    vals, ok = qinv_masked(surface.f.values - p)
    return PolarizedSurface(
        QField(surface.grid.merge_mask(ok), vals), surface.polarization,
        surface.provenance + ("minimal_position",),
    )
