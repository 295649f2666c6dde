"""Transformations of sampled isothermic surfaces.

The Christoffel dual integrates f_x^-1 dx - f_y^-1 dy; Goursat conjugates it
by an essential Moebius map; the Darboux transforms solve a Riccati equation
or the associated linear system; the spectral (T) transform integrates the
parameter family of flat connections.

A FrameConnection packages an adapted frame field together with its affine
lambda-family of connection forms, read through frame(index), phi(lam) and
slopes whatever the family stores.  Chaining transforms through connections
keeps the initial-condition correspondences of the permutability theorems
exact, which pointwise comparisons rely on; surfaces compared across
different representatives always go through the cross-ratio certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import (
    DegenerateQuadruple,
    GridMismatch,
    NotAdapted,
    NotClosed,
    SingularityHit,
)
from .grid import (
    FrameField,
    GridSpec,
    QField,
    QForm1,
    _row_planes,
    curl,
    integrate_form,
    integrate_frame,
    integrate_left_vector,
    integrate_riccati,
    wedge,
)
from .quaternion import (
    _cayley_dickson,
    _pair_matmul,
    _pair_planes,
    _pair_view,
    _study_planes,
    cross_ratio_class_array,
    qinv_masked,
    qm2_identity,
    qm2_inv,
    qm2_matvec,
    qm2_mul,
    qmul,
    qnorm,
    qnormsq,
)
from .surfaces import (
    TAU_ISOTHERMIC,
    PolarizedSurface,
    isothermic_certificate,
    normal_at,
)

EPS_ESCAPE = 1e-9

#: norm of Df - f below which a Darboux point counts as on the surface
EPS_ON_SURFACE = 1e-8

#: residual threshold of the three permutability checks
TAU_PERMUTABILITY = 1e-5

#: the homogeneous column (1, -i) that seeds the closed-form Darboux family
V0 = ((1.0, 0.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Christoffel and Goursat
# ---------------------------------------------------------------------------

def christoffel_form(surface: PolarizedSurface) -> QForm1:
    """The dual 1-form f_x^-1 dx - f_y^-1 dy (before integration)."""
    df = surface.d_field_hi()
    inv_x, ok_x = qinv_masked(df.px)
    inv_y, ok_y = qinv_masked(df.py)
    grid = df.grid.merge_mask(ok_x & ok_y)
    return QForm1(grid, inv_x, -inv_y)


def _certify_isothermic(surface: PolarizedSurface):
    """The certificate residual of surface; raise NotClosed unless it passes
    TAU_ISOTHERMIC."""
    _, res = isothermic_certificate(surface)
    if not res <= TAU_ISOTHERMIC:
        raise NotClosed(f"isothermic certificate residual {res:.3e} "
                        f"exceeds {TAU_ISOTHERMIC:.1e}")
    return res


def christoffel(
    surface: PolarizedSurface,
    c0=np.zeros(4),
    cform: QForm1 | None = None,
) -> PolarizedSurface:
    """Christoffel transform pinned by Cf(p0) = c0, p0 = grid.center_node().

    The dual is scaled so that df * dCf is the grid polarization dz^2; the
    transform flips the stored conjugation flag.  Supplying cform, the dual
    form of a surface already certified, skips the certificate.
    """
    if cform is None:
        _certify_isothermic(surface)
        cform = christoffel_form(surface)
    cf = integrate_form(cform, surface.grid.center_node(), np.asarray(c0, dtype=float))
    return surface.derived(cf.values, grid=cf.grid, flip=True, step="christoffel")


def goursat(surface: PolarizedSurface, m) -> PolarizedSurface:
    """Goursat transform for the essential map x -> (x - m)^-1, m a (4,) array.

    Integrates -(Cf - m) df (Cf - m); equivalent to Christoffel, Moebius
    map, Christoffel but in a single integration; both pinned at the base node.
    """
    cf = christoffel(surface)
    df = surface.d_field_hi()
    factor = cf.f.values - np.asarray(m, dtype=float)
    px = -qmul(factor, qmul(df.px, factor))
    py = -qmul(factor, qmul(df.py, factor))
    grid = df.grid.merge_mask(cf.grid.valid())
    gf = integrate_form(QForm1(grid, px, py), grid.center_node(), np.zeros(4))
    return surface.derived(gf.values, grid=gf.grid, step="goursat")


# ---------------------------------------------------------------------------
# frame connections
# ---------------------------------------------------------------------------

@dataclass(repr=False, eq=False)  # the families that store parts have none of the stored fields
class FrameConnection:
    """Adapted frame field with its affine family of connection forms.

    Every family reads through one protocol: frame(index) is the frame at a
    grid index (... the whole grid, p0 the base node grid.center_node(), a
    row slice one block), and phi(lam) = const + lam * slope entrywise, whose
    slopes are (s_x, s_y): the upper-right entries (ny, nx, 4) where every
    other slope entry is 0, else the dense (ny, nx, 2, 2, 4) slopes.  Every
    transform of a family starts at p0.  frame(...) projects to the
    underlying surface in the chart v1 v2^-1.  This class stores the frame, the
    constant parts const = (x, y) and the slopes, or the family whose slopes it
    reads on demand; the canonical, Ribaucour and Darboux families store parts
    and compute frame and phi on each read.  A family whose Maurer-Cartan
    curvature is known in closed form carries it as curvature = (n0, n1, shift):
    (ny, nx) fields with |d phi(lam) + phi(lam)^phi(lam)|^2 = n0 + (shift + lam)^2 n1
    at every node (see canonical_connection).
    """

    grid: GridSpec
    frame0: np.ndarray  # (ny, nx, 2, 2, 4)
    const: tuple
    _slopes: tuple | FrameConnection  # (s_x, s_y), or the family that computes them on read
    curvature: tuple | None = None

    @property
    def p0(self):
        return self.grid.center_node()

    @property
    def slopes(self):
        s = self._slopes
        return s if isinstance(s, tuple) else s.slopes

    def frame(self, index):
        return self.frame0[index]

    def phi(self, lam):
        out = []
        for c, s in zip(self.const, self.slopes):
            out.append(c + lam * (s if s.ndim == c.ndim else 0.0))
            if s.ndim < c.ndim:  # the float operations of c + lam * (s at entry [0, 1], else 0)
                out[-1][..., 0, 1, :] = c[..., 0, 1, :] + lam * s
        return tuple(out)

    def shifted_curvature(self, lam):
        """The curvature of the family mu -> phi(lam + mu), or None."""
        if self.curvature is not None:
            n0, n1, shift = self.curvature
            return n0, n1, shift + lam

    def curvature_norm(self, lam):
        """Pointwise curvature norm (ny, nx) of phi(lam), or None."""
        if self.curvature is not None:
            n0, n1, t = self.shifted_curvature(lam)
            with np.errstate(all="ignore"):
                return np.sqrt(n0 + t * t * n1)

    def frame0_at_p0(self):
        return self.frame(self.p0)


class _CanonicalFamily(FrameConnection):
    """The frame [[f, 1], [1, 0]] and its family, stored as f, df and the slopes dCf only;
    phi = [[0, 0], [df, 0]] + lam [[0, dCf], [0, 0]] entrywise."""

    def __init__(self, grid, fvals, df, cform, curvature):
        self.grid, self.curvature = grid, curvature
        self._f, self._df, self._slopes = fvals, (df.px, df.py), (cform.px, cform.py)

    def frame(self, index):
        f = self._f[index]
        out = np.zeros(f.shape[:-1] + (2, 2, 4))
        out[..., 0, 0, :], out[..., 0, 1, 0], out[..., 1, 0, 0] = f, 1.0, 1.0
        return out

    def phi(self, lam):
        out = np.zeros((2,) + self._f.shape[:-1] + (2, 2, 4))
        for o, df, dcf in zip(out, self._df, self.slopes):
            np.add(df, lam * 0.0, out=o[..., 1, 0, :])
            np.add(dcf * lam, 0.0, out=o[..., 0, 1, :])
        return out[0], out[1]


def canonical_connection(
    surface: PolarizedSurface,
    cform: QForm1 | None = None,
) -> FrameConnection:
    """Connection family of the canonical Euclidean frame [[f, 1], [1, 0]].

    phi(lam) = [[0, lam dCf], [df, 0]]; supplying cform (e.g. an analytic
    dual form) skips the internal Christoffel certificate and gains accuracy.
    With a = dCf and b = df its curvature is [[lam a^b, lam da], [db,
    lam b^a]], whose lam-free and lam-linear parts share no entry: the
    family carries n0 = |db|^2 and n1 = |da|^2 + |a^b|^2 + |b^a|^2.
    """
    grid = surface.grid
    df = surface.d_field_hi()
    if cform is None:
        _certify_isothermic(surface)
        cform = christoffel_form(surface)
    grid = grid.merge_mask(df.grid.valid() & cform.grid.valid())
    with np.errstate(all="ignore"):
        n0 = qnormsq(curl(df))
        n1 = (qnormsq(curl(cform)) + qnormsq(wedge(cform, df).values)
              + qnormsq(wedge(df, cform).values))
    return _CanonicalFamily(grid, surface.f.values, df, cform, (n0, n1, 0.0))


def affine_chart(vec):
    """Affine point v1 v2^-1 of homogeneous columns (..., 2, 4) plus mask."""
    inv, ok = qinv_masked(vec[..., 1, :], EPS_ESCAPE)
    return qmul(vec[..., 0, :], inv), ok


# ---------------------------------------------------------------------------
# spectral (T) transforms
# ---------------------------------------------------------------------------

@dataclass
class TTransformResult:
    """Spectral transform output: surface, pinned frame, chainable family."""

    surface: PolarizedSurface
    frame: FrameField
    connection: FrameConnection  # chainable family of the output frame

    @property
    def second_point(self) -> QField:
        """The affine point of the frame's second column, computed on each read."""
        vals, ok = affine_chart(self.connection.frame(...)[..., :, 1, :])
        return QField(self.connection.grid.merge_mask(ok), vals)


def t_transform_via_connection(
    conn: FrameConnection,
    lam: float,
    polarization="dz2",
    provenance=(),
) -> TTransformResult:
    phi_x, phi_y = conn.phi(lam)
    frame_id = integrate_frame(phi_x, phi_y, conn.grid, qm2_identity(), conn.p0,
                               curvature_norm=conn.curvature_norm(lam))
    composed = qm2_mul(conn.frame0_at_p0(), frame_id.values)
    surf_vals, ok1 = affine_chart(composed[..., :, 0, :])
    grid1 = conn.grid.merge_mask(ok1)
    surface = PolarizedSurface(QField(grid1, surf_vals), polarization, provenance)
    # share stored slopes; read a family's computed slopes (Ribaucour) from it on demand
    out_conn = FrameConnection(conn.grid, composed, (phi_x, phi_y), getattr(conn, "_slopes", conn),
                               conn.shifted_curvature(lam))
    return TTransformResult(surface, frame_id, out_conn)


def t_transform(surface: PolarizedSurface, lam: float) -> TTransformResult:
    """Spectral transform from the canonical Euclidean frame, F(p0) = Id at the base node.

    The returned frame is the identity-pinned solution of dF = F Phi_lam;
    the surface representative is the affine projection of the canonical
    frame translate (so lam = 0 returns the surface itself).
    """
    conn = canonical_connection(surface)
    prov = surface.provenance + (f"t_transform({lam})",)
    return t_transform_via_connection(conn, lam, surface.polarization, prov)


def t_transform_gauged(
    surface: PolarizedSurface,
    lam: float,
    frame: FrameField | FrameConnection,
) -> TTransformResult:
    """Spectral transform from an arbitrary adapted frame.

    For a FrameField input the base connection form is read off numerically
    and the lam-correction is built from the lower-left entry psi via the
    dual coefficients psi_x^-1, -psi_y^-1 (so that psi psi* is the grid
    polarization).
    """
    if isinstance(frame, FrameConnection):
        conn = frame
    else:
        conn = frame_connection_from_field(surface, frame)
    prov = surface.provenance + (f"t_transform_gauged({lam})",)
    return t_transform_via_connection(conn, lam, surface.polarization, prov)


def frame_connection_from_field(surface: PolarizedSurface, frame: FrameField) -> FrameConnection:
    """Numeric connection family of an adapted frame field.

    Reads phi0 = F^-1 dF entrywise and completes the family with the
    lam-slope built from the lower-left form psi: the upper-right entries
    (psi_x^-1, -psi_y^-1).
    """
    grid = frame.grid
    proj, ok = affine_chart(frame.values[..., :, 0, :])
    sel = grid.valid() & ok & surface.grid.valid()
    if not sel.any():
        raise NotAdapted("frame projects nowhere")
    dev = float(qnorm(proj - surface.f.values)[sel].max())
    scale = max(1.0, float(qnorm(surface.f.values)[sel].max()))
    if dev > 1e-5 * scale:
        raise NotAdapted(f"frame does not project onto the surface (max dev {dev:.3e})")
    const = frame.connection_form()
    star_x, ok_x = qinv_masked(const[0][..., 1, 0, :])
    star_y, ok_y = qinv_masked(const[1][..., 1, 0, :])
    out_grid = grid.merge_mask(ok & ok_x & ok_y)
    return FrameConnection(out_grid, frame.values, const, (star_x, -star_y))


# ---------------------------------------------------------------------------
# Darboux transforms
# ---------------------------------------------------------------------------

@dataclass
class DarbouxResult:
    surface: PolarizedSurface
    connection: FrameConnection | None  # chainable frame family of the output


def darboux_via_connection(
    conn: FrameConnection,
    lam: float,
    w0,
    polarization="dz2",
    provenance=(),
    chain=False,
    frame: FrameField | None = None,
) -> DarbouxResult:
    """Darboux transform through an adapted frame family.

    Solves 0 = dw + phi(lam) w and projects frame(...) * w.  With chain=True the
    output carries its own frame family (the transform parameter of the
    output family is offset so that its own Darboux/T transforms compose
    with exact initial-condition correspondence); the chain marches the frame
    of phi(lam) pinned to Id unless it is supplied (on conn's grid, or GridMismatch).
    """
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (2, 4):
        raise ValueError("w0 must be a homogeneous column (2, 4)")
    if not chain:
        w = integrate_left_vector(*conn.phi(lam), conn.grid, w0, conn.p0,
                                  curvature_norm=conn.curvature_norm(lam))
        homog, out_conn = qm2_matvec(conn.frame(...), w), None
    else:
        if frame is not None and not frame.grid.same_geometry(conn.grid):
            raise GridMismatch("the supplied frame lives on another grid than the family")
        y = frame or integrate_frame(*conn.phi(lam), conn.grid, qm2_identity(), conn.p0,
                                     curvature_norm=conn.curvature_norm(lam))
        homog, out_conn = _darboux_chain(conn, y.values, lam, w0)
    vals, ok = affine_chart(homog)
    grid = conn.grid.merge_mask(ok)
    surface = PolarizedSurface(QField(grid, vals), polarization, provenance)
    return DarbouxResult(surface, out_conn)


class _DarbouxFamily(FrameConnection):
    """A Darboux chain's family: its dense slopes s stored; phi(mu) = -lam s + mu s and the
    frame (parent frame Y^-1) V on read."""

    def __init__(self, parent, y, v, lam, sx, sy):
        self.grid, self._slopes = parent.grid, (sx, sy)
        self._parent, self._y, self._v, self._lam = parent, y, v, lam

    def frame(self, index):
        return qm2_mul(qm2_mul(self._parent.frame(index), qm2_inv(self._y[index])), self._v)

    def phi(self, mu):
        return tuple(-self._lam * s + mu * s for s in self.slopes)


def _darboux_chain(conn, y, lam, w0):
    """Darboux points F Y^-1 w0 of conn's frame F and the frame Y of phi(lam), and the family of
    slopes V^-1 ((Y S) Y^-1) V, V = [w0 | e], in one pass over blocks of grid rows on pair planes;
    (Y S) Y^-1 takes 6 of 16 products if S = upper(a).  SingularMatrix names Y's first singular
    node."""
    v = np.zeros((2, 2, 4))
    v[:, 0], v[int(qnorm(w0[0]) >= qnorm(w0[1])), 1, 0] = w0, 1.0
    (ny, nx), slopes = y.shape[:2], conn.slopes
    v_pl, vinv_pl, w0_pl = (_pair_planes(m[None], 2) for m in (v, qm2_inv(v), w0[:, None]))
    homog, out = np.empty((ny * nx, 2, 4)), np.empty((2, ny * nx, 2, 2, 4))
    for rows, yb, _ in _row_planes(y):
        nodes, yb = slice(rows.start * nx, rows.stop * nx), yb.reshape(2, 2, 2, -1)
        inv = _study_planes(yb, True, lambda i: (rows.start + int(i) // nx, int(i) % nx))[1]
        f = _pair_planes(conn.frame(rows), 2).reshape(2, 2, 2, -1)
        _pair_view(homog[nodes])[...] = _pair_matmul(f, _pair_matmul(inv, w0_pl))[:, :, 0]
        for s, o in zip(slopes, out):
            s = _pair_planes(s[rows], s.ndim - 3).reshape(2, *s.shape[2:-1], -1)
            p = (_pair_matmul(_pair_matmul(yb, s), inv) if s.ndim == 4 else _cayley_dickson(
                _cayley_dickson(yb[:, :, 0], s[:, None])[:, :, None], inv[:, None, 1]))
            _pair_view(o[nodes])[...] = _pair_matmul(_pair_matmul(vinv_pl, p), v_pl)
    return homog.reshape(ny, nx, 2, 4), _DarbouxFamily(conn, y, v, lam, *out.reshape(2, *y.shape))


def darboux_linear(surface: PolarizedSurface, lam: float, v0=V0) -> PolarizedSurface:
    """Darboux transform via the linear system 0 = dv + Phi_lam v, v(p0) = v0 at the base node.

    The transform is f + v2 v1^-1; the default v0 = V0 matches the seeded
    closed-form family.
    """
    conn = canonical_connection(surface)
    prov = surface.provenance + (f"darboux_linear({lam})",)
    return darboux_via_connection(
        conn, lam, np.asarray(v0, dtype=float), surface.polarization, prov
    ).surface


def darboux_riccati(
    surface: PolarizedSurface,
    lam: float,
    d0=None,
    cform: QForm1 | None = None,
) -> PolarizedSurface:
    """Darboux transform via the Riccati equation for delta = Df - f.

    d(delta) = delta (lam dCf) delta - df, delta(p0) = d0 - f(p0) at the base
    node p0 = grid.center_node(), d0 a (4,) array; by default f(p0) plus the
    unit normal at p0.
    """
    grid = surface.grid
    p0 = grid.center_node()
    df = surface.d_field_hi()
    if cform is None:
        cform = christoffel_form(surface)
    if d0 is None:
        d0 = surface.f.value_at(p0) + normal_at(surface, p0)
    delta0 = np.asarray(d0, dtype=float) - surface.f.value_at(p0)
    if qnorm(delta0) < EPS_ON_SURFACE:
        raise SingularityHit("initial point lies on the surface", node=p0)
    delta = integrate_riccati(
        lam * cform.px, lam * cform.py, df.px, df.py, grid, delta0, p0
    )
    ok = qnorm(delta) > EPS_ON_SURFACE
    out_grid = grid.merge_mask(ok & df.grid.valid() & cform.grid.valid())
    prov = surface.provenance + (f"darboux_riccati({lam})",)
    return PolarizedSurface(
        QField(out_grid, surface.f.values + delta), surface.polarization, prov
    )


# ---------------------------------------------------------------------------
# Moebius equivalence testing
# ---------------------------------------------------------------------------

def sample_quadruples(grid: GridSpec, n_quads, seed=0, extra_valid=None):
    """Seeded node quadruples (n_quads, 4, 2), pairwise a fifth of the grid
    apart (at least 2 nodes), inside the valid set: the first n_quads
    separated ones of up to 200 n_quads candidates, drawn 10 n_quads at a
    time (the stream of one draw of 4 per candidate)."""
    valid = grid.valid() if extra_valid is None else (grid.valid() & extra_valid)
    nodes = np.argwhere(valid)
    if len(nodes) < 16:
        raise DegenerateQuadruple("not enough valid nodes to sample")
    min_sep = max(2, min(grid.nx, grid.ny) // 5)
    rng, (i, j) = np.random.default_rng(seed), np.triu_indices(4, 1)
    found = []
    for _ in range(20):
        pick = nodes[rng.integers(0, len(nodes), size=(10 * n_quads, 4))]
        far = np.abs(pick[:, i] - pick[:, j]) >= min_sep  # (candidate, pair, axis)
        found.append(pick[(far[..., 0] | far[..., 1]).all(axis=1)])
        if sum(map(len, found)) >= n_quads:
            return np.concatenate(found)[:n_quads]
    raise DegenerateQuadruple("could not sample separated quadruples")


#: the six orders of a quadruple's points that fix its first point
_ORDERS = np.array([(0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2),
                    (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)])


def moebius_equivalent(
    a: PolarizedSurface | QField,
    b: PolarizedSurface | QField,
    n_quads=20,
    seed=0,
    tau=1e-5,
):
    """Compare cross-ratio classes of seeded node quadruples.

    Each quadruple is compared in the best-conditioned of its six point
    orders on a, the one with |log |r|| least, and b is read in that same
    order (Moebius equivalence in one order implies it in all six).  Returns
    (equivalent, residual): residual is the largest absolute discrepancy in
    (Re r, |r|) over the sampled quadruples (Python's max from 0.0, which
    passes over a NaN).  A batch of quadruples takes one cross-ratio call per
    surface; one degenerate on either surface is a retry, the quadruples
    still missing are drawn at seed + 101, and sampling gives up after 40.
    """
    fa = a.f if isinstance(a, PolarizedSurface) else a
    fb = b.f if isinstance(b, PolarizedSurface) else b
    if not fa.grid.same_geometry(fb.grid):
        raise DegenerateQuadruple("surfaces live on different grids")
    common = fa.grid.valid() & fb.grid.valid()
    residual = 0.0
    done = 0
    retries = 40
    seed_k = seed
    while done < n_quads and retries > 0:
        quads = sample_quadruples(fa.grid, n_quads - done, seed_k, extra_valid=common)
        nodes = tuple(quads[:, _ORDERS].transpose(3, 2, 0, 1))  # (iy, ix): (point, quad, order)
        ra, na, bad_a = cross_ratio_class_array(*fa.values[nodes])
        rb, nb, bad_b = cross_ratio_class_array(*fb.values[nodes])
        good = ~(bad_a | bad_b).any(axis=1)
        ra, na, rb, nb = (x[good] for x in (ra, na, rb, nb))
        k = np.arange(len(na)), np.argmin(np.abs(np.log(na)), axis=1)
        gaps = np.abs(np.stack([ra[k] - rb[k], na[k] - nb[k]], axis=1))
        residual = max([residual, *gaps.ravel().tolist()])
        retries -= len(good) - len(na)
        done += len(na)
        seed_k += 101
    if done < n_quads:
        raise DegenerateQuadruple("quadruple sampling exhausted retries")
    return residual <= tau, residual


# ---------------------------------------------------------------------------
# permutability checks
# ---------------------------------------------------------------------------

@dataclass
class PermutabilityReport:
    isothermic_residual: float  # the certificate of the input surface
    p1_residual: float
    p2_pointwise: float
    p2_translation: float
    p2_certificate: float  # the certificate of P2's Darboux transform
    p3_residual: float
    tau: float


def permutability_suite(
    surface: PolarizedSurface,
    lam: float,
    mu: float | None = None,
    seed=7,
) -> PermutabilityReport:
    """Run the three permutability checks on a surface, every transform pinned at the base
    node grid.center_node().

    P1: the second point of the spectral transform is Moebius-equivalent to
        the spectral transform of the Christoffel dual.
    P2: Christoffel of a Darboux transform equals (up to translation) the
        Darboux transform of the Christoffel dual, with the reciprocal
        positioning identity checked pointwise; the Darboux transform's own
        isothermic certificate is reported, not enforced.
    P3: spectral transforms and Darboux transforms interleave with a
        parameter shift; checked through chained frame families so the
        initial conditions correspond exactly.
    """
    mu = 0.4 * lam if mu is None else mu
    # one dual form, one connection family and one frame of phi(lam)
    cform = christoffel_form(surface)
    iso = _certify_isothermic(surface)
    conn = canonical_connection(surface, cform)
    p1, frame, *p2, v0 = _permutability_p1_p2(surface, conn, cform, lam, seed)
    # P3: T_mu(D_lam f) vs D_(lam-mu)(T_mu f) by chained families, each freed after its reader
    dar_chain = darboux_via_connection(conn, lam, v0, chain=True, frame=frame).connection
    del frame
    lhs = t_transform_via_connection(dar_chain, mu).surface
    del dar_chain
    rhs = darboux_via_connection(t_transform_via_connection(conn, mu).connection, lam - mu,
                                 v0).surface
    _, p3 = moebius_equivalent(lhs, rhs, seed=seed + 1)
    return PermutabilityReport(iso, p1, *p2, p3, TAU_PERMUTABILITY)


def _permutability_p1_p2(surface, conn, cform, lam, seed):
    """P1 and P2, sharing the Christoffel dual cs, certified and given its dual form once:
    P1's residual, its frame of phi(lam) (P3 reuses it), then _permutability_p2's results."""
    second, frame = attrgetter("second_point", "frame")(
        t_transform_via_connection(conn, lam, surface.polarization))
    cs = christoffel(surface, cform=cform)
    _certify_isothermic(cs)
    cs_form = christoffel_form(cs)
    tc = t_transform_via_connection(canonical_connection(cs, cs_form), lam).surface
    _, p1 = moebius_equivalent(second, tc, seed=seed)
    return (p1, frame) + _permutability_p2(surface, cform, cs, cs_form, lam)


def _permutability_p2(surface, cform, cs, cs_form, lam):
    """P2's pointwise (lam (CDf - Cf) = (Df - f)^-1) and translation residuals, its Darboux
    transform's certificate, and the start column [1, Df - f] at p0 of P3's transforms."""
    p0 = surface.grid.center_node()
    dar = darboux_riccati(surface, lam, cform=cform)
    diff = dar.f.values - surface.f.values
    inv_diff, ok = qinv_masked(diff)
    c0 = inv_diff[p0[0], p0[1]] / lam
    _, p2_certificate = isothermic_certificate(dar)
    cd = christoffel(dar, c0, cform=christoffel_form(dar))
    dc = darboux_riccati(cs, lam, c0, cform=cs_form)
    sel = surface.grid.interior() & cd.grid.valid() & dc.grid.valid() & cs.grid.valid() & ok
    point_res = qnorm(lam * (cd.f.values - cs.f.values) - inv_diff)[sel].max()
    trans = cd.f.values - dc.f.values
    trans_res = qnorm(trans - trans[p0[0], p0[1]])[sel].max()
    v0 = np.array([[1.0, 0.0, 0.0, 0.0], diff[p0[0], p0[1]]])
    return float(point_res), float(trans_res), p2_certificate, v0

