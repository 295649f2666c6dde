"""Reference RK4 march for the linear integrators of ``isothermic.grid``.

This is the generic march the package used before its linear systems went
through step propagators: four quaternionic products per RK4 stage, with
the Hamilton product written through ``moveaxis`` and ``stack``.  It is kept
here, unchanged, as the independent reference that ``integrate_frame`` and
``integrate_left_vector`` are tested against
(tests/test_march_equivalence.py), together with the Riccati march on real
quaternion components that ``integrate_riccati`` ran before its states and
coefficients became complex pairs.  So is the cubic midpoint formula that
the package wrote out before it became the ``grid._MIDPOINT`` entry of its
stencil table; the gates and the blow-up check are not part of it.

The path-scheme walks the package ran as loops before they became the
array scans of ``grid._path_scan`` are kept here too: the reach mask of
``grid._path_valid_mask`` and the sign continuation of
``cmc._sign_continuity``.

So is the tuple form of the Cayley-Dickson product that
``quaternion._cayley_dickson`` had before it took stacked pair arrays: the
same four complex products, with the conjugate factor on the left.

So is the whole-grid Maurer-Cartan point that ``grid._maurer_cartan_point``
computed before it went over blocks of grid rows; it shares the package's
difference operators and matrix product, so the two agree bit for bit.

So are F^-1 dF over the whole grid, ``qm2_mul(qm2_inv(F), diff_axis4(F))``,
which ``FrameField.connection_form`` computed before it went over blocks of
grid rows on pair planes (``grid._connection_planes``), and the curvature
data extraction ``cmc.ribaucour_data_extract`` that read its entries from
that whole-grid Phi.

So is the dense body of the Ribaucour frame family that
``cmc.family_ribaucour_connection`` and ``cmc.ribaucour_connection``
returned before the family kept only its scalar parts: five whole
``(ny, nx, 2, 2, 4)`` fields, combined as ``const + lam * slope``.  These
dense bodies return a ``FrameConnection`` that stores its slopes dense.

So is ``grid.d_field_hi``, the fourth-order exterior derivative of a
0-form, which the package now reads from each surface's kept derivatives
(``PolarizedSurface.d_field_hi()``).

So is the dense body of ``transforms.canonical_connection``, which built the
canonical family [[f, 1], [1, 0]] as five whole fields before the family kept
only f, df and dCf.

So is the dense body of ``transforms.darboux_via_connection(chain=True)``,
which formed Y^-1, the Darboux point, the output frame and the slopes
V^-1 ((Y S) Y^-1) V of the output family through whole-grid products, and
stored that family as five whole fields (const = -lam * slope), before the
chain went over blocks of grid rows on pair planes and its family kept only
its slopes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from isothermic.cmc import RibaucourData
from isothermic.errors import PatternMismatch
from isothermic.grid import (
    curl,
    diff_axis,
    diff_axis4,
    dilate_invalid,
    laplacian,
    wedge,
)
from isothermic import grid as package_grid
from isothermic import quaternion as package_quaternion
from isothermic.quaternion import qm2_norm, qnorm, qnormsq
from isothermic.quaternion import qm2_inv as package_qm2_inv
from isothermic.quaternion import qm2_mul as package_qm2_mul
from isothermic.quaternion import qmul as package_qmul
from isothermic.surfaces import PolarizedSurface
from isothermic.transforms import (
    DarbouxResult,
    FrameConnection,
    _certify_isothermic,
    affine_chart,
    christoffel_form,
)


def qmul(a, b):
    """Hamilton product of component arrays, broadcasting over leading axes."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def cayley_dickson(a1, b1, a2, b2):
    """Product (a1 + b1 j)(a2 + b2 j) of quaternions held as complex pairs,
    broadcasting over complex arrays."""
    return a1 * a2 - np.conj(b2) * b1, a1 * b2 + np.conj(a2) * b1


def qm2_mul(a, b):
    """Product of (..., 2, 2, 4) quaternionic matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for r in range(2):
        for c in range(2):
            out[..., r, c, :] = qmul(a[..., r, 0, :], b[..., 0, c, :]) + qmul(
                a[..., r, 1, :], b[..., 1, c, :]
            )
    return out


def qm2_matvec(m, v):
    """Apply (..., 2, 2, 4) matrices to (..., 2, 4) column vectors."""
    m = np.asarray(m)
    v = np.asarray(v)
    out = np.empty(np.broadcast_shapes(m.shape[:-3] + (2, 4), v.shape))
    for r in range(2):
        out[..., r, :] = qmul(m[..., r, 0, :], v[..., 0, :]) + qmul(
            m[..., r, 1, :], v[..., 1, :]
        )
    return out



def left_mul(state, p):
    """The right-hand side -P v of dv = -P v."""
    return -qm2_matvec(p, state)


def _rk4_step_right(state, pa, pm, pb, h, mul):
    """One RK4 step of d(state) = mul(state, P) over [t, t+h]."""
    k1 = mul(state, pa)
    k2 = mul(state + 0.5 * h * k1, pm)
    k3 = mul(state + 0.5 * h * k2, pm)
    k4 = mul(state + h * k3, pb)
    return state + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def midpoint_samples(coef, axis):
    """Cubic interpolation of coefficient samples at interval midpoints
    (n-1 entries along axis; entry k between samples k and k+1), linear
    below four samples."""
    v = np.moveaxis(np.asarray(coef, dtype=float), axis, 0)
    n = v.shape[0]
    out = np.empty((n - 1,) + v.shape[1:])
    if n < 4:
        out[:] = 0.5 * (v[:-1] + v[1:])
    else:
        out[1:-1] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
        out[0] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
        out[-1] = (5.0 * v[-1] + 15.0 * v[-2] - 5.0 * v[-3] + v[-4]) / 16.0
    return np.moveaxis(out, 0, axis)


def march(grid, p0, coef_x, coef_y, state0, mul):
    """March a per-node ODE state along the spine column then along rows."""
    iy0, ix0 = p0
    h = grid.h
    state_shape = np.asarray(state0).shape
    out = np.zeros((grid.ny, grid.nx) + state_shape)
    mid_y = midpoint_samples(coef_y[:, ix0], axis=0)  # (ny-1, ...)
    mid_x = midpoint_samples(coef_x, axis=1)  # (ny, nx-1, ...)

    # spine: vary iy at fixed ix0
    out[iy0, ix0] = state0
    for iy in range(iy0 + 1, grid.ny):
        pa, pb = coef_y[iy - 1, ix0], coef_y[iy, ix0]
        out[iy, ix0] = _rk4_step_right(out[iy - 1, ix0], pa, mid_y[iy - 1], pb, h, mul)
    for iy in range(iy0 - 1, -1, -1):
        pa, pb = coef_y[iy + 1, ix0], coef_y[iy, ix0]
        out[iy, ix0] = _rk4_step_right(out[iy + 1, ix0], pa, mid_y[iy], pb, -h, mul)

    # rows: vary ix, batched over iy
    for ix in range(ix0 + 1, grid.nx):
        pa, pb = coef_x[:, ix - 1], coef_x[:, ix]
        out[:, ix] = _rk4_step_right(out[:, ix - 1], pa, mid_x[:, ix - 1], pb, h, mul)
    for ix in range(ix0 - 1, -1, -1):
        pa, pb = coef_x[:, ix + 1], coef_x[:, ix]
        out[:, ix] = _rk4_step_right(out[:, ix + 1], pa, mid_x[:, ix], pb, -h, mul)
    return out


def frame(phi_x, phi_y, grid, f0, p0, spine="column"):
    """dF = F Phi with F(p0) = f0; spine="row" runs the transposed scheme."""
    f0 = np.asarray(f0, dtype=float)
    if spine == "column":
        return march(grid, p0, phi_x, phi_y, f0, qm2_mul)
    swapped = replace(grid, nx=grid.ny, ny=grid.nx, x0=grid.y0, y0=grid.x0)
    vals = march(swapped, (p0[1], p0[0]), np.swapaxes(phi_y, 0, 1),
                 np.swapaxes(phi_x, 0, 1), f0, qm2_mul)
    return np.swapaxes(vals, 0, 1)


def left_vector(phi_x, phi_y, grid, v0, p0):
    """dv = -Phi v for a column vector with v(p0) = v0."""
    return march(grid, p0, phi_x, phi_y, np.asarray(v0, dtype=float), left_mul)


def riccati(a_x, a_y, b_x, b_y, grid, delta0, p0):
    """d(delta) = delta A delta - B with delta(p0) = delta0."""
    coef_x = np.stack([a_x, b_x], axis=2)  # (ny, nx, 2, 4)
    coef_y = np.stack([a_y, b_y], axis=2)

    def mul(state, p):
        return qmul(qmul(state, p[..., 0, :]), state) - p[..., 1, :]

    return march(grid, p0, coef_x, coef_y, np.asarray(delta0, dtype=float), mul)


def path_valid_mask(grid, p0):
    """Nodes reachable from p0 along the spine-then-rows path scheme."""
    valid = grid.valid()
    iy0, ix0 = p0
    reach_spine = np.zeros(grid.ny, dtype=bool)
    reach_spine[iy0] = True
    for iy in range(iy0 + 1, grid.ny):
        reach_spine[iy] = reach_spine[iy - 1] and valid[iy, ix0]
    for iy in range(iy0 - 1, -1, -1):
        reach_spine[iy] = reach_spine[iy + 1] and valid[iy, ix0]
    reach = np.zeros((grid.ny, grid.nx), dtype=bool)
    reach[:, ix0] = reach_spine
    for ix in range(ix0 + 1, grid.nx):
        reach[:, ix] = reach[:, ix - 1] & valid[:, ix]
    for ix in range(ix0 - 1, -1, -1):
        reach[:, ix] = reach[:, ix + 1] & valid[:, ix]
    return reach


def sign_continuity(r, p0):
    """Flip quaternion signs so the field is continuous along the path scheme."""
    out = np.array(r, copy=True)
    iy0, ix0 = p0
    for iy in range(iy0 + 1, out.shape[0]):
        if np.sum(out[iy, ix0] * out[iy - 1, ix0]) < 0:
            out[iy, ix0] = -out[iy, ix0]
    for iy in range(iy0 - 1, -1, -1):
        if np.sum(out[iy, ix0] * out[iy + 1, ix0]) < 0:
            out[iy, ix0] = -out[iy, ix0]
    for ix in range(ix0 + 1, out.shape[1]):
        flip = np.sum(out[:, ix] * out[:, ix - 1], axis=-1) < 0
        out[flip, ix] = -out[flip, ix]
    for ix in range(ix0 - 1, -1, -1):
        flip = np.sum(out[:, ix] * out[:, ix + 1], axis=-1) < 0
        out[flip, ix] = -out[flip, ix]
    return out


def maurer_cartan_point(phi_x, phi_y, grid):
    """Pointwise |d(Phi) + Phi^Phi| over the whole grid at once, and the
    nodes whose plaquettes are gated."""
    d = diff_axis(phi_y, grid.h, 1) - diff_axis(phi_x, grid.h, 0)
    comm = package_qm2_mul(phi_x, phi_y) - package_qm2_mul(phi_y, phi_x)
    return qm2_norm(d + comm), dilate_invalid(grid.valid())


def connection_form(frame):
    """(phi_x, phi_y) of Phi = F^-1 dF over the whole grid at once."""
    inv = package_qm2_inv(frame.values)
    return (package_qm2_mul(inv, diff_axis4(frame.values, frame.grid.h, axis=1)),
            package_qm2_mul(inv, diff_axis4(frame.values, frame.grid.h, axis=0)))


def ribaucour_data_extract(frame):
    """Read (u, H, Hhat, lam, lamhat) from the whole-grid Phi = F^-1 dF."""
    grid = frame.grid
    h = grid.h
    phi_x, phi_y = connection_form(frame)
    sel = dilate_invalid(grid.valid(), rings=2)

    eu_x = phi_x[..., 1, 0, 2]
    if (eu_x[sel] <= 0).any():
        raise PatternMismatch("lower-left entry is not e^u dz j (e^u must be > 0)")
    u = np.log(np.where(eu_x > 0, eu_x, 1.0))
    e_u = np.where(eu_x > 0, eu_x, 1.0)
    e_mu = 1.0 / e_u

    x_j = phi_x[..., 0, 1, 2]
    y_k = phi_y[..., 0, 1, 3]
    lamhat = 0.5 * (x_j + y_k) * e_mu
    lam = 0.5 * (y_k - x_j) * e_u

    p_k = phi_x[..., 0, 0, 3]
    q_j = phi_y[..., 0, 0, 2]
    big_h = (q_j - p_k) * e_mu
    big_hhat = -(q_j + p_k) * e_u

    scale = 1.0 + max(
        float(np.abs(phi_x[sel]).max()), float(np.abs(phi_y[sel]).max())
    )
    ux = diff_axis4(u, h, axis=1)
    uy = diff_axis4(u, h, axis=0)

    def off_pattern():
        """Everything the structured form says must vanish, one field at a time."""
        yield from (phi_x[..., 1, 0, c] for c in (0, 1, 3))
        yield from (phi_y[..., 1, 0, c] for c in (0, 1, 2))
        yield phi_y[..., 1, 0, 3] - e_u
        yield from (phi_x[..., 0, 1, c] for c in (0, 1, 3))
        yield from (phi_y[..., 0, 1, c] for c in (0, 1, 2))
        yield from (phi_x[..., 0, 0, 0], phi_y[..., 0, 0, 0])
        yield phi_x[..., 0, 0, 1] + 0.5 * uy
        yield phi_y[..., 0, 0, 1] - 0.5 * ux
        yield from (phi_x[..., 0, 0, 2], phi_y[..., 0, 0, 3])
        for c in range(4):
            yield phi_x[..., 0, 0, c] - phi_x[..., 1, 1, c]
            yield phi_y[..., 0, 0, c] - phi_y[..., 1, 1, c]

    # one running maximum (a NaN propagates), no stack of the pieces
    pattern = np.zeros(u.shape)
    for piece in off_pattern():
        np.maximum(pattern, np.abs(piece), out=pattern)
    pattern = float(pattern[sel].max() / scale)

    lap, lap_valid = laplacian(u, grid)
    gauss_field = np.abs(
        lap + big_h**2 * np.exp(2 * u) - big_hhat**2 * np.exp(-2 * u)
        - 4.0 * np.exp(2 * u) * lamhat
    )
    # residual maxima over nodes whose extraction used centered stencils only
    valid = sel & lap_valid & grid.interior(3)
    gauss = float(gauss_field[valid].max())

    def wirtinger_bar(fld):
        return 0.5 * (
            diff_axis4(fld, h, axis=1) + 1j * diff_axis4(fld, h, axis=0)
        )

    def wirtinger(fld):
        return 0.5 * (
            diff_axis4(fld, h, axis=1) - 1j * diff_axis4(fld, h, axis=0)
        )

    cod1 = np.abs(wirtinger_bar(lamhat) * e_u + wirtinger(lam) * e_mu)
    cod2 = np.abs(wirtinger_bar(big_h) * e_u - wirtinger(big_hhat) * e_mu)
    codazzi = float(np.maximum(cod1, cod2)[valid].max())
    return RibaucourData(u, big_h, big_hhat, lam, lamhat, valid, pattern, gauss, codazzi)


def ribaucour_from_parts(grid, fvals, spin, u, ux, uy):
    """Assemble the frame [[f r, r], [r, 0]] and its connection family.

    Diagonal: ( -u_y i - e^-u k )/2 dx + ( u_x i - e^-u j )/2 dy;
    lower-left psi = e^u (j dx + k dy); slope psi* = e^-u (-j dx + k dy).
    """
    e_u = np.exp(u)
    e_mu = np.exp(-u)
    shape = (grid.ny, grid.nx, 2, 2, 4)
    const_x = np.zeros(shape)
    const_y = np.zeros(shape)
    diag_x = np.zeros((grid.ny, grid.nx, 4))
    diag_x[..., 1] = -0.5 * uy
    diag_x[..., 3] = -0.5 * e_mu
    diag_y = np.zeros((grid.ny, grid.nx, 4))
    diag_y[..., 1] = 0.5 * ux
    diag_y[..., 2] = -0.5 * e_mu
    const_x[..., 0, 0, :] = diag_x
    const_x[..., 1, 1, :] = diag_x
    const_y[..., 0, 0, :] = diag_y
    const_y[..., 1, 1, :] = diag_y
    const_x[..., 1, 0, 2] = e_u
    const_y[..., 1, 0, 3] = e_u
    slope_x = np.zeros(shape)
    slope_y = np.zeros(shape)
    slope_x[..., 0, 1, 2] = -e_mu
    slope_y[..., 0, 1, 3] = e_mu
    frame0 = np.zeros(shape)
    frame0[..., 0, 0, :] = package_qmul(fvals, spin)
    frame0[..., 0, 1, :] = spin
    frame0[..., 1, 0, :] = spin
    return FrameConnection(grid, frame0, (const_x, const_y), (slope_x, slope_y))


def d_field_hi(f):
    return package_grid._exterior_derivative(
        f.grid, package_grid._D1_4, [diff_axis4(f.values, f.grid.h, a) for a in (1, 0)])


def dense_slopes(conn):
    """conn's slopes as dense (ny, nx, 2, 2, 4) fields: upper-right entries
    are placed into zeros, dense slopes returned as they are."""
    out = []
    for s in conn.slopes:
        if s.ndim == 3:
            s, upper = np.zeros(s.shape[:-1] + (2, 2, 4)), s
            s[..., 0, 1, :] = upper
        out.append(s)
    return tuple(out)


def canonical_connection(surface, cform=None):
    """Connection family of the canonical Euclidean frame [[f, 1], [1, 0]].

    phi(lam) = [[0, lam dCf], [df, 0]], with the curvature polynomial n0 =
    |d df|^2, n1 = |d dCf|^2 + |dCf^df|^2 + |df^dCf|^2.
    """
    grid = surface.grid
    df = d_field_hi(surface.f)
    if cform is None:
        _certify_isothermic(surface)
        cform = christoffel_form(surface)
    grid = grid.merge_mask(df.grid.valid() & cform.grid.valid())
    shape = (grid.ny, grid.nx, 2, 2, 4)
    const_x = np.zeros(shape)
    const_y = np.zeros(shape)
    const_x[..., 1, 0, :] = df.px
    const_y[..., 1, 0, :] = df.py
    slope_x = np.zeros(shape)
    slope_y = np.zeros(shape)
    slope_x[..., 0, 1, :] = cform.px
    slope_y[..., 0, 1, :] = cform.py
    frame0 = np.zeros(shape)
    frame0[..., 0, 0, :] = surface.f.values
    frame0[..., 0, 1, 0] = 1.0
    frame0[..., 1, 0, 0] = 1.0
    with np.errstate(all="ignore"):
        n0 = qnormsq(curl(df))
        n1 = (qnormsq(curl(cform)) + qnormsq(wedge(cform, df).values)
              + qnormsq(wedge(df, cform).values))
    return FrameConnection(grid, frame0, (const_x, const_y), (slope_x, slope_y), (n0, n1, 0.0))


def darboux_chain(conn, lam, w0, polarization="dz2", provenance=(), frame=None):
    """darboux_via_connection(conn, lam, w0, polarization, provenance, chain=True,
    frame=frame) through whole-grid products: the Darboux point F Y^-1 w0 of the
    parent's frame F and the frame Y of phi(lam) (marched unless supplied), and
    the output family with frame (F Y^-1) V, slopes V^-1 ((Y S) Y^-1) V of the
    parent's slopes S, expanded to dense, and const = -lam * slope, for the
    completion V = [w0 | e] of w0 by a constant unit column e.  The package's
    kernels are called through their modules, so that a test counting their
    calls sees these too."""
    q = package_quaternion
    phi_x, phi_y = conn.phi(lam)
    w0 = np.asarray(w0, dtype=float)
    y = frame or package_grid.integrate_frame(phi_x, phi_y, conn.grid, q.qm2_identity(),
                                              conn.p0, curvature_norm=conn.curvature_norm(lam))
    y_inv = q.qm2_inv(y.values)
    w = q.qm2_matvec(y_inv, w0)
    homog = q.qm2_matvec(conn.frame(...), w)
    v = np.zeros((2, 2, 4))
    v[:, 0, :] = w0
    if qnorm(w0[0]) >= qnorm(w0[1]):
        v[1, 1, 0] = 1.0
    else:
        v[0, 1, 0] = 1.0
    g_frame = q.qm2_mul(q.qm2_mul(conn.frame(...), y_inv), v)
    v_inv = q.qm2_inv(v)
    slope_x, slope_y = dense_slopes(conn)
    sx = q.qm2_mul(q.qm2_mul(y.values, slope_x), y_inv)
    sy = q.qm2_mul(q.qm2_mul(y.values, slope_y), y_inv)
    sx = q.qm2_mul(q.qm2_mul(v_inv, sx), v)
    sy = q.qm2_mul(q.qm2_mul(v_inv, sy), v)
    out_conn = FrameConnection(conn.grid, g_frame, (-lam * sx, -lam * sy), (sx, sy))
    vals, ok = affine_chart(homog)
    surface = PolarizedSurface(package_grid.QField(conn.grid.merge_mask(ok), vals),
                               polarization, provenance)
    return DarbouxResult(surface, out_conn)
