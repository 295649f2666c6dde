"""Reference RK4 march for the linear integrators of ``isothermic.grid``.

This is the generic march the package used before its linear systems went
through step propagators: four quaternionic products per RK4 stage, with
the Hamilton product written through ``moveaxis`` and ``stack``.  It is kept
here, unchanged, as the independent reference that ``integrate_frame``,
``integrate_left_vector`` and ``integrate_right_rowvec`` are tested against
(tests/test_march_equivalence.py), together with the Riccati march on real
quaternion components that ``integrate_riccati`` ran before its states and
coefficients became complex pairs.  The cubic midpoint samples are shared
with the package; the gates and the blow-up check are not part of it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from isothermic.grid import midpoint_samples


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


def row_mul(state, p):
    """Row vector (w1, w2) times a (..., 2, 2, 4) matrix."""
    cols = [
        qmul(state[..., 0, :], p[..., 0, c, :])
        + qmul(state[..., 1, :], p[..., 1, c, :])
        for c in range(2)
    ]
    return np.stack(cols, axis=-2)


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


def right_rowvec(phi_x, phi_y, grid, w0, p0):
    """dW = W Phi for a row vector with W(p0) = w0."""
    return march(grid, p0, phi_x, phi_y, np.asarray(w0, dtype=float), row_mul)


def riccati(a_x, a_y, b_x, b_y, grid, delta0, p0):
    """d(delta) = delta A delta - B with delta(p0) = delta0."""
    coef_x = np.stack([a_x, b_x], axis=2)  # (ny, nx, 2, 4)
    coef_y = np.stack([a_y, b_y], axis=2)

    def mul(state, p):
        return qmul(qmul(state, p[..., 0, :]), state) - p[..., 1, :]

    return march(grid, p0, coef_x, coef_y, np.asarray(delta0, dtype=float), mul)
