"""Structured-grid calculus for quaternion-valued fields.

The grid samples conformal curvature-line coordinates z = x + iy with equal
spacing h in both directions.  1-forms are stored by their dx/dy coefficient
fields; the exterior derivative uses central differences (one-sided second
order at boundaries), so the discrete curl annihilates derivative fields
exactly and closedness can be certified before any path integration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import (
    ConfigInvalid,
    GridMismatch,
    IoError,
    MaskedNeighbor,
    MaskedRegion,
    NotClosed,
    NotIntegrable,
    StepBlowup,
)
from .quaternion import (
    _cayley_dickson,
    _pair_matmul,
    _pair_planes,
    _pair_view,
    qm2_mul,
    qm2_norm,
    qmul,
    qnorm,
    study_det_array,
)

#: base tolerance for normalized closedness / Maurer-Cartan residuals
TAU_CLOSED = 1e-6
TAU_MC = 1e-6

#: entry norm beyond which an ODE march is considered to have blown up
BLOWUP_LIMIT = 1e12


def grid_tolerance(grid, base=TAU_CLOSED, scale=1.0):
    """Effective residual threshold at spacing h.

    Sampled analytic pipelines carry O(h^2) curl noise, so their normalized
    residual is O(h^3) with constants that can reach ~0.1/h near poles; a
    fixed gate would reject legitimate input at coarse desk grids.  The gate
    max(base, 0.2 h) admits any form whose curl is small relative to its
    magnitude while still rejecting genuinely non-closed forms (ratio ~1).
    """
    return max(base, 0.2 * grid.h) * scale


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid; node (iy, ix) sits at z = x0+ix*h + i(y0+iy*h)."""

    x0: float
    y0: float
    h: float
    nx: int
    ny: int
    mask: np.ndarray | None = None  # True = valid node

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid needs at least 4 samples per direction")
        if self.mask is not None and self.mask.shape != (self.ny, self.nx):
            raise ValueError("mask shape must be (ny, nx)")

    @classmethod
    def square(cls, half_width=1.0, n=129):
        """Symmetric grid on [-w, w]^2 with n samples per side."""
        h = 2.0 * half_width / (n - 1)
        return cls(-half_width, -half_width, h, n, n)

    def xs(self):
        return self.x0 + self.h * np.arange(self.nx)

    def ys(self):
        return self.y0 + self.h * np.arange(self.ny)

    def zgrid(self):
        return self.xs()[None, :] + 1j * self.ys()[:, None]

    def center_node(self):
        """Node closest to z = 0 (falls back to the grid center)."""
        ix = int(np.argmin(np.abs(self.xs())))
        iy = int(np.argmin(np.abs(self.ys())))
        return (iy, ix)

    def valid(self):
        if self.mask is None:
            return np.ones((self.ny, self.nx), dtype=bool)
        return self.mask

    def all_valid(self):
        return self.mask is None or bool(self.mask.all())

    def with_mask(self, mask):
        if mask is not None and mask.all():
            mask = None
        return replace(self, mask=mask)

    def same_geometry(self, other):
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and abs(self.x0 - other.x0) < 1e-12
            and abs(self.y0 - other.y0) < 1e-12
            and abs(self.h - other.h) < 1e-12
        )

    def merge_mask(self, extra_valid):
        """New grid whose mask is the AND of the current one and extra_valid."""
        return self.with_mask(self.valid() & extra_valid)

    def interior(self):
        """Validity restricted to non-boundary nodes."""
        v = self.valid().copy()
        v[0, :] = v[-1, :] = False
        v[:, 0] = v[:, -1] = False
        return v


def sample_on_grid(grid, fn, tail=(), dtype=float):
    """fn(grid.zgrid()) as a fresh (ny, nx) + tail array; constants broadcast."""
    values = np.asarray(fn(grid.zgrid()), dtype=dtype)
    shape = (grid.ny, grid.nx) + tail
    if values.shape != shape:
        values = np.broadcast_to(values, shape).copy()
    return values


@dataclass
class QField:
    """Quaternion-valued function sampled on a grid; values (ny, nx, 4)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.ny, self.grid.nx, 4):
            raise ValueError("values shape must be (ny, nx, 4)")

    @classmethod
    def constant(cls, grid, q):
        vals = np.zeros((grid.ny, grid.nx, 4))
        vals[...] = np.asarray(q, dtype=float)
        return cls(grid, vals)

    @classmethod
    def sample(cls, grid, fn):
        """Sample an array callable fn(grid.zgrid()) -> (ny, nx, 4) components.

        A result that broadcasts to (ny, nx, 4), such as a constant (4,)
        quaternion, is accepted.
        """
        return cls(grid, sample_on_grid(grid, fn, (4,), float))

    def value_at(self, node):
        return self.values[node[0], node[1]]


@dataclass
class QForm1:
    """Discrete quaternion-valued 1-form px dx + py dy."""

    grid: GridSpec
    px: np.ndarray
    py: np.ndarray

    def __post_init__(self):
        shape = (self.grid.ny, self.grid.nx, 4)
        if self.px.shape != shape or self.py.shape != shape:
            raise ValueError("form coefficients must have shape (ny, nx, 4)")


@dataclass
class FrameField:
    """Field of 2x2 quaternionic matrices; values (ny, nx, 2, 2, 4)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.ny, self.grid.nx, 2, 2, 4):
            raise ValueError("frame values must have shape (ny, nx, 2, 2, 4)")

    def study_det_drift(self, reference=1.0):
        dets = study_det_array(self.values)
        sel = self.grid.valid()
        return float(np.abs(dets[sel] - reference).max())

    def column(self, k):
        """Column k as an (ny, nx, 2, 4) homogeneous vector field."""
        return self.values[..., :, k, :]


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def diff_axis(values, h, axis):
    """Second-order derivative along an axis (central, one-sided at edges)."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    sl = [slice(None)] * v.ndim

    def at(idx):
        s = list(sl)
        s[axis] = idx
        return tuple(s)

    out[at(slice(1, -1))] = (v[at(slice(2, None))] - v[at(slice(0, -2))]) / (2 * h)
    out[at(0)] = (-3 * v[at(0)] + 4 * v[at(1)] - v[at(2)]) / (2 * h)
    out[at(-1)] = (3 * v[at(-1)] - 4 * v[at(-2)] + v[at(-3)]) / (2 * h)
    return out


def diff_x(values, h):
    return diff_axis(values, h, axis=1)


def diff_y(values, h):
    return diff_axis(values, h, axis=0)


def diff_axis4(values, h, axis):
    """Fourth-order derivative along an axis; one-sided 5-point at edges."""
    v = np.asarray(values, dtype=float)
    n = v.shape[axis]
    if n < 6:
        return diff_axis(values, h, axis)
    out = np.empty_like(v)
    sl = [slice(None)] * v.ndim

    def at(idx):
        s = list(sl)
        s[axis] = idx
        return tuple(s)

    out[at(slice(2, -2))] = (
        v[at(slice(0, -4))]
        - 8 * v[at(slice(1, -3))]
        + 8 * v[at(slice(3, -1))]
        - v[at(slice(4, None))]
    ) / (12 * h)
    # one-sided / skewed five-point stencils near the edges
    c_edge = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    c_next = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    for row, coeff, sign in (
        (0, c_edge, 1.0),
        (1, c_next, 1.0),
        (n - 1, c_edge, -1.0),
        (n - 2, c_next, -1.0),
    ):
        idxs = range(5) if sign > 0 else range(n - 1, n - 6, -1)
        acc = sum(c * v[at(k)] for c, k in zip(coeff, idxs))
        out[at(row)] = sign * acc / h
    return out


def dilate_invalid(valid, rings=1):
    """Shrink a validity mask: a node stays valid only if its ring is valid."""
    out = valid.copy()
    for _ in range(rings):
        nxt = out.copy()
        nxt[1:, :] &= out[:-1, :]
        nxt[:-1, :] &= out[1:, :]
        nxt[:, 1:] &= out[:, :-1]
        nxt[:, :-1] &= out[:, 1:]
        out = nxt
    return out


def d_field(f: QField) -> QForm1:
    """Exterior derivative of a 0-form: central differences, exact on linears."""
    grid = f.grid
    px = diff_x(f.values, grid.h)
    py = diff_y(f.values, grid.h)
    if not grid.all_valid():
        valid = dilate_invalid(grid.valid())
        if not valid.any():
            raise MaskedNeighbor("no node has a fully valid stencil")
        grid = grid.with_mask(valid)
    return QForm1(grid, px, py)


def d_field_hi(f: QField) -> QForm1:
    """Fourth-order exterior derivative, used for transform coefficients.

    The public d_field stays second order; coefficient forms feeding the
    RK4 transforms need the extra accuracy to keep cross-ratio level
    comparisons near the integrator floor at desk-scale grids.
    """
    grid = f.grid
    px = diff_axis4(f.values, grid.h, axis=1)
    py = diff_axis4(f.values, grid.h, axis=0)
    if not grid.all_valid():
        valid = dilate_invalid(grid.valid(), rings=2)
        if not valid.any():
            raise MaskedNeighbor("no node has a fully valid stencil")
        grid = grid.with_mask(valid)
    return QForm1(grid, px, py)


def wedge(alpha: QForm1, beta: QForm1) -> QField:
    """dx^dy coefficient of alpha^beta (order-preserving quaternion products)."""
    if not alpha.grid.same_geometry(beta.grid):
        raise GridMismatch("wedge of forms on different grids")
    vals = qmul(alpha.px, beta.py) - qmul(alpha.py, beta.px)
    grid = alpha.grid.merge_mask(beta.grid.valid())
    return QField(grid, vals)


def curl(omega: QForm1):
    """Pointwise discrete curl Dx(py) - Dy(px); zero on derivative fields."""
    return diff_x(omega.py, omega.grid.h) - diff_y(omega.px, omega.grid.h)


def _closedness_point(omega: QForm1):
    """Pointwise h |curl omega| and the nodes whose plaquettes are gated."""
    return omega.grid.h * qnorm(curl(omega)), dilate_invalid(omega.grid.valid())


def closedness_residual(omega: QForm1) -> float:
    """Max plaquette loop integral of omega, normalized by h * max |omega|.

    The loop pairing is the midpoint rule on the 2h plaquette, which is
    exactly the central-difference curl; d_field outputs are annihilated
    identically.
    """
    grid = omega.grid
    point, valid = _closedness_point(omega)
    scale = max(qnorm(omega.px)[grid.valid()].max(), qnorm(omega.py)[grid.valid()].max())
    if scale < 1e-300:
        return 0.0
    if not valid.any():
        raise MaskedNeighbor("no interior plaquettes")
    return float(point[valid].max() / scale)


def _gate(res, tau, what, error, pointwise):
    """Raise error unless res <= tau; a non-finite residual fails too, naming
    the first node (row-major) of pointwise() = (point, valid) whose point
    is not finite."""
    if res <= tau:
        return
    node = None
    if not np.isfinite(res):
        point, valid = pointwise()
        bad = np.argwhere(valid & ~np.isfinite(point))
        node = tuple(int(i) for i in bad[0]) if len(bad) else None
    raise error(f"{what} residual {res:.3e} exceeds {tau:.3e}", node=node)


def _spine_rows_order(grid, p0):
    iy0, ix0 = p0
    if not (0 <= iy0 < grid.ny and 0 <= ix0 < grid.nx):
        raise ValueError(f"base node {p0} outside grid")
    return iy0, ix0


def _path_valid_mask(grid, p0):
    """Nodes reachable from p0 along the spine-then-rows path scheme."""
    valid = grid.valid()
    iy0, ix0 = p0
    if not valid[iy0, ix0]:
        raise MaskedRegion("base node is masked", node=p0)
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


def cumulative_simpson(values, h, axis, origin):
    """Cumulative integral along an axis with F[origin] = 0, O(h^4).

    Sliding Simpson pairs; the first step off the edge uses the open
    three-point Newton-Cotes rule.  Exact on quadratics.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = v.shape[0]
    out = np.empty_like(v)
    out[0] = 0.0
    if n >= 3:
        out[1] = h * (5.0 * v[0] + 8.0 * v[1] - v[2]) / 12.0
    else:
        out[1] = h * (v[0] + v[1]) / 2.0
    for k in range(2, n):
        out[k] = out[k - 2] + h * (v[k - 2] + 4.0 * v[k - 1] + v[k]) / 3.0
    out = out - out[origin]
    return np.moveaxis(out, 0, axis)


def integrate_form(
    omega: QForm1,
    p0,
    v0,
    tau=None,
    tolerance_scale=1.0,
) -> QField:
    """Potential F with F(p0) = v0 and dF ~ omega (column spine, then rows).

    Requires omega to be discretely closed; path independence then holds up
    to the certified residual.
    """
    grid = omega.grid
    iy0, ix0 = _spine_rows_order(grid, p0)
    if tau is None:
        tau = grid_tolerance(grid, TAU_CLOSED, tolerance_scale)
    _gate(closedness_residual(omega), tau, "closedness", NotClosed,
          partial(_closedness_point, omega))

    px = omega.px
    py = omega.py
    if not grid.all_valid():
        reach = _path_valid_mask(grid, p0)
        px = np.where(reach[..., None], px, 0.0)
        py = np.where(reach[..., None], py, 0.0)
    spine = cumulative_simpson(py[:, ix0], grid.h, axis=0, origin=iy0)
    rows = cumulative_simpson(px, grid.h, axis=1, origin=ix0)
    vals = rows + spine[:, None, :] + np.asarray(v0, dtype=float)
    out_grid = grid if grid.all_valid() else grid.with_mask(reach)
    return QField(out_grid, vals)


# ---------------------------------------------------------------------------
# frame / vector / Riccati marching along grid lines
# ---------------------------------------------------------------------------

def _rk4_step_right(state, pa, pm, pb, h, mul):
    """One RK4 step of d(state) = mul(state, P) over [t, t+h]."""
    k1 = mul(state, pa)
    k2 = mul(state + 0.5 * h * k1, pm)
    k3 = mul(state + 0.5 * h * k2, pm)
    k4 = mul(state + h * k3, pb)
    return state + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def midpoint_samples(coef, axis):
    """Cubic interpolation of coefficient samples at interval midpoints.

    Returns an array with n-1 entries along `axis`; entry k sits between
    samples k and k+1.  Fourth-order accurate so RK4 keeps its global order
    on smooth non-constant coefficients.
    """
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


#: nodes per block of grid columns whose RK4 steps a march prepares at once
_MARCH_BLOCK = 4096


def _lines(first, count, d):
    """Slice of the count grid lines first, first + d, ... (d = 1 or -1)."""
    stop = first + d * count
    return slice(first, stop if stop >= 0 else None, d)


def _march(grid, p0, coef_x, coef_y, state0, steps, blowup):
    """March a per-node state along the spine column, then along rows.

    A state is the pair array (2, ..., b) of a batch of b nodes whose real
    (b, ..., 4) components the returned (ny, nx, ..., 4) field holds.
    steps(pa, pm, pb, s) prepares k grid steps of signed lengths s (k,) from
    the coefficients at their starts, midpoints and ends, (k, b, ...) for
    batches of b nodes, and returns advance(i, state), which takes a batch
    of states over step i.  The whole spine line is prepared in one call and
    the rows in blocks of grid columns of about _MARCH_BLOCK nodes; the
    states advance one grid line at a time.  StepBlowup names the first node
    reached whose state is not finite or exceeds blowup.
    """
    iy0, ix0 = _spine_rows_order(grid, p0)
    h = grid.h
    out = np.empty((grid.ny, grid.nx) + state0.shape[1:] + (4,))
    state0 = state0[..., None]
    _pair_view(out[iy0:iy0 + 1, ix0])[...] = state0

    def reached(state, iy, ix):
        vals = out[iy:iy + state.shape[-1], ix]
        _pair_view(vals)[...] = state
        norm = np.abs(vals).reshape(len(vals), -1).max(axis=1)
        bad = ~(norm <= blowup)
        if bad.any():
            k = int(bad.argmax())
            raise StepBlowup(f"state norm {norm[k]:.3e} exceeds {blowup:.1e}",
                             node=(iy + k, ix))

    # spine: vary iy at fixed ix0, in batches of one node; (target, start,
    # midpoint, step) up from iy0, then down from it
    cy = coef_y[:, ix0, None]
    my = midpoint_samples(cy, axis=0)
    rise = [(iy, iy - 1, iy - 1, h) for iy in range(iy0 + 1, grid.ny)]
    fall = [(iy, iy + 1, iy, -h) for iy in range(iy0 - 1, -1, -1)]
    target, start, mid, s = (list(v) for v in zip(*rise, *fall))
    advance = steps(cy[start], my[mid], cy[target], np.array(s))
    spine = np.empty(state0.shape[:-1] + (grid.ny,), state0.dtype)
    spine[..., iy0] = state0[..., 0]
    state = state0
    for i, iy in enumerate(target):
        state = advance(i, state0 if i == len(rise) else state)
        reached(state, iy, ix0)
        spine[..., iy] = state[..., 0]

    # rows: vary ix, batched over iy, right of ix0 then left of it
    mx = midpoint_samples(coef_x, axis=1)
    width = max(1, _MARCH_BLOCK // grid.ny)
    for d, end in ((1, grid.nx), (-1, -1)):
        state = spine
        for ix1 in range(ix0 + d, end, d * width):
            k = min(width, abs(end - ix1))
            advance = steps(*(np.swapaxes(c[:, _lines(f, k, d)], 0, 1) for c, f in (
                (coef_x, ix1 - d), (mx, min(ix1, ix1 - d)), (coef_x, ix1))), np.full(k, d * h))
            for i in range(k):
                state = advance(i, state)
                reached(state, 0, ix1 + d * i)
    return out


def _eye_plus(c, x):
    """I + c X for 2x2 quaternionic matrices X held as a pair array."""
    out = c * x
    out[0, 0, 0] += 1.0
    out[0, 1, 1] += 1.0
    return out


def _step_pairs(p, left):
    """Real (..., 2, 2, 4) coefficients P as the pair array of rep(P), or
    with left=True of -rep(P)^T, the pair (-A^T, conj(B)^T)."""
    if not left:
        return _pair_planes(p, 2)
    x = _pair_planes(np.swapaxes(p, -3, -2), 2)
    np.negative(x[0], out=x[0])
    np.conjugate(x[1], out=x[1])
    return x


def _linear_steps(product, left):
    """steps of _march for dx = x P on the rows x of a state's representation,
    or with left=True for dv = -P v on its columns, taken as rows.

    Builds the RK4 step matrices M = I + s/6 (Pa + 2 K2 + 2 K3 + K4),
    K2 = (I + s/2 Pa) Pm, K3 = (I + s/2 K2) Pm, K4 = (I + s K3) Pb for all
    k steps at once, as contiguous pair arrays (2, 2, 2, k, b); a step is
    product(state, M).  With left=True the steps use -rep(P)^T in place of
    rep(P), so that the same row product applies.
    """
    def steps(pa, pm, pb, s):
        pa, pm, pb = (_step_pairs(p, left) for p in (pa, pm, pb))
        s = s[:, None]
        k2 = _pair_matmul(_eye_plus(0.5 * s, pa), pm)
        k3 = _pair_matmul(_eye_plus(0.5 * s, k2), pm)
        k4 = _pair_matmul(_eye_plus(s, k3), pb)
        m = _eye_plus(s / 6.0, pa + 2.0 * (k2 + k3) + k4)
        return lambda i, state: product(state, m[..., i, :])

    return steps


def _linear_march(phi_x, phi_y, grid, p0, state0, product, left, tau, tolerance_scale,
                  blowup):
    """Maurer-Cartan gate, then _march of a linear system by RK4 step matrices
    (see _linear_steps)."""
    if tau is None:
        tau = grid_tolerance(grid, TAU_MC, tolerance_scale)
    _gate(maurer_cartan_residual(phi_x, phi_y, grid), tau, "Maurer-Cartan",
          NotIntegrable, partial(_maurer_cartan_point, phi_x, phi_y, grid))
    return _march(grid, p0, phi_x, phi_y, state0,
                  _linear_steps(product, left), blowup)


def _row_product(w, m):
    """Row vectors w = (w1, w2), pair arrays (2, 2, b), times matrices m."""
    return _pair_matmul(w[:, None], m)[:, 0]


def _column_row(v):
    """Column vectors v, pair arrays (2, 2, b), as column 0 (a1, a2 | -conj b1,
    -conj b2) of their representation, taken as a row; its own inverse."""
    return np.array((v[0], -np.conj(v[1])))


def _column_product(v, m):
    """The row product of _row_product on columns v taken as rows."""
    return _column_row(_row_product(_column_row(v), m))


def _maurer_cartan_point(phi_x, phi_y, grid):
    """Pointwise |d(Phi) + Phi^Phi| and the nodes whose plaquettes are gated."""
    d = diff_x(phi_y, grid.h) - diff_y(phi_x, grid.h)
    comm = qm2_mul(phi_x, phi_y) - qm2_mul(phi_y, phi_x)
    return qm2_norm(d + comm), dilate_invalid(grid.valid())


def maurer_cartan_residual(phi_x, phi_y, grid) -> float:
    """Normalized residual of d(Phi) + Phi^Phi over interior plaquettes."""
    point, valid = _maurer_cartan_point(phi_x, phi_y, grid)
    scale = 1.0 + max(
        qm2_norm(phi_x)[grid.valid()].max(), qm2_norm(phi_y)[grid.valid()].max()
    )
    if not valid.any():
        raise MaskedNeighbor("no interior plaquettes")
    return float(grid.h * point[valid].max() / scale)


def integrate_frame(
    phi_x,
    phi_y,
    grid: GridSpec,
    f0,
    p0,
    tau=None,
    tolerance_scale=1.0,
    blowup=BLOWUP_LIMIT,
    spine="column",
) -> FrameField:
    """Solve dF = F Phi along grid lines by RK4: F(p0) = f0.

    phi_x, phi_y: (ny, nx, 2, 2, 4) connection coefficients; midpoint values
    are cubic interpolations of the samples.  The default path scheme runs
    down the base column then along rows; spine="row" transposes it, which
    is useful for certifying path independence.
    """
    if spine not in ("column", "row"):
        raise ValueError("spine must be 'column' or 'row'")
    args = (_pair_planes(f0, 2), _pair_matmul, False, tau, tolerance_scale, blowup)
    if spine == "column":
        return FrameField(grid, _linear_march(phi_x, phi_y, grid, p0, *args))
    swapped = replace(grid, nx=grid.ny, ny=grid.nx, x0=grid.y0, y0=grid.x0,
                      mask=None if grid.mask is None else grid.mask.T)
    try:
        vals = _linear_march(np.swapaxes(phi_y, 0, 1), np.swapaxes(phi_x, 0, 1), swapped,
                             (p0[1], p0[0]), *args)
    except StepBlowup as exc:  # name the node in the grid's own (iy, ix) order
        raise StepBlowup(exc.args[0].rsplit(" (at node", 1)[0], node=exc.node[::-1]) from None
    return FrameField(grid, np.swapaxes(vals, 0, 1))


def integrate_left_vector(
    phi_x,
    phi_y,
    grid: GridSpec,
    v0,
    p0,
    tau=None,
    tolerance_scale=1.0,
    blowup=BLOWUP_LIMIT,
):
    """Solve 0 = dv + Phi v (so dv = -Phi v) for a column vector field."""
    v0 = _pair_planes(v0, 1)
    return _linear_march(phi_x, phi_y, grid, p0, v0, _column_product, True, tau,
                         tolerance_scale, blowup)


def integrate_right_rowvec(
    phi_x,
    phi_y,
    grid: GridSpec,
    w0,
    p0,
    tau=None,
    tolerance_scale=1.0,
    blowup=BLOWUP_LIMIT,
):
    """Solve dW = W Phi for a row vector (w1, w2) of quaternions."""
    w0 = _pair_planes(w0, 1)
    return _linear_march(phi_x, phi_y, grid, p0, w0, _row_product, False, tau,
                         tolerance_scale, blowup)


def integrate_riccati(
    a_x,
    a_y,
    b_x,
    b_y,
    grid: GridSpec,
    delta0,
    p0,
    blowup=BLOWUP_LIMIT,
):
    """Solve d(delta) = delta A delta - B for a quaternion field.

    A and B are 1-forms given by their coefficient arrays (ny, nx, 4).
    """
    coef_x = np.stack([a_x, b_x], axis=2)  # (ny, nx, 2, 4)
    coef_y = np.stack([a_y, b_y], axis=2)

    def mul(state, p):  # delta A delta - B; states and p = (A, B) as pair arrays
        delta_a = _cayley_dickson(*state, *p[:, 0])
        return np.array(_cayley_dickson(*delta_a, *state)) - p[:, 1]

    def steps(pa, pm, pb, s):
        pa, pm, pb = (_pair_planes(p, 1) for p in (pa, pm, pb))
        return lambda i, state: _rk4_step_right(state, pa[..., i, :], pm[..., i, :],
                                                pb[..., i, :], s[i], mul)

    delta0 = _pair_planes(delta0, 0)
    return _march(grid, p0, coef_x, coef_y, delta0, steps, blowup)


def laplacian(u, grid: GridSpec):
    """5-point Laplacian of a real field; boundary values are not meaningful.

    Returns (values, interior validity mask).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    h2 = grid.h * grid.h
    out[1:-1, 1:-1] = (
        u[1:-1, 2:] + u[1:-1, :-2] + u[2:, 1:-1] + u[:-2, 1:-1] - 4.0 * u[1:-1, 1:-1]
    ) / h2
    valid = dilate_invalid(grid.valid()) & grid.interior()
    if not valid.any():
        raise MaskedNeighbor("laplacian needs interior nodes")
    return out, valid


def crop_grid(grid: GridSpec, rings: int) -> GridSpec:
    """Subgrid with `rings` boundary layers removed (same spacing)."""
    if 2 * rings >= min(grid.nx, grid.ny) - 3:
        raise ValueError("crop would leave too few samples")
    mask = grid.mask[rings:-rings, rings:-rings] if grid.mask is not None else None
    return GridSpec(
        grid.x0 + rings * grid.h,
        grid.y0 + rings * grid.h,
        grid.h,
        grid.nx - 2 * rings,
        grid.ny - 2 * rings,
        mask,
    )


def crop_field(field: QField, rings: int) -> QField:
    """Restrict a field to the interior subgrid (drops edge cascades)."""
    return QField(crop_grid(field.grid, rings), field.values[rings:-rings, rings:-rings])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def grid_to_dict(grid: GridSpec):
    d = {"x0": grid.x0, "y0": grid.y0, "h": grid.h, "nx": grid.nx, "ny": grid.ny}
    if grid.mask is not None:
        d["mask"] = [int(v) for v in grid.mask.reshape(-1)]
    return d


def grid_from_dict(d):
    mask = None
    if "mask" in d:
        mask = np.asarray(d["mask"], dtype=bool).reshape(d["ny"], d["nx"])
    return GridSpec(d["x0"], d["y0"], d["h"], d["nx"], d["ny"], mask)


def field_to_dict(f: QField):
    return {
        "grid": grid_to_dict(f.grid),
        "values": [[float(c) for c in row] for row in f.values.reshape(-1, 4)],
    }


def field_from_dict(d):
    """QField of a field document; a malformed document is invalid input."""
    try:
        grid = grid_from_dict(d["grid"])
        vals = np.asarray(d["values"], dtype=float)
        if vals.shape != (grid.ny * grid.nx, 4):
            raise ValueError(f"values of shape {vals.shape} for {grid.ny}x{grid.nx} nodes")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed field document: {exc}") from None
    if not np.isfinite(vals).all():
        raise ConfigInvalid("field values must be finite")
    return QField(grid, vals.reshape(grid.ny, grid.nx, 4))


def save_field(f: QField, path, header=None):
    doc = field_to_dict(f)
    if header:
        doc.update(header)
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot write field to {path}: {exc}") from None


def load_field(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot read field from {path}: {exc}") from None
    return field_from_dict(doc), doc
