"""Structured-grid calculus for quaternion-valued fields.

The grid samples conformal curvature-line coordinates z = x + iy with equal
spacing h in both directions.  1-forms are stored by their dx/dy coefficient
fields; the exterior derivative uses central differences (one-sided second
order at boundaries), so the discrete curl annihilates derivative fields
exactly and closedness can be certified before any path integration.
"""

from __future__ import annotations

import json
import os
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
    _pair_floats,
    _pair_matmul,
    _pair_planes,
    _pair_view,
    _put_planes,
    _study_planes,
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


def grid_tolerance(grid, base=TAU_CLOSED):
    """Effective residual threshold at spacing h.

    Sampled analytic pipelines carry O(h^2) curl noise, so their normalized
    residual is O(h^3) with constants that can reach ~0.1/h near poles; a
    fixed gate would reject legitimate input at coarse desk grids.  The gate
    max(base, 0.2 h) admits any form whose curl is small relative to its
    magnitude while still rejecting genuinely non-closed forms (ratio ~1).
    """
    return max(base, 0.2 * grid.h)


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

    def interior(self, rings=1):
        """Validity with the outer `rings` rings of nodes removed."""
        v = self.valid().copy()
        v[:rings, :] = v[-rings:, :] = False
        v[:, :rings] = v[:, -rings:] = False
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

    def connection_form(self):
        """(phi_x, phi_y) of Phi = F^-1 dF, entrywise fourth-order differences
        (see _connection_planes)."""
        phi = np.empty((2,) + self.values.shape)
        for rows, *planes in _connection_planes(self):
            for out, p in zip(phi, planes):
                _pair_view(out[rows].reshape(-1, 2, 2, 4))[...] = p.reshape(2, 2, 2, -1)
        return phi[0], phi[1]

    def study_det_drift(self):
        """Largest deviation of the Study determinant from 1 over valid nodes."""
        dets = study_det_array(self.values)
        sel = self.grid.valid()
        return float(np.abs(dets[sel] - 1.0).max())


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Stencil:
    """A stencil along one axis: integer weights over a denominator, times
    h**-power.  An interior output row k reads the lines k - before ..
    k + after with the weights centre.  Output rows 0 .. before - 1 read the
    first lines with the weights of edge, or are 0 where edge has no row
    for them, and the last `before` rows mirror them (changing sign for an
    odd power).  So n lines give n + before - after rows.  Below `lines`
    lines the stencil is its fallback."""

    centre: tuple
    before: int
    edge: tuple
    denominator: int
    power: int
    lines: int
    fallback: _Stencil | None

    @property
    def reach(self):
        """(before, after, width): the lines a row reads before and after its
        own, and the lines that give every row at a grid edge as the whole
        axis does (edge rows and fallback included)."""
        return self.before, len(self.centre) - 1 - self.before, self.lines


# the stencil table: second- and fourth-order first derivatives (one-sided
# rows at the edges), second derivatives (0 at the edges; their sum over
# both axes is a Laplacian), and the cubic interval midpoints (n - 1 entries,
# entry k between samples k and k + 1; fourth-order so RK4 keeps its order,
# linear below four samples)
_D1 = _Stencil((-1, 0, 1), 1, ((-3, 4, -1),), 2, 1, 3, None)
_D1_4 = _Stencil((1, -8, 0, 8, -1), 2, ((-25, 48, -36, 16, -3), (-3, -10, 18, -6, 1)),
                 12, 1, 6, _D1)
_D2 = _Stencil((1, -2, 1), 1, (), 1, 2, 3, None)
_D2_4 = _Stencil((-1, 16, -30, 16, -1), 2, (), 12, 2, 5, None)
_MIDPOINT = _Stencil((-1, 9, 9, -1), 1, ((5, 15, -5, 1),), 16, 0, 4,
                     _Stencil((1, 1), 0, (), 2, 0, 2, None))


def _weighted_sum(terms, out):
    """Write into out the sum of w * (a - b), or of w * a where b is None,
    over the triples (w, a, b) of terms, left to right, with no product for
    a weight of 1 or -1."""
    tmp = np.empty_like(out)
    for i, (w, a, b) in enumerate(terms):
        t = a if b is None else np.subtract(a, b, out=tmp if i else out)
        if not i:
            if b is None or w != 1:
                np.multiply(t, w, out=out)
        elif w > 0:
            out += t if w == 1 else np.multiply(t, w, out=tmp)
        else:
            out -= t if w == -1 else np.multiply(t, -w, out=tmp)


def _along(stencil, values, h, axis, rows):
    """stencil applied to values along axis at its output rows `rows` (a
    slice, or None for all of them), reading only the lines those rows name.

    Weights that sum to 0 (derivatives) are summed as differences, so that a
    constant gives exactly 0: w (v[k] - v[-k]) over k > 0 for an
    antisymmetric centre, w (v[k] - v[0]) over k != 0 for another one, and
    w (v[k] - v[i]) over k != i for edge row i; the sum is divided once by
    the denominator times h, and by h again for a second derivative.  Other
    weights (interpolation) add w v[k] left to right and divide by the
    denominator.  A complex field goes through its float view.
    """
    if np.iscomplexobj(values):
        axis %= values.ndim
        return _along(stencil, _pair_floats(values), h, axis, rows).view(complex)[..., 0]
    v = np.asarray(values, dtype=float)
    axis %= v.ndim
    n = v.shape[axis]
    if n < stencil.lines and stencil.fallback:
        stencil = stencil.fallback
    before, after, _ = stencil.reach
    m = n + before - after
    first, stop, _ = (rows or slice(None)).indices(m)
    out = (np.zeros if len(stencil.edge) < before else np.empty)(
        v.shape[:axis] + (stop - first,) + v.shape[axis + 1:])
    at = (slice(None),) * axis
    c = stencil.centre
    difference = sum(c) == 0

    lo, hi = max(first, before), min(stop, m - before)
    if lo < hi:
        def line(k):
            return v[at + (slice(lo + k, hi + k),)]

        if not difference:
            terms = ((w, line(k - before), None) for k, w in enumerate(c))
        elif c == tuple(-w for w in c[::-1]):
            terms = ((c[before + k], line(k), line(-k)) for k in range(1, before + 1))
        else:
            terms = ((w, line(k - before), line(0)) for k, w in enumerate(c) if k != before)
        _weighted_sum(terms, out[at + (slice(lo - first, hi - first),)])
    for i, weights in enumerate(stencil.edge):
        for k, lines, far in ((i, v, False), (m - 1 - i, np.flip(v, axis), True)):
            if first <= k < stop:
                row = out[at + (slice(k - first, k - first + 1),)]
                base = lines[at + (slice(i, i + 1),)] if difference else None
                _weighted_sum(((w, lines[at + (slice(j, j + 1),)], base)
                               for j, w in enumerate(weights) if j != i or not difference), row)
                if far and stencil.power % 2:
                    np.negative(row, out=row)
    out /= stencil.denominator * h if stencil.power else stencil.denominator
    if stencil.power == 2:
        out /= h
    return out


def diff_axis(values, h, axis):
    """Second-order derivative along an axis (central, one-sided at edges)."""
    return _along(_D1, values, h, axis, None)


def diff_axis4(values, h, axis):
    """Fourth-order derivative along an axis; one-sided 5-point at edges, and
    diff_axis below six lines."""
    return _along(_D1_4, values, h, axis, None)


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


def _exterior_derivative(grid: GridSpec, stencil, parts) -> QForm1:
    """The 1-form of parts = (px, py), a 0-form's stencil derivatives along x
    and y; on a masked grid, valid where every node its rows read is valid."""
    px, py = parts
    if not grid.all_valid():
        valid = dilate_invalid(grid.valid(), rings=stencil.before)
        if not valid.any():
            raise MaskedNeighbor("no node has a fully valid stencil")
        grid = grid.with_mask(valid)
    return QForm1(grid, px, py)


def d_field(f: QField) -> QForm1:
    """Exterior derivative of a 0-form: central differences, exact on linears."""
    return _exterior_derivative(f.grid, _D1, [diff_axis(f.values, f.grid.h, a) for a in (1, 0)])


def wedge(alpha: QForm1, beta: QForm1) -> QField:
    """dx^dy coefficient of alpha^beta (order-preserving quaternion products)."""
    if not alpha.grid.same_geometry(beta.grid):
        raise GridMismatch("wedge of forms on different grids")
    vals = qmul(alpha.px, beta.py) - qmul(alpha.py, beta.px)
    grid = alpha.grid.merge_mask(beta.grid.valid())
    return QField(grid, vals)


def curl(omega: QForm1):
    """Pointwise discrete curl Dx(py) - Dy(px); zero on derivative fields."""
    return diff_axis(omega.py, omega.grid.h, 1) - diff_axis(omega.px, omega.grid.h, 0)


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
    if not valid.any():
        raise MaskedNeighbor("no interior plaquettes")
    scale = max(qnorm(omega.px)[grid.valid()].max(), qnorm(omega.py)[grid.valid()].max())
    if scale < 1e-300:
        return 0.0
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


def _path_scan(values, p0, scan):
    """values (ny, nx, ...) scanned along the spine-then-rows path scheme: up
    and down the base column from p0, then along every row outwards from
    that column.  scan(lines) scans lines (m, ...) in place, walked along
    their first axis outwards from the node they leave, which it keeps: each
    later node's value is made from its own and those of the nodes before
    it."""
    out = np.array(values, copy=True)
    for lines, i0 in ((out[:, p0[1]], p0[0]), (np.swapaxes(out, 0, 1), p0[1])):
        scan(lines[i0:])
        scan(lines[i0::-1])
    return out


def _path_valid_mask(grid, p0):
    """Nodes reachable from p0 along the spine-then-rows path scheme."""
    valid = grid.valid()
    iy0, ix0 = p0
    if not valid[iy0, ix0]:
        raise MaskedRegion("base node is masked", node=p0)
    return _path_scan(valid, p0, lambda lines: np.logical_and.accumulate(lines, out=lines))


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


def integrate_form(omega: QForm1, p0, v0) -> QField:
    """Potential F with F(p0) = v0 and dF ~ omega (column spine, then rows).

    Requires omega to be discretely closed; path independence then holds up
    to the certified residual.
    """
    grid = omega.grid
    iy0, ix0 = _spine_rows_order(grid, p0)
    _gate(closedness_residual(omega), grid_tolerance(grid), "closedness", NotClosed,
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


#: nodes per block of grid columns whose RK4 steps a march prepares at once,
#: and per block of grid rows that the connection and curvature of a frame
#: are computed on
_MARCH_BLOCK = 4096


def _row_planes(values, *stencils):
    """Blocks of grid rows of about _MARCH_BLOCK nodes of a (ny, nx, 2, 2, 4)
    field, each copied once into pair planes (2, 2, 2, m, nx) together with
    the rows around it that the stencils read along the rows to give the
    block's rows as the whole grid does (their reach, see _Stencil).  Yields
    (rows, planes, block): the block's grid rows, the planes, and the
    block's rows within them."""
    before, after, width = (max(r) for r in zip((0, 0, 0), *(s.reach for s in stencils)))
    ny, nx = values.shape[:2]
    step = max(1, _MARCH_BLOCK // nx)
    for first in range(0, ny, step):
        count = min(step, ny - first)
        lo = max(0, min(first - before, ny - width))
        hi = min(ny, max(first + count + after, lo + width))
        block = slice(first - lo, first - lo + count)
        yield slice(first, first + step), _pair_planes(values[lo:hi], 2), block


def _connection_planes(frame):
    """Phi = F^-1 dF of a FrameField per block of grid rows (see _row_planes),
    entrywise fourth-order differences (diff_axis4): yields (rows, phi_x,
    phi_y) as pair planes (2, 2, 2, m, nx), differentiating the block's rows
    only.  SingularMatrix names the first singular node of the grid,
    row-major."""
    h, nx = frame.grid.h, frame.grid.nx
    for rows, planes, block in _row_planes(frame.values, _D1_4):
        f = planes[..., block, :]
        inv = _study_planes(f, True, lambda i: (rows.start + int(i) // nx, int(i) % nx))[1]
        yield (rows, _pair_matmul(inv, _along(_D1_4, f, h, -1, None)),
               _pair_matmul(inv, _along(_D1_4, planes, h, -2, block)))


def _lines(first, count, d):
    """Slice of the count grid lines first, first + d, ... (d = 1 or -1)."""
    stop = first + d * count
    return slice(first, stop if stop >= 0 else None, d)


@np.errstate(all="ignore")
def _march(grid, p0, coef_x, coef_y, state0, steps, blowup, spine):
    """March a per-node state along the spine through p0, then along the
    lines that cross it: the base column, then the rows (spine="column"),
    or the base row, then the columns (spine="row").

    A state is the pair array (2, ..., b) of a batch of b nodes whose real
    (b, ..., 4) components the returned (ny, nx, ..., 4) field holds.
    steps(pa, pm, pb, s) prepares k grid steps of signed lengths s (k, b)
    from the coefficients at their starts, midpoints and ends, pair arrays
    (2, <coefficient axes>, k, b) that it may overwrite, and returns
    advance(i, state), which takes a batch of states over step i.  The spine
    is marched as one node, the lines batched over the spine's nodes, each
    outwards from p0 on both sides at once: the b members of the half above
    p0 and the b of the half below it are one batch of 2b, with steps of +h
    and -h, until the shorter half ends; the rest of the longer half is then
    marched alone.  The steps are prepared in blocks of grid lines of about
    _MARCH_BLOCK nodes, and the states advance one grid line at a time.

    Each block is checked after its last line.  StepBlowup names the node
    that a march of the upper half and then the lower half reaches first
    whose state is not finite or exceeds blowup: its first bad line, then
    that line's first bad member.  So a bad node of the lower half is named
    only once the upper half has ended without one.  Floating-point
    exceptions are not reported as they occur: an overflow or invalid
    operation, in the step preparation or in a step, leaves a non-finite or
    over-limit state that these checks name.
    """
    iy0, ix0 = _spine_rows_order(grid, p0)
    out = np.empty((grid.ny, grid.nx) + state0.shape[1:] + (4,))
    _pair_view(out[iy0:iy0 + 1, ix0])[...] = state0[..., None]
    ndim = coef_x.ndim - 3  # the matrix axes of a coefficient

    def lines(coef, vals, i0, node):
        """March vals (b, n, ..., 4) by coef (b, n, ...) from line i0 to the
        lines above and below it; node(r, i) is the grid node of batch member
        r on line i.  A run marches the halves dirs (1 above, -1 below) over
        their lines j0 + 1 .. j1 away from i0, in blocks whose steps span the
        intervals first .. first + k - 1 of each half, walked in order d."""
        b, n = coef.shape[:2]
        up, down = n - 1 - i0, i0
        state = np.concatenate(2 * (_pair_view(vals[:, i0]),), axis=-1)
        pending = None  # the first bad node of the lower half
        for dirs, j0, j1 in (((1, -1), 0, min(up, down)),
                             ((1,) if up > down else (-1,), min(up, down), max(up, down))):
            if dirs == (-1,) and pending is not None:
                raise pending
            if len(dirs) == 1:
                state = state[..., :b] if dirs == (1,) else state[..., b:]
            halves = [(d, np.s_[..., h * b:(h + 1) * b]) for h, d in enumerate(dirs)]
            s = np.repeat(np.array(dirs) * grid.h, b)
            width = max(1, _MARCH_BLOCK // len(s))
            for j in range(j0, j1, width):
                k = min(width, j1 - j)
                pa, pm, pb = (np.empty((2,) + coef.shape[2:-1] + (k, len(s)), complex)
                              for _ in range(3))
                for d, half in halves:
                    i1 = i0 + d * (j + 1)
                    first = i1 - 1 if d > 0 else i1 - k + 1
                    for buf, c in zip((pa, pm, pb), (
                            coef[:, _lines(i1 - d, k, d)],
                            _along(_MIDPOINT, coef, None, 1, slice(first, first + k))[:, ::d],
                            coef[:, _lines(i1, k, d)])):
                        _put_planes(buf[half], np.swapaxes(c, 0, 1), ndim)
                advance = steps(pa, pm, pb, np.broadcast_to(s, (k, len(s))))
                for i in range(k):
                    state = advance(i, state)
                    for d, half in halves:
                        _pair_view(vals[:, i0 + d * (j + 1 + i)])[...] = state[half]
                # each half's first bad line of the block, then its first bad
                # member; the per-node norms only where the block's one max
                # exceeds blowup or is NaN
                for d, _ in halves:
                    i1 = i0 + d * (j + 1)
                    block = np.abs(vals[:, _lines(i1, k, d)])
                    if block.max() <= blowup:
                        continue
                    norm = block.max(axis=tuple(range(2, vals.ndim)))
                    bad = ~(norm <= blowup)
                    line = int(bad.any(axis=0).argmax())
                    r = int(bad[:, line].argmax())
                    err = StepBlowup(f"state norm {norm[r, line]:.3e} exceeds {blowup:.1e}",
                                     node=node(r, i1 + d * line))
                    if d > 0:
                        raise err
                    pending = err if pending is None else pending
        if pending is not None:
            raise pending

    if spine == "column":
        lines(coef_y[:, ix0][None], out[:, ix0][None], iy0, lambda r, i: (i, ix0))
        lines(coef_x, out, ix0, lambda r, i: (r, i))
    else:
        lines(coef_x[iy0][None], out[iy0][None], ix0, lambda r, i: (iy0, i))
        lines(np.swapaxes(coef_y, 0, 1), np.swapaxes(out, 0, 1), iy0, lambda r, i: (i, r))
    return out


def _eye_plus(c, x):
    """I + c X for 2x2 quaternionic matrices X held as a pair array."""
    out = c * x
    out[0, 0, 0] += 1.0
    out[0, 1, 1] += 1.0
    return out


def _linear_steps(product, left):
    """steps of _march for dx = x P on the rows x of a state's representation,
    or with left=True for dv = -P v on its columns, taken as rows.

    Builds the RK4 step matrices M = I + s/6 (Pa + 2 K2 + 2 K3 + K4),
    K2 = (I + s/2 Pa) Pm, K3 = (I + s/2 K2) Pm, K4 = (I + s K3) Pb for all
    k steps at once, as contiguous pair arrays (2, 2, 2, k, b); a step is
    product(state, M).  With left=True the steps use -rep(P)^T in place of
    rep(P), so that the same row product applies: _linear_march passes the
    coefficients P^T, whose pair planes (A^T, B^T) become (-A^T, conj(B)^T).
    """
    def steps(pa, pm, pb, s):
        if left:
            for p in (pa, pm, pb):
                np.negative(p[0], out=p[0])
                np.conjugate(p[1], out=p[1])
        k2 = _pair_matmul(_eye_plus(0.5 * s, pa), pm)
        k3 = _pair_matmul(_eye_plus(0.5 * s, k2), pm)
        k4 = _pair_matmul(_eye_plus(s, k3), pb)
        m = _eye_plus(s / 6.0, pa + 2.0 * (k2 + k3) + k4)
        return lambda i, state: product(state, m[..., i, :])

    return steps


def _linear_march(phi_x, phi_y, grid, p0, state0, product, left, tau, spine, curvature_norm):
    """Maurer-Cartan gate, then _march of a linear system by RK4 step matrices
    (see _linear_steps).  A known pointwise curvature norm (ny, nx) of Phi
    can pass the gate (see _curvature_residual); where it does not, the gate
    computes maurer_cartan_residual and decides by that."""
    if tau is None:
        tau = grid_tolerance(grid, TAU_MC)
    if not _curvature_residual(curvature_norm, phi_x, phi_y, grid) <= tau:
        _gate(maurer_cartan_residual(phi_x, phi_y, grid), tau, "Maurer-Cartan",
              NotIntegrable, partial(_maurer_cartan_point, phi_x, phi_y, grid))
    if left:
        phi_x, phi_y = (np.swapaxes(p, -3, -2) for p in (phi_x, phi_y))
    return _march(grid, p0, phi_x, phi_y, state0,
                  _linear_steps(product, left), BLOWUP_LIMIT, spine)


def _column_row(v):
    """Column vectors v, pair arrays (2, 2, b), as column 0 (a1, a2 | -conj b1,
    -conj b2) of their representation, taken as a row; its own inverse."""
    return np.array((v[0], -np.conj(v[1])))


def _column_product(v, m):
    """Columns v, pair arrays (2, 2, b), taken as rows, times matrices m."""
    return _column_row(_pair_matmul(_column_row(v)[:, None], m)[:, 0])


def _maurer_cartan_point(phi_x, phi_y, grid):
    """Pointwise |d(Phi) + Phi^Phi| and the nodes whose plaquettes are gated.

    Computed over blocks of grid rows (see _row_planes), so that no temporary
    spans the whole grid: each coefficient's block is copied to pair planes
    once, phi_x's with the rows around it that its y-derivative reads, and
    both products of the commutator read those planes.  The curvature goes
    back to real components per block, so that qm2_norm sums its entries in
    their order.
    """
    point = np.empty((grid.ny, grid.nx))
    for (rows, px, block), (_, py, _) in zip(_row_planes(phi_x, _D1), _row_planes(phi_y)):
        d = _along(_D1, py, grid.h, -1, None) - _along(_D1, px, grid.h, -2, block)
        px = px[..., block, :]
        d += _pair_matmul(px, py) - _pair_matmul(py, px)
        curvature = np.empty(d.shape[3:] + (2, 2, 4))
        _pair_view(curvature.reshape(-1, 2, 2, 4))[...] = d.reshape(2, 2, 2, -1)
        point[rows] = qm2_norm(curvature)
    return point, dilate_invalid(grid.valid())


def _connection_scale(phi_x, phi_y, grid):
    """1 + the largest entry norm of Phi over the valid nodes; nan where a
    valid node of either coefficient holds a nan."""
    valid = grid.valid()
    return 1.0 + np.maximum(qm2_norm(phi_x)[valid].max(), qm2_norm(phi_y)[valid].max())


def maurer_cartan_residual(phi_x, phi_y, grid) -> float:
    """Normalized residual of d(Phi) + Phi^Phi over interior plaquettes.

    Raises NotIntegrable where the residual overflows the float range.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            point, valid = _maurer_cartan_point(phi_x, phi_y, grid)
            if not valid.any():
                raise MaskedNeighbor("no interior plaquettes")
            return float(grid.h * point[valid].max() / _connection_scale(phi_x, phi_y, grid))
    except FloatingPointError:
        raise NotIntegrable("Maurer-Cartan residual overflows: the connection is "
                            "beyond the float range") from None


@np.errstate(all="ignore")
def _curvature_residual(point, phi_x, phi_y, grid):
    """maurer_cartan_residual of Phi read from its pointwise curvature norm
    point (ny, nx); nan where point is None, no plaquette is gated or the
    scale is not finite (an overflow that maurer_cartan_residual reports)."""
    if point is None:
        return np.nan
    valid = dilate_invalid(grid.valid())
    if not valid.any():
        return np.nan
    scale = _connection_scale(phi_x, phi_y, grid)
    return grid.h * point[valid].max() / scale if np.isfinite(scale) else np.nan


def integrate_frame(
    phi_x,
    phi_y,
    grid: GridSpec,
    f0,
    p0,
    tau=None,
    spine="column",
    curvature_norm=None,
) -> FrameField:
    """Solve dF = F Phi along grid lines by RK4: F(p0) = f0.

    phi_x, phi_y: (ny, nx, 2, 2, 4) connection coefficients; midpoint values
    are cubic interpolations of the samples.  The default path scheme runs
    down the base column then along rows; spine="row" runs along the base
    row then down the columns, which is useful for certifying path
    independence.  curvature_norm, the pointwise norm (ny, nx) of d(Phi) +
    Phi^Phi where it is known in closed form, lets the Maurer-Cartan gate
    pass without computing the curvature from phi.
    """
    if spine not in ("column", "row"):
        raise ValueError("spine must be 'column' or 'row'")
    return FrameField(grid, _linear_march(phi_x, phi_y, grid, p0, _pair_planes(f0, 2),
                                          _pair_matmul, False, tau, spine, curvature_norm))


def integrate_left_vector(phi_x, phi_y, grid: GridSpec, v0, p0, tau=None,
                          curvature_norm=None):
    """Solve 0 = dv + Phi v (so dv = -Phi v) for a column vector field;
    curvature_norm as for integrate_frame."""
    v0 = _pair_planes(v0, 1)
    return _linear_march(phi_x, phi_y, grid, p0, v0, _column_product, True, tau, "column",
                         curvature_norm)


def integrate_riccati(
    a_x,
    a_y,
    b_x,
    b_y,
    grid: GridSpec,
    delta0,
    p0,
):
    """Solve d(delta) = delta A delta - B for a quaternion field.

    A and B are 1-forms given by their coefficient arrays (ny, nx, 4).
    """
    coef_x = np.stack([a_x, b_x], axis=2)  # (ny, nx, 2, 4)
    coef_y = np.stack([a_y, b_y], axis=2)

    def mul(state, p):  # delta A delta - B; states and p = (A, B) as pair arrays
        return _cayley_dickson(_cayley_dickson(state, p[:, 0]), state) - p[:, 1]

    def steps(pa, pm, pb, s):
        return lambda i, state: _rk4_step_right(state, pa[..., i, :], pm[..., i, :],
                                                pb[..., i, :], s[i], mul)

    delta0 = _pair_planes(delta0, 0)
    return _march(grid, p0, coef_x, coef_y, delta0, steps, BLOWUP_LIMIT, "column")


def laplacian(u, grid: GridSpec):
    """5-point Laplacian of a real field; boundary values are not meaningful.

    Returns (values, interior validity mask).
    """
    out = _along(_D2, u, grid.h, 0, None) + _along(_D2, u, grid.h, 1, None)
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


def write_text(path, pieces, what):
    """Write the strings pieces to path atomically: into a temporary file
    next to it, then os.replace, so that a failed write leaves no partial
    file; an OSError is an IoError naming what was written."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise IoError(f"cannot write {what} to {path}: {exc}") from None


def surface_texts(f: QField):
    """The values of f, each float formatted once by float.__repr__, as the
    JSON text of its [w, x, y, z] records and as OBJ vertex lines, each in
    pieces of 1024 nodes (no whole-file buffer); a NaN or infinity is an IoError."""
    if not np.isfinite(f.values).all():
        raise IoError("cannot write surface: its values hold a NaN or infinity")
    rows = f.values.reshape(-1, 4)
    records, vertices = [], []
    for start in range(0, len(rows), 1024):
        block, lines = [], []
        for w, x, y, z in rows[start:start + 1024].tolist():
            x, y, z = repr(x), repr(y), repr(z)
            block.append(f"[{w!r}, {x}, {y}, {z}]")
            lines.append(f"v {x} {y} {z}\n")
        records += [", ", ", ".join(block)]
        vertices.append("".join(lines))
    return ["[", *records[1:], "]"], vertices


def save_field(f: QField, path, header=None, texts=None):
    """Write {"grid", "values"} plus header atomically as json.dumps(doc, sort_keys=True,
    allow_nan=False) does, with the pieces of texts (surface_texts(f) if None) as values."""
    values = (texts or surface_texts(f))[0]
    doc = {"grid": grid_to_dict(f.grid), **(header or {}), "values": None}
    pieces = []
    try:
        for key in sorted(doc):
            pieces += [", " if pieces else "{", json.dumps(key), ": "]
            pieces += values if key == "values" else [
                json.dumps(doc[key], sort_keys=True, allow_nan=False)]
    except ValueError as exc:
        raise IoError(f"cannot write field to {path}: {exc}") from None
    write_text(path, pieces + ["}"], "field")


def load_field(path):
    """Field and document of a surface file; an unreadable or malformed file
    is invalid input."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read field from {path}: {exc}") from None
    return field_from_dict(doc), doc
