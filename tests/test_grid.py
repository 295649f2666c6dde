import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isothermic import (
    GridSpec,
    MaskedNeighbor,
    MaskedRegion,
    NotClosed,
    NotIntegrable,
    QField,
    QForm1,
    StepBlowup,
    closedness_residual,
    d_field,
    integrate_form,
    integrate_frame,
    laplacian,
    maurer_cartan_residual,
    wedge,
)
from isothermic.grid import (
    crop_field,
    cumulative_simpson,
    field_from_dict,
    grid_tolerance,
    integrate_left_vector,
    integrate_riccati,
    save_field,
)
from isothermic import grid as grid_module
from isothermic.quaternion import _pair_planes, cj, qm2_identity

import reference_march as ref


def _zero_form(grid):
    z = np.zeros((grid.ny, grid.nx, 4))
    return z.copy(), z.copy()


def _dtanh_form(grid):
    """Sampled derivative of -j tanh(z): an exactly closed analytic form."""
    zz = grid.zgrid()
    s = 1 / np.cosh(zz) ** 2
    return QForm1(grid, cj(-np.conj(s)), cj(-np.conj(1j * s)))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_d_field_constant_and_linear(grid33):
    f = QField.constant(grid33, np.array([0.3, -1.0, 2.0, 0.5]))
    df = d_field(f)
    assert np.abs(df.px).max() < 1e-14 and np.abs(df.py).max() < 1e-14

    vals = np.zeros((grid33.ny, grid33.nx, 4))
    vals[..., 1] = grid33.zgrid().real  # f = x i
    df = d_field(QField(grid33, vals))
    assert np.abs(df.px[..., 1] - 1.0).max() < 1e-13
    assert np.abs(df.py).max() < 1e-13


def test_d_field_second_order_convergence():
    errs = []
    for n in (33, 65, 129):
        g = GridSpec.square(1.0, n)
        vals = np.zeros((g.ny, g.nx, 4))
        vals[..., 2] = np.sin(g.zgrid().real)
        df = d_field(QField(g, vals))
        errs.append(np.abs(df.px[..., 2] - np.cos(g.zgrid().real)).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


#: the derivative and Laplacian entries of the stencil table
DIFFERENCES = {"D1": grid_module._D1, "D1_4": grid_module._D1_4, "D2": grid_module._D2,
               "D2_4": grid_module._D2_4}
STENCILS = dict(DIFFERENCES, midpoint=grid_module._MIDPOINT)


def _magnitude():
    """A float of either sign between 1e-300 and 1e300."""
    return st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]),
                     st.floats(-300, 300))


@pytest.mark.parametrize("name, degree, order", [("D1", 2, 1), ("D1_4", 4, 1), ("D2", 3, 2),
                                                 ("D2_4", 5, 2), ("midpoint", 3, 0)])
def test_stencils_are_exact_on_polynomials(name, degree, order):
    """Each entry's weights: exact on polynomials of its degree at every row
    it gives, edge rows included (a second derivative gives none there)."""
    stencil = STENCILS[name]
    x = np.linspace(-1.0, 1.0, 9)
    p = np.polynomial.Polynomial(np.random.default_rng(degree).normal(size=degree + 1))
    got = grid_module._along(stencil, p(x), x[1] - x[0], 0, None)
    want = p.deriv(order)(x) if order else p(0.5 * (x[:-1] + x[1:]))
    rows = slice(None) if stencil.edge else slice(stencil.before, -stencil.before)
    assert np.abs(got[rows] - want[rows]).max() < 1e-11
    assert not stencil.edge or len(stencil.edge) == stencil.before
    assert stencil.edge or (got[:stencil.before] == 0).all()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(DIFFERENCES)), c=_magnitude(), d=_magnitude(),
       h=_magnitude().map(abs), kind=st.sampled_from(["real", "complex", "planes"]),
       ny=st.integers(3, 9), nx=st.integers(3, 9), data=st.data())
def test_differences_of_a_constant_are_exactly_zero(name, c, d, h, kind, ny, nx, data):
    """Every derivative and Laplacian entry sums differences, so a constant
    gives exactly 0 at every row, edge rows included, whatever its size and
    the spacing's; on real and complex fields and on pair planes, whose
    rows are axis -2 and columns axis -1."""
    if kind == "real":
        values = np.full((ny, nx), c)
    elif kind == "complex":
        values = np.full((ny, nx), complex(c, d))
    else:
        values = _pair_planes(np.full((ny, nx, 2, 2, 4), c), 2)
    axis = data.draw(st.sampled_from([0, 1] if kind != "planes" else [-2, -1]))
    n = values.shape[axis]
    first = data.draw(st.integers(0, n - 1))
    rows = data.draw(st.sampled_from([None, slice(first, data.draw(st.integers(first, n)))]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = grid_module._along(DIFFERENCES[name], values, h, axis, rows)
    assert out.dtype == values.dtype
    assert (out == 0.0).all()


@pytest.mark.parametrize("name", sorted(STENCILS))
@pytest.mark.parametrize("axis", [0, 1])
def test_stencil_rows_equal_the_whole_axis(name, axis):
    """A range of output rows gives the bits of the matching slice of the
    whole axis, at both grid edges and on every line count from two (three
    for the first derivatives, whose edge rows read three) to nine, below
    each entry's smallest line count too, where its fallback or zero rows
    take over.  The range reads only the lines its reach names (the rule
    _row_planes copies by), so lines outside them may hold anything."""
    stencil = STENCILS[name]
    rng = np.random.default_rng(3)
    for n in range(3 if name.startswith("D1") else 2, 10):
        values = np.moveaxis(rng.normal(size=(n, 5, 3)), 0, axis)
        whole = grid_module._along(stencil, values, 0.1, axis, None)
        m = whole.shape[axis]
        before, after, _ = stencil.reach
        for first in range(m):
            for stop in range(first, m + 1):
                got = grid_module._along(stencil, values, 0.1, axis, slice(first, stop))
                assert np.array_equal(got, np.take(whole, range(first, stop), axis)), (n, first)
                if n < stencil.lines or first == stop:
                    continue
                # garbage outside the lines the range reads leaves it alone
                lo = max(0, min(first - before, n - stencil.lines))
                hi = min(n, max(stop + after, lo + stencil.lines))
                spoiled = np.moveaxis(np.full((n, 5, 3), np.nan), 0, axis)
                window = (slice(None),) * axis + (slice(lo, hi),)
                spoiled[window] = values[window]
                got = grid_module._along(stencil, spoiled, 0.1, axis, slice(first, stop))
                assert np.array_equal(got, np.take(whole, range(first, stop), axis)), (n, first)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 129])
@pytest.mark.parametrize("axis", [0, 1, -1])
def test_midpoint_samples_equal_the_reference_formula(n, axis):
    """The table's midpoint entry keeps the written-out cubic formula's
    arithmetic: bit for bit, on samples of every size and sign."""
    rng = np.random.default_rng(n)
    coef = rng.normal(size=(n, n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, n, 3))
    coef = np.moveaxis(coef, 0, axis)
    got = grid_module._along(grid_module._MIDPOINT, coef, None, axis, None)
    assert np.array_equal(got, ref.midpoint_samples(coef, axis))


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_real_commuting_is_zero(grid33):
    px = np.zeros((grid33.ny, grid33.nx, 4))
    px[..., 0] = grid33.zgrid().real
    form = QForm1(grid33, px, px.copy())
    w = wedge(form, form)
    assert np.abs(w.values).max() < 1e-14


def test_wedge_i_dx_j_dy(grid33):
    px, py = _zero_form(grid33)
    px[..., 1] = 1.0
    qx, qy = _zero_form(grid33)
    qy[..., 2] = 1.0
    w = wedge(QForm1(grid33, px, py), QForm1(grid33, qx, qy))
    # i * j = k with no cancelling term
    assert np.abs(w.values[..., 3] - 1.0).max() < 1e-15
    assert np.abs(w.values[..., :3]).max() < 1e-15


def test_wedge_of_flat_dual_pair_exact(grid33, plane65):
    # f = -jz and its dual zj are linear, so central differences are exact
    g = grid33
    zz = g.zgrid()
    f = QField(g, cj(-np.conj(zz)))
    cf = QField(g, cj(zz))
    w = wedge(d_field(f), d_field(cf))
    assert np.abs(w.values).max() < 1e-12


# ---------------------------------------------------------------------------
# closedness
# ---------------------------------------------------------------------------

def test_closedness_of_derivative_fields(grid65):
    vals = np.zeros((grid65.ny, grid65.nx, 4))
    zz = grid65.zgrid()
    vals[..., 2] = np.exp(zz.real) * np.cos(zz.imag)
    res = closedness_residual(d_field(QField(grid65, vals)))
    assert res < 1e-12


def test_closedness_x_dy_scale(grid65):
    px, py = _zero_form(grid65)
    py[..., 0] = grid65.zgrid().real
    res = closedness_residual(QForm1(grid65, px, py))
    assert 0.5 * grid65.h < res < 2.0 * grid65.h


def test_closedness_sampled_analytic_order():
    residuals = []
    for n in (33, 65, 129):
        residuals.append(closedness_residual(_dtanh_form(GridSpec.square(1.0, n))))
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


# ---------------------------------------------------------------------------
# path integration
# ---------------------------------------------------------------------------

def test_cumulative_simpson_quadratic_exact():
    h = 0.1
    x = h * np.arange(21)
    vals = (3 * x * x - 2 * x + 1)[:, None].repeat(4, axis=1)
    out = cumulative_simpson(vals, h, axis=0, origin=0)
    exact = x**3 - x**2 + x
    assert np.abs(out[:, 0] - exact).max() < 1e-13


def test_integrate_form_zero_and_linear(grid33):
    px, py = _zero_form(grid33)
    q0 = np.array([0.2, 1.0, -0.5, 0.0])
    out = integrate_form(QForm1(grid33, px, py), grid33.center_node(), q0)
    assert np.abs(out.values - q0).max() < 1e-15

    px, py = _zero_form(grid33)
    px[..., 1] = 1.0
    py[..., 2] = 1.0
    out = integrate_form(QForm1(grid33, px, py), grid33.center_node(), np.zeros(4))
    zz = grid33.zgrid()
    assert np.abs(out.values[..., 1] - zz.real).max() < 1e-13
    assert np.abs(out.values[..., 2] - zz.imag).max() < 1e-13


def test_integrate_form_fourth_order_on_closed_analytic():
    errs = []
    for n in (33, 65, 129):
        g = GridSpec.square(1.0, n)
        form = _dtanh_form(g)
        p0 = g.center_node()
        target = cj(-np.conj(np.tanh(g.zgrid())))
        out = integrate_form(form, p0, target[p0[0], p0[1]])
        errs.append(np.abs(out.values - target).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert errs[-1] < 1e-5
    assert min(orders) >= 3.3  # approaches 4 with boundary-stencil transients


def test_integrate_form_rejects_non_closed(grid65):
    px, py = _zero_form(grid65)
    py[..., 0] = grid65.zgrid().real
    with pytest.raises(NotClosed):
        integrate_form(QForm1(grid65, px, py), grid65.center_node(), np.zeros(4))


def test_integrate_form_rejects_non_finite_form():
    g = GridSpec.square(1.0, 17)
    px, py = _zero_form(g)
    px[8, 9, 1] = np.nan  # without the gate, nodes (8, 9..16) came out NaN
    with pytest.raises(NotClosed) as info:
        integrate_form(QForm1(g, px, py), g.center_node(), np.zeros(4))
    # the first node whose pointwise curl is not finite: the NaN's y-neighbour
    assert info.value.node == (7, 9)


def test_integrate_form_masked_region(grid33):
    mask = np.ones((grid33.ny, grid33.nx), dtype=bool)
    mask[10:12, :] = False
    g = grid33.with_mask(mask)
    px, py = _zero_form(g)
    p0 = (2, 5)
    out = integrate_form(QForm1(g, px, py), p0, np.zeros(4))
    valid = out.grid.valid()
    assert not valid[20:, :].any()  # cut off behind the masked band
    assert valid[:10, :].all()
    with pytest.raises(MaskedRegion):
        integrate_form(QForm1(g, px, py), (11, 5), np.zeros(4))


# ---------------------------------------------------------------------------
# frame integration
# ---------------------------------------------------------------------------

def test_integrate_frame_zero_connection(grid33):
    phix = np.zeros((grid33.ny, grid33.nx, 2, 2, 4))
    f0 = qm2_identity()
    out = integrate_frame(phix, phix.copy(), grid33, f0, grid33.center_node())
    assert np.abs(out.values - f0).max() < 1e-15
    assert out.study_det_drift() < 1e-14


def test_integrate_frame_constant_diagonal(grid33):
    # Phi = diag(i dx, 0): F_11 = exp(x i), the rest constant
    phix = np.zeros((grid33.ny, grid33.nx, 2, 2, 4))
    phix[..., 0, 0, 1] = 1.0
    phiy = np.zeros_like(phix)
    out = integrate_frame(phix, phiy, grid33, qm2_identity(), grid33.center_node())
    x = grid33.zgrid().real
    assert np.abs(out.values[..., 0, 0, 0] - np.cos(x)).max() < 1e-6
    assert np.abs(out.values[..., 0, 0, 1] - np.sin(x)).max() < 1e-6
    assert np.abs(out.values[..., 1, 1, 0] - 1.0).max() < 1e-14


def test_integrate_frame_fourth_order():
    # linear-in-x coefficient with closed-form solution exp((ax + b x^2/2) i)
    errs = []
    for n in (17, 33, 65):
        g = GridSpec.square(1.0, n)
        a, b = 0.7, 1.3
        phix = np.zeros((g.ny, g.nx, 2, 2, 4))
        phix[..., 0, 0, 1] = a + b * g.zgrid().real
        phiy = np.zeros_like(phix)
        out = integrate_frame(phix, phiy, g, qm2_identity(), g.center_node())
        th = a * g.zgrid().real + b * g.zgrid().real ** 2 / 2
        errs.append(
            max(
                np.abs(out.values[..., 0, 0, 0] - np.cos(th)).max(),
                np.abs(out.values[..., 0, 0, 1] - np.sin(th)).max(),
            )
        )
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8


def test_integrate_frame_blowup(grid33):
    phix = np.zeros((grid33.ny, grid33.nx, 2, 2, 4))
    phix[..., 0, 0, 0] = 40.0  # d F11 = 40 F11 dx: overflows the budget
    phiy = np.zeros_like(phix)
    with pytest.raises(StepBlowup) as info:
        integrate_frame(phix, phiy, grid33, qm2_identity(), grid33.center_node(),
                        blowup=1e6)
    # e^(40 x) passes 1e6 between x = 0.3125 and 0.375 (ix = 22); row 0 first
    assert info.value.node == (0, 22)


@pytest.mark.parametrize("peak, blows", [(1e13, True), (1e11, False)])
def test_default_blowup_limit(peak, blows):
    """With the default limit, 1e12, a march whose state reaches 1e13 blows
    up and one whose state peaks at 1e11 does not."""
    grid = GridSpec.square(1.0, 129)
    phiy = np.zeros((grid.ny, grid.nx, 2, 2, 4))
    phiy[..., 0, 0, 0] = np.log(peak)  # F11 = peak^y on the spine column
    phix = np.zeros_like(phiy)
    p0 = grid.center_node()
    top = integrate_frame(phix, phiy, grid, qm2_identity(), p0, blowup=np.inf).values
    assert 0.9 * peak < np.abs(top).max() < 1.1 * peak
    if blows:
        with pytest.raises(StepBlowup):
            integrate_frame(phix, phiy, grid, qm2_identity(), p0)
    else:
        integrate_frame(phix, phiy, grid, qm2_identity(), p0)


def _smooth_connection(grid):
    """A connection that varies over the grid; not flat, so marched with tau=inf."""
    z = grid.zgrid()
    x, y = z.real[..., None, None, None], z.imag[..., None, None, None]
    rng = np.random.default_rng(11)
    c = 0.5 * rng.normal(size=(2, 3, 2, 2, 4))
    return tuple(ck[0] + ck[1] * np.cos(x - y) + ck[2] * x * y for ck in c)


def test_march_blocks_agree_with_default_block(monkeypatch):
    """Blocks of 3 grid columns (2 on the transposed row spine) give the marches
    of one whole-grid block; non-square grid, base node off the centre."""
    grid = GridSpec(-1.0, -0.8, 0.05, 37, 29)
    phi_x, phi_y = _smooth_connection(grid)
    rng = np.random.default_rng(12)
    f0, v0, delta0 = rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 4)), rng.normal(size=4)
    p0 = (20, 9)
    marches = {
        "frame": lambda: integrate_frame(phi_x, phi_y, grid, f0, p0, tau=np.inf).values,
        "frame_row": lambda: integrate_frame(phi_x, phi_y, grid, f0, p0, tau=np.inf,
                                             spine="row").values,
        "left_vector": lambda: integrate_left_vector(phi_x, phi_y, grid, v0, p0, tau=np.inf),
        "riccati": lambda: integrate_riccati(0.2 * phi_x[..., 0, 1, :], 0.2 * phi_y[..., 1, 0, :],
                                             phi_x[..., 1, 1, :], phi_y[..., 0, 0, :], grid,
                                             delta0, p0),
    }
    whole = {name: march() for name, march in marches.items()}
    monkeypatch.setattr(grid_module, "_MARCH_BLOCK", 3 * grid.ny)
    for name, march in marches.items():
        got, want = march(), whole[name]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


@pytest.mark.parametrize("rate, node", [(40.0, (0, 23)), (-40.0, (0, 9))],
                         ids=["right", "left"])
def test_blowup_named_at_first_column_of_a_block(grid33, monkeypatch, rate, node):
    """Blocks of 3 columns from ix0 = 16: 17-19, 20-22, 23-25 to the right and
    15-13, 12-10, 9-7 to the left; e^(+-40 x) passes 1e7 at ix = 23 and 9."""
    phix = np.zeros((grid33.ny, grid33.nx, 2, 2, 4))
    phix[..., 0, 0, 0] = rate
    phiy = np.zeros_like(phix)
    monkeypatch.setattr(grid_module, "_MARCH_BLOCK", 3 * grid33.ny)
    with pytest.raises(StepBlowup) as info:
        integrate_frame(phix, phiy, grid33, qm2_identity(), grid33.center_node(),
                        blowup=1e7)
    assert info.value.node == node


def _blowup_node(grid, monkeypatch, phix, blowup, p0=None):
    """The node StepBlowup names for the frame march of dF = F phix dx from
    the identity at p0 (default the centre), in blocks of 3 grid columns; the
    march runs with warnings as errors, and ungated, since phix may vary
    along y."""
    monkeypatch.setattr(grid_module, "_MARCH_BLOCK", 3 * grid.ny)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepBlowup) as info:
            integrate_frame(phix, np.zeros_like(phix), grid, qm2_identity(),
                            p0 or grid.center_node(), tau=np.inf, blowup=blowup)
    return info.value.node


@pytest.mark.parametrize("rate, node", [(40.0, (0, 21)), (-40.0, (0, 11))],
                         ids=["right", "left"])
def test_blowup_named_in_middle_column_of_a_block(grid33, monkeypatch, rate, node):
    """Blocks 20-22 and 12-10: an RK4 step at 40 h = 2.5 grows F11 by 10.86,
    so it passes 1e5 five columns from ix0 = 16, at ix = 21 and 11."""
    phix = np.zeros((grid33.ny, grid33.nx, 2, 2, 4))
    phix[..., 0, 0, 0] = rate
    assert _blowup_node(grid33, monkeypatch, phix, 1e5) == node


@pytest.mark.parametrize("sign, node", [(1.0, (20, 21)), (-1.0, (20, 11))],
                         ids=["right", "left"])
def test_blowup_names_earlier_column_before_lower_row(grid33, monkeypatch, sign, node):
    """Row 20 passes 1e5 at the middle column of a block (growth 10.86 per
    step), row 5 one column later (growth 8.37 at 35.2 h = 2.2): the column
    reached first is named, although the other bad node has the lower row."""
    phix = np.zeros((grid33.ny, grid33.nx, 2, 2, 4))
    phix[20, :, 0, 0, 0] = sign * 40.0
    phix[5, :, 0, 0, 0] = sign * 35.2
    assert _blowup_node(grid33, monkeypatch, phix, 1e5) == node


@pytest.mark.parametrize("p0, node", [((16, 0), (0, 2)), ((16, 32), (0, 30))],
                         ids=["right", "left"])
def test_overflow_inside_a_block_is_a_blowup(grid33, monkeypatch, p0, node):
    """One step grows F11 by about (rate h)^4 / 24 = 4e158: below the limit
    1e300 at the first column of the block from an edge base node, infinite
    at the second, where the overflow raises no RuntimeWarning."""
    phix = np.zeros((grid33.ny, grid33.nx, 2, 2, 4))
    phix[..., 0, 0, 0] = 1.6e41
    assert _blowup_node(grid33, monkeypatch, phix, 1e300, p0) == node


@pytest.mark.parametrize("p0", [(16, 16), (10, 10)], ids=["centre", "off_centre"])
@pytest.mark.parametrize("block", [6, 4096])
@pytest.mark.parametrize("along", ["spine", "lines"])
def test_blowup_names_upper_half_before_nearer_lower_half(grid33, monkeypatch, along, block,
                                                          p0):
    """The halves above and below p0 march as one batch, yet StepBlowup names
    the node a march of the upper half, then the lower, reaches first.  F11
    grows by about e^(20 h) per step marching up (to higher rows on the
    spine, to higher columns on the lines), F22 by about e^(35 h) marching
    down: the lower half passes 1e6 seven lines from p0, the upper half
    twelve, and the upper node is named.  Block 6 checks the spine every 3
    lines and the lines every line, so the lower half goes bad a block
    before the upper half; block 4096 checks both in one block.  From
    (10, 10) the lower half has 10 lines, so the upper half goes bad in its
    tail, marched alone after the lower half has ended."""
    monkeypatch.setattr(grid_module, "_MARCH_BLOCK", block)
    axis = 0 if along == "spine" else 1  # the spine marches by phi_y, the lines by phi_x

    def blowup_node(up, down):
        phi = np.zeros((2, grid33.ny, grid33.nx, 2, 2, 4))
        phi[1 - axis, ..., 0, 0, 0] = up
        phi[1 - axis, ..., 1, 1, 0] = -down
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepBlowup) as info:
                integrate_frame(phi[0], phi[1], grid33, qm2_identity(), p0, tau=np.inf,
                                blowup=1e6)
        return info.value.node

    upper, lower = blowup_node(20.0, 0.0), blowup_node(0.0, 35.0)
    assert (upper[axis] - p0[axis], p0[axis] - lower[axis]) == (12, 7)
    assert upper[1 - axis] == lower[1 - axis] == (p0[1] if along == "spine" else 0)
    assert blowup_node(20.0, 35.0) == upper


def _nan_marches(grid, phi_x, phi_y):
    p0 = grid.center_node()
    v0 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    a_x, a_y = phi_x[..., 0, 0, :], phi_y[..., 0, 0, :]
    b = np.full_like(a_x, 0.1)
    return {
        "frame": lambda: integrate_frame(phi_x, phi_y, grid, qm2_identity(), p0),
        "left_vector": lambda: integrate_left_vector(phi_x, phi_y, grid, v0, p0),
        "riccati": lambda: integrate_riccati(a_x, a_y, b, b, grid, v0[0], p0),
    }


@pytest.mark.parametrize("march", ["frame", "left_vector", "riccati"])
@pytest.mark.parametrize("bad, gate_node, march_node", [
    # a row: the cubic midpoint reads one node ahead
    (("x", 5, 25), (4, 25), (5, 24)),
    # the spine column ix0 = 16
    (("y", 25, 16), (25, 15), (24, 16)),
], ids=["row", "spine"])
def test_march_stops_at_first_non_finite_node(grid33, march, bad, gate_node, march_node):
    """The linear marches stop at the Maurer-Cartan gate, which names the
    first row-major node whose pointwise residual is not finite (a neighbour
    of the NaN through the difference stencil); the ungated Riccati march
    stops at the first non-finite node it reaches."""
    phi = {"x": np.zeros((33, 33, 2, 2, 4)), "y": np.zeros((33, 33, 2, 2, 4))}
    axis, iy, ix = bad
    phi[axis][iy, ix, 0, 0, 1] = np.nan
    error, node = (StepBlowup, march_node) if march == "riccati" else (NotIntegrable, gate_node)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            _nan_marches(grid33, phi["x"], phi["y"])[march]()
    assert info.value.node == node


def test_row_spine_names_node_in_grid_orientation(grid33):
    phi_x = np.zeros((33, 33, 2, 2, 4))
    phi_y = np.zeros_like(phi_x)
    phi_y[..., 0, 0, 0] = 40.0  # d F11 = 40 F11 dy along the columns of the scheme
    with pytest.raises(StepBlowup) as info:
        integrate_frame(phi_x, phi_y, grid33, qm2_identity(), grid33.center_node(),
                        spine="row", blowup=1e6)
    # e^(40 y) passes 1e6 at iy = 22, as in test_integrate_frame_blowup; column 0 first
    assert info.value.node == (22, 0)
    assert str(info.value).count("(at node") == 1


@pytest.mark.parametrize("spine", ["column", "row"])
def test_gate_names_node_in_grid_orientation(spine):
    """A NaN in phi_x at (4, 25) of a 29 x 37 grid: for either spine the
    Maurer-Cartan gate names the first row-major node of the grid whose
    residual is not finite, (3, 25), through the y-difference stencil."""
    grid = GridSpec(-1.0, -0.75, 1.0 / 16, 37, 29)
    phi_x = np.zeros((29, 37, 2, 2, 4))
    phi_x[4, 25, 0, 0, 1] = np.nan
    with pytest.raises(NotIntegrable) as info:
        integrate_frame(phi_x, np.zeros_like(phi_x), grid, qm2_identity(), (14, 18),
                        spine=spine)
    assert info.value.node == (3, 25)


def test_maurer_cartan_gate(grid65):
    # random non-integrable connection is rejected
    rng = np.random.default_rng(0)
    phix = rng.normal(size=(grid65.ny, grid65.nx, 2, 2, 4))
    phiy = rng.normal(size=(grid65.ny, grid65.nx, 2, 2, 4))
    assert maurer_cartan_residual(phix, phiy, grid65) > grid_tolerance(grid65)
    with pytest.raises(NotIntegrable):
        integrate_frame(phix, phiy, grid65, qm2_identity(), grid65.center_node())


def test_maurer_cartan_gate_threshold(grid33):
    """A constant connection whose coefficients do not commute, scaled so that
    its residual lies between the gate's threshold and ten times it, is
    rejected."""
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 2, 2, 4))
    shape = (grid33.ny, grid33.nx, 2, 2, 4)
    phix, phiy = np.broadcast_to(0.3 * a, shape), np.broadcast_to(0.3 * b, shape)
    tau = grid_tolerance(grid33)
    assert tau < maurer_cartan_residual(phix, phiy, grid33) < 10 * tau
    with pytest.raises(NotIntegrable):
        integrate_frame(phix, phiy, grid33, qm2_identity(), grid33.center_node())


@pytest.mark.parametrize("gate", [
    lambda phi, form, grid: maurer_cartan_residual(phi, phi, grid),
    lambda phi, form, grid: closedness_residual(form),
    lambda phi, form, grid: integrate_frame(phi, phi, grid, qm2_identity(), (8, 8)),
    lambda phi, form, grid: integrate_form(form, (8, 8), np.zeros(4)),
], ids=["maurer_cartan_residual", "closedness_residual", "integrate_frame", "integrate_form"])
def test_all_masked_grid_has_no_plaquettes(gate):
    """On a grid whose every node is masked the gates find no plaquette to
    gate and say so, before any scale is taken over the empty selection."""
    grid = GridSpec.square(1.0, 17).with_mask(np.zeros((17, 17), dtype=bool))
    phi = np.zeros((17, 17, 2, 2, 4))
    form = QForm1(grid, *_zero_form(grid))
    with pytest.raises(MaskedNeighbor, match="no interior plaquettes"):
        gate(phi, form, grid)


# ---------------------------------------------------------------------------
# laplacian
# ---------------------------------------------------------------------------

def test_laplacian_quadratic_exact(grid65):
    zz = grid65.zgrid()
    lap, valid = laplacian(zz.real**2 + zz.imag**2, grid65)
    assert np.abs(lap[valid] - 4.0).max() < 1e-11
    lap, valid = laplacian(zz.real**2 - zz.imag**2, grid65)
    assert np.abs(lap[valid]).max() < 1e-11


def test_laplacian_log_cosh_second_order():
    errs = []
    for n in (33, 65, 129):
        g = GridSpec.square(1.0, n)
        x = g.zgrid().real
        lap, valid = laplacian(np.log(np.cosh(x)), g)
        errs.append(np.abs(lap - 1 / np.cosh(x) ** 2)[valid].max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


# ---------------------------------------------------------------------------
# serialization and cropping
# ---------------------------------------------------------------------------

def test_field_json_roundtrip(grid33, tmp_path):
    rng = np.random.default_rng(1)
    f = QField(grid33, rng.normal(size=(grid33.ny, grid33.nx, 4)))
    path = tmp_path / "field.json"
    save_field(f, str(path))
    doc = json.loads(path.read_text())
    # documented layout: grid block plus row-major [w, x, y, z] records
    assert set(doc) == {"grid", "values"}
    assert set(doc["grid"]) == {"x0", "y0", "h", "nx", "ny"}
    back = field_from_dict(doc)
    assert back.grid.same_geometry(f.grid)
    assert np.abs(back.values - f.values).max() < 1e-15


def test_crop_field(grid33):
    vals = np.zeros((grid33.ny, grid33.nx, 4))
    vals[..., 1] = grid33.zgrid().real
    cropped = crop_field(QField(grid33, vals), 4)
    assert cropped.grid.nx == grid33.nx - 8
    assert abs(cropped.grid.x0 - (grid33.x0 + 4 * grid33.h)) < 1e-15
    assert np.abs(cropped.values[..., 1] - cropped.grid.zgrid().real).max() < 1e-15


def test_integrate_frame_path_order_independence(grid65):
    # column-spine and row-spine schemes agree at the integrator's order
    from isothermic import family_ribaucour_connection

    conn = family_ribaucour_connection(grid65, 1.0)
    phx, phy = conn.phi(1.0)
    a = integrate_frame(phx, phy, grid65, conn.frame0_at_p0(), conn.p0,
                        spine="column")
    b = integrate_frame(phx, phy, grid65, conn.frame0_at_p0(), conn.p0,
                        spine="row")
    assert np.abs(a.values - b.values).max() < 1e-6


def test_derivative_recovers_integrated_form():
    # d_field(integrate_form(omega)) reproduces omega at second order
    # (pre-asymptotic near the corners closest to the sampled poles, so the
    # order is read off the finest pair)
    errs = []
    for n in (65, 129, 257):
        g = GridSpec.square(1.0, n)
        form = _dtanh_form(g)
        out = integrate_form(form, g.center_node(), np.zeros(4))
        back = d_field(out)
        sel = g.interior()
        errs.append(
            max(
                np.abs(back.px - form.px)[sel].max(),
                np.abs(back.py - form.py)[sel].max(),
            )
        )
    assert errs[0] > errs[1] > errs[2]
    assert np.log2(errs[1] / errs[2]) >= 1.9
