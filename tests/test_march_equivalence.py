"""The package's marches against the reference marches in tests/reference_march.py.

integrate_frame (both spines) and integrate_left_vector must reproduce the
generic RK4 loop they replaced to 1e-13 relative to the field's largest
entry, on n = 33, 65 and 129, for the reference family's flat connection and
for a constant connection whose two coefficients do not commute, from a base
node off the grid centre; so must
integrate_riccati the real-component Riccati loop, for coefficients that
vary over the grid and do not commute.  The cubic midpoints of a block of
grid columns equal the whole-grid ones bit for bit, and so does every march
whatever the width of its column blocks, in the phase where both halves of
the lines march as one batch and in the tail where the longer half marches
alone.  From a corner or an edge base node, where the spine or the lines
march in one direction only, and from base nodes that split the lines into
unequal halves, the marches match the reference too; and the path-scheme scans (reach mask, sign
continuation) equal the loops they replaced bit for bit, through zero and
NaN quaternions.  The Maurer-Cartan point, computed over blocks of grid
rows, equals the whole-grid formula bit for bit, and fails where it fails;
so do F^-1 dF on pair planes per block of grid rows and the curvature data
extraction that reads those planes, at every block height.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from isothermic import (
    GridSpec,
    MaskedNeighbor,
    NotIntegrable,
    SingularMatrix,
    family_ribaucour_connection,
    ribaucour_data_extract,
)
from isothermic import grid as grid_module
from isothermic.cmc import _sign_continuity
from isothermic.grid import (
    FrameField,
    integrate_frame,
    integrate_left_vector,
    integrate_riccati,
    maurer_cartan_residual,
)
from isothermic.quaternion import qm2_identity, qm2_mul, qmul

import reference_march as ref

GRID_SIZES = (33, 65, 129)
TOL = 1e-13


def family(grid):
    conn = family_ribaucour_connection(grid, 0.7)
    phi_x, phi_y = conn.phi(0.8)
    return phi_x, phi_y, conn.frame0_at_p0(), conn.p0


def noncommuting(grid):
    rng = np.random.default_rng(3)
    a, b = 0.6 * rng.normal(size=(2, 2, 2, 4))
    assert np.abs(qm2_mul(a, b) - qm2_mul(b, a)).max() > 0.1
    shape = (grid.ny, grid.nx, 2, 2, 4)
    p0 = (grid.ny // 3, (2 * grid.nx) // 3)
    return np.broadcast_to(a, shape), np.broadcast_to(b, shape), rng.normal(size=(2, 2, 4)), p0


def _assert_close(got, want):
    scale = np.abs(want).max()
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() <= TOL * scale


# the constant connection is not flat, so the Maurer-Cartan gate (which the
# reference does not run) is opened with tau=inf; the march is the same
CONNECTIONS = {"family": (family, None), "noncommuting": (noncommuting, np.inf)}


@pytest.mark.parametrize("n", GRID_SIZES)
@pytest.mark.parametrize("connection", sorted(CONNECTIONS))
def test_linear_integrators_match_reference(n, connection):
    grid = GridSpec.square(1.0, n)
    build, tau = CONNECTIONS[connection]
    phi_x, phi_y, f0, p0 = build(grid)
    rng = np.random.default_rng(n)
    v0 = rng.normal(size=(2, 4))
    for spine in ("column", "row"):
        got = integrate_frame(phi_x, phi_y, grid, f0, p0, tau=tau, spine=spine)
        _assert_close(got.values, ref.frame(phi_x, phi_y, grid, f0, p0, spine))
    _assert_close(integrate_left_vector(phi_x, phi_y, grid, v0, p0, tau=tau),
                  ref.left_vector(phi_x, phi_y, grid, v0, p0))


def riccati_coefficients(grid):
    """A, B of d(delta) = delta A delta - B: smooth, non-constant, and with
    non-commuting values, small enough that no solution blows up on the grid."""
    z = grid.zgrid()
    x, y = z.real[..., None], z.imag[..., None]
    rng = np.random.default_rng(5)
    c = rng.normal(size=(4, 3, 4))
    a_x, a_y, b_x, b_y = (0.3 * (ck[0] + ck[1] * np.sin(x + 2 * y) + ck[2] * x * y) for ck in c)
    assert np.abs(qmul(a_x, b_y) - qmul(b_y, a_x)).max() > 0.1
    return a_x, a_y, b_x, b_y, rng.normal(size=4)


@pytest.mark.parametrize("n", GRID_SIZES)
def test_riccati_matches_reference(n):
    grid = GridSpec.square(1.0, n)
    a_x, a_y, b_x, b_y, delta0 = riccati_coefficients(grid)
    p0 = ((2 * grid.ny) // 3, grid.nx // 4)
    _assert_close(integrate_riccati(a_x, a_y, b_x, b_y, grid, delta0, p0),
                  ref.riccati(a_x, a_y, b_x, b_y, grid, delta0, p0))


def test_march_blocks_bit_identical(monkeypatch):
    # blocks of 3 columns against the whole 37 x 29 grid in one block
    grid = GridSpec(-1.0, -0.75, 1.0 / 16, 29, 37)
    phi_x, phi_y, f0, _ = noncommuting(grid)
    v0 = np.random.default_rng(4).normal(size=(2, 4))
    a_x, a_y, b_x, b_y, delta0 = riccati_coefficients(grid)

    def march():
        return (integrate_frame(phi_x, phi_y, grid, f0, (20, 11), tau=np.inf).values,
                integrate_frame(phi_x, phi_y, grid, f0, (3, 25), tau=np.inf, spine="row").values,
                integrate_left_vector(phi_x, phi_y, grid, v0, (36, 0), tau=np.inf),
                integrate_riccati(a_x, a_y, b_x, b_y, grid, delta0, (0, 28)))

    whole = march()
    monkeypatch.setattr(grid_module, "_MARCH_BLOCK", 3 * grid.ny)
    for got, want in zip(march(), whole):
        assert np.array_equal(got, want)


def _marches(grid, p0, seed):
    """The four marches from p0 on an ungated non-commuting connection and
    non-constant Riccati coefficients, as functions of no argument."""
    phi_x, phi_y, f0, _ = noncommuting(grid)
    v0 = np.random.default_rng(seed).normal(size=(2, 4))
    a_x, a_y, b_x, b_y, delta0 = riccati_coefficients(grid)
    return {
        "frame": lambda: integrate_frame(phi_x, phi_y, grid, f0, p0, tau=np.inf).values,
        "frame_row": lambda: integrate_frame(phi_x, phi_y, grid, f0, p0, tau=np.inf,
                                             spine="row").values,
        "left_vector": lambda: integrate_left_vector(phi_x, phi_y, grid, v0, p0, tau=np.inf),
        "riccati": lambda: integrate_riccati(a_x, a_y, b_x, b_y, grid, delta0, p0),
    }, {
        "frame": lambda: ref.frame(phi_x, phi_y, grid, f0, p0, "column"),
        "frame_row": lambda: ref.frame(phi_x, phi_y, grid, f0, p0, "row"),
        "left_vector": lambda: ref.left_vector(phi_x, phi_y, grid, v0, p0),
        "riccati": lambda: ref.riccati(a_x, a_y, b_x, b_y, grid, delta0, p0),
    }


@pytest.mark.parametrize("p0", [(32, 32), (13, 47)], ids=["centre", "off_centre"])
def test_marches_with_unequal_halves_match_reference(p0):
    """On n = 64 the centre node splits every line 31/32, so the longer half
    marches its last line alone; off the centre the lone tail is long, above
    p0 on the spine and below it on the lines."""
    grid = GridSpec.square(1.0, 64)
    marches, want = _marches(grid, p0, 8)
    for name, march in marches.items():
        _assert_close(march(), want[name]())


@pytest.mark.parametrize("block", [6, 150, 300])
def test_march_blocks_bit_identical_in_both_phases(block, monkeypatch):
    """Blocks of a few grid lines against one whole-grid block, bit for bit:
    on the 37 x 29 grid from (9, 20) the halves of a march along a column
    take 9 and 27 lines and those along a row 20 and 8, so the two halves
    marched together and the tail of the longer half both cross block edges;
    block 6 cuts the spine too, into blocks of 3 lines, then 6."""
    grid = GridSpec(-1.0, -0.75, 1.0 / 16, 29, 37)
    marches, _ = _marches(grid, (9, 20), 10)
    whole = {name: march() for name, march in marches.items()}
    monkeypatch.setattr(grid_module, "_MARCH_BLOCK", block)
    for name, march in marches.items():
        assert np.array_equal(march(), whole[name]), name


def _random_connection(ny, nx, seed):
    phi_x, phi_y = 0.5 * np.random.default_rng(seed).normal(size=(2, ny, nx, 2, 2, 4))
    return phi_x, phi_y


def _assert_point_equal(got, want):
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("ny", [4, 5, 6, 7, 17])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_maurer_cartan_point_blocks_equal_whole_grid(ny, masked, monkeypatch):
    """Blocks of every row count from 1 to ny + 1 (most of them not dividing
    ny), against the whole-grid formula, bit for bit."""
    nx = 7
    phi_x, phi_y = _random_connection(ny, nx, ny)
    mask = np.random.default_rng(ny + 10).random((ny, nx)) > 0.25 if masked else None
    grid = GridSpec(-1.0, -0.5, 0.25, nx, ny, mask)
    want = ref.maurer_cartan_point(phi_x, phi_y, grid)
    for rows in range(1, ny + 2):
        monkeypatch.setattr(grid_module, "_MARCH_BLOCK", rows * nx)
        _assert_point_equal(grid_module._maurer_cartan_point(phi_x, phi_y, grid), want)


def test_maurer_cartan_point_default_blocks_equal_whole_grid():
    """The reference family at n = 65 takes blocks of 63 rows and one of 2."""
    grid = GridSpec.square(1.0, 65)
    phi_x, phi_y, _, _ = family(grid)
    assert grid.ny % (grid_module._MARCH_BLOCK // grid.nx) != 0
    _assert_point_equal(grid_module._maurer_cartan_point(phi_x, phi_y, grid),
                        ref.maurer_cartan_point(phi_x, phi_y, grid))


@pytest.mark.parametrize("coef", ["x", "y"])
def test_maurer_cartan_gate_names_the_whole_grid_nan_node(coef, monkeypatch):
    """A NaN on the first row of a block: the y-derivative carries it to the
    last row of the block before, which reads it as its halo; the gate names
    the node the whole-grid point names first."""
    grid = GridSpec(-1.0, -1.0, 0.25, 9, 6)
    phi_x, phi_y = _random_connection(grid.ny, grid.nx, 7)
    {"x": phi_x, "y": phi_y}[coef][4, 3, 1, 0, 2] = np.nan
    point, valid = ref.maurer_cartan_point(phi_x, phi_y, grid)
    want = tuple(int(i) for i in np.argwhere(valid & ~np.isfinite(point))[0])
    assert want == {"x": (3, 3), "y": (4, 2)}[coef]
    monkeypatch.setattr(grid_module, "_MARCH_BLOCK", 2 * grid.nx)
    with pytest.raises(NotIntegrable) as info:
        integrate_frame(phi_x, phi_y, grid, qm2_identity(), (2, 2))
    assert info.value.node == want


def test_maurer_cartan_residual_overflow_in_a_block(monkeypatch):
    """An overflow in the last block, of one row, raises NotIntegrable, as the
    whole-grid formula overflows."""
    grid = GridSpec(-1.0, -1.0, 0.25, 7, 5)
    phi_x, phi_y = _random_connection(grid.ny, grid.nx, 8)
    phi_x[4, 3] *= 1e200
    phi_y[4, 3] *= 1e200
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
        ref.maurer_cartan_point(phi_x, phi_y, grid)
    monkeypatch.setattr(grid_module, "_MARCH_BLOCK", 2 * grid.nx)
    with pytest.raises(NotIntegrable, match="overflows"):
        maurer_cartan_residual(phi_x, phi_y, grid)


@pytest.mark.parametrize("corner", ["first", "last"])
def test_marches_from_a_corner_match_reference(corner):
    # no step up from the last node, none down from the first, on either spine
    grid = GridSpec(-1.0, -0.75, 1.0 / 16, 29, 37)
    p0 = (0, 0) if corner == "first" else (grid.ny - 1, grid.nx - 1)
    marches, want = _marches(grid, p0, 6)
    for name, march in marches.items():
        _assert_close(march(), want[name]())


# the two corners that test leaves out, and a node on each edge: one half of
# the spine or of the lines is empty
EDGE_BASES = ((0, 28), (36, 0), (0, 11), (36, 17), (20, 0), (9, 28))


@pytest.mark.parametrize("p0", EDGE_BASES)
def test_marches_from_an_edge_match_reference(p0):
    grid = GridSpec(-1.0, -0.75, 1.0 / 16, 29, 37)
    marches, want = _marches(grid, p0, 9)
    for name, march in marches.items():
        _assert_close(march(), want[name]())


# a 23 x 31 grid: its four corners, a node on each edge, two inside
WALK_GRID = GridSpec(-1.0, -0.7, 1.0 / 16, 31, 23)
WALK_BASES = ((0, 0), (0, 30), (22, 0), (22, 30), (0, 13), (9, 0), (22, 17), (15, 30),
              (7, 19), (11, 15))


@pytest.mark.parametrize("p0", WALK_BASES)
def test_path_valid_mask_matches_reference(p0):
    rng = np.random.default_rng(p0[0] * 31 + p0[1])
    for density in (0.97, 0.9, 0.6):
        mask = rng.random((WALK_GRID.ny, WALK_GRID.nx)) < density
        mask[p0] = True
        grid = WALK_GRID.with_mask(mask)
        assert np.array_equal(grid_module._path_valid_mask(grid, p0),
                              ref.path_valid_mask(grid, p0))


@pytest.mark.parametrize("p0", WALK_BASES)
def test_sign_continuity_matches_reference(p0):
    # a smooth unit field under random sign flips, and a field of noise
    rng = np.random.default_rng(p0[0] * 31 + p0[1])
    z = WALK_GRID.zgrid()[..., None]
    smooth = np.concatenate([np.cos(z.real), np.sin(z.real), np.cos(z.imag), np.sin(z.imag)],
                            axis=-1) / np.sqrt(2.0)
    flips = rng.choice((-1.0, 1.0), size=smooth.shape[:2] + (1,))
    for r in (flips * smooth, rng.normal(size=smooth.shape)):
        got = _sign_continuity(r, p0)
        assert np.array_equal(got, ref.sign_continuity(r, p0))
        assert not np.array_equal(got, r)


@pytest.mark.parametrize("p0", WALK_BASES)
def test_sign_continuity_restarts_at_zero_and_nan(p0):
    """Zero quaternions (of either sign), NaN components, and quaternions
    orthogonal to their column neighbours (a dot product of exactly 0 along
    the spine) planted in a sign-scrambled field, on the spine and off it:
    a dot product of 0 or NaN restarts the sign at +1, as the loop's < 0
    test does; equal bit for bit, the signs of NaNs and zeros included."""
    rng = np.random.default_rng(p0[0] * 31 + p0[1] + 5)
    z = WALK_GRID.zgrid()[..., None]
    smooth = np.concatenate([np.cos(z.real), np.sin(z.real), np.cos(z.imag), np.sin(z.imag)],
                            axis=-1) / np.sqrt(2.0)
    for trial in range(6):
        r = rng.choice((-1.0, 1.0), size=smooth.shape[:2] + (1,)) * smooth
        nodes = rng.integers((WALK_GRID.ny, WALK_GRID.nx), size=(12, 2))
        nodes[:3, 1] = p0[1]  # on the spine
        for k, (iy, ix) in enumerate(nodes):
            kind = (k + trial) % 4
            if kind == 0:
                r[iy, ix] = 0.0
            elif kind == 1:
                r[iy, ix] = -0.0
            elif kind == 2:
                r[iy, ix, rng.integers(4)] = rng.choice((np.nan, -np.nan))
            else:  # (-sin x, cos x, 0, 0) / sqrt 2
                r[iy, ix] = smooth[iy, ix, [1, 0, 2, 3]] * [-1.0, 1.0, 0.0, 0.0]
        got = _sign_continuity(r, p0)
        want = ref.sign_continuity(r, p0)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# F^-1 dF on pair planes, per block of grid rows
# ---------------------------------------------------------------------------

#: (ny, nx): diff_axis4 falls back to diff_axis below 6 lines, along y on
#: the 5-row grid and along x on the 5-column one
PLANE_SHAPES = ((5, 8), (6, 5), (7, 7), (17, 9), (65, 65))


def _random_frame(ny, nx, seed, mask=None):
    values = np.random.default_rng(seed).normal(size=(ny, nx, 2, 2, 4))
    return FrameField(GridSpec(-1.0, -0.5, 0.25, nx, ny, mask), values)


def _family_frame(ny, nx, mask=None):
    """The criterion-8 frame on an ny x nx grid centred at 0, of spacing
    1/32 or, on more than 65 lines, inside [-1, 1]^2."""
    h = min(1.0 / 32, 2.0 / (max(ny, nx) - 1))
    grid = GridSpec(-h * (nx - 1) / 2, -h * (ny - 1) / 2, h, nx, ny)
    conn = family_ribaucour_connection(grid, 0.6)
    phi_x, phi_y = conn.phi(1.0)
    frame = integrate_frame(phi_x, phi_y, grid, conn.frame0_at_p0(), conn.p0)
    return FrameField(grid.with_mask(mask), frame.values)


def _block_heights(frame, monkeypatch):
    """Every block height from 1 to ny + 1 rows, set through _MARCH_BLOCK."""
    for rows in range(1, frame.grid.ny + 2):
        monkeypatch.setattr(grid_module, "_MARCH_BLOCK", rows * frame.grid.nx)
        yield rows


def _assert_data_equal(got, want):
    for name, value in vars(want).items():
        assert np.array_equal(getattr(got, name), value, equal_nan=True), name


@pytest.mark.parametrize("ny, nx", PLANE_SHAPES)
def test_connection_planes_equal_whole_grid(ny, nx, monkeypatch):
    """connection_form per block of grid rows on pair planes against
    qm2_mul(qm2_inv(F), diff_axis4(F)) over the whole grid, bit for bit, at
    every block height; on a random frame and on the criterion-8 frame."""
    for frame in (_random_frame(ny, nx, ny * nx), _family_frame(ny, nx)):
        want = ref.connection_form(frame)
        for _ in _block_heights(frame, monkeypatch):
            for got, w in zip(frame.connection_form(), want):
                assert np.array_equal(got, w)


@pytest.mark.parametrize("ny, nx", [(7, 7), (17, 9), (9, 17), (65, 65)])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_extraction_planes_equal_whole_grid(ny, nx, masked, monkeypatch):
    """ribaucour_data_extract, reading Phi's pair planes per block of grid
    rows, against the extraction from the whole-grid Phi: every field bit
    for bit, at every block height, on masked grids too, where a masked row
    leaves blocks with no node whose two rings are valid."""
    mask = None
    if masked:
        mask = np.ones((ny, nx), bool)
        mask[1, :2] = mask[ny // 2, -1] = mask[-1, -1] = False
        if ny > 7:
            mask[ny - 3] = False
    frame = _family_frame(ny, nx, mask)
    want = ref.ribaucour_data_extract(frame)
    assert want.valid.any()
    for _ in _block_heights(frame, monkeypatch):
        _assert_data_equal(ribaucour_data_extract(frame), want)


def test_extraction_default_blocks_equal_whole_grid():
    """The criterion-8 frame at n = 129: blocks of 31 rows and one of 5."""
    frame = _family_frame(129, 129)
    assert frame.grid.ny % (grid_module._MARCH_BLOCK // frame.grid.nx) != 0
    _assert_data_equal(ribaucour_data_extract(frame), ref.ribaucour_data_extract(frame))


@pytest.mark.parametrize("nodes", [[(9, 4)], [(12, 2), (9, 7)], [(0, 0)], [(16, 8), (15, 0)]],
                         ids=str)
def test_connection_planes_name_the_whole_grid_singular_node(nodes, monkeypatch):
    """Singular matrices [[a, b], [a, b]] planted at nodes: SingularMatrix
    names the node the whole-grid qm2_inv names, the first row-major, at
    every block height, also where it sits on the halo rows of the block
    before its own."""
    frame = _random_frame(17, 9, 3)
    for node in nodes:
        frame.values[node + (1,)] = frame.values[node + (0,)]
    with pytest.raises(SingularMatrix) as info:
        ref.connection_form(frame)
    want = info.value.node
    assert want == min(nodes)
    for _ in _block_heights(frame, monkeypatch):
        with pytest.raises(SingularMatrix) as info:
            frame.connection_form()
        assert info.value.node == want


@pytest.mark.parametrize("row", [0, 1, 5, 8, 15, 16])
def test_connection_planes_nan_on_a_halo_row(row, monkeypatch):
    """A NaN in one entry of F on one row, which the y-derivatives of the
    blocks before and after it read as a halo row: Phi equals the whole-grid
    Phi, NaN for NaN, at every block height, and the blocks raise no
    RuntimeWarning more than the whole grid does (the inverse's divisions
    warn at the NaN node in both; halo rows are differentiated, not
    inverted)."""
    frame = _random_frame(17, 9, 4)
    frame.values[row, 3, 0, 1, 2] = np.nan

    def run(connection_form):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            phi = connection_form()
        return phi, Counter((w.category, str(w.message)) for w in caught)

    want, want_warnings = run(lambda: ref.connection_form(frame))
    assert np.isnan(want[1][row]).any()
    for _ in _block_heights(frame, monkeypatch):
        got, got_warnings = run(frame.connection_form)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
        assert not got_warnings - want_warnings


def test_extraction_without_a_two_ring_node_is_masked_neighbor():
    """A 9 x 9 criterion-8 frame masked to a 5-node cross has no node whose
    two rings are valid: MaskedNeighbor, where the whole-grid extraction
    raised a raw ValueError."""
    mask = np.zeros((9, 9), bool)
    mask[4, 3:6] = mask[3:6, 4] = True
    frame = _family_frame(9, 9, mask)
    with pytest.raises(ValueError, match="zero-size array"):
        ref.ribaucour_data_extract(frame)
    with pytest.raises(MaskedNeighbor):
        ribaucour_data_extract(frame)


@pytest.mark.parametrize("ny, nx", [(5, 9), (9, 6)])
def test_extraction_without_a_three_ring_node_is_masked_neighbor(ny, nx):
    """A grid with fewer than 7 rows or columns has no node three rings
    inside it, where the Gauss and Codazzi residuals are read: MaskedNeighbor,
    where the whole-grid extraction raised a raw ValueError."""
    frame = _family_frame(ny, nx)
    with pytest.raises(ValueError, match="zero-size array"):
        ref.ribaucour_data_extract(frame)
    with pytest.raises(MaskedNeighbor):
        ribaucour_data_extract(frame)

