"""The component sums of the quaternion helpers and the march's block check
against the reductions they replace (tests/reference_reductions.py), bit
for bit: equal values and equal np.signbit, NaN for NaN."""

from __future__ import annotations

import numpy as np
import pytest

from isothermic import DegenerateTangent, GridSpec, PolarizedSurface, StepBlowup, cmc
from isothermic import grid as grid_module
from isothermic.grid import BLOWUP_LIMIT, QField
from isothermic.quaternion import _pair_planes, dot3, lorentz, qnorm, qnormsq
from isothermic.surfaces import surface_jets

import reference_reductions as ref

SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan,
                    5e-324, -5e-324, 2.2250738585072014e-308, 1e-200, 1e200, 3.0])


def _assert_same(got, want, unsigned=False):
    """Equal values and signs; NaN for NaN.  unsigned (a mask) exempts the
    sign of a NaN result where two NaNs may meet in one multiply or add:
    which of the two numpy's elementwise loops keep differs with the length
    of the operands and with the SIMD dispatch (x + y and x += y differ at 1
    element and within 17), so no form with other loops can promise it."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    keep = ~np.asarray(unsigned)
    assert np.array_equal(np.signbit(got)[keep], np.signbit(want)[keep])


def _nans_may_meet(*parts):
    """Rows of the entries parts in which two NaNs may meet: two NaN entries,
    or a NaN entry and an infinite one (0 inf and inf - inf are NaN)."""
    nan = sum(np.isnan(p).sum(axis=-1) for p in parts)
    inf = sum(np.isinf(p).sum(axis=-1) for p in parts)
    return (nan >= 2) | ((nan >= 1) & (inf >= 1))


def _special(n, width, seed):
    """n rows of width entries drawn from SPECIAL, with every row of one
    repeated entry (all -0.0 among them) included."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(SPECIAL, size=(n, width))
    return np.concatenate([np.repeat(SPECIAL[:, None], width, axis=1), rows])


def _random(shape, seed):
    """Random normal entries over 60 decades, so that sums cancel and round."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-30, 30, size=shape)


@pytest.mark.parametrize("width, seed", [(4, 1), (6, 2)])
def test_component_sums_match_on_special_values(width, seed):
    a, b = _special(4000, width, seed), _special(4000, width, seed + 10)
    b = np.concatenate([a[:len(SPECIAL)], b[len(SPECIAL):]])  # all -0.0 times all -0.0
    with np.errstate(all="ignore"):
        meet = _nans_may_meet(a[:, 1:], b[:, 1:])
        single = np.isnan(ref.dot3(a, b)) & ~meet
        assert meet.any() and single.sum() > 100  # NaN signs are still compared
        _assert_same(dot3(a, b), ref.dot3(a, b), meet)
        q = a[:, :4]
        _assert_same(qnormsq(q), ref.qnormsq(q), _nans_may_meet(q))
        _assert_same(qnorm(q), np.sqrt(ref.qnormsq(q)), _nans_may_meet(q))
        if width == 6:
            _assert_same(lorentz(a, b), ref.lorentz(a, b), _nans_may_meet(a, b))


def test_sum_of_negative_zeros_is_positive_zero():
    z = np.full((3, 6), -0.0)
    for got, want in ((dot3(z, -z), ref.dot3(z, -z)), (lorentz(z, -z), ref.lorentz(z, -z))):
        _assert_same(got, want)
        assert not np.signbit(got).any()


@pytest.mark.parametrize("shape", [(4,), (7, 4), (129, 129, 4), (3, 5, 2, 2, 4)],
                         ids=["0-d", "line", "grid", "matrices"])
def test_component_sums_match_on_random_values(shape):
    a, b = _random(shape, 3), _random(shape, 4)
    _assert_same(qnormsq(a), ref.qnormsq(a))
    _assert_same(dot3(a, b), ref.dot3(a, b))
    s, t = _random(shape[:-1] + (6,), 5), _random(shape[:-1] + (6,), 6)
    _assert_same(lorentz(s, t), ref.lorentz(s, t))


def test_component_sums_broadcast():
    a, b = _random((5, 1, 4), 7), _random((3, 4), 8)
    _assert_same(dot3(a, b), ref.dot3(a, b))
    _assert_same(dot3(b[0], a), ref.dot3(b[0], a))
    s = _random((9, 1, 6), 9)
    # the rows of common_sphere_point: every form against the basis forms
    _assert_same(lorentz(s, np.eye(6)), ref.lorentz(s, np.eye(6)))
    _assert_same(lorentz(s[0, 0], s[0, 0]), ref.lorentz(s[0, 0], s[0, 0]))


def test_component_sums_on_strided_views():
    base = _random((40, 30, 8), 10)
    views = [base[::3, 1::2, :4], base[..., 4:], np.swapaxes(base, 0, 1)[..., 2:6],
             base[..., ::-2], np.asfortranarray(base)[..., :4]]
    for a in views:
        b = a[::-1]
        _assert_same(qnormsq(a), ref.qnormsq(a))
        _assert_same(dot3(a, b), ref.dot3(a, b))
    s = np.moveaxis(_random((6, 20, 20), 11), 0, -1)  # last axis strided
    _assert_same(lorentz(s, s[::-1]), ref.lorentz(s, s[::-1]))


def test_component_sums_take_integers():
    a = np.arange(-12, 12).reshape(6, 4)
    b = a[::-1].copy()
    _assert_same(dot3(a, b), ref.dot3(a, b))
    assert dot3(a, b).dtype.kind == "i"
    _assert_same(qnormsq(a), ref.qnormsq(a))
    _assert_same(dot3([0, 1, 2, 3], [1, 1, 1, 1]), ref.dot3([0, 1, 2, 3], [1, 1, 1, 1]))


def test_zero_dimensional_results_are_scalars():
    q = np.array([1.0, -2.0, 0.5, 3.0])
    for got, want in ((qnormsq(q), ref.qnormsq(q)), (dot3(q, q[::-1]), ref.dot3(q, q[::-1]))):
        _assert_same(got, want)
        assert type(got) is type(want)


def test_overflow_raises_under_errstate():
    big = np.array([[1e200, 0.0, 0.0, 0.0], [0.0, 1e-300, 1e200, 0.0]])
    for fn in (qnormsq, ref.qnormsq, lambda a: dot3(a, a), lambda a: ref.dot3(a, a)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            fn(big)


def test_surface_jets_overflow_in_the_normal_norm():
    """f = 1e100 (x i + y j): the derivatives and their cross product are
    finite, only the normal's squared norm overflows, and surface_jets turns
    the FloatingPointError of qnorm into DegenerateTangent."""
    grid = GridSpec.square(1.0, 17)
    z = grid.zgrid()
    vals = np.zeros((17, 17, 4))
    vals[..., 1], vals[..., 2] = 1e100 * z.real, 1e100 * z.imag
    with pytest.raises(DegenerateTangent, match="overflow"):
        surface_jets(PolarizedSurface(QField(grid, vals), "dz2"))


@pytest.mark.parametrize("shape", [(4,), (33, 4)], ids=["spine node", "line"])
def test_sign_step_matches_reference(shape):
    rng = np.random.default_rng(12)
    with np.errstate(all="ignore"):
        for _ in range(50):
            prev, q = rng.choice(SPECIAL, size=(2,) + shape)
            got = cmc._sign_continuity(np.stack([prev, q])[:, None], (0, 0))[1, 0]
            _assert_same(got, ref.sign_step(prev, q))


@pytest.mark.parametrize("nodes", ["all", "some"])
def test_peak_matches_abs_max(nodes):
    """The extraction's scale, max(max, -min) of a block's components over
    its selected nodes, equals np.abs(...).max(), NaN for NaN, with the
    largest magnitude drawn negative as often as positive (the sign of a
    zero peak is not compared: the scale adds 1 to it)."""
    rng = np.random.default_rng(13)
    with np.errstate(all="ignore"):
        for trial in range(200):
            draw = rng.choice(SPECIAL, size=(2, 2, 2, 3, 4, 2)) if trial % 2 else (
                rng.normal(size=(2, 2, 2, 3, 4, 2)))
            planes = draw.view(complex)[..., 0]
            block = np.ones((3, 4), bool) if nodes == "all" else rng.random((3, 4)) < 0.5
            if not block.any():
                continue
            want = np.abs(draw[..., block, :]).max()
            assert np.array_equal(cmc._peak(planes, block), want, equal_nan=True)


#: every off-pattern entry of ribaucour_data_extract as (axis, row, column,
#: component): 19 that must vanish, e^u dy k, the two u-derivative entries
#: and the 8 of the diagonal's difference, planted in its (1, 1) entry
OFF_PATTERN = ([("x", 1, 0, c) for c in (0, 1, 3)] + [("y", 1, 0, c) for c in (0, 1, 2, 3)]
               + [("x", 0, 1, c) for c in (0, 1, 3)] + [("y", 0, 1, c) for c in (0, 1, 2)]
               + [("x", 0, 0, c) for c in (0, 1, 2)] + [("y", 0, 0, c) for c in (0, 1, 3)]
               + [(a, 1, 1, c) for a in "xy" for c in range(4)])


@pytest.fixture(scope="module")
def curvature_frame():
    grid = GridSpec.square(1.0, 33)
    conn = cmc.family_ribaucour_connection(grid, 0.6)
    phi_x, phi_y = conn.phi(1.0)
    return grid_module.integrate_frame(phi_x, phi_y, grid, conn.frame0_at_p0(), conn.p0)


@pytest.mark.parametrize("entry", OFF_PATTERN, ids=lambda e: "phi_%s[%d,%d,%d]" % e)
@pytest.mark.parametrize("value", [1e3, np.nan])
def test_each_off_pattern_entry_reaches_the_pattern_residual(curvature_frame, entry, value,
                                                             monkeypatch):
    """The running maximum folds every off-pattern piece, and a NaN in any
    one of them propagates: 1e3 added to one entry at one node (to both
    diagonal entries for a (0, 0) entry) lifts the pattern residual from
    about 3e-4 to about 1.  The value is planted in the pair planes of Phi
    that the extraction reads, as component k of entry (r, c) at float
    [k // 2, r, c, row, 2 column + k % 2]."""
    base = cmc.ribaucour_data_extract(curvature_frame).pattern_residual
    assert base < 1e-3
    axis, r, c, comp = entry
    planes = cmc._connection_planes

    def planted(frame):
        for rows, phi_x, phi_y in planes(frame):
            if rows.start <= 16 < rows.stop:
                phi = {"x": phi_x, "y": phi_y}[axis].view(float)
                at = (comp // 2, slice(None), slice(None), 16 - rows.start, 32 + comp % 2)
                phi[at][r, c] += value
                if (r, c) == (0, 0):  # keep the diagonal's difference, a piece of its own
                    phi[at][1, 1] += value
            yield rows, phi_x, phi_y

    monkeypatch.setattr(cmc, "_connection_planes", planted)
    with np.errstate(invalid="ignore"):
        got = cmc.ribaucour_data_extract(curvature_frame).pattern_residual
    assert np.isnan(got) if np.isnan(value) else got > 0.5


def test_planted_planes_are_the_connection_form(curvature_frame):
    """The planes the previous test plants into hold connection_form()'s
    components at the place its index names."""
    phi = curvature_frame.connection_form()
    for rows, *planes in cmc._connection_planes(curvature_frame):
        for want, got in zip(phi, planes):
            got = got.view(float)
            for r, c, comp in np.ndindex(2, 2, 4):
                assert np.array_equal(got[comp // 2, r, c, :, comp % 2::2],
                                      want[rows, :, r, c, comp])


# ---------------------------------------------------------------------------
# the march's block check
# ---------------------------------------------------------------------------

def _copy_steps(pa, pm, pb, s):
    """steps for grid._march whose step sets each state to the coefficient
    at the step's end, so that the marched field is the coefficient field
    (but at p0)."""
    return lambda i, state: pb[..., i, :].copy()


def _named_node(values, p0, spine):
    """The node grid._march names for a marched field equal to values, or
    None when it raises nothing."""
    grid = GridSpec(0.0, 0.0, 0.1, values.shape[1], values.shape[0])
    state0 = _pair_planes(values[p0], 0)
    try:
        out = grid_module._march(grid, p0, values, values, state0, _copy_steps,
                                 BLOWUP_LIMIT, spine)
    except StepBlowup as err:
        return err.node
    _assert_same(out, values)
    return None


#: nodes of a 23 x 16 grid marched from p0 = (11, 7), per spine; the far
#: corner lies in the tail of the column spine's lines (8 columns above
#: p0, 7 below)
LIMIT_NODES = {
    "spine_lower": {"column": (3, 7), "row": (11, 3)},
    "spine_upper": {"column": (20, 7), "row": (11, 14)},
    "lines_lower": {"column": (5, 2), "row": (5, 2)},
    "lines_upper": {"column": (17, 12), "row": (17, 12)},
    "corner": {"column": (0, 0), "row": (0, 0)},
    "far_corner": {"column": (22, 15), "row": (22, 15)},
}


@pytest.mark.parametrize("spine", ["column", "row"])
@pytest.mark.parametrize("where", list(LIMIT_NODES))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_block_check_at_the_limit(spine, where, sign):
    """A state exactly at BLOWUP_LIMIT passes; the next float above it fails
    at its node."""
    values = np.ones((23, 16, 4))
    p0, node = (11, 7), LIMIT_NODES[where][spine]
    values[node + (2,)] = sign * BLOWUP_LIMIT
    assert _named_node(values, p0, spine) is None
    values[node + (2,)] = sign * np.nextafter(BLOWUP_LIMIT, np.inf)
    assert _named_node(values, p0, spine) == node
    assert ref.first_blowup_node(values, p0, BLOWUP_LIMIT, spine) == node


@pytest.mark.parametrize("block", [1, 6, 50, 4096])
@pytest.mark.parametrize("spine", ["column", "row"])
@pytest.mark.parametrize("p0", [(11, 7), (4, 12), (18, 2), (0, 15)], ids=str)
def test_block_check_names_the_reference_node(block, spine, p0, monkeypatch):
    """NaN, inf and -inf planted at random nodes (on the spine, in either half
    of the lines, in the tail that one half marches alone) are named where
    the reference loop over the march order names them, for blocks of one
    line and of many."""
    monkeypatch.setattr(grid_module, "_MARCH_BLOCK", block)
    rng = np.random.default_rng(block + 7 * p0[0] + p0[1])
    ny, nx = 23, 16
    for trial in range(40):
        values = rng.normal(size=(ny, nx, 4))
        for _ in range(rng.integers(1, 4)):
            node = (int(rng.integers(ny)), int(rng.integers(nx)))
            values[node + (int(rng.integers(4)),)] = rng.choice([np.nan, np.inf, -np.inf])
        if trial % 4 == 0:  # a bad node on the spine
            spine_node = ((int(rng.integers(ny)), p0[1]) if spine == "column"
                          else (p0[0], int(rng.integers(nx))))
            values[spine_node + (0,)] = np.nan
        want = ref.first_blowup_node(values, p0, BLOWUP_LIMIT, spine)
        assert _named_node(values, p0, spine) == want
