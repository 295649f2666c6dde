"""The Moebius check with one cross-ratio call per surface and batch, against
the per-quadruple loop it replaced (tests/reference_permutability.py).

moebius_equivalent must return the same (equivalent, residual), byte for
byte, and raise the same errors: on equivalent and inequivalent pairs, on a
masked grid, where coincident points force retries or exhaust them, and
where a sampled node holds a NaN.  sample_quadruples draws its candidates in
batches, which keeps the stream of one draw of 4 per candidate only if
numpy's Generator.integers does; the first test pins that.
"""

import numpy as np
import pytest

from isothermic import (
    DegenerateQuadruple,
    GridSpec,
    PolarizedSurface,
    QField,
    canonical_connection,
    christoffel,
    cross_ratio_class_array,
    darboux_via_connection,
    moebius_equivalent,
    t_transform,
)
from isothermic import oracles as oc
from isothermic import transforms
from isothermic.transforms import sample_quadruples

import reference_permutability as ref

W0 = (np.array([[1.0, 0, 0, 0], [0, -1.0, 0, 0]]), np.array([[1.0, 0, 0, 0], [0, -0.7, 0.5, 0.2]]))


@pytest.mark.parametrize("n", [7, 100, 16641, 2**31 + 5])
@pytest.mark.parametrize("batch", [1, 10, 200])
def test_batched_integers_are_the_stream_of_single_draws(n, batch):
    """Batches of (batch, 4) draws from one Generator give the draws of 4 one
    at a time, in order, for node counts small, large and beyond 2^31."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        batched = np.concatenate([rng.integers(0, n, size=(batch, 4)) for _ in range(600 // batch)])
        rng = np.random.default_rng(seed)
        single = np.array([rng.integers(0, n, size=4) for _ in range(600)])
        assert batched.dtype == single.dtype and np.array_equal(batched, single)


def _masked(grid, seed):
    mask = np.random.default_rng(seed).random((grid.ny, grid.nx)) > 0.3
    return grid.with_mask(mask)


@pytest.mark.parametrize("n_quads", [1, 7, 20, 45])
@pytest.mark.parametrize("grid", [GridSpec.square(1.0, 9), GridSpec.square(1.0, 33),
                                  _masked(GridSpec(0.0, 0.0, 0.1, 70, 41), 3)],
                         ids=["n9", "n33", "masked_70x41"])
def test_sample_quadruples_equals_reference(grid, n_quads):
    extra = np.random.default_rng(n_quads).random((grid.ny, grid.nx)) > 0.2
    for seed in range(5):
        for extra_valid in (None, extra):
            got = sample_quadruples(grid, n_quads, seed, extra_valid)
            want = np.array(ref.sample_quadruples(grid, n_quads, seed, extra_valid))
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.fixture(scope="module")
def pairs():
    """An equivalent pair (P1 of the permutability suite on the plane), an
    inequivalent one (two Darboux transforms of the plane) and the
    equivalent pair moved onto a masked grid."""
    s = PolarizedSurface.sample(GridSpec.square(1.0, 65), oc.f_plane, "dzbar2")
    tt, tc = t_transform(s, 1.0), t_transform(christoffel(s), 1.0)
    conn = canonical_connection(s)
    lhs, rhs = (darboux_via_connection(conn, 1.0, w0).surface for w0 in W0)
    grid = _masked(s.grid, 5)
    masked = QField(grid, tt.second_point.values), QField(grid, tc.surface.f.values)
    return {"equivalent": (tt.second_point, tc.surface.f),
            "inequivalent": (lhs.f, rhs.f), "masked": masked}


def _outcome(run, *args, **kwargs):
    """(equivalent, residual bytes), or the error type and message."""
    try:
        eq, res = run(*args, **kwargs)
    except DegenerateQuadruple as exc:
        return type(exc), str(exc)
    return type(eq), eq, type(res), np.float64(res).tobytes()


@pytest.mark.parametrize("name", ["equivalent", "inequivalent", "masked"])
def test_moebius_equivalent_equals_reference(pairs, name):
    a, b = pairs[name]
    for seed in range(8):
        for n_quads in (20, 3):
            want = _outcome(ref.moebius_equivalent, a, b, n_quads, seed)
            assert _outcome(moebius_equivalent, a, b, n_quads, seed) == want
    assert want[1] == (name != "inequivalent")


@pytest.mark.parametrize("rows, cols, exhausted", [
    (slice(None, None, 2), slice(None, None, 2), False),
    (slice(None, None, 3), slice(None), False),
    (slice(None, None, 2), slice(None), True)], ids=["retries", "more_retries", "exhausted"])
def test_moebius_retries_equal_reference(pairs, rows, cols, exhausted, monkeypatch):
    """Points set to one value on a sub-lattice make the quadruples that take
    two of them degenerate: each is a retry, and the missing ones are drawn
    again at seed + 101, until 40 retries exhaust the sampling."""
    a, b = pairs["equivalent"]
    vals = b.values.copy()
    vals[rows, cols] = 0.0
    b = QField(b.grid, vals)
    batches, outcomes = [], set()
    monkeypatch.setattr(transforms, "sample_quadruples",
                        lambda *args, **kw: batches.append(args) or sample_quadruples(*args, **kw))
    for seed in range(6):
        want = _outcome(ref.moebius_equivalent, a, b, seed=seed)
        assert _outcome(moebius_equivalent, a, b, seed=seed) == want
        outcomes.add(want[0])
    assert len(batches) > 6 and (DegenerateQuadruple in outcomes) == exhausted


@pytest.mark.parametrize("side", [0, 1])
def test_moebius_nan_at_sampled_nodes_equals_reference(pairs, side):
    """NaNs on a sub-lattice of either surface: the quadruples through them
    are not degenerate, their NaN discrepancies are passed over by Python's
    max, and a NaN on a, read by the best-order choice, picks the order
    np.argmin gives NaN."""
    pair = list(pairs["equivalent"])
    vals = pair[side].values.copy()
    vals[np.ix_(range(0, 65, 2), range(0, 65, 3))] = np.nan
    pair[side] = QField(pair[side].grid, vals)
    for seed in range(6):
        quads = sample_quadruples(pair[0].grid, 20, seed)
        assert np.isnan(vals[quads[..., 0], quads[..., 1]]).any()
        want = _outcome(ref.moebius_equivalent, *pair, seed=seed)
        assert _outcome(moebius_equivalent, *pair, seed=seed) == want


def test_cross_ratio_flags_degenerate_quadruples():
    """The degenerate mask flags the quadruples where two cyclically
    consecutive points coincide; the others have the classes they have
    alone."""
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(4, 30, 4))
    pts[..., 0] = 0.0
    pts[1, :5] = pts[0, :5]  # a = b
    pts[3, 5:8] = pts[0, 5:8]  # d = a
    pts[2, 8:10] = pts[0, 8:10]  # a = c: not consecutive
    re, nm, degenerate = cross_ratio_class_array(*pts)
    assert np.array_equal(degenerate, np.arange(30) < 8)
    want = cross_ratio_class_array(*pts[:, 8:])
    assert re[8:].tobytes() == want[0].tobytes() and nm[8:].tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# the four DegenerateQuadruple raises, each as the reference raises it
# ---------------------------------------------------------------------------

def _quadruple_failures(a, b):
    for run in (moebius_equivalent, ref.moebius_equivalent):
        with pytest.raises(DegenerateQuadruple) as info:
            run(a, b)
        yield str(info.value)


def test_moebius_needs_sixteen_common_valid_nodes():
    grid = GridSpec.square(1.0, 33)
    mask = np.zeros((33, 33), bool)
    mask[np.unravel_index(np.arange(0, 33 * 33, 70), mask.shape)] = True  # 16 nodes
    a = QField(grid.with_mask(mask), oc.f_plane(grid.zgrid()))
    mask[0, 0] = False  # 15 in common
    b = QField(grid.with_mask(mask), a.values)
    assert set(_quadruple_failures(a, b)) == {"not enough valid nodes to sample"}


def test_moebius_without_separated_quadruples():
    """Every valid node in one 5x5 block, while quadruples need 13 nodes of
    separation on a 65-node grid."""
    grid = GridSpec.square(1.0, 65)
    mask = np.zeros((65, 65), bool)
    mask[30:35, 30:35] = True
    a = QField(grid.with_mask(mask), oc.f_plane(grid.zgrid()))
    assert set(_quadruple_failures(a, a)) == {"could not sample separated quadruples"}


def test_moebius_on_different_grids():
    a, b = (QField.sample(GridSpec.square(1.0, n), oc.f_plane) for n in (33, 65))
    assert set(_quadruple_failures(a, b)) == {"surfaces live on different grids"}


def test_moebius_exhausts_retries_on_a_constant_surface():
    """Every quadruple of a constant surface is degenerate: 40 retries in the
    first batch of 20 and the next, then the sampling gives up."""
    a = QField.sample(GridSpec.square(1.0, 33), oc.f_plane)
    b = QField(a.grid, np.ones_like(a.values))
    assert set(_quadruple_failures(a, b)) == {"quadruple sampling exhausted retries"}
