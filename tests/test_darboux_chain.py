"""The Darboux chain, one blocked pass on pair planes, against the dense body
it replaced (tests/reference_march.darboux_chain), and the read protocol
every frame family shares.

darboux_via_connection(chain=True) forms Y^-1, the Darboux point and the
slopes V^-1 ((Y S) Y^-1) V of its output family per block of grid rows,
reading the parent's frame(rows) and slopes, and the family stores only
those slopes: phi(mu) = -lam * slope + mu * slope and the frame (F Y^-1) V
of the parent's frame F are computed on each read.  For a parent whose
slopes are upper-right entries (every family but a Darboux family's own and
its spectral transforms) it takes 6 of the 16 products of (Y S) Y^-1,
skipping products with zeros, so a zero of the slopes may differ from the
dense body's in sign: the slopes and phi are compared by == with the same
NaN positions, everything else byte for byte (phi at P3's parameter
0.4 * lam, where the two signs of a zero slope give one bit pattern).
"""

import tracemalloc

import numpy as np
import pytest

from isothermic import (
    GridMismatch,
    GridSpec,
    PolarizedSurface,
    SingularMatrix,
    canonical_connection,
    darboux_via_connection,
    family_ribaucour_connection,
    integrate_frame,
    t_transform_via_connection,
)
from isothermic import oracles as oc
from isothermic.cmc import _sign_continuity
from isothermic.quaternion import qm2_identity
from isothermic.transforms import frame_connection_from_field

import reference_march as ref
from conftest import FAMILY_LAMS, GRID_FIELDS

LAMS = (0.8, 1.3, -0.6, -0.0)
#: start columns whose completion V = [w0 | e] puts e's 1 in the second row
#: (|w0[0]| >= |w0[1]|) and in the first
W0S = {"e2": np.array([[1.0, 0, 0, 0], [0.1, 0.3, -0.7, 0.2]]),
       "e1": np.array([[0.1, 0, 0.2, 0], [1.0, 0.3, -0.7, 0.2]])}


def _frame(conn, lam):
    phi_x, phi_y = conn.phi(lam)
    return integrate_frame(phi_x, phi_y, conn.grid, qm2_identity(), conn.p0,
                           curvature_norm=conn.curvature_norm(lam))


def _same(a, b, exact=True):
    """a equals b byte for byte, or by == with the same NaN positions."""
    assert a.shape == b.shape
    if exact:
        assert a.tobytes() == b.tobytes()
    else:
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.array_equal(a, b, equal_nan=True)


def assert_same_chain(got, want, lam):
    """The chain's result got against the dense body's want (see the module
    docstring), and P3's left-hand surface, the spectral transform at mu =
    0.4 lam of the chained family."""
    _same(got.surface.f.values, want.surface.f.values)
    assert np.array_equal(got.surface.grid.valid(), want.surface.grid.valid())
    a, b = got.connection, want.connection
    assert a.p0 == b.p0 and a.curvature is None and b.curvature is None
    assert ([getattr(a.grid, k) for k in GRID_FIELDS]
            == [getattr(b.grid, k) for k in GRID_FIELDS])
    _same(a.frame(...), b.frame(...))
    _same(a.frame0_at_p0(), b.frame0_at_p0())
    for x, y in zip(a.slopes, b.slopes):
        _same(x, y, exact=False)
    mu = 0.4 * lam
    for lam_read, exact in [(mu, True)] + [(m, False) for m in FAMILY_LAMS]:
        for x, y in zip(a.phi(lam_read), b.phi(lam_read)):
            _same(x, y, exact)
    _same(t_transform_via_connection(a, mu).surface.f.values,
          t_transform_via_connection(b, mu).surface.f.values)


@pytest.fixture(scope="module")
def example(canonical_inputs):
    return canonical_inputs["example"][0]


@pytest.fixture(scope="module")
def parents(example):
    """Parent families, each with its dense twin: the canonical family, the
    spectral transform of it at 0.4, the numeric family read off the
    canonical frame (frame_connection_from_field) and the Ribaucour family of
    the reference minimal family at 0.6 (the twin built by the dense body
    from the public oracles)."""
    conn = canonical_connection(example)
    dense = ref.canonical_connection(example)
    frame = integrate_frame(*conn.phi(0.0), conn.grid, conn.frame0_at_p0(), conn.p0)
    numeric = frame_connection_from_field(example, frame)
    grid, lam = example.grid, 0.6
    zs, p0 = grid.zgrid(), grid.center_node()
    u, dzu = oc.family_log_metric(zs, lam)
    ribaucour = ref.ribaucour_from_parts(grid, oc.minimal_family(zs, lam),
                                         _sign_continuity(oc.family_spin(zs, lam), p0),
                                         u, 2.0 * dzu.real, -2.0 * dzu.imag, p0)
    return {"canonical": (conn, dense),
            "spectral": (t_transform_via_connection(conn, 0.4).connection,
                         t_transform_via_connection(dense, 0.4).connection),
            "numeric": (numeric, numeric),
            "ribaucour": (family_ribaucour_connection(grid, lam), ribaucour)}


@pytest.mark.parametrize("w0", sorted(W0S))
@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("parent", ["canonical", "spectral", "numeric", "ribaucour"])
def test_chain_equals_the_dense_body(parents, parent, lam, w0):
    conn, dense = parents[parent]
    assert_same_chain(darboux_via_connection(conn, lam, W0S[w0], chain=True),
                      ref.darboux_chain(dense, lam, W0S[w0]), lam)


@pytest.mark.parametrize("kind", ["canonical", "ribaucour", "numeric", "spectral", "darboux",
                                  "darboux-spectral"])
def test_every_family_reads_through_one_protocol(parents, kind):
    """frame(rows) is frame(...)[rows] and frame0_at_p0() is frame(...)[p0],
    byte for byte; the slopes are upper-right entries (ny, nx, 4) for every
    kind but a Darboux family and its spectral transforms, which hold them
    dense; a family that stores parts prints without its stored fields."""
    conn = parents.get(kind, parents["canonical"])[0]
    if kind.startswith("darboux"):
        conn = darboux_via_connection(conn, 1.3, W0S["e2"], chain=True).connection
    if kind == "darboux-spectral":
        conn = t_transform_via_connection(conn, 0.4).connection
    whole = conn.frame(...)
    assert whole.shape == (65, 65, 2, 2, 4)
    for rows in (slice(0, 5), slice(20, 37), slice(60, 65)):
        _same(conn.frame(rows), whole[rows])
    _same(conn.frame0_at_p0(), whole[conn.p0])
    dense = kind.startswith("darboux")
    assert [s.shape for s in conn.slopes] == [whole.shape if dense else (65, 65, 4)] * 2
    assert type(conn).__name__ in repr(conn)


@pytest.mark.parametrize("lam", [0.8, -0.6])
def test_chain_of_a_chain_equals_the_dense_body(parents, lam):
    """A Darboux family's own slopes are dense: the chain multiplies all 16."""
    conn, dense = parents["canonical"]
    got = darboux_via_connection(conn, 1.3, W0S["e2"], chain=True).connection
    want = ref.darboux_chain(dense, 1.3, W0S["e2"]).connection
    assert_same_chain(darboux_via_connection(got, lam, W0S["e1"], chain=True),
                      ref.darboux_chain(want, lam, W0S["e1"]), lam)


def test_supplied_frame_is_used_and_phi_not_built(parents, monkeypatch):
    conn, dense = parents["canonical"]
    frame = _frame(conn, 0.8)
    want = ref.darboux_chain(dense, 0.8, W0S["e2"], frame=frame)
    monkeypatch.setattr(conn, "phi", lambda lam: pytest.fail("phi(lam) was built"))
    assert_same_chain(darboux_via_connection(conn, 0.8, W0S["e2"], chain=True, frame=frame),
                      want, 0.8)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_nan_in_the_parent_dual_form(example, sign):
    """A NaN of either sign in the parent's dCf reaches the slopes and phi at
    the nodes where the dense body puts it; the frame Y
    is marched before it is planted, so it stays finite."""
    got = canonical_connection(example)
    want = ref.canonical_connection(example)
    frame = _frame(got, 0.8)
    got.slopes[0][9, 2, 1] = want.slopes[0][9, 2, 0, 1, 1] = sign * np.nan
    got.slopes[1][40, 50, 3] = want.slopes[1][40, 50, 0, 1, 3] = sign * np.nan
    a = darboux_via_connection(got, 0.8, W0S["e2"], chain=True, frame=frame)
    b = ref.darboux_chain(want, 0.8, W0S["e2"], frame=frame)
    _same(a.surface.f.values, b.surface.f.values)
    assert np.isnan(a.connection.slopes[0][9, 2]).any()
    for x, y in zip(a.connection.slopes, b.connection.slopes):
        _same(x, y, exact=False)
    for lam in (0.32,) + FAMILY_LAMS:
        for x, y in zip(a.connection.phi(lam), b.connection.phi(lam)):
            _same(x, y, exact=False)


@pytest.mark.parametrize("nodes", [[(40, 7), (50, 3)], [(3, 60)], [(63, 64), (64, 3)]])
def test_singular_frame_raises_at_the_dense_node(parents, nodes):
    """A singular Y raises SingularMatrix at its first singular node,
    row-major, with the dense body's message; the blocks of the pass are
    several grid rows each, so a later block's node is named only after the
    earlier blocks are clean."""
    conn, dense = parents["canonical"]
    frame = _frame(conn, 0.8)
    for node in nodes:
        frame.values[node] = 0.0
    with pytest.raises(SingularMatrix) as want:
        ref.darboux_chain(dense, 0.8, W0S["e2"], frame=frame)
    with pytest.raises(SingularMatrix) as got:
        darboux_via_connection(conn, 0.8, W0S["e2"], chain=True, frame=frame)
    assert got.value.node == want.value.node == nodes[0]
    assert str(got.value) == str(want.value)


def test_frame_on_another_grid_is_rejected():
    """A frame of another size, or of the same size on a shifted domain, is
    a GridMismatch, not numpy's broadcast error or a silent answer."""
    surface = PolarizedSurface.sample(GridSpec.square(1.0, 33), oc.f_plane, "dzbar2")
    conn = canonical_connection(surface)
    small = canonical_connection(PolarizedSurface.sample(GridSpec.square(1.0, 17), oc.f_plane,
                                                         "dzbar2"))
    shifted_grid = GridSpec(x0=-0.5, y0=-1.0, h=conn.grid.h, nx=33, ny=33)
    shifted = canonical_connection(PolarizedSurface.sample(shifted_grid, oc.f_plane, "dzbar2"))
    for other in (small, shifted):
        with pytest.raises(GridMismatch):
            darboux_via_connection(conn, 0.8, W0S["e2"], chain=True, frame=_frame(other, 0.8))
    darboux_via_connection(conn, 0.8, W0S["e2"], chain=True, frame=_frame(conn, 0.8))


def test_chain_memory():
    """One chain call at n = 129, handed its frame, peaks at no more than 6
    (ny, nx, 2, 2, 4) fields of traced memory above what it is handed (about
    4.8; 10.1 when it multiplied whole fields and stored five of them), and
    its family holds its two slopes: with the Darboux surface, at most 2.5
    fields stay held (5.25 before)."""
    n = 129
    dense = n * n * 2 * 2 * 4 * 8
    conn = canonical_connection(PolarizedSurface.sample(GridSpec.square(1.0, n), oc.f_plane,
                                                        "dzbar2"))
    frame = _frame(conn, 0.8)
    darboux_via_connection(conn, 0.8, W0S["e2"], chain=True,
                           frame=_frame(conn, 0.8))  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = darboux_via_connection(conn, 0.8, W0S["e2"], chain=True, frame=frame)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert out.connection.slopes[0].shape == frame.values.shape
    assert peak <= 6 * dense
    assert held <= 2.5 * dense
