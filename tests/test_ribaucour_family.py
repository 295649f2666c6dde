"""The Ribaucour frame family, kept as its scalar parts, against the dense body
it replaced (tests/reference_march.py).

family_ribaucour_connection and ribaucour_connection store f, the spin field,
e^u, e^-u, u_x and u_y, and compute their frame, their slopes (upper-right
entries) and phi(lam) on each read.  Every one of them must equal the dense
family's bytes, at the spectral parameters a march or a transform uses, -0.0
included; the stored parts must take less memory than one dense field, and
phi(lam) no more than its two outputs and one (ny, nx) temporary.  Criterion
9 hands the family to t_transform_gauged, which must give the same bytes as
for the dense family.
"""

import tracemalloc

import numpy as np
import pytest

from isothermic import (
    GridSpec,
    WeierstrassData,
    family_ribaucour_connection,
    ribaucour_connection,
    t_transform_gauged,
    weierstrass_minimal,
)
from isothermic import cmc
from isothermic import oracles as oc
from isothermic.cmc import _sign_continuity

import reference_march as ref
from conftest import assert_same_family


@pytest.mark.parametrize("lam", [2e-4, 0.6, 1.0])
def test_family_connection_equals_the_public_oracles(grid65, lam):
    """The connection built from one evaluation of each closed form equals,
    bit for bit, the dense reference family built from minimal_family,
    family_spin and family_log_metric."""
    conn = family_ribaucour_connection(grid65, lam)
    zs, p0 = grid65.zgrid(), grid65.center_node()
    u, dzu = oc.family_log_metric(zs, lam)
    want = ref.ribaucour_from_parts(grid65, oc.minimal_family(zs, lam),
                                    _sign_continuity(oc.family_spin(zs, lam), p0),
                                    u, 2.0 * dzu.real, -2.0 * dzu.imag, p0)
    assert conn.grid is want.grid
    assert_same_family(conn, want)


def _with_dense_twin(monkeypatch, surface, p0=None):
    """ribaucour_connection(surface, p0), and the dense reference family
    assembled from the very parts it was given."""
    parts = []
    family = cmc._RibaucourFamily

    def record(*args):
        parts.append(args)
        return family(*args)

    with monkeypatch.context() as mp:
        mp.setattr(cmc, "_RibaucourFamily", record)
        conn = ribaucour_connection(surface, p0)
    (args,) = parts
    return conn, ref.ribaucour_from_parts(*args)


def test_numeric_connection_equals_the_dense_reference(catenoid129, monkeypatch):
    conn, want = _with_dense_twin(monkeypatch, catenoid129)
    assert conn.grid is want.grid
    assert_same_family(conn, want)
    # -0.5 u_y is -0.0 where u_y is +0.0, which phi(0) turns into +0.0
    assert want.const[0].tobytes() != conn.phi(0.0)[0].tobytes()


def test_family_memory():
    n = 129
    dense = n * n * 2 * 2 * 4 * 8
    grid = GridSpec.square(1.0, n)
    tracemalloc.start()
    try:
        conn = family_ribaucour_connection(grid, 0.6)
        assert tracemalloc.get_traced_memory()[0] < dense
        for lam in (1.0, -0.7):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            phi = conn.phi(lam)
            assert tracemalloc.get_traced_memory()[1] - base <= 2 * dense + n * n * 8
            del phi
    finally:
        tracemalloc.stop()


def test_gauged_transform_takes_the_family_as_its_dense_twin(grid65, monkeypatch):
    lam = 0.5
    data = WeierstrassData.sample(grid65, lambda z: oc.family_g(z, lam),
                                  lambda z: oc.family_w(z, lam),
                                  lambda z: oc.family_dg(z, lam))
    minimal = weierstrass_minimal(data)
    conn, stored = _with_dense_twin(monkeypatch, minimal, grid65.center_node())
    got = t_transform_gauged(minimal, -lam, conn)
    want = t_transform_gauged(minimal, -lam, stored)
    assert got.surface.f.values.tobytes() == want.surface.f.values.tobytes()
    assert np.array_equal(got.surface.grid.valid(), want.surface.grid.valid())
    assert got.frame.values.tobytes() == want.frame.values.tobytes()
    assert_same_family(got.connection, want.connection)


def test_gauged_transform_keeps_no_slope_of_the_family():
    """The family a spectral transform returns reads the Ribaucour family's
    slopes when they are needed: the result holds its frame, the frame moved
    to the surface and phi(lam), four dense fields and the surface (six, and
    13.3 MB at n = 129, when it stored the two slopes)."""
    n, lam = 129, 0.5
    dense = n * n * 2 * 2 * 4 * 8
    grid = GridSpec.square(1.0, n)
    data = WeierstrassData.sample(grid, lambda z: oc.family_g(z, lam),
                                  lambda z: oc.family_w(z, lam),
                                  lambda z: oc.family_dg(z, lam))
    minimal = weierstrass_minimal(data)
    conn = ribaucour_connection(minimal, grid.center_node())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = t_transform_gauged(minimal, -lam, conn)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 4 * dense + dense // 2
    for got, want in zip(result.connection.slopes, conn.slopes):
        assert got.shape == (n, n, 4) and got.tobytes() == want.tobytes()
