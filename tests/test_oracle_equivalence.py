"""The array oracles against the scalar reference in tests/scalar_oracles.py.

The closed forms are evaluated on whole grids; the scalar cmath versions
they replaced are the reference.  Every oracle must match it to 1e-13
(relative to the field's scale where that exceeds 1) on every grid the
suite samples, n = 33, 65, 129 and 257 on [-1, 1]^2: for positive and
negative lam, with every node on the series branch (lam = 1e-12, and 0),
and with both branches on one grid (lam = +-0.01).  The pole guard must stop
at the node the per-node loop stopped at first.

The grids nest with power-of-two spacing, so every node of the n = 33 grid
is, bit for bit, a node of each finer grid.  Each grid is evaluated whole
and compared at those shared nodes plus random nodes of its own; the
scalar reference is too slow to run at all 66049 nodes of n = 257.
"""

import warnings

import numpy as np
import pytest

from isothermic import GridSpec, PoleProximity
from isothermic import oracles as oc

import scalar_oracles as so

GRID_SIZES = (33, 65, 129, 257)
LAMBDAS = (1.0, 0.6, 0.25, -0.8, 0.01, -0.01, 1e-12, 0.0)
TOL = 1e-13
RANDOM_NODES = 64

PLANE_ORACLES = ("f_plane", "cf_plane")
GUARDED_ORACLES = ("t_frame", "t_plane", "ct_plane", "minimal_family",
                   "darboux_plane", "darboux_of_t_plane")
FAMILY_ORACLES = ("family_g", "family_w", "family_dg", "family_log_metric",
                  "family_spin")
ORACLES = PLANE_ORACLES + GUARDED_ORACLES + FAMILY_ORACLES


def oracle_args(name, lam):
    return () if name in PLANE_ORACLES else (lam,)


def as_array(value):
    """Array form of an oracle value: (u, du/dz) pairs stack on a last axis."""
    if isinstance(value, tuple):
        return np.stack(np.broadcast_arrays(*value), axis=-1)
    return np.asarray(value)


def _scalar_value(value):
    if isinstance(value, tuple):
        return np.array(value, dtype=complex)
    return value.as_array() if hasattr(value, "as_array") else np.asarray(value)


def array_values(name, zs, lam):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        return as_array(getattr(oc, name)(zs, *oracle_args(name, lam)))


def scalar_values(name, zs, lam):
    fn = getattr(so, name)
    return np.array([_scalar_value(fn(z, *oracle_args(name, lam))) for z in zs])


def assert_close(got, want, what):
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max())
    assert err <= TOL * scale, f"{what}: {err:.2e}"


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("name", ORACLES)
def test_array_oracle_matches_scalar_reference(name, lam):
    rng = np.random.default_rng(17)
    coarse = GridSpec.square(1.0, GRID_SIZES[0]).zgrid()
    want = scalar_values(name, coarse.ravel(), lam)
    want = want.reshape(coarse.shape + want.shape[1:])
    for n in GRID_SIZES:
        zs = GridSpec.square(1.0, n).zgrid()
        got = array_values(name, zs, lam)
        assert np.isfinite(got).all()
        stride = (n - 1) // (GRID_SIZES[0] - 1)
        assert np.array_equal(zs[::stride, ::stride], coarse)
        assert_close(got[::stride, ::stride], want, f"{name} lam={lam} n={n} shared nodes")
        iy, ix = rng.integers(0, n, size=(2, RANDOM_NODES))
        assert_close(got[iy, ix], scalar_values(name, zs[iy, ix], lam),
                     f"{name} lam={lam} n={n} random nodes")


@pytest.mark.parametrize("z", (0.3 + 0.2j, 1, np.array(0.3 + 0.2j),
                               GridSpec.square(1.0, 33).zgrid()))
def test_value_shapes(z):
    shape = np.shape(z)
    for name in ORACLES:
        value = getattr(oc, name)(z, *oracle_args(name, 0.6))
        if name == "t_frame":
            assert value.shape == shape + (2, 2, 4)
        elif name == "family_log_metric":
            assert value[0].shape == value[1].shape == shape
        elif name.startswith("family") and name != "family_spin":
            assert value.shape == shape and value.dtype == complex
        else:
            assert value.shape == shape + (4,)


def _first_scalar_pole(zs, lam):
    for node in np.ndindex(zs.shape):
        try:
            so.check_pole_margin(zs[node], lam)
        except PoleProximity:
            return node
    return None


@pytest.mark.parametrize("lam", (3.0, -3.0))
def test_pole_guard_stops_at_the_same_node(lam):
    # sqrt(3) * 0.907 = pi/2: the poles of tanh and 1/cosh sit inside the patch
    for n in GRID_SIZES:
        zs = GridSpec.square(1.0, n).zgrid()
        node = _first_scalar_pole(zs, lam)
        assert node is not None
        for name in GUARDED_ORACLES:
            with pytest.raises(PoleProximity):
                getattr(so, name)(zs[node], lam)
            with pytest.raises(PoleProximity) as info:
                getattr(oc, name)(zs, lam)
            assert info.value.node == node, (name, n)

