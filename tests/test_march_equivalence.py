"""The package's marches against the reference marches in tests/reference_march.py.

integrate_frame (both spines), integrate_left_vector and
integrate_right_rowvec must reproduce the generic RK4 loop they replaced to
1e-13 relative to the field's largest entry, on n = 33, 65 and 129, for the
reference family's flat connection and for a constant connection whose two
coefficients do not commute, from a base node off the grid centre; so must
integrate_riccati the real-component Riccati loop, for coefficients that
vary over the grid and do not commute.
"""

import numpy as np
import pytest

from isothermic import GridSpec, family_ribaucour_connection
from isothermic.grid import (
    integrate_frame,
    integrate_left_vector,
    integrate_riccati,
    integrate_right_rowvec,
)
from isothermic.quaternion import qm2_mul, qmul

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
    _assert_close(integrate_right_rowvec(phi_x, phi_y, grid, v0, p0, tau=tau),
                  ref.right_rowvec(phi_x, phi_y, grid, v0, p0))


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
