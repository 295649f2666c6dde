import numpy as np
import pytest

from isothermic import (
    FrameConnection,
    GridSpec,
    PolarizedSurface,
    QField,
    WeierstrassData,
    canonical_connection,
    weierstrass_minimal,
)
from isothermic import cmc, oracles
from isothermic.quaternion import qinv_masked, qmul

from reference_march import dense_slopes


#: the spectral parameters at which phi(lam) is compared: those a march or a
#: transform uses, -0.0 included
FAMILY_LAMS = (1.0, -0.7, 0.0, -0.0, 0.6)
GRID_FIELDS = ("x0", "y0", "h", "nx", "ny")


def assert_same_family(conn, want):
    """conn equals the family want byte for byte: its grid (geometry and mask
    compared exactly), its frame on the whole grid and at the base node,
    phi(lam) at FAMILY_LAMS, its slopes expanded to dense and its curvature
    polynomial."""
    assert isinstance(conn, FrameConnection)
    assert conn.p0 == want.p0
    assert ([getattr(conn.grid, k) for k in GRID_FIELDS]
            == [getattr(want.grid, k) for k in GRID_FIELDS])
    assert np.array_equal(conn.grid.valid(), want.grid.valid())
    pairs = [(conn.frame(...), want.frame(...)), (conn.frame(conn.p0), want.frame(want.p0)),
             (conn.frame0_at_p0(), want.frame0_at_p0()),
             *zip(dense_slopes(conn), dense_slopes(want))]
    for got, exp in pairs:
        assert got.shape == exp.shape
        assert got.tobytes() == exp.tobytes()
    for lam in FAMILY_LAMS:
        for got, exp in zip(conn.phi(lam), want.phi(lam)):
            assert got.tobytes() == exp.tobytes(), lam
    if want.curvature is None:
        assert conn.curvature is None
    else:
        (n0, n1, shift), (w0, w1, wshift) = conn.curvature, want.curvature
        assert n0.tobytes() == w0.tobytes() and n1.tobytes() == w1.tobytes()
        assert np.float64(shift).tobytes() == np.float64(wshift).tobytes()


def sample_values(grid, fn):
    """Evaluate an array callable on the grid: fn(grid.zgrid()) -> (ny, nx, 4)."""
    return np.asarray(fn(grid.zgrid()), dtype=float)


def cylinder(z):
    """The unit cylinder (0, y, cos x, sin x): isothermic, not of spherical type."""
    return np.stack([np.zeros(z.shape), z.imag, np.cos(z.real), np.sin(z.real)], axis=-1)


def sample_field(grid, fn):
    return QField(grid, sample_values(grid, fn))


def inversion(m):
    """The (2, 2, 4) matrix [[0, 1], [1, -m]] of the essential map x -> (x - m)^-1."""
    out = np.zeros((2, 2, 4))
    out[0, 1, 0] = out[1, 0, 0] = 1.0
    out[1, 1] = -np.asarray(m, dtype=float)
    return out


def moebius_image(m, values):
    """(a x + b)(c x + d)^-1 of (..., 4) points x under the (2, 2, 4) matrix
    [[a, b], [c, d]], with the mask of points whose image is finite."""
    num = qmul(m[0, 0], values) + m[0, 1]
    den = qmul(m[1, 0], values) + m[1, 1]
    inv, ok = qinv_masked(den)
    return qmul(num, inv), ok


@pytest.fixture(scope="session")
def grid33():
    return GridSpec.square(1.0, 33)


@pytest.fixture(scope="session")
def grid65():
    return GridSpec.square(1.0, 65)


@pytest.fixture(scope="session")
def grid129():
    # h = 1/64 on [-1, 1]^2, the default desk scale
    return GridSpec.square(1.0, 129)


@pytest.fixture(scope="session")
def plane129(grid129):
    return PolarizedSurface.sample(grid129, oracles.f_plane, "dzbar2")


@pytest.fixture(scope="session")
def plane65(grid65):
    return PolarizedSurface.sample(grid65, oracles.f_plane, "dzbar2")


@pytest.fixture(scope="session")
def catenoid129(grid129):
    return PolarizedSurface.sample(grid129, lambda z: oracles.minimal_family(z, 1.0))


@pytest.fixture(scope="session")
def canonical_inputs(grid65):
    """The arguments canonical_connection receives for the canonical families
    on the example plane, on Enneper's surface and on the boundary map -jg of
    the family Weierstrass data (boundary_connection, analytic dual form)."""
    plane = WeierstrassData.sample(grid65, lambda z: z, lambda z: 1.0 + 0j,
                                   lambda z: 1.0 + 0j)
    family = WeierstrassData.sample(grid65, lambda z: oracles.family_g(z, 0.5),
                                    lambda z: oracles.family_w(z, 0.5),
                                    lambda z: oracles.family_dg(z, 0.5))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cmc, "canonical_connection", lambda *args: calls.append(args))
        cmc.boundary_connection(family)
    return {
        "example": (PolarizedSurface.sample(grid65, oracles.f_plane, "dzbar2"),),
        "weierstrass": (weierstrass_minimal(plane),),
        "boundary": calls[0],
    }


@pytest.fixture(scope="session")
def canonical_families(canonical_inputs):
    return {name: canonical_connection(*args) for name, args in canonical_inputs.items()}
