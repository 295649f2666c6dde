import numpy as np
import pytest

from isothermic import GridSpec, PolarizedSurface, QField
from isothermic import oracles
from isothermic.quaternion import qinv_masked, qmul


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
