import numpy as np

from isothermic import (
    GridSpec,
    PolarizedSurface,
    fundamental_forms,
    isothermic_certificate,
    normal_field,
)
from isothermic import oracles as oc
from isothermic.quaternion import qinv, qmul, qnorm
from isothermic.surfaces import surface_jets

from conftest import cylinder


def test_plane_normal_constant(plane129):
    n = normal_field(plane129)
    # cross(f_x, f_y) for f = -jz points along -i
    assert np.abs(n.values[..., 1] + 1.0).max() < 1e-12
    assert np.abs(n.values[..., 0]).max() < 1e-14
    assert np.abs(qnorm(n.values) - 1.0).max() < 1e-12


def test_normal_matches_complex_structure(plane129, catenoid129):
    for surf in (plane129, catenoid129):
        jets = surface_jets(surf)
        sel = surf.grid.interior() & jets.valid
        err = qnorm(qmul(jets.normal, jets.fx) - jets.fy)[sel].max()
        assert err < 5e-5  # n * f_x = f_y (J rotates by 90 degrees)


def test_normal_equivariance_rotated_plane(grid65):
    r = np.array([np.cos(0.4), 0, np.sin(0.4), 0])  # unit quaternion

    def rotated(z):
        return qmul(qmul(r, oc.f_plane(z)), qinv(r))

    s = PolarizedSurface.sample(grid65, rotated, "dzbar2")
    n = normal_field(s)
    expected = qmul(qmul(r, [0.0, -1.0, 0.0, 0.0]), qinv(r))
    assert np.abs(n.values - expected).max() < 1e-11


def test_certificate_plane(plane129):
    rho, res = isothermic_certificate(plane129)
    assert res < 1e-10
    assert np.abs(rho).max() < 1e-10  # totally geodesic


def test_certificate_family_refines():
    residuals = []
    for n in (33, 65, 129):
        g = GridSpec.square(1.0, n)
        s = PolarizedSurface.sample(g, lambda z: oc.minimal_family(z, 1.0))
        residuals.append(isothermic_certificate(s)[1])
    assert residuals[-1] < 1e-4
    assert residuals[0] > residuals[1] > residuals[2]


def test_certificate_negative_control(grid129):
    def wobble(z):
        bump = 0.1 * np.sin(3 * z.real) * np.sin(5 * z.imag)
        return oc.f_plane(z) + np.array([0.0, -1.0, 0.0, 0.0]) * bump[..., None]

    s = PolarizedSurface.sample(grid129, wobble, "dzbar2")
    _, res = isothermic_certificate(s)
    assert res > 1e-2


def test_cylinder_isothermic_with_known_curvature(grid129):
    s = PolarizedSurface.sample(grid129, cylinder)
    _, res = isothermic_certificate(s)
    assert res < 1e-6
    ff = fundamental_forms(s)
    sel = grid129.interior() & ff.valid
    h = ff.mean_curvature()[sel]
    assert abs(abs(h.mean()) - 0.5) < 1e-6
    assert h.std() < 1e-6


def test_family_polarization_normalized(catenoid129):
    # conformal curvature-line sampling with trace-free part dx^2 - dy^2
    ff = fundamental_forms(catenoid129)
    sel = catenoid129.grid.interior() & ff.valid
    assert np.abs(ff.e[sel] - 1.0).max() < 1e-5
    assert np.abs(ff.g[sel] + 1.0).max() < 1e-5
    assert np.abs(ff.mean_curvature()[sel]).max() < 1e-4
