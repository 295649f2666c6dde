import warnings

import numpy as np
import pytest

from isothermic import (
    DegenerateTangent,
    GridSpec,
    PolarizedSurface,
    QField,
    fundamental_forms,
    isothermic_certificate,
    normal_field,
)
from isothermic import oracles as oc
from isothermic.grid import diff_axis4
from isothermic.quaternion import qinv, qmul, qnorm
from isothermic.surfaces import normal_at, surface_jets

from conftest import cylinder
import reference_march as ref


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


# ---------------------------------------------------------------------------
# the kept derivatives and the normal at one node
# ---------------------------------------------------------------------------

def _branch_point(grid):
    """f = (x^2 - y^2) i + 2xy j: both tangents vanish at the origin only."""
    z = grid.zgrid()
    return PolarizedSurface(QField(grid, np.stack([0 * z.real, (z * z).real, (z * z).imag,
                                                   0 * z.real], axis=-1)))


def test_derivatives_are_kept_read_only(grid33):
    """A surface takes its two fourth-order derivatives once; they are those
    of diff_axis4, and an in-place write raises instead of changing what
    every later reader of the surface sees.  d_field_hi() gives the form
    and mask that grid.d_field_hi gave (tests/reference_march.py), on a
    masked grid too."""
    mask = np.ones((33, 33), bool)
    mask[10, 24] = False
    for grid in (grid33, grid33.with_mask(mask)):
        s = PolarizedSurface.sample(grid, lambda z: oc.minimal_family(z, 0.5))
        fx, fy, overflow = s.derivatives
        assert s.derivatives[0] is fx and not overflow
        for part, axis in ((fx, 1), (fy, 0)):
            assert part.tobytes() == diff_axis4(s.f.values, grid.h, axis).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                part[0, 0, 0] = 1.0
        got, want = s.d_field_hi(), ref.d_field_hi(s.f)
        assert got.px is fx and got.py is fy
        assert np.array_equal(got.grid.valid(), want.grid.valid())
        assert got.px.tobytes() == want.px.tobytes() and got.py.tobytes() == want.py.tobytes()


def test_derivatives_record_an_overflow_without_warnings(grid33):
    """Derivatives that overflow are kept (d_field_hi's readers read them as
    before) with the overflow recorded, and surface_jets, normal_field and
    normal_at raise DegenerateTangent on it, with no RuntimeWarning."""
    s = PolarizedSurface.sample(grid33, lambda z: 1e308 * oc.f_plane(z), "dzbar2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert s.derivatives[2] and not np.isfinite(s.derivatives[0]).all()
        for run in (surface_jets, normal_field, lambda s: normal_at(s, (16, 16))):
            with pytest.raises(DegenerateTangent, match="derivatives overflow at grid spacing"):
                run(s)


@pytest.mark.parametrize("name", ["plane", "catenoid", "masked", "branch", "1e70", "3e76"])
def test_normal_at_equals_normal_field(grid33, name):
    """normal_at(s, node) is normal_field(s).values[node], bit for bit: from
    the node's two derivative samples on the plane, a catenoid and a masked
    grid; from normal_field where the node's tangents vanish (the bare cross
    product, 0) and where the derivatives are too large for the shortcut
    (the plane scaled by 3e76; by 1e70 it takes the shortcut)."""
    mask = np.ones((33, 33), bool)
    mask[16, 16] = False
    s = {"plane": lambda: PolarizedSurface.sample(grid33, oc.f_plane, "dzbar2"),
         "catenoid": lambda: PolarizedSurface.sample(grid33, lambda z: oc.minimal_family(z, 1.0)),
         "masked": lambda: PolarizedSurface.sample(grid33.with_mask(mask), oc.f_plane),
         "branch": lambda: _branch_point(grid33),
         "1e70": lambda: PolarizedSurface.sample(grid33, lambda z: 1e70 * oc.f_plane(z)),
         "3e76": lambda: PolarizedSurface.sample(grid33, lambda z: 3e76 * oc.f_plane(z))}[name]()
    want = normal_field(s).values
    for node in ((16, 16), (0, 5), (32, 32), (7, 21)):
        assert normal_at(s, node).tobytes() == want[node].tobytes()
    if name == "branch":
        assert not want[16, 16].any()


@pytest.mark.parametrize("scale", [1e100, 1e300])
def test_normal_at_raises_where_normal_field_does(grid33, scale):
    """Finite derivatives whose normal's squared norm (1e100) or cross
    product (1e300) overflows: normal_at raises as normal_field does."""
    s = PolarizedSurface.sample(grid33, lambda z: scale * oc.f_plane(z), "dzbar2")
    for run in (normal_field, lambda s: normal_at(s, (16, 16))):
        with pytest.raises(DegenerateTangent, match="overflow"):
            run(s)


def test_constant_immersion_is_degenerate_everywhere(grid33):
    s = PolarizedSurface(QField(grid33, np.ones((33, 33, 4))))
    for run in (surface_jets, normal_field, isothermic_certificate,
                lambda s: normal_at(s, (16, 16))):
        with pytest.raises(DegenerateTangent, match="immersion degenerate everywhere"):
            run(s)


def test_polarization_is_dz2_or_dzbar2(grid33):
    f = QField.sample(grid33, oc.f_plane)
    for pol in ("dz2", "dzbar2"):
        assert PolarizedSurface(f, pol).polarization == pol
    with pytest.raises(ValueError, match="polarization must be 'dz2' or 'dzbar2'"):
        PolarizedSurface(f, "dz")
