"""Sampled immersions into Im H and their differential-geometric data.

A PolarizedSurface is a conformal curvature-line sampling: the grid chart
z = x + iy is assumed conformal for the immersion and aligned with the
curvature directions, which the isothermic certificate measures rather than
assumes.  The fixed polarization is dz^2 in grid coordinates; Christoffel
duals flip the stored conjugation flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTangent, MaskedNeighbor
from .grid import (
    _D1_4,
    GridSpec,
    QField,
    QForm1,
    _exterior_derivative,
    diff_axis4,
    dilate_invalid,
)
from .quaternion import cross3, dot3, qnorm

EPS_IMMERSION = 1e-8


@dataclass
class PolarizedSurface:
    """Immersion f: grid -> Im H with polarization dz^2 in grid coordinates."""

    f: QField
    polarization: str = "dz2"  # "dz2" or "dzbar2"
    provenance: tuple = ()

    def __post_init__(self):
        if self.polarization not in ("dz2", "dzbar2"):
            raise ValueError("polarization must be 'dz2' or 'dzbar2'")

    @property
    def grid(self) -> GridSpec:
        return self.f.grid

    @classmethod
    def sample(cls, grid, fn, polarization="dz2", provenance=()):
        """Immersion sampled from an array callable fn(grid.zgrid()) -> (ny, nx, 4)."""
        return cls(QField.sample(grid, fn), polarization, provenance)

    def derived(self, values, grid=None, flip=False, step=None):
        """New surface sharing this one's metadata."""
        grid = grid or self.grid
        pol = self.polarization
        if flip:
            pol = "dz2" if pol == "dzbar2" else "dzbar2"
        prov = self.provenance + ((step,) if step else ())
        return PolarizedSurface(QField(grid, values), pol, prov)

    @cached_property
    def derivatives(self):
        """(f_x, f_y, overflow): the immersion's fourth-order derivatives
        (diff_axis4), taken once per surface and kept read-only, and whether
        taking them overflowed."""
        flags = []
        with np.errstate(over="call", invalid="call", call=lambda *err: flags.append(err)):
            fx, fy = (diff_axis4(self.f.values, self.grid.h, axis) for axis in (1, 0))
        fx.flags.writeable = fy.flags.writeable = False
        return fx, fy, bool(flags)

    def d_field_hi(self) -> QForm1:
        """Fourth-order exterior derivative of f, from the kept derivatives.

        The public d_field stays second order; coefficient forms feeding the
        RK4 transforms need the extra accuracy to keep cross-ratio level
        comparisons near the integrator floor at desk-scale grids.
        """
        return _exterior_derivative(self.grid, _D1_4, self.derivatives[:2])


@dataclass
class SurfaceJets:
    """First and second derivative fields of an immersion (shared helper)."""

    grid: GridSpec
    fx: np.ndarray
    fy: np.ndarray
    fxx: np.ndarray
    fxy: np.ndarray
    fyy: np.ndarray
    normal: np.ndarray
    valid: np.ndarray  # nodes with trustworthy two-ring stencils


def surface_jets(surface: PolarizedSurface) -> SurfaceJets:
    """Differentiate the immersion twice and build the unit normal.

    Uses fourth-order stencils: curvature-level quantities (certificates,
    curvature oracles) need the extra accuracy at desk-scale grids, while
    the pipeline's own exterior derivative stays the second-order d_field.
    fx and fy are the surface's kept, read-only derivatives; the second
    derivatives are taken from them on each call.

    The normal is cross(f_x, f_y)/|..| under Im H = R^3, which matches the
    complex structure df(J dx) = n df(dx) for the ij = k convention.
    Raises DegenerateTangent where a derivative overflows the float range.
    """
    grid = surface.grid
    h = grid.h
    fx, fy, overflow = surface.derivatives
    try:
        with np.errstate(over="raise", invalid="raise"):
            if overflow:
                raise FloatingPointError
            fxx = diff_axis4(fx, h, axis=1)
            fxy = diff_axis4(fx, h, axis=0)
            fyy = diff_axis4(fy, h, axis=0)
            normal, ok = _unit_normal(fx, fy)
    except FloatingPointError:
        raise DegenerateTangent(f"immersion derivatives overflow at grid spacing {h:.3e}") from None
    if not ok.any():
        raise DegenerateTangent("immersion degenerate everywhere")
    valid = dilate_invalid(grid.valid() & ok, rings=1)
    return SurfaceJets(grid, fx, fy, fxx, fxy, fyy, normal, valid)


def _unit_normal(fx, fy):
    """(n, ok): n = cross(f_x, f_y)/|..| where the tangents do not degenerate
    (ok), the bare cross product elsewhere."""
    cr = cross3(fx, fy)
    n2 = qnorm(cr)
    eps = EPS_IMMERSION
    ok = (n2 > eps * eps) & (qnorm(fx) > eps) & (qnorm(fy) > eps)
    return cr / np.where(ok, n2, 1.0)[..., None], ok


def normal_at(surface: PolarizedSurface, node):
    """normal_field(surface)'s value at node.  Where no step of surface_jets
    can overflow (every derivative entry at most 1e76 and 1e305 h in size)
    and the node's tangents do not degenerate, it is read from the node's two
    kept derivative samples; elsewhere from normal_field, with its errors."""
    fx, fy, overflow = surface.derivatives
    size = max(np.abs(fx).max(), np.abs(fy).max())
    if not overflow and size <= min(1e76, 1e305 * surface.grid.h):
        normal, ok = _unit_normal(fx[node[0], node[1]], fy[node[0], node[1]])
        if ok:
            return normal
    return normal_field(surface).values[node[0], node[1]]


def normal_field(surface: PolarizedSurface) -> QField:
    """Unit normal; masked where the tangents degenerate."""
    jets = surface_jets(surface)
    grid = surface.grid.merge_mask(jets.valid)
    return QField(grid, jets.normal)


@dataclass
class FundamentalForms:
    """Euclidean first/second fundamental form coefficient fields."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    e: np.ndarray
    f: np.ndarray
    g: np.ndarray
    normal: np.ndarray
    valid: np.ndarray

    def mean_curvature(self):
        den = 2.0 * (self.E * self.G - self.F * self.F)
        den = np.where(np.abs(den) > 1e-300, den, 1.0)
        return (self.e * self.G - 2.0 * self.f * self.F + self.g * self.E) / den

    def principal_gap(self):
        """|k1 - k2| * E  (umbilic detector in conformal-ish charts)."""
        tf_e = 0.5 * (self.e - self.g)
        return 2.0 * np.hypot(tf_e, self.f) / np.maximum(self.E, 1e-300)


def fundamental_forms(surface: PolarizedSurface, jets: SurfaceJets | None = None):
    jets = jets or surface_jets(surface)
    E = dot3(jets.fx, jets.fx)
    F = dot3(jets.fx, jets.fy)
    G = dot3(jets.fy, jets.fy)
    e = dot3(jets.fxx, jets.normal)
    f = dot3(jets.fxy, jets.normal)
    g = dot3(jets.fyy, jets.normal)
    return FundamentalForms(E, F, G, e, f, g, jets.normal, jets.valid)


def isothermic_certificate(surface: PolarizedSurface):
    """Measure how far the sampling is from conformal curvature-line form.

    Returns (rho, residual): rho is the real Hopf coefficient field (the
    dz^2 component of <df, dn>), residual the largest relative deviation
    among the off-real Hopf part and the conformality defects.  The surface
    is accepted as isothermic when residual <= TAU_ISOTHERMIC; this is a
    certificate, not a gate, so no exception is raised for a large residual.

    The reported maximum trims 4 boundary rings: the curvature jets fall
    back to one-sided stencils there, and surfaces produced by chained
    integrations carry reduced edge accuracy.  MaskedNeighbor is raised when
    no valid node is left inside them.
    """
    ff = fundamental_forms(surface)
    grid = surface.grid
    interior = grid.interior(4) & ff.valid
    if not interior.any():
        raise MaskedNeighbor(f"isothermic certificate: no valid node of the {grid.ny}x"
                             f"{grid.nx} grid is left after trimming 4 boundary rings")
    scale = max(float(np.mean(ff.E[interior])), 1e-300)
    # <df, dn> = -II; its dz^2 coefficient is -( (e - g)/2 - i f )
    rho = -(ff.e - ff.g) / 2.0
    off_real = np.abs(ff.f)
    conf_angle = np.abs(ff.F)
    conf_stretch = 0.5 * np.abs(ff.E - ff.G)
    pieces = np.maximum(off_real, np.maximum(conf_angle, conf_stretch))
    residual = float(pieces[interior].max() / scale)
    return rho, residual


TAU_ISOTHERMIC = 1e-4

