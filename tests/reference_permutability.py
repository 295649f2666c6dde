"""Reference permutability suite for ``isothermic.transforms``.

This is the suite as it was before it shared its whole-grid work: each of
P1, P2 and P3 builds the input surface's dual form, certificate, canonical
connection and identity-pinned frame of phi(lam) for itself, through the
public transforms.  It is kept here as the reference that
``permutability_suite`` is tested against bit for bit
(tests/test_transforms.py), unchanged but for one more certificate of the
input surface at the end and one of P2's Darboux transform, whose
residuals the report now carries, and for P3's Darboux chain, which runs the
dense body of ``darboux_via_connection(chain=True)`` kept in
tests/reference_march.py.
"""

from __future__ import annotations

import numpy as np

from isothermic.quaternion import qinv_masked, qnorm
from isothermic.surfaces import PolarizedSurface, isothermic_certificate, normal_field
from isothermic.transforms import (
    PermutabilityReport,
    canonical_connection,
    christoffel,
    darboux_riccati,
    darboux_via_connection,
    moebius_equivalent,
    t_transform,
    t_transform_via_connection,
)

from reference_march import darboux_chain


def permutability_suite(
    surface: PolarizedSurface,
    lam: float,
    mu: float | None = None,
    p0=None,
    d0=None,
    tau=1e-5,
    seed=7,
) -> PermutabilityReport:
    """Run the three permutability checks on a surface.

    P1: the second point of the spectral transform is Moebius-equivalent to
        the spectral transform of the Christoffel dual.
    P2: Christoffel of a Darboux transform equals (up to translation) the
        Darboux transform of the Christoffel dual, with the reciprocal
        positioning identity checked pointwise.
    P3: spectral transforms and Darboux transforms interleave with a
        parameter shift; checked through chained frame families so the
        initial conditions correspond exactly.
    """
    grid = surface.grid
    p0 = p0 or grid.center_node()
    mu = 0.4 * lam if mu is None else mu
    f0 = surface.f.value_at(p0)

    # P1
    tt = t_transform(surface, lam, p0)
    cs = christoffel(surface, p0)
    tc = t_transform(cs, lam, p0)
    _, p1 = moebius_equivalent(tt.second_point, tc.surface, seed=seed, tau=tau)

    # P2  (positioning lam (CDf - Cf) = (Df - f)^-1)
    if d0 is None:
        nrm = normal_field(surface)
        d0 = f0 + nrm.values[p0[0], p0[1]]
    dar = darboux_riccati(surface, lam, p0, d0)
    diff = dar.f.values - surface.f.values
    inv_diff, ok = qinv_masked(diff)
    c0 = inv_diff[p0[0], p0[1]] / lam
    _, p2_certificate = isothermic_certificate(dar)
    cd = christoffel(dar, p0, c0)
    dc = darboux_riccati(cs, lam, p0, c0)
    sel = (
        grid.interior()
        & cd.grid.valid()
        & dc.grid.valid()
        & cs.grid.valid()
        & ok
    )
    point_res = qnorm(lam * (cd.f.values - cs.f.values) - inv_diff)[sel].max()
    trans = cd.f.values - dc.f.values
    trans_res = qnorm(trans - trans[p0[0], p0[1]])[sel].max()

    # P3 via chained connections: T_mu(D_lam f) vs D_(lam-mu)(T_mu f)
    v0 = np.zeros((2, 4))
    v0[0, 0] = 1.0
    v0[1] = diff[p0[0], p0[1]]
    conn = canonical_connection(surface, p0=p0)
    dar_chain = darboux_chain(conn, lam, v0)
    lhs = t_transform_via_connection(dar_chain.connection, mu).surface
    tt_chain = t_transform_via_connection(conn, mu)
    rhs = darboux_via_connection(tt_chain.connection, lam - mu, v0).surface
    _, p3 = moebius_equivalent(lhs, rhs, seed=seed + 1, tau=tau)

    _, iso = isothermic_certificate(surface)
    return PermutabilityReport(iso, p1, float(point_res), float(trans_res), p2_certificate,
                               p3, tau)
