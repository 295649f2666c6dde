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

It also keeps the Moebius check as it was before it took one cross-ratio
call per surface and batch: ``sample_quadruples`` drawing one candidate per
loop step, and ``moebius_equivalent`` looping over its quadruples with two
cross-ratio calls each, a quadruple degenerate on either surface a retry.  The reference suite runs its own
``moebius_equivalent`` (tests/test_moebius_equivalence.py compares the two
directly).
"""

from __future__ import annotations

import numpy as np

from isothermic.errors import DegenerateQuadruple
from isothermic.quaternion import cross_ratio_class_array, qinv_masked, qnorm
from isothermic.surfaces import PolarizedSurface, isothermic_certificate, normal_field
from isothermic.transforms import (
    _ORDERS,
    PermutabilityReport,
    canonical_connection,
    christoffel,
    darboux_riccati,
    darboux_via_connection,
    t_transform,
    t_transform_via_connection,
)

from reference_march import darboux_chain


def permutability_suite(
    surface: PolarizedSurface,
    lam: float,
    mu: float | None = None,
    d0=None,
    tau=1e-5,
    seed=7,
) -> PermutabilityReport:
    """Run the three permutability checks on a surface, pinned at the base node
    grid.center_node().

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
    p0 = grid.center_node()
    mu = 0.4 * lam if mu is None else mu
    f0 = surface.f.value_at(p0)

    # P1
    tt = t_transform(surface, lam)
    cs = christoffel(surface)
    tc = t_transform(cs, lam)
    _, p1 = moebius_equivalent(tt.second_point, tc.surface, seed=seed, tau=tau)

    # P2  (positioning lam (CDf - Cf) = (Df - f)^-1)
    if d0 is None:
        nrm = normal_field(surface)
        d0 = f0 + nrm.values[p0[0], p0[1]]
    dar = darboux_riccati(surface, lam, d0)
    diff = dar.f.values - surface.f.values
    inv_diff, ok = qinv_masked(diff)
    c0 = inv_diff[p0[0], p0[1]] / lam
    _, p2_certificate = isothermic_certificate(dar)
    cd = christoffel(dar, c0)
    dc = darboux_riccati(cs, lam, c0)
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
    conn = canonical_connection(surface)
    dar_chain = darboux_chain(conn, lam, v0)
    lhs = t_transform_via_connection(dar_chain.connection, mu).surface
    tt_chain = t_transform_via_connection(conn, mu)
    rhs = darboux_via_connection(tt_chain.connection, lam - mu, v0).surface
    _, p3 = moebius_equivalent(lhs, rhs, seed=seed + 1, tau=tau)

    _, iso = isothermic_certificate(surface)
    return PermutabilityReport(iso, p1, float(point_res), float(trans_res), p2_certificate,
                               p3, tau)


def sample_quadruples(grid, n_quads, seed=0, extra_valid=None):
    """Seeded node quadruples, pairwise a fifth of the grid apart (at least
    2 nodes), inside the valid set."""
    valid = grid.valid() if extra_valid is None else (grid.valid() & extra_valid)
    nodes = np.argwhere(valid)
    if len(nodes) < 16:
        raise DegenerateQuadruple("not enough valid nodes to sample")
    min_sep = max(2, min(grid.nx, grid.ny) // 5)
    rng = np.random.default_rng(seed)
    quads = []
    attempts = 0
    while len(quads) < n_quads and attempts < 200 * n_quads:
        attempts += 1
        pick = nodes[rng.integers(0, len(nodes), size=4)]
        ok = all(
            np.abs(pick[a] - pick[b]).max() >= min_sep
            for a in range(4)
            for b in range(a + 1, 4)
        )
        if ok:
            quads.append([tuple(p) for p in pick])
    if len(quads) < n_quads:
        raise DegenerateQuadruple("could not sample separated quadruples")
    return quads


#: the six orders of a quadruple's points that fix its first point
_ORDERS = np.array([(0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2),
                    (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)])


def moebius_equivalent(
    a: PolarizedSurface | QField,
    b: PolarizedSurface | QField,
    n_quads=20,
    seed=0,
    tau=1e-5,
):
    """Compare cross-ratio classes of seeded node quadruples.

    Each quadruple is compared in the best-conditioned of its six point
    orders on a, the one with |log |r|| least, and b is read in that same
    order (Moebius equivalence in one order implies it in all six).  Returns
    (equivalent, residual): residual is the largest absolute discrepancy in
    (Re r, |r|) over the sampled quadruples.  Sampling gives up after 40
    degenerate quadruples.
    """
    fa = a.f if isinstance(a, PolarizedSurface) else a
    fb = b.f if isinstance(b, PolarizedSurface) else b
    if not fa.grid.same_geometry(fb.grid):
        raise DegenerateQuadruple("surfaces live on different grids")
    common = fa.grid.valid() & fb.grid.valid()
    residual = 0.0
    done = 0
    retries = 40
    seed_k = seed
    while done < n_quads and retries > 0:
        quads = sample_quadruples(fa.grid, n_quads - done, seed_k, extra_valid=common)
        for quad in quads:
            nodes = tuple(np.array(quad)[_ORDERS].T)  # (iy, ix), each (4, 6)
            ra, na, bad_a = cross_ratio_class_array(*fa.values[nodes])
            rb, nb, bad_b = cross_ratio_class_array(*fb.values[nodes])
            if bad_a.any() or bad_b.any():
                retries -= 1
                continue
            k = np.argmin(np.abs(np.log(na)))
            residual = max(residual, float(abs(ra[k] - rb[k])), float(abs(na[k] - nb[k])))
            done += 1
        seed_k += 101
    if done < n_quads:
        raise DegenerateQuadruple("quadruple sampling exhausted retries")
    return residual <= tau, residual
