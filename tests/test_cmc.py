import numpy as np
import pytest

from isothermic import (
    INFINITY,
    BoundaryContact,
    DegenerateTangent,
    FrameField,
    GridSpec,
    InitialOnBoundary,
    NotClosed,
    PatternMismatch,
    PolarizedSurface,
    QField,
    UmbilicRegion,
    WeierstrassData,
    boundary_surface,
    bryant_candidates,
    bryant_surface,
    bryant_system,
    common_sphere_point,
    darboux_weierstrass,
    double_dual,
    dual_cmc,
    family_ribaucour_connection,
    gauss_sphere_map,
    integrate_frame,
    mean_curvature_hyperbolic,
    minimal_position,
    moebius_equivalent,
    ribaucour_connection,
    ribaucour_data_extract,
    spherical_type_certificate,
    stereographic,
    umehara_yamada_check,
    weierstrass_minimal,
)
from isothermic import oracles as oc
from isothermic.grid import crop_field
from isothermic.quaternion import cj, qmul, qnorm
from isothermic.surfaces import fundamental_forms

from conftest import cylinder, inversion, moebius_image, sample_values

V0_SEED = np.array([[1.0, 0, 0, 0], [0, -1.0, 0, 0]])


def plane_data(grid):
    return WeierstrassData.sample(grid, lambda z: z, lambda z: 1.0 + 0j,
                                  lambda z: 1.0 + 0j)


def family_data(grid, lam):
    return WeierstrassData.sample(
        grid,
        lambda z: oc.family_g(z, lam),
        lambda z: oc.family_w(z, lam),
        lambda z: oc.family_dg(z, lam),
    )


def crop_surface(s, rings):
    return PolarizedSurface(crop_field(s.f, rings), s.polarization, s.provenance)


# ---------------------------------------------------------------------------
# Weierstrass data and the minimal representation
# ---------------------------------------------------------------------------

def test_cr_certificate(grid65):
    assert plane_data(grid65).cr_residual() < 1e-12
    bad = WeierstrassData.sample(grid65, lambda z: z + 0.2 * z.conjugate(),
                                 lambda z: 1.0 + 0j)
    assert bad.cr_residual() > 1e-2
    with pytest.raises(NotClosed):
        weierstrass_minimal(bad)


def test_minimal_surface_is_minimal(grid129):
    s = weierstrass_minimal(plane_data(grid129))
    ff = fundamental_forms(s)
    sel = grid129.interior() & ff.valid
    assert np.abs(ff.mean_curvature()[sel]).max() < 1e-9
    # |i - jg|^2 = 1 + |g|^2 never degenerates
    assert qnorm(s.f.values[grid129.valid()]).max() < 10


def test_minimal_family_matches_reference(grid129):
    s = weierstrass_minimal(family_data(grid129, 1.0))
    target = sample_values(grid129, lambda z: oc.minimal_family(z, 1.0))
    assert qnorm(s.f.values - target)[s.grid.valid()].max() < 1e-6


def test_zero_differential_rejected(grid65):
    data = WeierstrassData.sample(grid65, lambda z: z, lambda z: 0j, lambda z: 1 + 0j)
    with pytest.raises(DegenerateTangent):
        weierstrass_minimal(data)


def test_stereographic_values():
    assert qnorm(stereographic(np.zeros(4)) - np.array([0.0, 1.0, 0.0, 0.0])) < 1e-15
    rng = np.random.default_rng(0)
    xy = rng.normal(size=(1000, 2))
    s = stereographic(cj(xy[:, 0] + 1j * xy[:, 1]))
    assert (np.abs(qnorm(s) - 1.0) < 1e-12).all()
    assert (np.abs(s[..., 0]) < 1e-13).all()
    far = stereographic(cj(1e6 + 0j))
    assert qnorm(far - np.array([0.0, -1.0, 0.0, 0.0])) < 1e-5


def test_gauss_map_formulas_agree(grid65):
    data = plane_data(grid65)
    conj_form = gauss_sphere_map(data)
    stereo = stereographic(cj(-np.conj(data.g)))
    assert np.abs(conj_form - stereo).max() < 1e-12


# ---------------------------------------------------------------------------
# Darboux representation of cmc surfaces
# ---------------------------------------------------------------------------

def test_darboux_representation_closed_form(grid129):
    cmc = darboux_weierstrass(plane_data(grid129), 1.0)
    target = sample_values(grid129, lambda z: oc.darboux_plane(z, 1.0))
    assert qnorm(cmc.f.values - target)[cmc.f.grid.valid()].max() < 5e-6
    # off the boundary plane, and the Gauss map stays on it
    assert np.abs(cmc.f.values[..., 1]).min() > 1e-3
    assert np.abs(cmc.gauss_hyperbolic.values[..., 1]).max() < 1e-12


def test_darboux_representation_superposition(grid65):
    # solutions superpose with quaternionic right coefficients
    data = plane_data(grid65)
    a = darboux_weierstrass(data, 1.0, v0=((1, 0, 0, 0), (0, -1, 0, 0)))
    b = darboux_weierstrass(data, 1.0, v0=((0, 0, 1, 0), (0, 0, 0, 1)))
    lam_a = np.array([0.3, 0.2, -0.5, 0.1])
    lam_b = np.array([-0.6, 0.1, 0.4, 0.9])
    v0c = np.stack([
        qmul(np.array([1.0, 0, 0, 0]), lam_a) + qmul(np.array([0.0, 0, 1, 0]), lam_b),
        qmul(np.array([0.0, -1, 0, 0]), lam_a) + qmul(np.array([0.0, 0, 0, 1]), lam_b),
    ])
    c = darboux_weierstrass(data, 1.0, v0=v0c)
    # reconstruct the same homogeneous solution from the two runs
    diff_a = a.f.values - cj(-np.conj(data.g))
    diff_b = b.f.values - cj(-np.conj(data.g))
    # v2 v1^-1 fields of a and b seed the superposed member; check c solves
    # the same system by comparing against a direct integration with v0c
    c2 = darboux_weierstrass(data, 1.0, v0=v0c)
    assert qnorm(c.f.values - c2.f.values).max() == 0.0
    assert c.f.grid.valid().all()
    assert np.isfinite(c.f.values).all()
    assert qnorm(diff_a - diff_b)[grid65.valid()].max() > 1e-2  # distinct members


def test_darboux_representation_boundary_seed_rejected(grid65):
    with pytest.raises(InitialOnBoundary):
        darboux_weierstrass(plane_data(grid65), 1.0, v0=((1, 0, 0, 0), (0, 0, 1, 0)))


def test_darboux_representation_lambda_zero_degenerates(grid65):
    # v1 stays constant and the output collapses to the degenerate point
    # transform (not an immersion)
    cmc = darboux_weierstrass(plane_data(grid65), 0.0)
    spread = qnorm(cmc.f.values - cmc.f.values[32, 32])[cmc.f.grid.valid()].max()
    assert spread < 1e-12


# ---------------------------------------------------------------------------
# half-space mean curvature oracle
# ---------------------------------------------------------------------------

def test_horosphere_mean_curvature(grid65):
    zz = grid65.zgrid()
    vals = np.stack([np.zeros_like(zz.real), 0.7 * np.ones_like(zz.real),
                     zz.real, zz.imag], axis=-1)
    _, mean, std, _ = mean_curvature_hyperbolic(QField(grid65, vals), 0.5)
    assert abs(abs(mean) - 1.0) < 1e-12
    assert std < 1e-12


def test_cmc_mean_curvature_values(grid129):
    data = plane_data(grid129)
    for lam, target in ((1.0, 2.0), (0.5, 1.0)):
        cmc = darboux_weierstrass(data, lam)
        _, mean, std, _ = mean_curvature_hyperbolic(cmc.f, lam)
        assert abs(abs(mean) - target) < 1e-3
        assert std <= 1e-3


def test_boundary_contact_raises(grid65):
    zz = grid65.zgrid()
    vals = np.stack([np.zeros_like(zz.real), 1e-9 * np.ones_like(zz.real),
                     zz.real, zz.imag], axis=-1)
    with pytest.raises(BoundaryContact):
        mean_curvature_hyperbolic(QField(grid65, vals), 1.0)


# ---------------------------------------------------------------------------
# spherical type
# ---------------------------------------------------------------------------

def test_spherical_type_positive_cases(grid129, catenoid129):
    _, res = spherical_type_certificate(catenoid129)
    assert res <= 1e-3
    enneper = weierstrass_minimal(plane_data(grid129))
    _, res = spherical_type_certificate(enneper)
    assert res <= 1e-3
    cmc = darboux_weierstrass(plane_data(grid129), 1.0)
    _, res = spherical_type_certificate(PolarizedSurface(cmc.f, "dz2"))
    assert res <= 1e-3


def test_spherical_type_certificate_call_counts(grid65, monkeypatch):
    """The certificate differentiates the surface once and builds its
    fundamental forms once, for the umbilic gap and the congruence alike."""
    from isothermic import cmc as cmc_module

    counts = {}
    for name in ("surface_jets", "fundamental_forms"):
        original = getattr(cmc_module, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cmc_module, name, counted)
    surface = PolarizedSurface(darboux_weierstrass(plane_data(grid65), 1.0).f, "dz2")
    _, res = spherical_type_certificate(surface)
    assert counts == {"surface_jets": 1, "fundamental_forms": 1}
    monkeypatch.undo()
    assert spherical_type_certificate(surface)[1] == res


def test_spherical_type_negative_control(grid129):
    cyl = PolarizedSurface.sample(grid129, cylinder)
    _, res = spherical_type_certificate(cyl)
    assert res >= 1e-1


def test_spherical_type_umbilic_guard(grid65):
    with pytest.raises(UmbilicRegion):
        spherical_type_certificate(
            PolarizedSurface.sample(grid65, oc.f_plane, "dzbar2")
        )


def test_spherical_type_refines():
    residuals = []
    for n in (65, 129):
        g = GridSpec.square(1.0, n)
        s = PolarizedSurface.sample(g, lambda z: oc.minimal_family(z, 1.0))
        residuals.append(spherical_type_certificate(s)[1])
    assert residuals[1] < residuals[0]


# ---------------------------------------------------------------------------
# structured frames and curvature data extraction
# ---------------------------------------------------------------------------

def test_ribaucour_connection_numeric_matches_analytic(grid129, catenoid129):
    num = ribaucour_connection(catenoid129)
    ana = family_ribaucour_connection(grid129, 1.0)
    sel = grid129.interior()
    # spin fields agree up to a global sign
    d_plus = np.abs(num.frame(...) - ana.frame(...))[sel].max()
    d_minus = np.abs(num.frame(...) + ana.frame(...))[sel].max()
    assert min(d_plus, d_minus) < 1e-4


def test_ribaucour_connection_requires_normalized_minimal(grid65):
    with pytest.raises(PatternMismatch):
        ribaucour_connection(PolarizedSurface.sample(grid65, cylinder))


def test_extraction_on_family_frame(grid129):
    conn = family_ribaucour_connection(grid129, 1.0)
    lam = 1.0
    phx, phy = conn.phi(lam)
    frame = integrate_frame(phx, phy, grid129, conn.frame0_at_p0(), conn.p0)
    data = ribaucour_data_extract(frame)
    sel = data.valid
    assert np.abs(data.H[sel]).max() <= 1e-6
    assert np.abs(data.Hhat[sel] - 1.0).max() <= 1e-6
    assert np.abs(data.lamhat[sel]).max() <= 1e-6
    assert np.abs(data.lam[sel] - lam).max() <= 1e-6  # curved-flat: constant
    assert data.gauss_residual <= 1e-3
    assert data.codazzi_residual <= 1e-3
    # the frame's first column projects to a cmc surface whose central
    # congruence is the enveloped one: H == 0 certifies centrality
    assert frame.study_det_drift() < 1e-8


def test_extraction_call_counts(grid65, monkeypatch):
    """The extraction takes Phi = F^-1 dF on pair planes per block of grid
    rows: no qm2_inv and no qm2_mul call, and one plane copy of F per block
    with the rows its y-derivative reads: on the n = 65 grid, blocks of 63
    rows and of 2, copied with the 2 rows after the first (65 rows) and the
    4 before the second (6, as the one-sided rows at an edge read)."""
    import sys

    from isothermic import grid as grid_module
    from isothermic import quaternion

    conn = family_ribaucour_connection(grid65, 1.0)
    phx, phy = conn.phi(1.0)
    frame = integrate_frame(phx, phy, grid65, conn.frame0_at_p0(), conn.p0)
    want = ribaucour_data_extract(frame)
    calls = {"qm2_inv": 0, "qm2_mul": 0}
    for name in calls:
        original = getattr(quaternion, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.startswith("isothermic")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    copies = []
    pair_planes = grid_module._pair_planes

    def copied(p, ndim):
        copies.append(p.shape)
        return pair_planes(p, ndim)

    monkeypatch.setattr(grid_module, "_pair_planes", copied)
    got = ribaucour_data_extract(frame)
    assert calls == {"qm2_inv": 0, "qm2_mul": 0}
    assert copies == [(65, 65, 2, 2, 4), (6, 65, 2, 2, 4)]
    for name, value in vars(want).items():
        assert np.array_equal(getattr(got, name), value), name


def test_extraction_centrality_cross_check(grid129, catenoid129):
    # H == 0 in the extracted data corresponds to the enveloped congruence
    # being exactly the mean-curvature sphere family of the surface
    conn = ribaucour_connection(catenoid129)
    frame = FrameField(grid129, conn.frame(...))
    data = ribaucour_data_extract(frame)
    assert np.abs(data.H[data.valid]).max() < 1e-4
    from isothermic.cmc import central_sphere_congruence, frame_point_forms

    comps, _ = central_sphere_congruence(catenoid129)
    _, s_frame = frame_point_forms(frame.values)
    sel = data.valid
    d_plus = np.abs(comps - s_frame)[sel].max()
    d_minus = np.abs(comps + s_frame)[sel].max()
    assert min(d_plus, d_minus) < 1e-4


def test_umehara_yamada_identities(grid129, catenoid129):
    rep = umehara_yamada_check(catenoid129, 1.0)
    scale = rep.metric_scale
    assert rep.first_deviation <= 1e-4 * max(1.0, scale)
    assert rep.second_deviation <= 1e-4 * max(1.0, scale)
    assert abs(rep.mean_curvature + 2.0) < 1e-4
    assert rep.mean_curvature_std <= 1e-4
    rep0 = umehara_yamada_check(catenoid129, 0.0)
    assert rep0.first_deviation < 1e-12  # identities trivially at lam = 0
    assert abs(rep0.mean_curvature) < 1e-5


# ---------------------------------------------------------------------------
# coupled first-order system
# ---------------------------------------------------------------------------

def test_coupled_system_lambda_zero(grid129):
    data = family_data(grid129, 0.5)
    minimal = weierstrass_minimal(data)
    f0 = minimal.f.value_at(grid129.center_node())
    fl, fh = bryant_system(data, 0.0, f0=f0, fh0=(1, 0, 0, 0))
    assert qnorm(fl.values - minimal.f.values).max() < 1e-6
    assert np.abs(fh.values - fh.values[0, 0]).max() < 1e-14

    q = np.array([0.4, -0.3, 0.8, 0.1])
    fl2, fh2 = bryant_system(data, 0.0, f0=qmul(q, f0), fh0=q)
    spun = qmul(np.broadcast_to(q, fl.values.shape), fl.values)
    assert qnorm(fl2.values - spun).max() < 1e-6


def test_coupled_system_surface_matches_other_routes(grid129):
    lam = 0.5
    data = family_data(grid129, lam)
    cmc = bryant_surface(data, -lam)
    reference = darboux_weierstrass(plane_data(grid129), lam)
    eq, res = moebius_equivalent(reference.f, cmc.f, n_quads=20, seed=6, tau=1e-4)
    assert eq, res
    eq, res = moebius_equivalent(
        boundary_surface(plane_data(grid129)).f, cmc.gauss_hyperbolic,
        n_quads=20, seed=8, tau=1e-4,
    )
    assert eq, res
    # single quaternion pair does not determine the surface: raw candidates
    # are inequivalent to the resolved one (recorded resolution)
    fl, fh = bryant_system(data, -lam, f0=weierstrass_minimal(data).f.value_at(grid129.center_node()))
    for name, cand in bryant_candidates(fl, fh).items():
        _, r = moebius_equivalent(reference.f, cand, n_quads=10, seed=6, tau=1e-4)
        assert r > 1e-2, name


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_pair_structure(grid129):
    lam = 0.5
    data = plane_data(grid129)
    pair = dual_cmc(data, lam)
    # the dual is again cmc with the same |H|
    _, mean, std, _ = mean_curvature_hyperbolic(pair.dual.f, lam)
    assert abs(abs(mean) - 1.0) < 1e-3 and std < 1e-3
    # gauss maps exchanged: hyperbolic gauss of the dual is the secondary
    # gauss map of the surface; the secondary of the dual returns to the
    # boundary map
    from isothermic import t_transform_via_connection

    nsd = t_transform_via_connection(pair.ns_connection, -lam).surface
    eq, res = moebius_equivalent(nsd, boundary_surface(data), seed=9, tau=1e-4)
    assert eq, res
    # cousins: the surface's cousin is the closed-form minimal member, the
    # dual's cousin is in the lam -> 0 member's class
    m_lam = QField(grid129, sample_values(grid129, lambda z: oc.minimal_family(z, lam)))
    eq, res = moebius_equivalent(pair.cousin, m_lam, n_quads=12, seed=4, tau=1e-4)
    assert eq, res
    enneper = QField(grid129, sample_values(grid129, lambda z: oc.minimal_family(z, 1e-12)))
    eq, res = moebius_equivalent(pair.dual_cousin, enneper, n_quads=12, seed=4, tau=1e-4)
    assert eq, res


def test_double_dual_returns(grid129):
    lam = 0.5
    data = plane_data(grid129)
    pair = dual_cmc(data, lam)
    dd = double_dual(pair, data, lam)
    eq, res = moebius_equivalent(dd, pair.surface.f, n_quads=20, seed=13, tau=1e-5)
    assert eq, res


def test_minimal_position(grid129):
    enneper = weierstrass_minimal(plane_data(grid129))
    center = np.array([0.0, 1.5, 0.5, -0.5])
    vals, ok = moebius_image(inversion(center), enneper.f.values)
    moved = PolarizedSurface(QField(grid129.merge_mask(ok), vals), "dz2")
    pt, light, incidence = common_sphere_point(moved)
    assert incidence < 1e-4
    # the inversion x -> (x - center)^-1 moves the point at infinity to 0
    assert pt.shape == (4,) and qnorm(pt) < 1e-5
    assert common_sphere_point(enneper)[0] is INFINITY
    assert minimal_position(enneper) is enneper
    repositioned = minimal_position(moved)
    ff = fundamental_forms(repositioned)
    sel = repositioned.grid.valid() & ff.valid
    sel[:8, :] = sel[-8:, :] = sel[:, :8] = sel[:, -8:] = False
    assert np.abs(ff.mean_curvature()[sel]).max() < 1e-4
    # a cmc (non-minimal-class) surface has no common point
    cmc = darboux_weierstrass(plane_data(grid129), 1.0)
    _, _, incidence = common_sphere_point(PolarizedSurface(cmc.f, "dz2"))
    assert incidence > 1e-3


def test_umehara_yamada_frame_unavailable(grid65):
    from isothermic import FrameUnavailable

    cyl = PolarizedSurface.sample(grid65, cylinder)
    with pytest.raises(FrameUnavailable):
        umehara_yamada_check(cyl, 1.0)
