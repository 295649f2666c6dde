import importlib
import sys
import warnings

import numpy as np
import pytest

from isothermic import (
    FrameField,
    GridSpec,
    NotAdapted,
    NotClosed,
    NotIntegrable,
    PolarizedSurface,
    QField,
    QForm1,
    canonical_connection,
    christoffel,
    christoffel_form,
    d_field,
    darboux_linear,
    darboux_riccati,
    darboux_via_connection,
    goursat,
    integrate_frame,
    moebius_equivalent,
    permutability_suite,
    t_transform,
    t_transform_gauged,
    t_transform_via_connection,
    wedge,
)
from isothermic import oracles as oc
from isothermic.grid import (
    _connection_scale,
    _curvature_residual,
    _maurer_cartan_point,
    integrate_left_vector,
    maurer_cartan_residual,
)
from isothermic.quaternion import (
    qinv,
    qinv_masked,
    qm2_identity,
    qm2_inv,
    qm2_matvec,
    qm2_mul,
    qmul,
    qnorm,
)
from isothermic.surfaces import fundamental_forms, normal_field
from isothermic.transforms import frame_connection_from_field

import reference_permutability
from conftest import inversion, moebius_image, sample_values


V0_SEED = np.array([[1.0, 0, 0, 0], [0, -1.0, 0, 0]])  # (1, -i)
MINUS_I = np.array([0.0, -1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Christoffel
# ---------------------------------------------------------------------------

def test_christoffel_plane_exact(plane129, grid129):
    cf = christoffel(plane129)
    target = sample_values(grid129, oc.cf_plane)
    assert qnorm(cf.f.values - target).max() < 1e-12
    assert cf.polarization == "dz2"  # conjugation flag flips


def _wobble(z):
    """The plane bent along i: not isothermic."""
    return oc.f_plane(z) + MINUS_I * (
        0.1 * np.sin(3 * z.real) * np.sin(5 * z.imag)
    )[..., None]


def test_christoffel_requires_isothermic(grid65):
    s = PolarizedSurface.sample(grid65, _wobble, "dzbar2")
    with pytest.raises(NotClosed):
        christoffel(s)


def test_christoffel_quadratic_identity(plane65, grid65):
    # df * dCf evaluates to the grid polarization: +1 on dx, -1 on dy,
    # cross terms 2n dx dy
    df = d_field(plane65.f)
    cf = christoffel_form(plane65)
    xx = qmul(df.px, cf.px)
    yy = qmul(df.py, cf.py)
    assert np.abs(xx - np.array([1.0, 0, 0, 0])).max() < 1e-12
    assert np.abs(yy - np.array([-1.0, 0, 0, 0])).max() < 1e-12
    cross = qmul(df.px, cf.py) + qmul(df.py, cf.px)
    # 2n with n = -i for the flat reference plane
    assert np.abs(cross - np.array([0, -2.0, 0, 0])).max() < 1e-12


def test_wedge_and_involution_orders():
    # wedge(df, dCf) -> 0 at O(h^2); C(Cf) returns f up to translation
    for sampler, pol in ((oc.f_plane, "dzbar2"),
                         (lambda z: oc.minimal_family(z, 1e-12), "dz2")):
        werrs, cerrs = [], []
        for n in (65, 129):
            g = GridSpec.square(1.0, n)
            p0 = g.center_node()
            s = PolarizedSurface.sample(g, sampler, pol)
            w = wedge(d_field(s.f), christoffel_form(s))
            sel = g.interior() & w.grid.valid()
            werrs.append(qnorm(w.values)[sel].max())
            cs = christoffel(s)
            ccs = christoffel(cs, c0=s.f.value_at(p0))
            diff = ccs.f.values - s.f.values
            cerrs.append(qnorm(diff - diff[p0[0], p0[1]])[ccs.grid.valid()].max())
        assert werrs[-1] < 1e-4 and cerrs[-1] < 1e-4
        for errs in (werrs, cerrs):
            if errs[0] > 1e-12:  # flat case is exact; order unmeasurable
                assert np.log2(errs[0] / errs[1]) >= 1.9


def test_christoffel_of_minimal_is_totally_umbilic(grid129):
    from isothermic import WeierstrassData, weierstrass_minimal

    data = WeierstrassData.sample(grid129, lambda z: z, lambda z: 1 + 0j,
                                  lambda z: 1 + 0j)
    minimal = weierstrass_minimal(data)
    dual = christoffel(minimal)
    ff = fundamental_forms(dual)
    sel = grid129.interior() & ff.valid & dual.grid.valid()
    sel[:6, :] = sel[-6:, :] = sel[:, :6] = sel[:, -6:] = False
    assert ff.principal_gap()[sel].max() < 1e-4


# ---------------------------------------------------------------------------
# Goursat
# ---------------------------------------------------------------------------

def test_goursat_matches_dual_moebius_dual_route(plane129, grid129):
    p0 = grid129.center_node()
    m = np.array([0.0, 1.0, 0.0, 0.0])
    direct = goursat(plane129, m)
    cs = christoffel(plane129)
    vals, ok = moebius_image(inversion(m), cs.f.values)
    mcs = PolarizedSurface(QField(cs.grid.merge_mask(ok), vals), cs.polarization)
    twostep = christoffel(mcs)
    diff = direct.f.values - twostep.f.values
    sel = direct.grid.valid() & twostep.grid.valid()
    assert qnorm(diff - diff[p0[0], p0[1]])[sel].max() < 1e-4


def test_goursat_inverse_composition(plane129, grid129):
    p0 = grid129.center_node()
    m = np.array([0.0, 1.0, 0.0, 0.0])
    mm = inversion(m)
    g1 = goursat(plane129, m)
    c0, _ = moebius_image(mm, christoffel(plane129).f.value_at(p0))
    cg = christoffel(g1, c0)
    vals, ok = moebius_image(qm2_inv(mm), cg.f.values)
    mcg = PolarizedSurface(QField(cg.grid.merge_mask(ok), vals), cg.polarization)
    back = christoffel(mcg)
    diff = back.f.values - plane129.f.values
    sel = back.grid.valid()
    assert qnorm(diff - diff[p0[0], p0[1]])[sel].max() < 1e-6
    eq, res = moebius_equivalent(back, plane129, seed=3)
    assert eq, res


def test_goursat_large_m_similarity_trend(plane129, grid129):
    p0 = grid129.center_node()
    f0 = plane129.f.value_at(p0)
    devs = []
    for mag in (3.0, 10.0, 30.0):
        marr = np.array([0.0, mag, 0.0, 0.0])
        gm = goursat(plane129, marr)
        sim = -qmul(
            np.broadcast_to(marr, plane129.f.values.shape),
            qmul(plane129.f.values - f0, np.broadcast_to(marr, plane129.f.values.shape)),
        )
        dev = qnorm(gm.f.values - gm.f.values[p0[0], p0[1]] - sim)[gm.grid.valid()].max()
        devs.append(dev / mag**2)
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 0.05


# ---------------------------------------------------------------------------
# Darboux
# ---------------------------------------------------------------------------

def test_darboux_routes_match_closed_form(plane129, grid129):
    target = sample_values(grid129, lambda z: oc.darboux_plane(z, 1.0))
    lin = darboux_linear(plane129, 1.0, V0_SEED)
    ric = darboux_riccati(plane129, 1.0, MINUS_I)
    sel = lin.grid.valid() & ric.grid.valid()
    assert qnorm(lin.f.values - target)[sel].max() < 5e-6
    assert qnorm(ric.f.values - target)[sel].max() < 5e-6
    assert qnorm(ric.f.values - lin.f.values)[sel].max() < 5e-6


def test_darboux_riccati_default_start_point(catenoid129):
    """Without d0 the Riccati march starts one unit normal off f(p0) at the
    base node: the same transform, bit for bit, as the call with that point
    given."""
    node = catenoid129.grid.center_node()
    d0 = catenoid129.f.value_at(node) + normal_field(catenoid129).values[node]
    want = darboux_riccati(catenoid129, 0.5, d0)
    got = darboux_riccati(catenoid129, 0.5)
    assert np.array_equal(got.f.values, want.f.values)
    assert np.array_equal(got.grid.valid(), want.grid.valid())


def test_darboux_lambda_zero_degenerates(plane129, grid129):
    p0 = grid129.center_node()
    out = darboux_riccati(plane129, 0.0, MINUS_I)
    spread = qnorm(out.f.values - out.f.values[p0[0], p0[1]])[out.grid.valid()].max()
    assert spread < 1e-10  # transform collapses to the seed point


def test_darboux_reconstructs_dual_form(plane129, grid129):
    # lam dCf = (Df - f)^-1 dDf (Df - f)^-1 pointwise at O(h^2)
    lam = 1.0
    d = darboux_riccati(plane129, lam, MINUS_I)
    diff = d.f.values - plane129.f.values
    inv, ok = qinv_masked(diff)
    dd = d_field(d.f)
    cform = christoffel_form(plane129)
    sel = grid129.interior() & ok & d.grid.valid()
    for comp, ref in ((dd.px, cform.px), (dd.py, cform.py)):
        rec = qmul(inv, qmul(comp, inv))
        assert qnorm(rec - lam * ref)[sel].max() < 1e-3


def test_darboux_curvature_line_correspondence(plane129, grid129):
    # wedge(df, (f - Df)^-1 dDf) vanishes
    d = darboux_riccati(plane129, 1.0, MINUS_I)
    diff = d.f.values - plane129.f.values
    inv, ok = qinv_masked(diff)
    dd = d_field(d.f)
    tau = QForm1(grid129, qmul(-inv, dd.px), qmul(-inv, dd.py))
    w = wedge(d_field(plane129.f), tau)
    sel = grid129.interior() & ok & d.grid.valid()
    assert qnorm(w.values)[sel].max() < 1e-3


def _euclidean_frame(value):
    out = np.zeros((2, 2, 4))
    out[0, 0] = value
    out[0, 1, 0] = 1.0
    out[1, 0, 0] = 1.0
    return out


def test_darboux_moebius_equivariance(plane129, grid129):
    p0 = grid129.center_node()
    lam = 1.0
    base = darboux_linear(plane129, lam, V0_SEED)
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(10):
        kind = rng.integers(0, 3)
        mm = qm2_identity()
        if kind == 0:
            mm[0, 1, 1:] = rng.normal(size=3)  # translation [[1, m], [0, 1]]
        elif kind == 1:
            r = rng.normal(size=4)
            r /= np.linalg.norm(r)
            mm[0, 0] = mm[1, 1] = r  # rotation x -> r x r^-1
        else:
            mm = inversion(np.concatenate([[0.0], rng.normal(size=3) + np.array([0, 2.0, 0])]))
        vals, ok = moebius_image(mm, plane129.f.values)
        if not ok.all():
            continue
        ms = PolarizedSurface(QField(grid129, vals), plane129.polarization)
        from isothermic import isothermic_certificate

        if isothermic_certificate(ms)[1] > 1e-4:
            continue  # inversion center too close: curvature outruns the grid
        transport = qm2_mul(
            qm2_inv(_euclidean_frame(ms.f.value_at(p0))),
            qm2_mul(mm, _euclidean_frame(plane129.f.value_at(p0))),
        )
        v0t = qm2_matvec(transport, V0_SEED)
        dm = darboux_linear(ms, lam, v0t)
        image_vals, ok2 = moebius_image(mm, base.f.values)
        image = QField(grid129.merge_mask(ok2), image_vals)
        eq, res = moebius_equivalent(image, dm.f, n_quads=10, seed=7, tau=1e-4)
        assert eq, res
        checked += 1
    assert checked >= 6


# ---------------------------------------------------------------------------
# spectral transform
# ---------------------------------------------------------------------------

def test_t_transform_zero_is_identity(plane129):
    out = t_transform(plane129, 0.0)
    assert qnorm(out.surface.f.values - plane129.f.values).max() < 1e-12


def test_t_transform_plane_closed_form(plane129, grid129):
    out = t_transform(plane129, 1.0)
    frame_target = oc.t_frame(grid129.zgrid(), 1.0)
    assert np.abs(out.frame.values - frame_target).max() < 5e-6
    surf_target = sample_values(grid129, lambda z: oc.t_plane(z, 1.0))
    assert qnorm(out.surface.f.values - surf_target)[out.surface.grid.valid()].max() < 5e-6
    sel = out.surface.grid.valid()
    assert np.abs(out.surface.f.values[..., 0])[sel].max() < 1e-9


def test_t_transform_negative_lambda(plane65, grid65):
    out = t_transform(plane65, -0.8)
    target = sample_values(grid65, lambda z: oc.t_plane(z, -0.8))
    assert qnorm(out.surface.f.values - target)[out.surface.grid.valid()].max() < 5e-6


def test_t_transform_group_law(plane129):
    first = t_transform(plane129, 0.3)
    second = t_transform(first.surface, 0.7)
    direct = t_transform(plane129, 1.0)
    eq, res = moebius_equivalent(second.surface, direct.surface, seed=3)
    assert eq, res
    assert res < 1e-5


def _canonical_frame(grid, fvals):
    """The frame [[f, 1], [1, 0]] of the values f on grid, as a FrameField."""
    frame0 = np.zeros((grid.ny, grid.nx, 2, 2, 4))
    frame0[..., 0, 0, :] = fvals
    frame0[..., 0, 1, 0] = 1.0
    frame0[..., 1, 0, 0] = 1.0
    return FrameField(grid, frame0)


def test_t_transform_gauged_canonical_reduces_exactly(plane129):
    base = t_transform(plane129, 1.0)
    gauged = t_transform_gauged(plane129, 1.0, _canonical_frame(plane129.grid, plane129.f.values))
    assert qnorm(gauged.surface.f.values - base.surface.f.values).max() < 1e-12


def test_t_transform_gauged_scalar_gauge(plane129, grid129):
    base = t_transform(plane129, 1.0)
    zs = grid129.zgrid()
    theta = 0.3 * zs.real + 0.2 * zs.imag
    a = np.zeros((grid129.ny, grid129.nx, 4))
    a[..., 0] = np.cos(theta)
    a[..., 1] = np.sin(theta)
    frame0 = np.zeros((grid129.ny, grid129.nx, 2, 2, 4))
    frame0[..., 0, 0, :] = qmul(plane129.f.values, a)
    frame0[..., 0, 1, 0] = 1.0
    frame0[..., 1, 0, :] = a
    gauged = t_transform_gauged(plane129, 1.0, FrameField(grid129, frame0))
    eq, res = moebius_equivalent(base.surface, gauged.surface, seed=2, tau=1e-4)
    # numeric gauge reading is second-order limited; class residual stays small
    assert eq, res


def test_numeric_connection_needs_a_frame_that_projects(plane65):
    """A frame whose second row vanishes has no affine point at any node."""
    frame = _canonical_frame(plane65.grid, plane65.f.values)
    frame.values[..., 1, :, :] = 0.0
    with pytest.raises(NotAdapted, match="frame projects nowhere"):
        frame_connection_from_field(plane65, frame)


def test_numeric_connection_needs_a_frame_adapted_to_the_surface(plane65):
    """The canonical frame of f + 1 projects one unit off f, beyond 1e-5 of
    the surface's scale."""
    message = r"does not project onto the surface \(max dev 1.000e\+00\)"
    with pytest.raises(NotAdapted, match=message):
        shifted = plane65.f.values + np.array([1.0, 0.0, 0.0, 0.0])
        t_transform_gauged(plane65, 1.0, _canonical_frame(plane65.grid, shifted))


@pytest.mark.parametrize("shape", [(4,), (2, 2, 4), (1, 4)])
def test_darboux_start_column_must_be_homogeneous(plane65, shape):
    conn = canonical_connection(plane65)
    with pytest.raises(ValueError, match=r"w0 must be a homogeneous column \(2, 4\)"):
        darboux_via_connection(conn, 1.0, np.ones(shape))


# ---------------------------------------------------------------------------
# Moebius equivalence certificate
# ---------------------------------------------------------------------------

def test_moebius_equivalent_self(plane129):
    eq, res = moebius_equivalent(plane129, plane129, seed=1)
    assert eq and res == 0.0


def test_moebius_equivalent_similarity(catenoid129, grid129):
    r = np.array([np.cos(0.3), np.sin(0.3), 0, 0])
    vals = qmul(
        np.broadcast_to(r, catenoid129.f.values.shape),
        qmul(1.7 * catenoid129.f.values, np.broadcast_to(qinv(r), catenoid129.f.values.shape)),
    )
    vals = vals + np.array([0, 0.4, -0.2, 1.0])
    moved = QField(grid129, vals)
    eq, res = moebius_equivalent(catenoid129.f, moved, seed=2)
    assert eq, res


def test_moebius_equivalent_essential_image(catenoid129, grid129):
    vals, ok = moebius_image(inversion([0.0, 1.0, 0.0, 0.0]), catenoid129.f.values)
    eq, res = moebius_equivalent(
        catenoid129.f, QField(grid129.merge_mask(ok), vals), seed=2, tau=1e-6
    )
    assert eq, res


def test_moebius_equivalent_detects_difference(plane129, catenoid129):
    eq, res = moebius_equivalent(plane129.f, catenoid129.f, seed=2)
    assert not eq and res > 1e-2


@pytest.mark.parametrize("name", ["plane", "catenoid"])
def test_moebius_equivalent_negative_control(name, plane129, catenoid129, grid129):
    """A 1e-4 bump, which no Moebius map makes, fails even in the
    best-conditioned point order; a Moebius image of the bumped surface
    passes."""
    f = {"plane": plane129, "catenoid": catenoid129}[name].f
    bump = np.exp(-4 * np.abs(grid129.zgrid()) ** 2)[..., None] * np.array([0, 1, 1, 1])
    bumped = QField(grid129, f.values + 1e-4 / np.sqrt(3) * bump)
    eq, res = moebius_equivalent(f, bumped, seed=2)
    assert not eq and res > 5e-5, res
    vals, ok = moebius_image(inversion([0.0, 0.3, 0.2, 0.1]), bumped.values)
    eq, res = moebius_equivalent(bumped, QField(grid129.merge_mask(ok), vals), seed=2)
    assert eq and res < 1e-12, res


# ---------------------------------------------------------------------------
# permutability
# ---------------------------------------------------------------------------

def test_permutability_suite_plane(plane129):
    rep = permutability_suite(plane129, 1.0, mu=0.35)
    assert rep.p1_residual <= 1e-5
    assert rep.p3_residual <= 1e-5
    assert rep.p2_pointwise <= 1e-4   # O(h^2) positioning identity
    assert rep.p2_translation <= 1e-4
    assert rep.p2_certificate <= 1e-4


_P3_INPUTS = [(1.387875832181368, 196591218), (1.2440018924366578, 1947939405),
              (1.454273677371302, 1796055005)]


@pytest.mark.parametrize("lam, seed", _P3_INPUTS)
def test_permutability_p3_nearly_coincident_images(lam, seed, plane129):
    """Inputs on which P3, compared in the sampled point order, read 1.0e-5
    to 1.6e-5, above tau: two image points of a quadruple nearly coincide,
    so |r| is large (38.35 on the last input, where the chain is accurate
    to 4.2e-7 relative) and the absolute (Re r, |r|) metric magnifies the
    error."""
    rep = permutability_suite(plane129, lam, seed=seed)
    assert rep.p3_residual <= 1e-6, rep.p3_residual


@pytest.mark.parametrize("n, lam, seed",
                         [(65, lam, 7) for lam in (0.5, 1.0, 1.5, 0.8, 1.3, -0.6)]
                         + [(129, lam, 7) for lam in (0.8, 1.3, -0.6)]
                         + [(129, lam, seed) for lam, seed in _P3_INPUTS])
def test_permutability_suite_equals_reference(n, lam, seed, plane65, plane129):
    """The suite that builds the dual form, certificate, connection and frame
    of phi(lam) once, and runs P3's Darboux chain in one blocked pass,
    reports what the reference, which builds each of them per identity and
    runs the dense chain body, reports, bit for bit."""
    surface = {65: plane65, 129: plane129}[n]
    got = permutability_suite(surface, lam, seed=seed)
    want = reference_permutability.permutability_suite(surface, lam, seed=seed)
    assert got == want


_COUNTED = {
    "grid": ["integrate_frame", "maurer_cartan_residual"],
    "surfaces": ["isothermic_certificate", "surface_jets"],
    "transforms": ["canonical_connection", "t_transform"],
    "quaternion": ["qm2_mul"],
}


def _count_calls(monkeypatch):
    """Count calls of the functions in _COUNTED, through every isothermic
    module namespace that binds them and the reference suite's."""
    counts = {}
    for module, names in _COUNTED.items():
        for name in names:
            original = getattr(importlib.import_module(f"isothermic.{module}"), name)

            def counted(*args, _key=f"{module}.{name}", _fn=original, **kwargs):
                counts[_key] = counts.get(_key, 0) + 1
                return _fn(*args, **kwargs)

            for mod in [m for key, m in sys.modules.items() if key.startswith("isothermic")]:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
            if getattr(reference_permutability, name, None) is original:
                monkeypatch.setattr(reference_permutability, name, counted)
    return counts


@pytest.mark.parametrize("suite, expected", [
    ("reference", {"grid.integrate_frame": 5, "grid.maurer_cartan_residual": 1,
                   "surfaces.isothermic_certificate": 7, "surfaces.surface_jets": 8,
                   "transforms.canonical_connection": 3, "transforms.t_transform": 2,
                   "quaternion.qm2_mul": 14}),
    ("shared", {"grid.integrate_frame": 4, "grid.maurer_cartan_residual": 1,
                "surfaces.isothermic_certificate": 3, "surfaces.surface_jets": 3,
                "transforms.canonical_connection": 2, "quaternion.qm2_mul": 6}),
])
def test_permutability_suite_call_counts(suite, expected, plane65, monkeypatch):
    """Every march of a canonical family, or of a family a spectral transform
    inherits from one, passes its Maurer-Cartan gate on the curvature
    polynomial; only the gauged Darboux-chain family is gated by
    maurer_cartan_residual, whose point forms its commutator on pair planes
    per block of grid rows and calls no qm2_mul (it took four, two on each
    of the two blocks of the n = 65 grid, until it shared its planes).  The
    shared suite's Darboux chain runs on pair planes too: its qm2_mul calls
    are the four of the spectral transforms and the two that build the
    chained family's frame at the base node, against the ten of the dense
    chain body that the reference runs."""
    run = {"reference": reference_permutability.permutability_suite,
           "shared": permutability_suite}[suite]
    counts = _count_calls(monkeypatch)
    run(plane65, 1.0)
    assert counts == expected


def test_permutability_suite_rejects_non_isothermic(grid65):
    """Negative control: the shared certificate rejects what the reference
    rejects, with the same message."""
    s = PolarizedSurface.sample(grid65, _wobble, "dzbar2")
    with pytest.raises(NotClosed) as want:
        reference_permutability.permutability_suite(s, 1.0)
    with pytest.raises(NotClosed) as got:
        permutability_suite(s, 1.0)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("isothermic certificate residual")


def test_permutability_p2_positioning_order(plane65, plane129):
    res = []
    for surf in (plane65, plane129):
        rep = permutability_suite(surf, 1.0, mu=0.4)
        res.append(rep.p2_pointwise)
    assert np.log2(res[0] / res[1]) >= 1.7


def test_distinct_darboux_members_differ(plane129):
    # the transform family is genuinely three-parametric: different seeds
    # give inequivalent surfaces (their Goursat relation after a spectral
    # step is exercised by the duality acceptance test)
    conn = canonical_connection(plane129)
    v0b = np.array([[1.0, 0, 0, 0], [0, -0.7, 0.5, 0.2]])
    lhs = darboux_via_connection(conn, 1.0, V0_SEED).surface
    rhs = darboux_via_connection(conn, 1.0, v0b).surface
    eq, res = moebius_equivalent(lhs, rhs, seed=11)
    assert not eq and res > 1e-2


# ---------------------------------------------------------------------------
# the Maurer-Cartan gate of a canonical family, from its curvature polynomial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("inherited", [False, True], ids=["canonical", "inherited"])
@pytest.mark.parametrize("lam", [-1.3, 0.0, 0.5, 1.5])
@pytest.mark.parametrize("name", ["example", "weierstrass", "boundary"])
def test_curvature_polynomial_equals_maurer_cartan(canonical_families, name, lam, inherited):
    """The pointwise curvature norm sqrt(n0 + t^2 n1) and the residual read
    from it equal the Maurer-Cartan curvature computed from phi(lam), to
    1e-15 on the gate's normalised scale h |.| / (1 + max |phi|); so does
    the family a spectral transform at mu returns, at lam - mu."""
    conn = canonical_families[name]
    if inherited:
        mu = 0.4
        conn, lam = t_transform_via_connection(conn, mu).connection, lam - mu
    grid = conn.grid
    phi_x, phi_y = conn.phi(lam)
    point, valid = _maurer_cartan_point(phi_x, phi_y, grid)
    poly = conn.curvature_norm(lam)
    scale = _connection_scale(phi_x, phi_y, grid)
    assert (np.abs(poly - point)[valid] * grid.h / scale).max() <= 1e-15
    got = _curvature_residual(poly, phi_x, phi_y, grid)
    assert abs(got - maurer_cartan_residual(phi_x, phi_y, grid)) <= 1e-15


def _failure(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value), getattr(info.value, "node", None)


@pytest.mark.parametrize("coef", ["const_x", "const_y"])
def test_curvature_gate_falls_back_on_a_nan(grid33, coef):
    """A NaN planted in df after the family is built is not in its curvature
    polynomial: the gate falls back to maurer_cartan_residual and fails as
    the raw arrays do, with the same error, message and node.  The family
    computes phi on each read, so the NaN goes into its stored df part and
    reads back in phi's constant entry [..., 1, 0, :]."""
    conn = canonical_connection(PolarizedSurface.sample(grid33, oc.f_plane, "dzbar2"))
    axis = ("const_x", "const_y").index(coef)
    conn._df = tuple(part.copy() for part in conn._df)  # the surface keeps df read-only
    conn._df[axis][20, 11, 2] = np.nan
    phi_x, phi_y = conn.phi(0.7)
    assert np.isnan((phi_x, phi_y)[axis][20, 11, 1, 0, 2])
    want = _failure(lambda: integrate_frame(phi_x, phi_y, conn.grid, qm2_identity(), conn.p0))
    assert want[0] is NotIntegrable and want[2] is not None
    assert _failure(lambda: t_transform_via_connection(conn, 0.7)) == want
    want = _failure(lambda: integrate_left_vector(phi_x, phi_y, conn.grid, V0_SEED, conn.p0))
    assert _failure(lambda: darboux_via_connection(conn, 0.7, V0_SEED)) == want


@pytest.mark.parametrize("size, lam", [(1.0, 1e300), (0.5, 1e154)])
def test_curvature_gate_falls_back_on_overflow(grid33, size, lam):
    """The gate reports maurer_cartan_residual's overflow, with no
    RuntimeWarning, where the curvature polynomial overflows (lam = 1e300)
    and where only the scale 1 + max |phi| does: on the plane f = z / 2, at
    lam = 1e154, |phi|^2 = 4 lam^2 + 1/4 is beyond the float range while
    the curvature is rounding."""
    surface = PolarizedSurface.sample(grid33, lambda z: size * oc.f_plane(z), "dzbar2")
    conn = canonical_connection(surface)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi_x, phi_y = conn.phi(lam)
        want = _failure(lambda: integrate_frame(phi_x, phi_y, conn.grid, qm2_identity(),
                                                conn.p0))
        got = _failure(lambda: t_transform_via_connection(conn, lam))
    assert got == want
    assert want[0] is NotIntegrable and want[1].startswith("Maurer-Cartan residual overflows")


def test_curvature_gate_decides_only_a_pass(grid33):
    """A curvature norm above the threshold does not fail the march: the gate
    computes maurer_cartan_residual, which passes this flat family, and the
    frame is bit for bit the one marched without a curvature norm."""
    conn = canonical_connection(PolarizedSurface.sample(grid33, oc.f_plane, "dzbar2"))
    phi_x, phi_y = conn.phi(0.7)
    want = integrate_frame(phi_x, phi_y, conn.grid, qm2_identity(), conn.p0).values
    got = integrate_frame(phi_x, phi_y, conn.grid, qm2_identity(), conn.p0,
                          curvature_norm=np.full((grid33.ny, grid33.nx), 1e6)).values
    assert np.array_equal(got, want)
