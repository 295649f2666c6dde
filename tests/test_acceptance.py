"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; the default desk scale is spacing
1/64 on [-1, 1]^2 (129 samples per side), with refinement studies over
spacings 1/32, 1/64, 1/128 where an observed order is required.  A line
also fails where its residual grows above twice its RESIDUALS entry.

Run `pytest tests/test_acceptance.py -s` to see the summary lines.
"""

import importlib.util
from pathlib import Path

import numpy as np

from isothermic import (
    GridSpec,
    PolarizedSurface,
    QField,
    WeierstrassData,
    bryant_surface,
    christoffel,
    christoffel_form,
    d_field,
    darboux_linear,
    darboux_riccati,
    darboux_via_connection,
    darboux_weierstrass,
    double_dual,
    dual_cmc,
    family_ribaucour_connection,
    integrate_frame,
    mean_curvature_hyperbolic,
    minimal_position,
    moebius_equivalent,
    permutability_suite,
    ribaucour_data_extract,
    spherical_type_certificate,
    t_transform,
    t_transform_gauged,
    wedge,
    weierstrass_minimal,
)
from isothermic import oracles as oc
from isothermic.grid import crop_field
from isothermic.quaternion import qnorm
from isothermic.transforms import TAU_PERMUTABILITY

from conftest import cylinder, sample_values

V0_SEED = np.array([[1.0, 0, 0, 0], [0, -1.0, 0, 0]])  # (1, -i)

_spec = importlib.util.spec_from_file_location(
    "trajectory", Path(__file__).resolve().parent.parent / "bench" / "trajectory.py")
_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_trajectory)

#: the factor of bench/trajectory.py --compare
RESIDUAL_GROWTH = _trajectory.RESIDUAL_GROWTH


#: the n = 129 residual of every report line, rounded up to three digits:
#: the larger of numpy's default and baseline (x86-64-v2) SIMD dispatch,
#: between which the reprs of most lines differ by rounding (criterion 5's
#: by x1.95).  report() fails a residual above RESIDUAL_GROWTH times its
#: entry, so an accuracy loss shows although its tolerance still passes.  A
#: line at its rounding floor (below about 1e-13) is None and not gated:
#: rounding alone moves it by more than that factor.  An accuracy gain
#: lowers its entry; no tolerance moves.
RESIDUALS = {
    "criterion 1a (spectral surface vs closed form)": 1.71e-09,
    "criterion 1b (spectral frame vs closed form)": 9.61e-10,
    "criterion 2 wedge(df, dCf) [plane]": None,
    "criterion 2 C^2 identity [plane]": None,
    "criterion 2 wedge(df, dCf) [enneper]": 6.27e-05,
    "criterion 2 C^2 identity [enneper]": 8.75e-08,
    "criterion 3 (linear vs closed form)": 3.30e-10,
    "criterion 3 (riccati vs closed form)": 2.48e-09,
    "criterion 3 (riccati vs linear)": 2.66e-09,
    "criterion 4a (second point = spectral transform of dual)": None,
    "criterion 4b (Darboux member of the spectral family vs closed form)": 2.57e-09,
    "criterion 5 (group law T_0.7 T_0.3 = T_1.0)": 1.78e-08,
    "criterion 6 (|H| = 2.0 at parameter 1.0: deviation)": 9.32e-07,
    "criterion 6 (|H| std at parameter 1.0)": 2.58e-06,
    "criterion 6 (|H| = 1.0 at parameter 0.5: deviation)": 1.23e-07,
    "criterion 6 (|H| std at parameter 0.5)": 3.31e-07,
    "criterion 7 (Liouville residual, closed-form member at 1)": 1.59e-05,
    "criterion 7 (Liouville residual, enneper)": 4.13e-06,
    "criterion 8 (|H| on the example frame)": 5.43e-07,
    "criterion 8 (|Hhat - 1|)": 2.42e-07,
    "criterion 8 (|lamhat|)": 5.43e-07,
    "criterion 8 (Gauss residual)": 6.50e-04,
    "criterion 8 (Codazzi residual)": 2.50e-07,
    "criterion 9 (darboux vs spectral embedding)": 1.66e-08,
    "criterion 9 (darboux vs coupled system)": 2.48e-08,
    "criterion 9 (spectral embedding vs coupled system)": 1.90e-08,
    "criterion 10 (double dual vs original)": None,
    "criterion 10 (cousins of two duals: dual preimages)": 1.26e-06,
    "permutability P3 (T_mu D_lam f = D_(lam-mu) T_mu f)": 2.78e-08,
}


def report(name, residual, tol, extra=""):
    """Print the line of a check and fail it above its tolerance, or above
    RESIDUAL_GROWTH times its RESIDUALS entry."""
    bound = RESIDUALS[name]
    grew = bound is not None and residual > RESIDUAL_GROWTH * bound
    state = "PASS" if residual <= tol and not grew else "FAIL"
    print(f"{state}  {name}: residual {float(residual)!r} (tolerance {tol:.1e}) {extra}")
    assert residual <= tol, f"{name}: {residual:.3e} > {tol:.1e}"
    assert not grew, f"{name}: {residual:.3e} > {RESIDUAL_GROWTH} x its table entry {bound:.2e}"


def plane_surface(grid):
    return PolarizedSurface.sample(grid, oc.f_plane, "dzbar2")


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


def order_line(errs):
    floor = 1e-12
    if max(errs) < floor:
        return np.inf  # exact at machine level; order unmeasurable
    return min(np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1))


def test_criterion_1_spectral_transform_oracle(grid129):
    out = t_transform(plane_surface(grid129), 1.0)
    frame_target = oc.t_frame(grid129.zgrid(), 1.0)
    frame_err = float(np.abs(out.frame.values - frame_target).max())
    surf_target = sample_values(grid129, lambda z: oc.t_plane(z, 1.0))
    surf_err = float(qnorm(out.surface.f.values - surf_target)[out.surface.grid.valid()].max())
    report("criterion 1a (spectral surface vs closed form)", surf_err, 5e-6)
    report("criterion 1b (spectral frame vs closed form)", frame_err, 5e-6)


def test_criterion_2_christoffel_identities():
    worst_res = {}
    for label, sampler, pol in (
        ("plane", oc.f_plane, "dzbar2"),
        ("enneper", lambda z: oc.minimal_family(z, 1e-12), "dz2"),
    ):
        wedge_errs, inv_errs = [], []
        for n in (65, 129, 257):
            g = GridSpec.square(1.0, n)
            p0 = g.center_node()
            s = PolarizedSurface.sample(g, sampler, pol)
            w = wedge(d_field(s.f), christoffel_form(s))
            sel = g.interior() & w.grid.valid()
            wedge_errs.append(float(qnorm(w.values)[sel].max()))
            cs = christoffel(s)
            ccs = christoffel(cs, c0=s.f.value_at(p0))
            diff = ccs.f.values - s.f.values
            inv_errs.append(
                float(qnorm(diff - diff[p0[0], p0[1]])[ccs.grid.valid()].max())
            )
        worst_res[label] = (wedge_errs, inv_errs)
        report(f"criterion 2 wedge(df, dCf) [{label}]", wedge_errs[1], 1e-4,
               f"order {order_line(wedge_errs):.2f}")
        report(f"criterion 2 C^2 identity [{label}]", inv_errs[1], 1e-4,
               f"order {order_line(inv_errs):.2f}")
        assert order_line(wedge_errs) >= 1.9
        assert order_line(inv_errs) >= 1.9


def test_criterion_3_darboux_route_equivalence(grid129):
    s = plane_surface(grid129)
    target = sample_values(grid129, lambda z: oc.darboux_plane(z, 1.0))
    lin = darboux_linear(s, 1.0, V0_SEED)
    ric = darboux_riccati(s, 1.0, np.array([0.0, -1.0, 0.0, 0.0]))
    sel = lin.grid.valid() & ric.grid.valid()
    pairs = {
        "linear vs closed form": float(qnorm(lin.f.values - target)[sel].max()),
        "riccati vs closed form": float(qnorm(ric.f.values - target)[sel].max()),
        "riccati vs linear": float(qnorm(ric.f.values - lin.f.values)[sel].max()),
    }
    for name, err in pairs.items():
        report(f"criterion 3 ({name})", err, 5e-6)


def test_criterion_4_first_permutability(grid129):
    # the transform pair carries both statements of the first permutability
    # theorem: the frame's second point reproduces the spectral transform of
    # the dual surface, and the Darboux member read off the same frame
    # family without further integration reproduces the closed form
    s = plane_surface(grid129)
    tt = t_transform(s, 1.0)
    tc = t_transform(christoffel(s), 1.0)
    _, res_second = moebius_equivalent(tt.second_point, tc.surface,
                                       n_quads=20, seed=11)
    report("criterion 4a (second point = spectral transform of dual)",
           res_second, 1e-5)
    w0 = np.array([[0.0, -1.0, 0, 0], [1.0, 0, 0, 0]])  # (-i, 1)
    member = darboux_via_connection(tt.connection, -1.0, w0).surface
    target = QField(grid129, sample_values(grid129, lambda z: oc.darboux_of_t_plane(z, 1.0)))
    _, res_member = moebius_equivalent(member, target, n_quads=20, seed=11)
    report("criterion 4b (Darboux member of the spectral family vs closed form)",
           res_member, 1e-5)


def test_criterion_5_group_law():
    # at every size, so that its line prints an order; the residual sits
    # near its rounding floor, so bench/trajectory.py does not take that
    # order as evidence
    errs = []
    for n in (65, 129, 257):
        g = GridSpec.square(1.0, n)
        s = plane_surface(g)
        chained = t_transform(t_transform(s, 0.3).surface, 0.7)
        direct = t_transform(s, 1.0)
        errs.append(moebius_equivalent(chained.surface, direct.surface, n_quads=20, seed=3)[1])
    report("criterion 5 (group law T_0.7 T_0.3 = T_1.0)", errs[1], 1e-5,
           f"order {order_line(errs):.2f}")


def test_criterion_6_mean_curvature(grid129):
    data = plane_data(grid129)
    for lam, target in ((1.0, 2.0), (0.5, 1.0)):
        cmc = darboux_weierstrass(data, lam)
        _, mean, std, _ = mean_curvature_hyperbolic(cmc.f, lam)
        report(f"criterion 6 (|H| = {target} at parameter {lam}: deviation)",
               abs(abs(mean) - target), 1e-3)
        report(f"criterion 6 (|H| std at parameter {lam})", std, 1e-3)


def test_criterion_7_spherical_type(grid129, catenoid129):
    _, res = spherical_type_certificate(catenoid129)
    report("criterion 7 (Liouville residual, closed-form member at 1)", res, 1e-3)
    enneper = weierstrass_minimal(plane_data(grid129))
    _, res = spherical_type_certificate(enneper)
    report("criterion 7 (Liouville residual, enneper)", res, 1e-3)
    cyl = PolarizedSurface.sample(grid129, cylinder)
    _, res = spherical_type_certificate(cyl)
    state = "PASS" if res >= 1e-1 else "FAIL"
    print(f"{state}  criterion 7 (cylinder negative control): residual "
          f"{res:.3e} (required >= 1e-01)")
    assert res >= 1e-1


def test_criterion_8_curvature_data_extraction():
    # |H| at every size, so that its line prints the frame march's order
    gauss_errs, codazzi_errs, h_errs = [], [], []
    for n in (65, 129, 257):
        g = GridSpec.square(1.0, n)
        conn = family_ribaucour_connection(g, 1.0)
        phx, phy = conn.phi(1.0)
        frame = integrate_frame(phx, phy, g, conn.frame0_at_p0(), conn.p0)
        data = ribaucour_data_extract(frame)
        sel = data.valid
        h_errs.append(float(np.abs(data.H[sel]).max()))
        gauss_errs.append(data.gauss_residual)
        codazzi_errs.append(data.codazzi_residual)
        if n == 129:
            hhat_err = float(np.abs(data.Hhat[sel] - 1.0).max())
            lamhat_err = float(np.abs(data.lamhat[sel]).max())
    report("criterion 8 (|H| on the example frame)", h_errs[1], 1e-6,
           f"order {order_line(h_errs):.2f}")
    report("criterion 8 (|Hhat - 1|)", hhat_err, 1e-6)
    report("criterion 8 (|lamhat|)", lamhat_err, 1e-6)
    report("criterion 8 (Gauss residual)", gauss_errs[1], 1e-3,
           f"order {order_line(gauss_errs):.2f}")
    report("criterion 8 (Codazzi residual)", codazzi_errs[1], 1e-3)
    assert order_line(gauss_errs) >= 1.9


def test_criterion_9_route_triangle():
    lam = 0.5
    # darboux vs coupled system at every size, so that its line prints the
    # order of the Riccati and Bryant marches
    ac_errs = []
    for n in (65, 129, 257):
        g = GridSpec.square(1.0, n)
        fam = family_data(g, lam)
        a = darboux_weierstrass(plane_data(g), lam)
        c = bryant_surface(fam, -lam)
        # recorded resolution: the coupled system runs at the negated spectral
        # parameter relative to the Darboux route, and its quaternion pair is
        # one component row of homogeneous coordinates (see bryant_surface)
        ac_errs.append(moebius_equivalent(a.f, c.f, n_quads=20, seed=6, tau=1e-4)[1])
        if n == 129:
            a129, c129, fam129 = a, c, fam
    minimal = weierstrass_minimal(fam129)
    from isothermic import ribaucour_connection

    conn = ribaucour_connection(minimal)
    b = t_transform_gauged(minimal, -lam, conn)
    _, res_ab = moebius_equivalent(a129.f, b.surface, n_quads=20, seed=5, tau=1e-4)
    _, res_bc = moebius_equivalent(b.surface, c129.f, n_quads=20, seed=7, tau=1e-4)
    report("criterion 9 (darboux vs spectral embedding)", res_ab, 1e-4)
    report("criterion 9 (darboux vs coupled system)", ac_errs[1], 1e-4,
           f"order {order_line(ac_errs):.2f}")
    report("criterion 9 (spectral embedding vs coupled system)", res_bc, 1e-4)


def test_criterion_10_duality(grid129):
    lam = 0.5
    data = plane_data(grid129)
    pair = dual_cmc(data, lam)
    dd = double_dual(pair, data, lam)
    _, res = moebius_equivalent(dd, pair.surface.f, n_quads=20, seed=13)
    report("criterion 10 (double dual vs original)", res, 1e-5)

    v0b = np.array([[1.0, 0, 0, 0], [0, -0.8, 0.25, 0]])
    pair2 = dual_cmc(data, lam, v0_dual=v0b)

    def cousin_dual_preimage(cousin):
        trimmed = PolarizedSurface(crop_field(cousin.f, 12), cousin.polarization)
        positioned = minimal_position(trimmed)
        return christoffel(positioned)

    c1 = cousin_dual_preimage(pair.dual_cousin)
    c2 = cousin_dual_preimage(pair2.dual_cousin)
    _, res2 = moebius_equivalent(c1, c2, n_quads=20, seed=5, tau=1e-4)
    report("criterion 10 (cousins of two duals: dual preimages)", res2, 1e-4)


def test_permutability_p3_chain():
    # P3 of the permutability suite on the example plane at every size, so
    # that its line prints the order of the chained Darboux family; rounding
    # in that family sets the order, so bench/trajectory.py does not take it
    # as evidence, but it gates the residual
    errs = [permutability_suite(plane_surface(GridSpec.square(1.0, n)), 0.8).p3_residual
            for n in (65, 129, 257)]
    report("permutability P3 (T_mu D_lam f = D_(lam-mu) T_mu f)", errs[1], TAU_PERMUTABILITY,
           f"order {order_line(errs):.2f}")
