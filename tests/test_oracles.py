import cmath
import warnings

import numpy as np
import pytest

from isothermic import ClosedFormOverflow, GridSpec, PoleProximity
from isothermic import oracles as oc
from isothermic.quaternion import (
    cj,
    qinv,
    qm2_identity,
    qm2_matvec,
    qm2_mul,
    qmul,
    qnorm,
    study_det_array,
)

RNG = np.random.default_rng(7)
ONE, QI, QJ, QK = np.eye(4)
ZERO = np.zeros(4)


def _weierstrass_px(g, w):
    """dx coefficient (i - jg) w j (i - jg) / 2 of the minimal integrand."""
    q1 = np.array([0, 1, -g.real, g.imag])
    return 0.5 * qmul(qmul(q1, cj(w)), q1)


def test_plane_values():
    assert qnorm(oc.f_plane(0)) < 1e-15
    assert np.array_equal(oc.f_plane(1.0), -QJ)
    assert np.array_equal(oc.cf_plane(1.0), QJ)
    # -j i = k under ij = k
    assert np.array_equal(oc.f_plane(1j), QK)
    assert np.array_equal(oc.cf_plane(1j), QK)


def test_frame_base_and_entries():
    f = oc.t_frame(0.0, 1.0)
    assert np.abs(f - qm2_identity()).max() < 1e-14
    # explicit entries at z = 1, lam = 1 (all arguments real)
    f = oc.t_frame(1.0, 1.0)
    ch, sh = np.cosh(1.0), np.sinh(1.0)
    assert qnorm(f[0, 0] - ch * ONE) < 1e-13
    assert qnorm(f[0, 1] - sh * QJ) < 1e-13
    assert qnorm(f[1, 0] + sh * QJ) < 1e-13
    assert qnorm(f[1, 1] - ch * ONE) < 1e-13


def test_frame_unit_study_det():
    for _ in range(50):
        z = complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1))
        lam = RNG.uniform(-1.0, 1.2)
        try:
            f = oc.t_frame(z, lam)
        except PoleProximity:
            continue
        assert abs(study_det_array(f) - 1.0) < 1e-10


def _phi_x(lam):
    return np.array([[ZERO, cj(lam)], [-QJ, ZERO]])


def _phi_y(lam):
    # dz(dy) = i: upper entry lam*i*j = lam k, lower -j i = k
    return np.array([[ZERO, lam * QK], [QK, ZERO]])


@pytest.mark.parametrize("lam", [1.0, 0.4, -0.6])
def test_frame_satisfies_connection_equation(lam):
    z = 0.31 + 0.17j
    eps = 1e-5
    fc = oc.t_frame(z, lam)
    dfx = (oc.t_frame(z + eps, lam) - oc.t_frame(z - eps, lam)) / (2 * eps)
    assert np.abs(dfx - qm2_mul(fc, _phi_x(lam))).max() < 1e-8
    dfy = (oc.t_frame(z + eps * 1j, lam) - oc.t_frame(z - eps * 1j, lam)) / (2 * eps)
    assert np.abs(dfy - qm2_mul(fc, _phi_y(lam))).max() < 1e-8


def test_frame_column_projects_to_spectral_transform():
    for z, lam in [(0.3 + 0.2j, 1.0), (0.5 - 0.25j, 0.3), (0.4 + 0.3j, -0.5)]:
        f = oc.t_frame(z, lam)
        v1, v2 = qm2_matvec(f, np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))
        assert qnorm(qmul(v2, qinv(v1)) - oc.t_plane(z, lam)) < 1e-12


def test_spectral_transform_values():
    assert qnorm(oc.t_plane(0.0, 0.7)) < 1e-15
    got = oc.t_plane(1.0, 1.0)
    assert qnorm(got + np.tanh(1.0) * QJ) < 1e-13


def test_dual_spectral_value():
    assert qnorm(oc.ct_plane(0.0, 1.0)) < 1e-15
    got = oc.ct_plane(1.0, 1.0)
    expected = 0.5 * (1.0 + np.sinh(2.0) / 2.0)
    assert qnorm(got - expected * QJ) < 1e-12


def test_series_limits_match_small_lambda():
    for z in (0.3 + 0.2j, 0.7 - 0.5j):
        assert qnorm(oc.t_plane(z, 1e-9) - oc.f_plane(z)) < 1e-8
        assert qnorm(oc.ct_plane(z, 1e-9) - oc.cf_plane(z)) < 1e-8
    # all series helpers continuous across the evaluation cutoff
    for _ in range(50):
        z = complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1))
        lam = 1.05e-4 / max(abs(z * z), 1e-6)
        for fn in (oc.cosh_sl, oc.sinhc_sl, oc.tanhc_sl, oc.sinh2c_sl,
                   lambda z, l: oc._Split(z, l)(oc._COSH2M1)):
            a = fn(z, lam * 0.999999)
            b = fn(z, lam * 1.000001)
            assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_minimal_family_enneper_limit():
    # lam -> 0 series: (Re(z^2) i + z j - j z^3 / 3) / 2
    for z in (0.4 + 0.3j, -0.6 + 0.2j):
        got = oc.minimal_family(z, 1e-10)
        zz = complex(z)
        cjpart = 0.5 * zz - (zz**3 / 6).conjugate()
        expected = np.array([0, 0.5 * (zz * zz).real, cjpart.real, cjpart.imag])
        assert qnorm(got - expected) < 1e-7


def test_minimal_family_derivative_is_weierstrass_integrand():
    for z, lam in [(0.3 + 0.2j, 1.0), (0.5 - 0.25j, 0.5), (0.2 + 0.4j, -0.4)]:
        eps = 1e-5
        dfx = (oc.minimal_family(z + eps, lam) - oc.minimal_family(z - eps, lam)) / (2 * eps)
        px = _weierstrass_px(oc.family_g(z, lam), oc.family_w(z, lam))
        assert np.abs(dfx - px).max() < 1e-7


def test_family_data_normalization():
    # omega * dg is the unit polarization
    for z, lam in [(0.3 + 0.2j, 1.0), (0.5 - 0.25j, 0.5), (0.2 + 0.4j, -0.4)]:
        assert abs(oc.family_w(z, lam) * oc.family_dg(z, lam) - 1.0) < 1e-12


def test_darboux_base_values():
    # at z = 0: -j { 0 - [-k][1]^-1 } = -j k = -i
    assert qnorm(oc.darboux_plane(0.0, 1.0) + QI) < 1e-14
    assert qnorm(oc.darboux_of_t_plane(0.0, 1.0) + QI) < 1e-14
    v = oc.darboux_plane(0.5, 1.0)
    assert abs(v[0]) < 1e-14  # stays imaginary


def test_darboux_height_sign_constant():
    xs = np.linspace(-1, 1, 15)
    heights = oc.darboux_plane(xs[None, :] + 1j * xs[:, None], 1.0)[..., 1]
    assert (heights < 0).all()


def test_all_outputs_imaginary():
    for _ in range(200):
        z = complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1))
        lam = RNG.uniform(-1, 1.2)
        try:
            for fn in (
                lambda w: oc.t_plane(w, lam),
                lambda w: oc.ct_plane(w, lam),
                lambda w: oc.minimal_family(w, lam),
                lambda w: oc.darboux_plane(w, lam),
                lambda w: oc.darboux_of_t_plane(w, lam),
            ):
                assert abs(fn(z)[0]) <= 1e-12
        except PoleProximity:
            continue


def test_pole_margin_guard():
    # sqrt(lam) z right on the pole of tanh
    with pytest.raises(PoleProximity) as info:
        oc.t_plane(1j * cmath.pi / 2, 1.0)
    assert info.value.node is None  # a scalar argument has no grid node
    with pytest.raises(PoleProximity):
        oc.t_frame(0.05 + 1j * (cmath.pi / 2 - 0.05), 1.0)


@pytest.mark.parametrize("name", (
    "family_g", "family_w", "family_dg", "family_log_metric", "family_spin"))
@pytest.mark.parametrize("lam, node", [(2e5, (0, 7)), (-2e5, (7, 0))])
def test_family_overflow_guard(name, lam, node):
    # on [0, 2]^2 at n = 17 (h = 1/8), |Re sqrt(lam) z| = 447 |x| (or 447 |y|
    # for lam < 0) first exceeds 350 at x = 0.875: column (row) 7
    zs = GridSpec(0.0, 0.0, 0.125, 17, 17).zgrid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ClosedFormOverflow) as info:
            getattr(oc, name)(zs, lam)
    assert info.value.node == node


def test_overflow_message_is_short():
    # a fixed-point format printed sqrt(lam) z = 1e150 with all 151 digits
    with pytest.raises(ClosedFormOverflow) as info:
        oc.check_overflow(1e150, 1.0)
    message = str(info.value)
    assert "sqrt(lam) z = 1e+150+0j beyond" in message and len(message) < 80


def test_spin_rotates_standard_frame():
    for z, lam in [(0.3 + 0.2j, 1.0), (0.5 - 0.25j, 0.5), (-0.4 + 0.6j, 1.0)]:
        r = oc.family_spin(z, lam)
        assert abs(qnorm(r) - 1.0) < 1e-12
        g = oc.family_g(z, lam)
        w = oc.family_w(z, lam)
        px = _weierstrass_px(g, w)
        py = _weierstrass_px(g, 1j * w)
        t1 = px / qnorm(px)
        t2 = py / qnorm(py)
        assert qnorm(qmul(qmul(r, QJ), qinv(r)) - t1) < 1e-11
        assert qnorm(qmul(qmul(r, QK), qinv(r)) - t2) < 1e-11


def test_log_metric_derivative():
    for z, lam in [(0.3 + 0.2j, 1.0), (0.5 - 0.25j, 0.5)]:
        u, dzu = oc.family_log_metric(z, lam)
        g = oc.family_g(z, lam)
        w = oc.family_w(z, lam)
        assert abs(np.exp(u) - 0.5 * (1 + abs(g) ** 2) * abs(w)) < 1e-12
        eps = 1e-5
        ux = (oc.family_log_metric(z + eps, lam)[0] - oc.family_log_metric(z - eps, lam)[0]) / (2 * eps)
        uy = (oc.family_log_metric(z + eps * 1j, lam)[0] - oc.family_log_metric(z - eps * 1j, lam)[0]) / (2 * eps)
        assert abs(complex(ux, -uy) - 2 * dzu) < 1e-7


@pytest.mark.parametrize("lam", [-0.3, 1e-9, 2e-4, 0.25, 0.6, 1.0])
def test_family_frame_parts_equal_the_three_oracles(lam):
    """One evaluation of each closed form gives minimal_family, family_spin
    and family_log_metric bit for bit; at lam = 2e-4, just above the series
    cutoff, the grid holds nodes of both branches."""
    zs = GridSpec.square(1.0, 33).zgrid()
    near = np.abs(lam * zs * zs) < oc.SERIES_CUTOFF
    if lam == 2e-4:
        assert near.any() and not near.all()
    f, r, (u, dzu) = oc.family_frame_parts(zs, lam)
    want_u, want_dzu = oc.family_log_metric(zs, lam)
    for got, want in ((f, oc.minimal_family(zs, lam)), (r, oc.family_spin(zs, lam)),
                      (u, want_u), (dzu, want_dzu)):
        assert got.tobytes() == want.tobytes()


def test_family_frame_parts_guard_order():
    """PoleProximity at the node minimal_family names comes before an overflow
    at an earlier node; an overflow alone is reported at the node family_g
    names, before any closed form overflows."""
    zs = np.array([[0.1, 400.0], [1j * cmath.pi / 2, 0.2]])
    with pytest.raises(PoleProximity) as want:
        oc.minimal_family(zs, 1.0)
    with pytest.raises(PoleProximity) as got:
        oc.family_frame_parts(zs, 1.0)
    assert got.value.node == want.value.node == (1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ClosedFormOverflow) as got:
            oc.family_frame_parts(zs[:1], 1.0)
    assert got.value.node == (0, 1)
