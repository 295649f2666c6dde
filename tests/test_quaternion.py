import numpy as np
import pytest

from isothermic import (
    INFINITY,
    DegenerateQuadruple,
    NearZeroQuaternion,
    PNotImaginary,
    SingularMatrix,
    cross_ratio_class_array,
    herm_apply,
    lorentz,
    moebius_act,
    point_form,
)
from isothermic.quaternion import (
    _cayley_dickson,
    from_imag3,
    qconj,
    qinv,
    qm2_identity,
    qm2_inv,
    qm2_matvec,
    qm2_mul,
    qmul,
    qnorm,
    qnormsq,
    study_det_array,
)

import reference_march as ref
from conftest import inversion, moebius_image

ONE, QI, QJ, QK = np.eye(4)
ZERO = np.zeros(4)

RNG = np.random.default_rng(20260809)


def random_quat(scale=1.0):
    return RNG.normal(scale=scale, size=4)


def random_imag():
    return from_imag3(RNG.normal(size=3))


def random_forms(n):
    """n hermitian forms (s11, s22, s12) with normal entries, as (n, 6)."""
    return RNG.normal(size=(n, 6))


def column(v1, v2):
    """The column vector (v1, v2) of H^2 as a (2, 4) array."""
    return np.array([v1, v2])


def matrix(a, b, c, d):
    """The (2, 2, 4) matrix [[a, b], [c, d]]."""
    return np.array([[a, b], [c, d]], dtype=float)


def moebius_point(m, x):
    """Image of the point x under the matrix m, or INFINITY."""
    image, ok = moebius_image(m, x)
    return image if ok else INFINITY


# ---------------------------------------------------------------------------
# multiplication and inversion
# ---------------------------------------------------------------------------

def test_defining_relations():
    assert np.array_equal(qmul(QI, QJ), QK)
    assert np.array_equal(qmul(QJ, QK), QI)
    assert np.array_equal(qmul(QK, QI), QJ)
    units = np.array([QI, QJ, QK])
    assert np.array_equal(qmul(units, units), np.broadcast_to(-ONE, (3, 4)))


def test_identity_and_bilinearity():
    q = random_quat()
    assert qnorm(qmul(q, ONE) - q) < 1e-15
    # (1+i)(1+j) expands to 1 + j + i + ij = 1 + i + j + k
    assert np.array_equal(qmul(ONE + QI, ONE + QJ), [1.0, 1.0, 1.0, 1.0])


def test_conjugation_antihomomorphism():
    p, q = RNG.normal(size=(2, 50, 4))
    assert (qnorm(qconj(qmul(p, q)) - qmul(qconj(q), qconj(p))) < 1e-13).all()


def test_inverse_basic():
    assert np.array_equal(qinv(ONE), ONE)
    assert np.array_equal(qinv(QJ), -QJ)
    # (2i)^-1 = conj(2i)/|2i|^2 = -2i/4 = -i/2
    assert qnorm(qinv(2 * QI) - (-0.5) * QI) < 1e-15
    q = RNG.normal(size=(100, 4))
    assert (qnorm(qmul(q, qinv(q)) - ONE) < 4 * np.finfo(float).eps * 8).all()


def test_inverse_near_zero_raises():
    with pytest.raises(NearZeroQuaternion):
        qinv(np.array([1e-13, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# the Cayley-Dickson kernel on stacked pairs
# ---------------------------------------------------------------------------

# signed zeros, infinities, a NaN, subnormals of both signs, normal values
SPECIAL_PARTS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1.0, -3.5])


def _special_pairs(shape, rng):
    """A pair array (2,) + shape whose real and imaginary parts are drawn
    from SPECIAL_PARTS, set part by part so that no product mixes them."""
    x = np.empty((2,) + shape, complex)
    x.real, x.imag = rng.choice(SPECIAL_PARTS, size=(2, 2) + shape)
    return x


def _assert_same_bits(got, want):
    got, want = (np.ascontiguousarray(x).view(float) for x in (got, want))
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("shapes", [
    ((), ()), ((7,), (7,)), ((3, 1, 4), (1, 5, 4)), ((1, 1), (6, 7)), ((6, 7), (1, 1)),
    ((2, 1, 9), (1, 3, 1)), ((2, 40000), (2, 40000)), ((1, 40000), (2, 1))],
    ids=str)
def test_stacked_kernel_equals_tuple_formula(shapes):
    """_cayley_dickson on stacked pairs equals the tuple formula it replaced
    bit for bit, signs of zeros and NaNs included, on broadcast shapes and on
    operands past numpy's temporary-elision size."""
    rng = np.random.default_rng(sum(map(sum, shapes)) + len(shapes[0]))
    x, y = (_special_pairs(shape, rng) for shape in shapes)
    with np.errstate(all="ignore"):
        got = _cayley_dickson(x, y)
        want = np.array(ref.cayley_dickson(x[0], x[1], y[0], y[1]))
    _assert_same_bits(got, want)


def test_stacked_kernel_on_strided_views():
    """Views with reversed and strided node axes, as the marches and qmul pass
    them, give the bits of contiguous copies."""
    rng = np.random.default_rng(23)
    x, y = _special_pairs((5, 8), rng), _special_pairs((5, 16), rng)
    with np.errstate(all="ignore"):
        for a, b in ((x[:, ::-1], y[:, :, ::2]),
                     (x.transpose(0, 2, 1), y[:, :, 8:].transpose(0, 2, 1))):
            want = np.array(ref.cayley_dickson(*np.ascontiguousarray(a),
                                               *np.ascontiguousarray(b)))
            _assert_same_bits(_cayley_dickson(a, b), want)


# ---------------------------------------------------------------------------
# Study determinant
# ---------------------------------------------------------------------------

def _complex_rep_oracle(m):
    """Independent 4x4 complex embedding (entrywise 2x2 blocks) of a
    (2, 2, 4) matrix."""
    out = np.zeros((4, 4), dtype=complex)
    for r, c in np.ndindex(2, 2):
        w, x, y, z = m[r, c]
        alpha = complex(w, x)
        beta = complex(y, z)
        block = np.array([[alpha, beta], [-beta.conjugate(), alpha.conjugate()]])
        out[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = block
    return out


def _reorder_oracle(m):
    """Block layout used by the package groups rows/cols by half; permute."""
    perm = [0, 2, 1, 3]
    return m[np.ix_(perm, perm)]


def qm2_close(got, a, b, scale=2e-15):
    """Each entry (r, c) of got is the Hamilton reference product to within
    scale * |A_r| |B_c|, the norms of row r of a and column c of b (floored
    where that product underflows)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rows = np.sqrt((a ** 2).sum(axis=(-2, -1)))
    cols = np.sqrt((b ** 2).sum(axis=(-3, -1)))
    bound = scale * rows[..., :, None] * cols[..., None, :] + np.finfo(float).tiny
    assert (np.abs(got - ref.qm2_mul(a, b)).max(axis=-1) <= bound).all()


def _qm2_equal(a, b):
    """qm2_mul equals qmul(a[r, 0], b[0, c]) + qmul(a[r, 1], b[1, c]) bit for
    bit, and the Hamilton reference to rounding."""
    a, b = np.asarray(a), np.asarray(b)
    got = qm2_mul(a, b)
    want = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for r in range(2):
        for c in range(2):
            want[..., r, c, :] = (qmul(a[..., r, 0, :], b[..., 0, c, :])
                                  + qmul(a[..., r, 1, :], b[..., 1, c, :]))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    qm2_close(got, a, b)


@pytest.mark.parametrize("lead", [(), (0,), (4095,), (4096,), (4097,), (129, 129),
                                  (257, 257)])
def test_qm2_mul_blocks_bit_identical(lead):
    """The blocked kernel equals the entrywise product bit for bit on shapes
    inside, at and across the block edge, with a single-matrix operand on
    either side."""
    rng = np.random.default_rng(len(lead) + sum(lead))
    a, b = rng.normal(size=(2,) + lead + (2, 2, 4))
    _qm2_equal(a, b)
    single = rng.normal(size=(2, 2, 4))
    _qm2_equal(single, b)
    _qm2_equal(a, single)


def test_qm2_mul_broadcast_and_strided_bit_identical():
    rng = np.random.default_rng(7)
    _qm2_equal(rng.normal(size=(3, 1, 2, 2, 4)), rng.normal(size=(1, 5, 2, 2, 4)))
    x, y = rng.normal(size=(2, 65, 65, 2, 2, 4))
    _qm2_equal(np.swapaxes(x, 0, 1), y)
    _qm2_equal(y, np.swapaxes(x, 0, 1))
    _qm2_equal(x[::2], y[::2])
    ints = rng.integers(-9, 10, size=(2, 4097, 2, 2, 4))
    _qm2_equal(ints[0], ints[1])
    _qm2_equal(ints[0], y.reshape(-1, 2, 2, 4)[:4097])


def test_study_det_examples():
    assert abs(study_det_array(qm2_identity()) - 1.0) < 1e-14
    q = random_quat()
    m = matrix(q, ZERO, ZERO, ONE)
    expected = np.linalg.det(_reorder_oracle(_complex_rep_oracle(m))).real
    assert abs(expected - qnormsq(q)) < 1e-10 * max(1, qnormsq(q))
    assert abs(study_det_array(m) - expected) < 1e-10 * max(1.0, abs(expected))
    swap = matrix(ZERO, ONE, ONE, ZERO)
    assert abs(study_det_array(swap) - 1.0) < 1e-14


def test_study_det_multiplicative():
    a, b = RNG.normal(size=(2, 1000, 2, 2, 4))
    lhs = study_det_array(qm2_mul(a, b))
    rhs = study_det_array(a) * study_det_array(b)
    assert (np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))).max() < 1e-10


def test_matrix_right_module_compatibility():
    m, n = RNG.normal(size=(2, 2, 2, 4))
    v = RNG.normal(size=(2, 4))
    lam = random_quat()
    mn_v = qm2_matvec(qm2_mul(m, n), v)
    m_nv = qm2_matvec(m, qm2_matvec(n, v))
    assert qnorm(mn_v - m_nv).sum() < 1e-12
    lhs = qm2_matvec(m, qmul(v, lam))
    rhs = qmul(qm2_matvec(m, v), lam)
    assert qnorm(lhs - rhs).sum() < 1e-12


def test_matrix_inverse():
    m = RNG.normal(size=(2, 2, 4))
    prod = qm2_mul(m, qm2_inv(m))
    assert np.abs(prod - qm2_identity()).max() < 1e-12


# ---------------------------------------------------------------------------
# hermitian forms and the Lorentz product
# ---------------------------------------------------------------------------

def test_herm_apply_imaginary_points_on_sphere():
    s3 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    for _ in range(20):
        h = column(random_imag(), ONE)
        assert qnorm(herm_apply(s3, h, h)) < 1e-13  # conj(h) + h = 0


def test_herm_apply_incidence_and_unit():
    p = random_imag()
    u = column(p, ONE)
    assert qnorm(herm_apply(point_form(p), u, u)) < 1e-13
    s_id = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    e1 = column(ONE, ZERO)
    assert qnorm(herm_apply(s_id, e1, e1) - ONE) < 1e-15


def test_herm_apply_hermiticity_random():
    s = random_forms(100)
    u, v = RNG.normal(size=(2, 100, 2, 4))
    a = herm_apply(s, u, v)
    b = herm_apply(s, v, u)
    assert (qnorm(a - qconj(b)) < 1e-12).all()


def test_lorentz_signature_values():
    s3 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    assert abs(lorentz(s3, s3) - 1.0) < 1e-15
    s_id = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert abs(lorentz(s_id, s_id) + 1.0) < 1e-15
    s = point_form(random_imag())
    assert abs(lorentz(s, s)) < 1e-13


def test_point_form_examples():
    assert point_form(np.zeros(4)).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    s = point_form(QI)
    assert s.tolist() == [1.0, 1.0, 0.0, -1.0, 0.0, 0.0]
    assert abs(lorentz(s, s)) < 1e-15
    assert point_form(INFINITY).tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(PNotImaginary):
        point_form(np.array([0.5, 1.0, 0.0, 0.0]))
    with pytest.raises(PNotImaginary):  # one point of a batch is enough
        point_form(np.array([QI, [1e-3, 0.0, 1.0, 0.0]]))


def test_point_form_random_lightlike():
    p = np.zeros((1000, 4))
    p[:, 1:] = RNG.normal(size=(1000, 3))
    s = point_form(p)
    scale = np.maximum(1.0, qnormsq(p))
    assert (np.abs(lorentz(s, s)) < 1e-11 * scale ** 2).all()
    u = np.stack([p, np.broadcast_to(ONE, p.shape)], axis=-2)
    assert (qnorm(herm_apply(s, u, u)) < 1e-11 * scale).all()


# ---------------------------------------------------------------------------
# Moebius action
# ---------------------------------------------------------------------------

def test_moebius_act_identity_and_translation():
    s = random_forms(1)[0]
    out = moebius_act(qm2_identity(), s)
    assert np.abs(out - s).max() < 1e-14
    m = random_imag()
    out = moebius_act(matrix(ONE, m, ZERO, ONE), point_form(np.zeros(4)))
    target = point_form(m)
    scale = out[0] / target[0]
    assert np.abs(out - scale * target).max() < 1e-12


def test_moebius_act_singular_raises():
    m = RNG.normal(size=(3, 2, 2, 4))
    m[1, 1] = m[1, 0]  # equal columns: no inverse at node 1
    with pytest.raises(SingularMatrix) as info:
        moebius_act(m, random_forms(1)[0])
    assert info.value.node == (1,)


def _unit_det_matrix():
    a = RNG.normal(size=(2, 2, 4))
    return a / study_det_array(a) ** 0.25


def _unit_det_matrices(n):
    a = RNG.normal(size=(n, 2, 2, 4))
    return a / study_det_array(a)[:, None, None, None] ** 0.25


def test_moebius_act_isometry():
    m = _unit_det_matrices(100)
    s, t = random_forms(100), random_forms(100)
    assert (np.abs(lorentz(moebius_act(m, s), moebius_act(m, t)) - lorentz(s, t)) < 1e-9).all()


def test_moebius_act_preserves_cone():
    p = np.zeros((50, 4))
    p[:, 1:] = RNG.normal(size=(50, 3))
    out = moebius_act(_unit_det_matrices(50), point_form(p))
    assert (np.abs(lorentz(out, out)) < 1e-9).all()


# ---------------------------------------------------------------------------
# cross-ratio classes
# ---------------------------------------------------------------------------

def test_cross_ratio_square():
    # unit square in span{1, i}: (a-b)(b-c)^-1 (c-d)(d-a)^-1 = -1,
    # matching the complex cross-ratio of the harmonic quadruple
    re, nm = cross_ratio_class_array(ZERO, ONE, ONE + QI, QI)
    assert abs(re + 1.0) < 1e-14
    assert abs(nm - 1.0) < 1e-14


def test_cross_ratio_translation_invariance():
    pts = [random_imag() for _ in range(4)]
    m = random_imag()
    a = cross_ratio_class_array(*pts)
    b = cross_ratio_class_array(*[p + m for p in pts])
    assert abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12


def test_cross_ratio_inversion_invariance():
    for _ in range(20):
        pts = [random_imag() for _ in range(4)]
        m = random_imag()
        inv = inversion(m)
        try:
            a = cross_ratio_class_array(*pts)
            b = cross_ratio_class_array(*[moebius_point(inv, p) for p in pts])
        except DegenerateQuadruple:
            continue
        assert abs(a[0] - b[0]) < 1e-10 * max(1, abs(a[0]))
        assert abs(a[1] - b[1]) < 1e-10 * max(1, a[1])


def test_cross_ratio_unit_det_moebius_invariance():
    stable = 0
    for _ in range(100):
        pts = [random_imag() for _ in range(4)]
        m = _unit_det_matrix()
        try:
            a = cross_ratio_class_array(*pts)
            images = [moebius_point(m, p) for p in pts]
            if any(p is INFINITY for p in images):
                continue
            b = cross_ratio_class_array(*images)
        except DegenerateQuadruple:
            continue
        assert abs(a[0] - b[0]) < 1e-8 * max(1, abs(a[0]))
        assert abs(a[1] - b[1]) < 1e-8 * max(1, a[1])
        stable += 1
    assert stable > 50


def test_cross_ratio_batch_matches_single_quadruples():
    quads = np.zeros((4, 8, 4))
    quads[..., 1:] = RNG.normal(size=(4, 8, 3))
    re, nm = cross_ratio_class_array(*quads)
    assert re.shape == nm.shape == (8,)
    for k in range(8):
        assert (re[k], nm[k]) == cross_ratio_class_array(*quads[:, k])


def test_cross_ratio_degenerate():
    p = random_imag()
    with pytest.raises(DegenerateQuadruple):
        cross_ratio_class_array(p, p, random_imag(), random_imag())
