"""Property-based tests of the quaternion algebra and of the array oracles.

Runs are derandomized (a fixed example sequence per test, no example
database), so the suite stays reproducible.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isothermic import cross_ratio_class_array
from isothermic import oracles as oc
from isothermic.quaternion import (
    _cayley_dickson,
    from_imag3,
    qconj,
    qm2_matvec,
    qm2_mul,
    qm2_norm,
    qmul,
    qnorm,
    study_det_array,
)

import reference_march as ref
from conftest import moebius_image
from test_quaternion import qm2_close
from test_oracle_equivalence import LAMBDAS, ORACLES, as_array, oracle_args, scalar_values

PROPERTY = settings(derandomize=True, database=None, deadline=None)


def _floats(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


quaternions = st.lists(_floats(10.0), min_size=4, max_size=4).map(np.array)
matrices = st.lists(_floats(2.0), min_size=16, max_size=16).map(
    lambda v: np.reshape(v, (2, 2, 4)))


@PROPERTY
@given(st.lists(quaternions, min_size=1, max_size=6), quaternions)
def test_qmul_equals_reference_formula(ps, q):
    # the pair form sums the four real products of each component in another
    # order than the Hamilton formula, so the two agree to rounding, batched
    # too; the floor keeps the bound meaningful where |a||b| underflows
    p = np.array(ps)
    for a, b in ((p, q), (q, p), (q, q), (p.astype(int), q.astype(int))):
        got = qmul(a, b)
        assert got.shape == np.broadcast_shapes(a.shape, b.shape) and got.dtype == float
        bound = 1e-15 * qnorm(a) * qnorm(b) + np.finfo(float).tiny
        assert (np.abs(got - ref.qmul(a, b)).max(axis=-1) <= bound).all()


def _pairs(a):
    """Components (..., 4) as the complex pair (alpha, beta) of a = alpha + beta j,
    built by complex arithmetic rather than by a view of the float memory."""
    a = np.asarray(a, dtype=float)
    return a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]


@PROPERTY
@given(st.lists(quaternions, min_size=1, max_size=6), quaternions)
def test_pair_product_equals_qmul(ps, q):
    # qmul runs the pair product on a complex view of its operands; on pairs
    # assembled by hand, stacked at one rank, the same product gives the same
    # bits, for operands whose last axis is strided (Fortran order) or
    # integer too
    p = np.array(ps)
    for a, b in ((p, q), (q, p), (np.asfortranarray(p), q), (p.astype(int), q.astype(int))):
        x, y = (np.stack(_pairs(v)) for v in np.broadcast_arrays(a, b))
        alpha, beta = _cayley_dickson(x, y)
        want = np.stack((alpha.real, alpha.imag, beta.real, beta.imag), axis=-1)
        assert np.array_equal(qmul(a, b), want)


@PROPERTY
@given(st.lists(matrices, min_size=1, max_size=4), matrices)
def test_qm2_products_equal_reference_formula(ms, b):
    # entry (r, c) within 2e-15 |A_r||B_c| of the reference, entry r of a
    # matrix-vector product within 2e-15 |A_r||v|
    a = np.array(ms)
    qm2_close(qm2_mul(a, b), a, b)
    qm2_close(qm2_mul(b, a), b, a)
    v = b[:, 0]
    bound = 2e-15 * np.sqrt((a ** 2).sum(axis=(-2, -1))) * np.sqrt((v ** 2).sum())
    err = np.abs(qm2_matvec(a, v) - ref.qm2_matvec(a, v)).max(axis=-1)
    assert (err <= bound + np.finfo(float).tiny).all()


@PROPERTY
@given(quaternions, quaternions, quaternions)
def test_qmul_associative(p, q, r):
    scale = 1.0 + qnorm(p) * qnorm(q) * qnorm(r)
    assert np.abs(qmul(qmul(p, q), r) - qmul(p, qmul(q, r))).max() <= 1e-13 * scale


@PROPERTY
@given(quaternions, quaternions)
def test_norm_multiplicative(p, q):
    scale = 1.0 + qnorm(p) * qnorm(q)
    assert abs(qnorm(qmul(p, q)) - qnorm(p) * qnorm(q)) <= 1e-13 * scale


@PROPERTY
@given(quaternions, quaternions)
def test_conjugation_is_an_anti_automorphism(p, q):
    scale = 1.0 + qnorm(p) * qnorm(q)
    assert np.abs(qconj(qmul(p, q)) - qmul(qconj(q), qconj(p))).max() <= 1e-13 * scale


@PROPERTY
@given(matrices, matrices)
def test_study_determinant_multiplicative(a, b):
    # the Study determinant is of degree 4 in the entries
    scale = 1.0 + (qm2_norm(a) * qm2_norm(b)) ** 4
    got = study_det_array(qm2_mul(a, b))
    assert abs(got - study_det_array(a) * study_det_array(b)) <= 1e-12 * scale


@PROPERTY
@given(_floats(1.0), _floats(1.0), st.sampled_from(LAMBDAS), st.sampled_from(ORACLES))
def test_array_oracle_matches_scalar_at_random_points(x, y, lam, name):
    # |lam| <= 1 on [-1, 1]^2 keeps sqrt(lam) z outside the pole margin
    z = complex(x, y)
    got = as_array(getattr(oc, name)(z, *oracle_args(name, lam)))
    want = scalar_values(name, [z], lam)[0]
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, float(np.abs(want).max()))


points = st.lists(_floats(1.0), min_size=3, max_size=3).map(from_imag3)


@PROPERTY
@given(matrices, st.lists(points, min_size=4, max_size=4))
def test_cross_ratio_class_moebius_invariant(m, quad):
    # a Moebius map with unit Study determinant and the four points kept
    # apart from each other and from its pole, so both sides are well posed
    det = study_det_array(m)
    assume(det > 1e-2)
    m = m / det**0.25
    quad = np.array(quad)
    assume(min(qnorm(p - q) for i, p in enumerate(quad) for q in quad[:i]) > 0.2)
    assume(qnorm(qmul(m[1, 0], quad) + m[1, 1]).min() > 0.2)
    before = np.array(cross_ratio_class_array(*quad)[:2])
    after = np.array(cross_ratio_class_array(*moebius_image(m, quad)[0])[:2])
    assert np.abs(after - before).max() <= 1e-11 * (1.0 + np.abs(before).max())
