"""Property-based tests of the quaternion algebra and of the array oracles.

Runs are derandomized (a fixed example sequence per test, no example
database), so the suite stays reproducible.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isothermic import MoebiusMap, QMatrix2, Quaternion, cross_ratio_class
from isothermic import oracles as oc
from isothermic.quaternion import (
    _cayley_dickson,
    qconj,
    qm2_matvec,
    qm2_mul,
    qm2_norm,
    qmul,
    qnorm,
    study_det_array,
)

import reference_march as ref
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
    # same component formula in the same order: equal bit for bit, batched too
    p = np.array(ps)
    assert np.array_equal(qmul(p, q), ref.qmul(p, q))
    assert np.array_equal(qmul(q, p), ref.qmul(q, p))


@PROPERTY
@given(st.lists(matrices, min_size=1, max_size=4), matrices)
def test_qm2_products_equal_reference_formula(ms, b):
    a = np.array(ms)
    assert np.array_equal(qm2_mul(a, b), ref.qm2_mul(a, b))
    assert np.array_equal(qm2_mul(b, a), ref.qm2_mul(b, a))
    assert np.array_equal(qm2_matvec(a, b[:, 0]), ref.qm2_matvec(a, b[:, 0]))


def _pairs(a):
    """Components (..., 4) as the complex pair (alpha, beta) of a = alpha + beta j."""
    return np.moveaxis(np.ascontiguousarray(a).view(complex), -1, 0)


@PROPERTY
@given(st.lists(quaternions, min_size=1, max_size=6), quaternions)
def test_pair_product_equals_qmul(ps, q):
    # the same four real products per component, summed in another order;
    # the floor keeps the bound meaningful where |a||b| underflows
    p = np.array(ps)
    for a, b in ((p, q), (q, p)):
        got = np.stack(_cayley_dickson(*_pairs(a), *_pairs(b)), axis=-1).view(float)
        bound = 1e-15 * qnorm(a) * qnorm(b) + np.finfo(float).tiny
        assert (np.abs(got - qmul(a, b)).max(axis=-1) <= bound).all()


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


points = st.lists(_floats(1.0), min_size=3, max_size=3).map(Quaternion.from_imag)


@PROPERTY
@given(matrices, st.lists(points, min_size=4, max_size=4))
def test_cross_ratio_class_moebius_invariant(m, quad):
    # a Moebius map with unit Study determinant and the four points kept
    # apart from each other and from its pole, so both sides are well posed
    det = study_det_array(m)
    assume(det > 1e-2)
    m = m / det**0.25
    mob = MoebiusMap(QMatrix2.from_array(m))
    assume(min((p - q).norm() for i, p in enumerate(quad) for q in quad[:i]) > 0.2)
    den = [mob.matrix.c * p + mob.matrix.d for p in quad]
    assume(min(d.norm() for d in den) > 0.2)
    before = np.array(cross_ratio_class(*quad))
    after = np.array(cross_ratio_class(*[mob(p) for p in quad]))
    assert np.abs(after - before).max() <= 1e-11 * (1.0 + np.abs(before).max())
