"""The closed-form inverse and Study determinant against the LAPACK reference.

qm2_inv and study_det_array must reproduce the complex 4x4 representation
path of tests/reference_inverse.py to 1e-13 relative, node by node, on frames
of the reference family at n = 33, 65 and 129 and on well-conditioned random
matrices whose leading shapes lie inside, at and across the block edge; the
inverse must be a two-sided inverse (hypothesis property); and a matrix whose
Study determinant is negligible against its bound must raise SingularMatrix,
naming its node, where LAPACK still inverts it.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from isothermic import GridSpec, SingularMatrix, family_ribaucour_connection
from isothermic.grid import integrate_frame
from isothermic.quaternion import (
    EPS_SINGULAR,
    qm2_identity,
    qm2_inv,
    qm2_mul,
    qm2_norm,
    qmul,
    qnormsq,
    study_det_array,
)

import reference_inverse as ref
from test_properties import PROPERTY, matrices

TOL = 1e-13


def _bound(m):
    """(|a|^2 + |b|^2)(|c|^2 + |d|^2), the bound of the Study determinant."""
    rows = qnormsq(m).sum(axis=-1)
    return rows[..., 0] * rows[..., 1]


def _assert_matches_reference(m):
    inv, want = qm2_inv(m), ref.qm2_inv(m)
    assert inv.shape == want.shape == np.shape(m) and inv.dtype == want.dtype
    assert (qm2_norm(inv - want) <= TOL * qm2_norm(want)).all()
    det, want_det = study_det_array(m), ref.study_det_array(m)
    assert np.shape(det) == np.shape(want_det)
    assert (np.abs(det - want_det) <= TOL * np.abs(want_det)).all()


@pytest.mark.parametrize("n", (33, 65, 129))
def test_frames_match_reference(n):
    grid = GridSpec.square(1.0, n)
    conn = family_ribaucour_connection(grid, 0.7)
    phi_x, phi_y = conn.phi(0.8)
    frame = integrate_frame(phi_x, phi_y, grid, conn.frame0_at_p0(), conn.p0)
    _assert_matches_reference(frame.values)


@pytest.mark.parametrize("lead", [(), (0,), (4095,), (4096,), (4097,), (257, 257)])
def test_well_conditioned_matrices_match_reference(lead):
    # a Gaussian perturbation of 3 I keeps every node well conditioned
    rng = np.random.default_rng(len(lead) + sum(lead))
    m = 3.0 * qm2_identity(lead) + rng.normal(size=lead + (2, 2, 4))
    _assert_matches_reference(m)
    assert np.ndim(study_det_array(m)) == len(lead)


@PROPERTY
@given(matrices)
def test_inverse_is_two_sided(m):
    det = study_det_array(m)
    assume(det > 1e-3 * _bound(m))
    inv = qm2_inv(m)
    scale = qm2_norm(m) * qm2_norm(inv)
    for product in (qm2_mul(inv, m), qm2_mul(m, inv)):
        assert np.abs(product - qm2_identity()).max() <= 1e-14 * scale


def test_exactly_singular_raises():
    with pytest.raises(SingularMatrix):
        qm2_inv(np.zeros((2, 2, 4)))
    repeated_row = np.zeros((2, 2, 4))
    repeated_row[:, 0, 0] = 1.0  # [[1, 0], [1, 0]]
    with pytest.raises(SingularMatrix):
        qm2_inv(repeated_row)
    with pytest.raises(SingularMatrix):
        ref.qm2_inv(repeated_row)


@pytest.mark.parametrize("ratio, singular", [(1e-13, True), (1e-11, False)])
def test_singular_threshold_is_relative(ratio, singular):
    """[[1, 1], [1, 1 + e]] has Study determinant e^2 against a bound of about
    4: at 1e-13 of its bound qm2_inv refuses it, at 1e-11 it inverts it."""
    m = np.zeros((2, 2, 4))
    m[..., 0] = 1.0
    m[1, 1, 0] += np.sqrt(4.0 * ratio)
    assert 0.9 * ratio < study_det_array(m) / _bound(m) < 1.1 * ratio
    if singular:
        with pytest.raises(SingularMatrix):
            qm2_inv(m)
    else:
        assert np.abs(qm2_mul(qm2_inv(m), m) - qm2_identity()).max() < 1e-4


def test_near_singular_raises_at_relative_threshold():
    rng = np.random.default_rng(11)
    a, b, q = rng.normal(size=(3, 4))
    m = np.empty((2, 2, 4))
    m[0] = a, b
    m[1] = qmul(q, a), qmul(q, b)  # rank one
    assert study_det_array(m) <= 1e-15 * _bound(m)
    m = m + 1e-9 * rng.normal(size=(2, 2, 4))
    assert 0.0 < study_det_array(m) <= EPS_SINGULAR * _bound(m)
    ref.qm2_inv(m)  # LAPACK inverts it
    with pytest.raises(SingularMatrix):
        qm2_inv(m)
    field = 3.0 * qm2_identity((5, 7))
    field[3, 4] = m
    with pytest.raises(SingularMatrix, match=r"at node \(3, 4\)"):
        qm2_inv(field)
