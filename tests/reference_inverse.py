"""Reference inverse and Study determinant of 2x2 quaternionic matrices.

This is the LAPACK path the package used before ``qm2_inv`` and
``study_det_array`` became closed forms on complex pair planes: every node
is mapped to its complex 4x4 representation, which ``np.linalg.inv`` and
``np.linalg.det`` then invert and reduce.  It is kept here, unchanged, as
the independent reference the closed forms are tested against
(tests/test_inverse_equivalence.py).  Only exact singularity makes LAPACK
raise; the package's relative threshold is not part of it.
"""

from __future__ import annotations

import numpy as np

from isothermic.errors import SingularMatrix


# quaternion <-> complex 2x2 representation: q = alpha + beta j with
# alpha = w + xi, beta = y + zi maps to [[alpha, beta], [-conj(beta), conj(alpha)]]

def _complex_parts(a):
    a = np.asarray(a)
    return a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]


def qm2_complex_rep(m):
    """Complex 4x4 representation of 2x2 quaternionic matrices (..., 2, 2, 4)."""
    m = np.asarray(m, dtype=float)
    alpha, beta = _complex_parts(m)
    out = np.empty(m.shape[:-3] + (4, 4), dtype=complex)
    out[..., 0:2, 0:2] = alpha
    out[..., 0:2, 2:4] = beta
    out[..., 2:4, 0:2] = -np.conj(beta)
    out[..., 2:4, 2:4] = np.conj(alpha)
    return out


def qm2_from_complex_rep(c):
    """Back-map from the complex representation (top blocks only)."""
    alpha = c[..., 0:2, 0:2]
    beta = c[..., 0:2, 2:4]
    out = np.empty(alpha.shape + (4,))
    out[..., 0] = alpha.real
    out[..., 1] = alpha.imag
    out[..., 2] = beta.real
    out[..., 3] = beta.imag
    return out


def qm2_inv(m):
    """Batched inverse of (..., 2, 2, 4) quaternionic matrices."""
    rep = qm2_complex_rep(m)
    try:
        inv = np.linalg.inv(rep)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from None
    return qm2_from_complex_rep(inv)


def study_det_array(m):
    """Study determinant of (..., 2, 2, 4) matrices (real, nonnegative)."""
    d = np.linalg.det(qm2_complex_rep(m))
    return d.real
