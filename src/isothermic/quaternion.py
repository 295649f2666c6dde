"""Quaternion algebra, 2x2 quaternionic matrices, and hermitian forms.

Conventions, fixed once for the whole package:

* basis (1, i, j, k) with ij = k (right-handed); i^2 = j^2 = k^2 = -1,
* the complex numbers sit inside H as span{1, i},
* Euclidean 3-space is Im H = span{i, j, k},
* H^2 is a *right* module: matrices act from the left, scalars from the
  right, and homogeneous coordinates (v1, v2) represent the affine point
  v1 * v2^-1.

Float arrays are the only representation: a trailing axis of length 4 holds
quaternion components in the order (w, x, y, z), trailing axes (2, 2, 4) a
2x2 quaternionic matrix, and a trailing axis of length 6 a hermitian form;
all helpers broadcast over leading axes.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NearZeroQuaternion,
    PNotImaginary,
    SingularMatrix,
)

EPS_INV = 1e-12

#: qm2_inv treats [[a, b], [c, d]] as singular where its Study determinant is
#: at most this fraction of its bound (|a|^2 + |b|^2)(|c|^2 + |d|^2)
EPS_SINGULAR = 1e-12

#: nodes per block of the whole-grid qm2_mul
_QM2_BLOCK = 4096


# ---------------------------------------------------------------------------
# vectorized component-level helpers
# ---------------------------------------------------------------------------

def qmul(a, b):
    """Hamilton product of component arrays, broadcasting over leading axes.

    Computed on the complex pairs (w + xi, y + zi) that a float (..., 4) array
    is when viewed as complex; integer operands come back as float.
    """
    a, b = _pairs(a), _pairs(b)
    ndim = max(a.ndim, b.ndim)
    # reversed-axes views (2, ...), padded to one rank so that they broadcast
    a, b = (x.reshape((1,) * (ndim - x.ndim) + x.shape).T for x in (a, b))
    return np.ascontiguousarray(_cayley_dickson(a, b).T).view(float)


def qconj(a):
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def _dot(a, b, first):
    """np.sum(a[..., first:] * b[..., first:], axis=-1), bit for bit, for a
    last axis of fewer than first + 8 entries, without numpy's reduction
    machinery, which is slow on so short an axis.  numpy adds so few terms
    one by one, left to right, starting from +0.0.  Here the products are
    added in that order and their sum then to the integer 0, so that a sum
    of -0.0 reads +0.0 and integer input stays integer."""
    out = a[..., first] * b[..., first]
    for c in range(first + 1, a.shape[-1]):
        out += a[..., c] * b[..., c]
    out += 0
    return out


def qnormsq(a):
    a = np.asarray(a, dtype=float)
    return _dot(a, a, 0)


def qnorm(a):
    return np.sqrt(qnormsq(a))


def qinv(a, eps=EPS_INV):
    """Inverse conj(a)/|a|^2; raises NearZeroQuaternion below the threshold."""
    n2 = qnormsq(a)
    if np.any(n2 < eps * eps):
        bad = np.argwhere(n2 < eps * eps)
        node = tuple(bad[0]) if bad.size else None
        raise NearZeroQuaternion(f"quaternion norm below {eps}", node=node)
    return qconj(a) / n2[..., None]


def qinv_masked(a, eps=EPS_INV):
    """Inverse with a validity mask instead of an exception.

    Near-zero entries yield zero and mask False.
    """
    n2 = qnormsq(a)
    ok = n2 >= eps * eps
    safe = np.where(ok, n2, 1.0)
    return qconj(a) / safe[..., None], ok


def from_complex(c):
    """Embed complex arrays into span{1, i}."""
    c = np.asarray(c)
    out = np.zeros(c.shape + (4,))
    out[..., 0] = c.real
    out[..., 1] = c.imag
    return out


def cj(c):
    """The value c*j for complex c; components (0, 0, Re c, Im c)."""
    c = np.asarray(c)
    out = np.zeros(c.shape + (4,))
    out[..., 2] = c.real
    out[..., 3] = c.imag
    return out


def imag3(a):
    """The (i, j, k) component triple as a (..., 3) array."""
    return np.asarray(a)[..., 1:]


def from_imag3(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (4,))
    out[..., 1:] = v
    return out


def dot3(a, b):
    """Euclidean inner product of the imaginary parts."""
    return _dot(np.asarray(a), np.asarray(b), 1)


def cross3(a, b):
    """Cross product of imaginary parts, returned as imaginary quaternions.

    Orientation matches the algebra: cross(i, j) = k.
    """
    return from_imag3(np.cross(imag3(a), imag3(b)))


# q = alpha + beta j (alpha = w + xi, beta = y + zi) as complex pair arrays: alpha
# at [0] and beta at [1], then any matrix axes, then the nodes last, so that
# each (alpha or beta) entry is one contiguous plane over the nodes

def _cayley_dickson(x, y):
    """Product (a1 + b1 j)(a2 + b2 j) of the pair arrays x = (a1, b1) and
    y = (a2, b2), of equal rank and broadcasting after their first axis.

    Returns the pair (a1 a2 - conj(b2) b1, a1 b2 + conj(a2) b1); the one
    place the product is written down.  Both halves of y are multiplied at
    once, so that the four complex products take two ufunc calls.  The
    conjugate temporary stands on the left: numpy may reuse a large
    right-hand temporary as the output and swap the operands, and its fused
    complex multiply is not commutative bit for bit.
    """
    p = x[0] * y
    q = np.conj(y[::-1]) * x[1]
    p[0] -= q[0]
    p[1] += q[1]
    return p


def _pair_conj(x):
    """Conjugate (conj(alpha), -beta) of the quaternions of a pair array."""
    return np.array((np.conj(x[0]), -x[1]))


def _pair_entry(x, r, c, k):
    """Component k (of w, x, y, z) of entry (r, c) of the matrices held as the
    pair array x (2, 2, 2, ...)."""
    half = x[k // 2, r, c]
    return half.imag if k % 2 else half.real


def _pair_floats(x):
    """The float view (..., n, 2) of a pair array x (..., n) whose last axis
    is contiguous: the real and imaginary parts of its entries last."""
    return x.view(float).reshape(x.shape + (2,))


def _pairs(x):
    """Float (..., 4) components as the complex (..., 2) array (alpha, beta),
    a view wherever the last axis is contiguous."""
    x = np.asarray(x, dtype=float)
    if x.strides[-1] != x.itemsize:
        x = x.copy()
    return x.view(complex)


def _pair_planes(p, ndim):
    """Real (..., <ndim matrix axes>, 4) components as a contiguous complex
    pair array (2, <matrix axes>, ...)."""
    p = np.asarray(p, dtype=float)
    lead = p.ndim - 1 - ndim
    out = np.empty((2,) + p.shape[lead:-1] + p.shape[:lead], complex)
    _put_planes(out, p, ndim)
    return out


def _put_planes(out, p, ndim):
    """Write real (..., <ndim matrix axes>, 4) components p into the pair
    array out (2, <matrix axes>, ...), which may be a view of a larger one."""
    lead = p.ndim - 1 - ndim
    comp = p.transpose((p.ndim - 1, *range(lead, p.ndim - 1), *range(lead)))
    out.real[0], out.imag[0], out.real[1], out.imag[1] = comp


def _pair_view(x):
    """Real components x (n, ..., 4), contiguous along the last axis, viewed
    as the pair array (2, ..., n) of their n nodes."""
    c = x.view(complex)
    return c.transpose(c.ndim - 1, *range(1, c.ndim - 1), 0)


def _pair_matmul(x, y):
    """Product of quaternionic matrices held as pair arrays (2, r, 2, ...)
    and (2, 2, c, ...): entrywise Cayley-Dickson products summed over the
    inner index k, as in the product of the representations
    [[A, B], [-conj(B), conj(A)]]."""
    p, q = (_cayley_dickson(x[:, :, k, None], y[:, None, k]) for k in range(2))
    p += q
    return p


def _qm2_blocks(x, lead):
    """Reader of x broadcast to lead + (2, 2, 4) as pair planes.

    block(start, stop) returns the nodes start..stop-1 as a (2, 2, 2, m) pair
    array.  A single matrix is its (2, 2, 2, 1) planes for every block; a
    broadcast or strided operand is gathered one block at a time, so no
    whole-grid copy is made.
    """
    if x.size == 16:
        single = _pair_planes(x.reshape(1, 2, 2, 4), 2)
        return lambda start, stop: single
    if x.shape[:-3] == lead and x.flags.c_contiguous:
        rows = x.reshape(-1, 2, 2, 4)
        return lambda start, stop: _pair_planes(rows[start:stop], 2)
    full = np.broadcast_to(x, lead + (2, 2, 4))
    return lambda start, stop: _pair_planes(
        full[np.unravel_index(np.arange(start, stop), lead)], 2)


def qm2_mul(a, b):
    """Product of (..., 2, 2, 4) quaternionic matrices.

    Entry (r, c) is qmul(a[r, 0], b[0, c]) + qmul(a[r, 1], b[1, c]), computed
    in blocks of _QM2_BLOCK nodes on contiguous pair planes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape)
    lead = shape[:-3]
    read_a, read_b = (_qm2_blocks(x, lead) for x in (a, b))
    out = np.empty(shape)
    rows = out.reshape(-1, 2, 2, 4)
    for start in range(0, len(rows), _QM2_BLOCK):
        stop = min(start + _QM2_BLOCK, len(rows))
        _pair_view(rows[start:stop])[...] = _pair_matmul(read_a(start, stop),
                                                        read_b(start, stop))
    return out


def qm2_matvec(m, v):
    """Apply (..., 2, 2, 4) matrices to (..., 2, 4) column vectors."""
    p = qmul(m, np.asarray(v)[..., None, :, :])  # p[r, c] = m[r, c] v[c]
    return p[..., 0, :] + p[..., 1, :]


def _study_planes(x, inverse, node):
    """Study determinants D of the matrices M = [[a, b], [c, d]] held as pair
    planes x (2, 2, 2, ...) and, with inverse=True, their inverses as pair
    planes of the same shape, from the closed forms (x' = conj x)
    D = |a|^2 |d|^2 + |b|^2 |c|^2 - 2 Re(a c' d b'),
    M^-1 = [[|d|^2 a' - c' d b', |b|^2 c' - a' b d'],
            [|c|^2 b' - d' c a', |a|^2 d' - b' a c']] / D;
    the one place the inverse is written down.  The inverse raises
    SingularMatrix at the first node, in the order of x's flattened node
    axes, where D is at most EPS_SINGULAR times its bound
    (|a|^2 + |b|^2)(|c|^2 + |d|^2); node(i) names the node of flat index i.
    """
    xc = _pair_conj(x)  # the conjugate entries
    sq = x.real ** 2 + x.imag ** 2
    (na, nb), (nc, nd) = sq[0] + sq[1]
    cd = _cayley_dickson(xc[:, 1, 0], x[:, 1, 1])  # c' d
    cdb = _cayley_dickson(cd, xc[:, 0, 1])
    d = na * nd + nb * nc - 2.0 * _cayley_dickson(x[:, 0, 0], cdb)[0].real
    if not inverse:
        return d, None
    bad = np.flatnonzero(d <= EPS_SINGULAR * (na + nb) * (nc + nd))
    if bad.size:
        raise SingularMatrix(f"singular matrix: Study determinant {d.flat[bad[0]]:.3e} is "
                             f"at most {EPS_SINGULAR:g} of its bound", node=node(bad[0]))
    ab = _cayley_dickson(xc[:, 0, 0], x[:, 0, 1])  # a' b
    out = np.empty(x.shape, complex)
    for (r, c), norm, triple in (
            ((0, 0), nd, cdb),
            ((0, 1), nb, _cayley_dickson(ab, xc[:, 1, 1])),
            ((1, 0), nc, _cayley_dickson(_pair_conj(cd), xc[:, 0, 0])),
            ((1, 1), na, _cayley_dickson(_pair_conj(ab), xc[:, 1, 0]))):
        out[:, r, c] = (norm * xc[:, c, r] - triple) / d
    return d, out


def _study(m, inverse):
    """Study determinants of (..., 2, 2, 4) matrices and, with inverse=True,
    their inverses, by _study_planes in blocks of _QM2_BLOCK nodes."""
    m = np.asarray(m, dtype=float)
    lead = m.shape[:-3]
    rows = m.reshape(-1, 2, 2, 4)
    det = np.empty(len(rows))
    out = np.empty(rows.shape) if inverse else None
    for start in range(0, len(rows), _QM2_BLOCK):
        block = slice(start, start + _QM2_BLOCK)
        det[block], inv = _study_planes(
            _pair_planes(rows[block], 2), inverse,
            lambda i: tuple(int(k) for k in np.unravel_index(start + i, lead)) or None)
        if inverse:
            _pair_view(out[block])[...] = inv
    return det.reshape(lead), None if out is None else out.reshape(m.shape)


def qm2_inv(m):
    """Batched inverse of (..., 2, 2, 4) quaternionic matrices."""
    return _study(m, True)[1]


def qm2_identity(shape=()):
    out = np.zeros(shape + (2, 2, 4))
    out[..., 0, 0, 0] = 1.0
    out[..., 1, 1, 0] = 1.0
    return out


def qm2_norm(m):
    """Frobenius-type norm over the eight quaternion entries."""
    return np.sqrt(np.sum(np.asarray(m) ** 2, axis=(-1, -2, -3)))


def study_det_array(m):
    """Study determinant of (..., 2, 2, 4) matrices (real, nonnegative)."""
    return _study(m, False)[0][()]


#: marker for the point at infinity of Im H (the homogeneous line (1, 0)).
INFINITY = "inf"


# ---------------------------------------------------------------------------
# hermitian forms and the Minkowski model
# ---------------------------------------------------------------------------

# A quaternionic hermitian form s on H^2 is the array (s11, s22, s12.w, s12.x,
# s12.y, s12.z) on a last axis of length 6: s11 and s22 are real and
# s21 = conj(s12) is implied, so hermiticity holds by construction.  The six
# coordinates are a point of the Minkowski model R^(5,1).

def lorentz(s, t):
    """Polarization of <s, s> = |s12|^2 - s11*s22 on (..., 6) forms; signature (5, 1)."""
    return _dot(s, t, 2) - 0.5 * (s[..., 0] * t[..., 1] + s[..., 1] * t[..., 0])


def herm_apply(s, u, v):
    """Evaluate the (..., 6) forms s on (..., 2, 4) column vectors u, v of H^2."""
    s12 = s[..., 2:]
    u1c = qconj(u[..., 0, :])
    u2c = qconj(u[..., 1, :])
    out = s[..., 0, None] * qmul(u1c, v[..., 0, :]) + s[..., 1, None] * qmul(u2c, v[..., 1, :])
    out = out + qmul(u1c, qmul(s12, v[..., 1, :]))
    out = out + qmul(u2c, qmul(qconj(s12), v[..., 0, :]))
    return out


def moebius_act(m, s):
    """Push (..., 6) forms along (..., 2, 2, 4) Moebius matrices: s(M^-1 ., M^-1 .).

    Raises SingularMatrix where qm2_inv does.
    """
    n = qm2_inv(m)
    col1 = n[..., :, 0, :]
    col2 = n[..., :, 1, :]
    return np.concatenate([herm_apply(s, col1, col1)[..., :1], herm_apply(s, col2, col2)[..., :1],
                           herm_apply(s, col1, col2)], axis=-1)


def point_form(p):
    """Lightlike (..., 6) forms of (..., 4) points p of Im H, or of INFINITY.

    Finite p gives s(u, v) = conj(u1 - p u2)(v1 - p v2); the null cone is
    exactly the homogeneous line of p.
    """
    if p is INFINITY:
        return np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    p = np.asarray(p, dtype=float)
    real = np.abs(p[..., 0]) > 1e-10 * np.maximum(1.0, qnorm(p))
    if np.any(real):
        raise PNotImaginary(f"point has real part {p[..., 0][real].flat[0]}")
    out = np.empty(p.shape[:-1] + (6,))
    out[..., 0] = 1.0
    out[..., 1] = qnormsq(p)
    out[..., 2:] = -p
    return out


def cross_ratio_class_array(a, b, c, d):
    """Moebius-invariant pair (Re r, |r|) of r = (a-b)(b-c)^-1 (c-d)(d-a)^-1
    for (..., 4) points, and the (...) mask of degenerate quadruples.

    The conjugacy class of the quaternionic cross-ratio is determined by the
    real part and the norm; both are invariant under simultaneous fractional
    linear transformations of the four points.  A quadruple is degenerate
    where two cyclically consecutive points are closer than EPS_INV; its
    Re r and |r| mean nothing.  Returns (Re r, |r|, degenerate).
    """
    ab, bc, cd, da = a - b, b - c, c - d, d - a
    degenerate = np.any([qnormsq(x) < EPS_INV * EPS_INV for x in (ab, bc, cd, da)], axis=0)
    with np.errstate(all="ignore"):  # 1/0 and 0/0 at degenerate quadruples
        r = qmul(qmul(ab, qinv(bc, 0.0)), qmul(cd, qinv(da, 0.0)))
    return r[..., 0], qnorm(r), degenerate
