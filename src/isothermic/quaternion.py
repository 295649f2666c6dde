"""Quaternion algebra, 2x2 quaternionic matrices, and hermitian forms.

Conventions, fixed once for the whole package:

* basis (1, i, j, k) with ij = k (right-handed); i^2 = j^2 = k^2 = -1,
* the complex numbers sit inside H as span{1, i},
* Euclidean 3-space is Im H = span{i, j, k},
* H^2 is a *right* module: matrices act from the left, scalars from the
  right, and homogeneous coordinates (v1, v2) represent the affine point
  v1 * v2^-1.

Arrays with a trailing axis of length 4 hold quaternion components in the
order (w, x, y, z); all array helpers broadcast over leading axes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateQuadruple,
    NearZeroQuaternion,
    PNotImaginary,
    SingularMatrix,
)

EPS_INV = 1e-12

#: nodes per block of the whole-grid qm2_mul
_QM2_BLOCK = 4096


# ---------------------------------------------------------------------------
# vectorized component-level helpers
# ---------------------------------------------------------------------------

def _hamilton(a, b, out):
    """Hamilton product of quaternions held as sequences of 4 component arrays.

    Writes the components of a * b to out[0..3]; the one place the product's
    component formula is written down.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    out[0] = aw * bw - ax * bx - ay * by - az * bz
    out[1] = aw * bx + ax * bw + ay * bz - az * by
    out[2] = aw * by - ax * bz + ay * bw + az * bx
    out[3] = aw * bz + ax * by - ay * bx + az * bw


def qmul(a, b):
    """Hamilton product of component arrays, broadcasting over leading axes."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    _hamilton((a[..., 0], a[..., 1], a[..., 2], a[..., 3]),
              (b[..., 0], b[..., 1], b[..., 2], b[..., 3]),
              out.transpose(-1, *range(out.ndim - 1)))  # row k is out[..., k]
    return out


def qconj(a):
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def qnormsq(a):
    return np.sum(np.asarray(a, dtype=float) ** 2, axis=-1)


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
    return np.sum(imag3(a) * imag3(b), axis=-1)


def cross3(a, b):
    """Cross product of imaginary parts, returned as imaginary quaternions.

    Orientation matches the algebra: cross(i, j) = k.
    """
    return from_imag3(np.cross(imag3(a), imag3(b)))


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


# the same split q = alpha + beta j as complex pair arrays: a pair array holds
# alpha at [0] and beta at [1], then any matrix axes, then the nodes last, so
# that each (alpha or beta) entry is one contiguous plane over the nodes

def _cayley_dickson(a1, b1, a2, b2):
    """Product (a1 + b1 j)(a2 + b2 j) of quaternions held as complex pairs.

    Broadcasts over complex arrays and returns the pair
    (a1 a2 - b1 conj(b2), a1 b2 + b1 conj(a2)); the one place the pair
    product is written down.
    """
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _pair_planes(p, ndim):
    """Real (..., <ndim matrix axes>, 4) components as a contiguous complex
    pair array (2, <matrix axes>, ...)."""
    p = np.asarray(p, dtype=float)
    lead = p.ndim - 1 - ndim
    comp = p.transpose((p.ndim - 1, *range(lead, p.ndim - 1), *range(lead)))
    out = np.empty((2,) + comp.shape[1:], complex)
    out.real[0], out.imag[0], out.real[1], out.imag[1] = comp
    return out


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
    (a0, b0), (a1, b1) = (
        _cayley_dickson(x[0, :, k, None], x[1, :, k, None], y[0, None, k], y[1, None, k])
        for k in range(2))
    return np.array((a0 + a1, b0 + b1))


def _qm2_planes(x, lead, n, size):
    """Reader of x broadcast to lead + (2, 2, 4) as component planes.

    planes(start, stop) returns the nodes start..stop-1 as (2, 2, 4, m)
    planes, plane [r, c, k] holding component k of entry (r, c).  A single
    matrix is its (2, 2, 4, 1) planes for every block; any other operand is
    copied one block at a time into a contiguous buffer of `size` nodes, so
    no whole-grid copy is made.
    """
    if x.size == 16:
        single = x.reshape(2, 2, 4, 1)
        return lambda start, stop: single
    if x.shape[:-3] == lead and x.flags.c_contiguous:
        rows = x.reshape(n, 16)

        def block(start, stop):
            return rows[start:stop]
    else:  # broadcast or strided leading axes: gather the block's nodes
        full = np.broadcast_to(x, lead + (2, 2, 4))

        def block(start, stop):
            return full[np.unravel_index(np.arange(start, stop), lead)].reshape(-1, 16)
    buf = np.empty((16, size), x.dtype)

    def planes(start, stop):
        out = buf[:, :stop - start]
        out[...] = block(start, stop).T
        return out.reshape(2, 2, 4, -1)

    return planes


def qm2_mul(a, b):
    """Product of (..., 2, 2, 4) quaternionic matrices.

    Entry (r, c) is qmul(a[r, 0], b[0, c]) + qmul(a[r, 1], b[1, c]), bit for
    bit, computed in blocks of _QM2_BLOCK nodes on contiguous component
    planes so that every Hamilton product reads unit-stride arrays.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    shape = np.broadcast_shapes(a.shape, b.shape)
    lead = shape[:-3]
    n = math.prod(lead)
    size = min(n, _QM2_BLOCK)
    read_a, read_b = (_qm2_planes(x, lead, n, size) for x in (a, b))
    dtype = np.result_type(a, b)
    second = np.empty((4, size), dtype)
    entries = np.empty((16, size), dtype)
    out = np.empty(shape)
    rows = out.reshape(n, 16)
    for start in range(0, n, _QM2_BLOCK):
        stop = min(start + _QM2_BLOCK, n)
        m = stop - start
        pa, pb = read_a(start, stop), read_b(start, stop)
        ent, sec = entries[:, :m].reshape(2, 2, 4, m), second[:, :m]
        for r in range(2):
            for c in range(2):
                _hamilton(pa[r, 0], pb[0, c], ent[r, c])
                _hamilton(pa[r, 1], pb[1, c], sec)
                ent[r, c] += sec
        rows[start:stop] = entries[:, :m].T
    return out


def qm2_matvec(m, v):
    """Apply (..., 2, 2, 4) matrices to (..., 2, 4) column vectors."""
    p = qmul(m, np.asarray(v)[..., None, :, :])  # p[r, c] = m[r, c] v[c]
    return p[..., 0, :] + p[..., 1, :]


def qm2_inv(m):
    """Batched inverse of (..., 2, 2, 4) quaternionic matrices."""
    rep = qm2_complex_rep(m)
    try:
        inv = np.linalg.inv(rep)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from None
    return qm2_from_complex_rep(inv)


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
    d = np.linalg.det(qm2_complex_rep(m))
    return d.real


# ---------------------------------------------------------------------------
# scalar wrapper classes
# ---------------------------------------------------------------------------

class Quaternion:
    """Immutable scalar quaternion."""

    __slots__ = ("_a",)

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        arr = np.array([w, x, y, z], dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "_a", arr)

    # construction helpers
    @classmethod
    def from_array(cls, a):
        a = np.asarray(a, dtype=float)
        return cls(a[0], a[1], a[2], a[3])

    @classmethod
    def from_complex(cls, c):
        c = complex(c)
        return cls(c.real, c.imag, 0.0, 0.0)

    @classmethod
    def cj(cls, c):
        """The quaternion c*j for complex c (a point of the plane Cj)."""
        c = complex(c)
        return cls(0.0, 0.0, c.real, c.imag)

    @classmethod
    def from_imag(cls, v):
        return cls(0.0, v[0], v[1], v[2])

    @property
    def w(self):
        return float(self._a[0])

    @property
    def x(self):
        return float(self._a[1])

    @property
    def y(self):
        return float(self._a[2])

    @property
    def z(self):
        return float(self._a[3])

    def as_array(self):
        return np.array(self._a)

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    def __repr__(self):
        return "Quaternion({:.12g}, {:.12g}, {:.12g}, {:.12g})".format(*self._a)

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return bool(np.all(self._a == other._a))
        if isinstance(other, (int, float)):
            return self == Quaternion(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._a))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion.from_array(self._a + other._a)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion.from_array(self._a - other._a)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion.from_array(other._a - self._a)

    def __neg__(self):
        return Quaternion.from_array(-self._a)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion.from_array(self._a * other)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion.from_array(qmul(self._a, other._a))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion.from_array(self._a * other)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion.from_array(qmul(other._a, self._a))

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion.from_array(self._a / other)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def conj(self):
        return Quaternion.from_array(qconj(self._a))

    def normsq(self):
        return float(qnormsq(self._a))

    def norm(self):
        return float(qnorm(self._a))

    def inverse(self, eps=EPS_INV):
        return Quaternion.from_array(qinv(self._a, eps=eps))

    def real(self):
        return self.w

    def imag(self):
        return np.array(self._a[1:])

    def is_imaginary(self, tol=1e-12):
        return abs(self.w) <= tol

    def to_complex(self):
        return complex(self.w, self.x)


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    return None


ONE = Quaternion(1.0)
QI = Quaternion(0.0, 1.0, 0.0, 0.0)
QJ = Quaternion(0.0, 0.0, 1.0, 0.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)

#: marker for the point at infinity of Im H (the homogeneous line (1, 0)).
INFINITY = "inf"


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    return a * b


def quat_inv(q: Quaternion, eps=EPS_INV) -> Quaternion:
    return q.inverse(eps=eps)


class QMatrix2:
    """2x2 quaternionic matrix [[a, b], [c, d]] acting on column vectors."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", _as_quat(a))
        object.__setattr__(self, "b", _as_quat(b))
        object.__setattr__(self, "c", _as_quat(c))
        object.__setattr__(self, "d", _as_quat(d))

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix2 is immutable")

    @classmethod
    def identity(cls):
        return cls(ONE, Quaternion(), Quaternion(), ONE)

    @classmethod
    def diag(cls, a, d):
        return cls(a, Quaternion(), Quaternion(), d)

    @classmethod
    def from_array(cls, m):
        return cls(
            Quaternion.from_array(m[0, 0]),
            Quaternion.from_array(m[0, 1]),
            Quaternion.from_array(m[1, 0]),
            Quaternion.from_array(m[1, 1]),
        )

    def as_array(self):
        out = np.empty((2, 2, 4))
        out[0, 0] = self.a.as_array()
        out[0, 1] = self.b.as_array()
        out[1, 0] = self.c.as_array()
        out[1, 1] = self.d.as_array()
        return out

    def __repr__(self):
        return f"QMatrix2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __matmul__(self, other):
        if isinstance(other, QMatrix2):
            return QMatrix2.from_array(qm2_mul(self.as_array(), other.as_array()))
        return NotImplemented

    def matvec(self, v):
        """Apply to a column vector (v1, v2) of quaternions."""
        v1, v2 = _as_quat(v[0]), _as_quat(v[1])
        return (self.a * v1 + self.b * v2, self.c * v1 + self.d * v2)

    def inverse(self):
        return QMatrix2.from_array(qm2_inv(self.as_array()))

    def study_det(self):
        return float(study_det_array(self.as_array()))


def _as_quat(value):
    q = _coerce(value)
    if q is None:
        raise TypeError(f"expected Quaternion, got {type(value).__name__}")
    return q


def study_det(m: QMatrix2) -> float:
    """Study determinant via the complex 4x4 representation."""
    return m.study_det()


# ---------------------------------------------------------------------------
# hermitian forms and the Minkowski model
# ---------------------------------------------------------------------------

class HermitianForm:
    """Quaternionic hermitian form on H^2, stored as (s11, s22, s12).

    s21 = conj(s12) is implied, so hermiticity holds by construction.  The
    six real coordinates carry the Lorentz product of signature (5, 1):
    <s, s> = |s12|^2 - s11*s22.
    """

    __slots__ = ("s11", "s22", "s12")

    def __init__(self, s11, s22, s12):
        object.__setattr__(self, "s11", float(s11))
        object.__setattr__(self, "s22", float(s22))
        object.__setattr__(self, "s12", _as_quat(s12))

    def __setattr__(self, name, value):
        raise AttributeError("HermitianForm is immutable")

    def __repr__(self):
        return f"HermitianForm(s11={self.s11:.12g}, s22={self.s22:.12g}, s12={self.s12!r})"

    def components(self):
        """The six real coordinates (s11, s22, s12.w, s12.x, s12.y, s12.z)."""
        return np.concatenate(([self.s11, self.s22], self.s12.as_array()))


def herm_apply(s: HermitianForm, u, v) -> Quaternion:
    """Evaluate s(u, v) on column vectors u, v of H^2."""
    u1, u2 = _as_quat(u[0]), _as_quat(u[1])
    v1, v2 = _as_quat(v[0]), _as_quat(v[1])
    return (
        u1.conj() * v1 * s.s11
        + u1.conj() * s.s12 * v2
        + u2.conj() * s.s12.conj() * v1
        + u2.conj() * v2 * s.s22
    )


def lorentz(s: HermitianForm, t: HermitianForm) -> float:
    """Polarization of <s, s> = |s12|^2 - s11*s22; signature (5, 1)."""
    dot12 = float(np.dot(s.s12.as_array(), t.s12.as_array()))
    return dot12 - 0.5 * (s.s11 * t.s22 + s.s22 * t.s11)


def point_form(p) -> HermitianForm:
    """Lightlike form of a point p of Im H (or INFINITY).

    Finite p gives s(u, v) = conj(u1 - p u2)(v1 - p v2); the null cone is
    exactly the homogeneous line of p.
    """
    if p is INFINITY:
        return HermitianForm(0.0, 1.0, Quaternion())
    p = _as_quat(p)
    if not p.is_imaginary(tol=1e-10 * max(1.0, p.norm())):
        raise PNotImaginary(f"point has real part {p.w}")
    return HermitianForm(1.0, p.normsq(), -p)


def sphere_form(center, radius) -> HermitianForm:
    """Unit spacelike form of the Euclidean sphere |x - center| = radius."""
    c = _as_quat(center)
    r = float(radius)
    return HermitianForm(1.0 / r, (c.normsq() - r * r) / r, -c / r)


def plane_form(normal, offset) -> HermitianForm:
    """Unit spacelike form of the plane <x, normal> = offset, |normal| = 1."""
    n = _as_quat(normal)
    return HermitianForm(0.0, -2.0 * float(offset), n)


def moebius_act(m: QMatrix2, s: HermitianForm) -> HermitianForm:
    """Push a hermitian form along a Moebius transformation: s(M^-1 ., M^-1 .)."""
    det = m.study_det()
    if det <= EPS_INV:
        raise SingularMatrix("moebius_act requires study_det > 0")
    n = m.inverse()
    col1 = (n.a, n.c)
    col2 = (n.b, n.d)
    s11 = herm_apply(s, col1, col1)
    s22 = herm_apply(s, col2, col2)
    s12 = herm_apply(s, col1, col2)
    return HermitianForm(s11.w, s22.w, s12)


def cross_ratio_class(a, b, c, d, eps=EPS_INV):
    """Moebius-invariant pair (Re r, |r|) of r = (a-b)(b-c)^-1(c-d)(d-a)^-1.

    The conjugacy class of the quaternionic cross-ratio is determined by the
    real part and the norm; both are invariant under simultaneous fractional
    linear transformations of the four points.
    """
    a, b, c, d = (_as_quat(q) for q in (a, b, c, d))
    for p, q in ((a, b), (b, c), (c, d), (d, a)):
        if (p - q).norm() < eps:
            raise DegenerateQuadruple("coincident points in cross-ratio")
    r = (a - b) * (b - c).inverse(eps) * (c - d) * (d - a).inverse(eps)
    return r.w, r.norm()


def cross_ratio_class_array(a, b, c, d, eps=EPS_INV):
    """Vectorized cross-ratio class on (..., 4) arrays; returns (re, norm)."""
    ab, bc, cd, da = a - b, b - c, c - d, d - a
    for diff in (ab, bc, cd, da):
        if np.any(qnormsq(diff) < eps * eps):
            raise DegenerateQuadruple("coincident points in cross-ratio")
    r = qmul(qmul(ab, qinv(bc, eps)), qmul(cd, qinv(da, eps)))
    return r[..., 0], qnorm(r)


# ---------------------------------------------------------------------------
# Moebius transformations in affine coordinates
# ---------------------------------------------------------------------------

class MoebiusMap:
    """Fractional linear transformation x -> (a x + b)(c x + d)^-1."""

    def __init__(self, matrix: QMatrix2):
        self.matrix = matrix

    @classmethod
    def identity(cls):
        return cls(QMatrix2.identity())

    @classmethod
    def translation(cls, m):
        return cls(QMatrix2(ONE, _as_quat(m), Quaternion(), ONE))

    @classmethod
    def rotation(cls, r):
        """Conjugation x -> r x r^-1 by a unit quaternion r."""
        r = _as_quat(r)
        return cls(QMatrix2.diag(r, r))

    @classmethod
    def scaling(cls, t):
        return cls(QMatrix2.diag(Quaternion(float(t)), ONE))

    @classmethod
    def inversion_about(cls, m):
        """The essential map x -> (x - m)^-1."""
        m = _as_quat(m)
        return cls(QMatrix2(Quaternion(), ONE, ONE, -m))

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(self.matrix @ other.matrix)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.matrix.inverse())

    def __call__(self, x):
        if x is INFINITY:
            num, den = self.matrix.a, self.matrix.c
        else:
            x = _as_quat(x)
            num = self.matrix.a * x + self.matrix.b
            den = self.matrix.c * x + self.matrix.d
        if den.norm() < EPS_INV:
            return INFINITY
        return num * den.inverse()

    def apply_array(self, values, eps=EPS_INV):
        """Apply to a (..., 4) array of points; returns (values, valid mask)."""
        m = self.matrix.as_array()
        num = qmul(m[0, 0] , values) + m[0, 1]
        den = qmul(m[1, 0], values) + m[1, 1]
        inv, ok = qinv_masked(den, eps)
        return qmul(num, inv), ok
