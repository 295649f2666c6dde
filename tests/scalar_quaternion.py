"""Scalar quaternion values for the per-point reference in tests/scalar_oracles.py.

The library holds quaternions and 2x2 quaternionic matrices only as float
arrays with trailing axes (4) and (2, 2, 4).  The scalar oracles evaluate one
point per call, so they carry their values in these small immutable types;
``as_array`` turns a value into the array the library's oracles return.
"""

from __future__ import annotations

import numpy as np

from isothermic.quaternion import qinv, qmul, qnorm


class Quaternion:
    """Immutable scalar quaternion w + x i + y j + z k."""

    __slots__ = ("_a",)

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        arr = np.array([w, x, y, z], dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "_a", arr)

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

    def norm(self):
        return float(qnorm(self._a))

    def inverse(self):
        return Quaternion.from_array(qinv(self._a))


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    return None


class QMatrix2:
    """The 2x2 quaternionic matrix [[a, b], [c, d]] as four scalar entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def as_array(self):
        return np.array([[self.a.as_array(), self.b.as_array()],
                         [self.c.as_array(), self.d.as_array()]])
