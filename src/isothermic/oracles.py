"""Closed-form reference family, evaluated on whole arrays of z.

Everything here derives from the flat immersion f(z) = -jz of the polarized
plane and its dual zj.  The spectral transforms, Darboux transforms, the
associated minimal surfaces (catenoid at lam = 1, Enneper in the lam -> 0
limit) and the corresponding frames all have elementary closed forms in the
commutative subalgebra span{1, i}; negative lam runs through trigonometric
branches via the complex square root, and a Taylor series takes over near
lam = 0.

Every function takes a complex array z (a Python scalar or a 0-d array
works too) and evaluates all of it at once: quaternion-valued forms return
component arrays of shape z.shape + (4,), the frame t_frame returns
z.shape + (2, 2, 4), complex-valued forms return complex arrays.  The
generators sample them on grid.zgrid() through the array callables that
QField.sample and WeierstrassData.sample take, the criterion-8 connection
builds its frame from them, and the tests use them as ground truth.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import ClosedFormOverflow, NearZeroQuaternion, PoleProximity
from .quaternion import cj, from_complex, qinv, qmul, qnorm

#: switch to series evaluation when |lam * z^2| falls below this
SERIES_CUTOFF = 1e-4

#: margin (in the sqrt(lam) z plane) kept from the tanh/cosh poles
POLE_MARGIN = 0.1

#: largest |Re(sqrt(lam) z)| at which cosh(sqrt(lam) z)^2 stays finite (355)
OVERFLOW_LIMIT = 350.0

#: norm below which a Darboux denominator counts as vanished
EPS_DENOMINATOR = 1e-14

_FACT2K = [1.0, 2.0, 24.0, 720.0, 40320.0, 3628800.0, 479001600.0]
_FACT2K1 = [1.0, 6.0, 120.0, 5040.0, 362880.0, 39916800.0]
# tanh(w)/w = 1 - w^2/3 + 2 w^4/15 - 17 w^6/315 + 62 w^8/2835 - 1382 w^10/155925
_TANHC_SERIES = (1.0, -1.0 / 3.0, 2.0 / 15.0, -17.0 / 315.0, 62.0 / 2835.0, -1382.0 / 155925.0)

MINUS_J = np.array([0.0, 0.0, -1.0, 0.0])
_K = np.array([0.0, 0.0, 0.0, 1.0])
_I = np.array([0.0, 1.0, 0.0, 0.0])


def _sqrt_lambda(lam):
    return cmath.sqrt(complex(lam))


def _z(z):
    return np.asarray(z, dtype=complex)


def _first_node(bad):
    """Row-major index of the first True entry; None for a 0-d array."""
    node = tuple(int(i) for i in np.argwhere(bad)[0])
    return node or None


def check_pole_margin(z, lam):
    """Distance guard from the poles of tanh and 1/cosh at w = i(pi/2 + m pi).

    Raises PoleProximity at the first node (row-major) closer than POLE_MARGIN.
    """
    w = _sqrt_lambda(lam) * _z(z)
    a = np.abs(w.imag)
    m = np.maximum(0.0, np.round((a - np.pi / 2) / np.pi))
    dist = np.min(
        [np.hypot(w.real, a - (np.pi / 2 + k * np.pi))
         for k in (np.maximum(0.0, m - 1), m, m + 1)],
        axis=0,
    )
    _raise_at_first(dist < POLE_MARGIN, w, PoleProximity, f"within {POLE_MARGIN} of a pole")


def check_overflow(z, lam):
    """Raise ClosedFormOverflow at the first node (row-major) where
    |Re(sqrt(lam) z)| > OVERFLOW_LIMIT, so that cosh(sqrt(lam) z)^2 would overflow."""
    w = _sqrt_lambda(lam) * _z(z)
    _raise_at_first(np.abs(w.real) > OVERFLOW_LIMIT, w, ClosedFormOverflow,
                    f"beyond |Re| = {OVERFLOW_LIMIT}, where cosh overflows")


def _raise_at_first(bad, w, error, what):
    if bad.any():
        node = _first_node(bad)
        w_bad = complex(w[node] if node else w)
        raise error(f"sqrt(lam) z = {w_bad:.4g} {what}", node=node)


class _Split:
    """The nodes of z on either side of |lam z^2| = SERIES_CUTOFF: the near
    ones take a Taylor series in (z, w2 = lam z^2), the far ones a closed form
    in (z, sqrt(lam), lam).

    Each branch sees only its own nodes, so at lam = 0 the closed forms
    (which divide by lam or sqrt(lam)) are never evaluated.  One split serves
    every form evaluated at the same (z, lam).
    """

    def __init__(self, z, lam):
        self.z = _z(z)
        w2 = complex(lam) * self.z * self.z
        self.near = np.abs(w2) < SERIES_CUTOFF
        self.far = ~self.near
        self.series_args = (self.z[self.near], w2[self.near])
        self.closed_args = (self.z[self.far], _sqrt_lambda(lam), lam)

    def halves(self, form):
        """A (series, closed) pair evaluated on the near and on the far nodes."""
        series, closed = form
        return series(*self.series_args), closed(*self.closed_args)

    def join(self, near_values, far_values):
        """The array holding near_values on the near nodes, far_values on the others."""
        out = np.empty(self.z.shape, dtype=complex)
        out[self.near] = near_values
        out[self.far] = far_values
        return out

    def __call__(self, form):
        """A (series, closed) pair evaluated on the whole split."""
        return self.join(*self.halves(form))


# (series, closed) pairs of the entire functions of lam below
_COSH = (
    lambda z, w2: sum(w2**k / _FACT2K[k] for k in range(6)),
    lambda z, sl, lam: np.cosh(sl * z),
)
_SINHC = (
    lambda z, w2: z * sum(w2**k / _FACT2K1[k] for k in range(6)),
    lambda z, sl, lam: np.sinh(sl * z) / sl,
)
_TANHC = (
    lambda z, w2: z * sum(c * w2**k for k, c in enumerate(_TANHC_SERIES)),
    lambda z, sl, lam: np.tanh(sl * z) / sl,
)
_SINH2C = (
    lambda z, w2: z * sum((4.0 * w2) ** k / _FACT2K1[k] for k in range(6)),
    lambda z, sl, lam: np.sinh(2.0 * sl * z) / (2.0 * sl),
)
_COSH2M1 = (
    lambda z, w2: 4.0 * z * z * sum((4.0 * w2) ** k / _FACT2K[k + 1] for k in range(6)),
    lambda z, sl, lam: (np.cosh(2.0 * sl * z) - 1.0) / lam,
)


def cosh_sl(z, lam):
    """cosh(sqrt(lam) z), series-stable near lam = 0."""
    return _Split(z, lam)(_COSH)


def sinhc_sl(z, lam):
    """sinh(sqrt(lam) z)/sqrt(lam), an entire function of lam."""
    return _Split(z, lam)(_SINHC)


def sqrt_sinh_sl(z, lam):
    """sqrt(lam) sinh(sqrt(lam) z) = lam * sinhc_sl."""
    return complex(lam) * sinhc_sl(z, lam)


def tanhc_sl(z, lam):
    """tanh(sqrt(lam) z)/sqrt(lam)."""
    return _Split(z, lam)(_TANHC)


def sinh2c_sl(z, lam):
    """sinh(2 sqrt(lam) z)/(2 sqrt(lam))."""
    return _Split(z, lam)(_SINH2C)


def _ck(c):
    """c*k for complex c: components (0, 0, -Im c, Re c)."""
    return cj(1j * c)


def _check_denominator(den):
    bad = qnorm(den) < EPS_DENOMINATOR
    if bad.any():
        raise NearZeroQuaternion("darboux denominator vanished", node=_first_node(bad))


def f_plane(z):
    """The flat reference immersion -jz of the polarized plane into Cj."""
    return cj(-_z(z).conjugate())


def cf_plane(z):
    """Its dual (Christoffel) surface zj."""
    return cj(_z(z))


def t_frame(z, lam):
    """Spectral frame of the plane with frame(0) = Id, shape z.shape + (2, 2, 4).

    diag(1,-j) [[cosh(sl z), sl sinh(sl z)], [sinh(sl z)/sl, cosh(sl z)]] diag(1, j)
    """
    check_pole_margin(z, lam)
    c = cosh_sl(z, lam)
    return np.stack([
        np.stack([from_complex(c), cj(sqrt_sinh_sl(z, lam))], axis=-2),
        np.stack([cj(-sinhc_sl(z, lam).conjugate()), from_complex(c.conjugate())], axis=-2),
    ], axis=-3)


def t_plane(z, lam):
    """Spectral transform of the plane: -j tanh(sqrt(lam) z)/sqrt(lam)."""
    check_pole_margin(z, lam)
    return cj(-tanhc_sl(z, lam).conjugate())


def ct_plane(z, lam):
    """Dual of the spectral transform: (z + sinh(2 sl z)/(2 sl)) j / 2."""
    check_pole_margin(z, lam)
    return cj(0.5 * (_z(z) + sinh2c_sl(z, lam)))


def minimal_family(z, lam):
    """Minimal surface family: catenoid at lam = 1, Enneper as lam -> 0.

    1/4 { Re[(cosh(2 sl z) - 1)/lam] i + [z + sinh(2 sl z)/(2 sl)] j
          + j (1/lam)[z - sinh(2 sl z)/(2 sl)] }
    """
    check_pole_margin(z, lam)
    return _minimal_family(_Split(z, lam), lam)[0]


def _minimal_family(split, lam):
    """minimal_family on a split, and the sinh2c_sl it reads; the far nodes'
    sinh2c values serve the closed form of the third term as well."""
    s2_near, s2_far = split.halves(_SINH2C)
    s2 = split.join(s2_near, s2_far)
    zn, w2 = split.series_args
    third = split.join(
        -(zn**3) * sum(4.0 ** (k + 1) * w2**k / _FACT2K1[k + 1] for k in range(5)),
        (split.closed_args[0] - s2_far) / lam,
    )
    out = cj(0.25 * ((split.z + s2) + third.conjugate()))
    out[..., 1] = 0.25 * split(_COSH2M1).real
    return out, s2


def darboux_plane(z, lam):
    """Darboux transform of the plane seeded by v0 = (1, -i)^t.

    -j { z - [sinh(sl z)/sl - cosh(sl z) k][cosh(sl z) - sl sinh(sl z) k]^-1 }
    """
    check_pole_margin(z, lam)
    z = _z(z)
    c = cosh_sl(z, lam)
    num = from_complex(sinhc_sl(z, lam)) - _ck(c)
    den = from_complex(c) - _ck(sqrt_sinh_sl(z, lam))
    _check_denominator(den)
    return qmul(MINUS_J, from_complex(z) - qmul(num, qinv(den)))


def darboux_of_t_plane(z, lam):
    """The simultaneous Darboux transform of the spectral surface.

    -j { tanh(sl z)/sl - (1/cosh(sl z)) [z - k][cosh(sl z) - sl sinh(sl z)(z - k)]^-1 }
    """
    check_pole_margin(z, lam)
    z = _z(z)
    c = cosh_sl(z, lam)
    zk = from_complex(z) - _K
    den = from_complex(c) - qmul(from_complex(sqrt_sinh_sl(z, lam)), zk)
    _check_denominator(den)
    return qmul(
        MINUS_J,
        from_complex(tanhc_sl(z, lam)) - qmul(qmul(from_complex(1.0 / c), zk), qinv(den)),
    )


# ---------------------------------------------------------------------------
# Weierstrass data of the family
# ---------------------------------------------------------------------------

def family_g(z, lam):
    """Meromorphic data of the minimal family: tanh(sqrt(lam) z)/sqrt(lam)."""
    check_overflow(z, lam)
    return tanhc_sl(z, lam)


def family_w(z, lam):
    """Holomorphic differential coefficient: cosh(sqrt(lam) z)^2 (= 1/g')."""
    check_overflow(z, lam)
    c = cosh_sl(z, lam)
    return c * c


def family_dg(z, lam):
    """g'(z) = 1/cosh(sqrt(lam) z)^2."""
    check_overflow(z, lam)
    c = cosh_sl(z, lam)
    return 1.0 / (c * c)


def family_log_metric(z, lam):
    """u with e^u = (1 + |g|^2) |w| / 2, the conformal factor of the family.

    Returns (u, du/dz) where du/dz = u_x/2 - i u_y/2 ... specifically the
    Wirtinger derivative such that u_x - i u_y = 2 du/dz.
    """
    check_overflow(z, lam)
    split = _Split(z, lam)
    return _log_metric(split(_TANHC), split(_COSH), split(_SINH2C), lam)


def _log_metric(g, c, s2, lam):
    """family_log_metric from g = tanhc_sl, c = cosh_sl and s2 = sinh2c_sl."""
    w = c * c
    dg = 1.0 / w
    # w = cosh^2 has w' = sqrt(lam) sinh(2 sqrt(lam) z) = 2 lam sinh2c
    wprime = 2.0 * complex(lam) * s2
    m = 1.0 + np.abs(g) ** 2
    u = np.log(0.5 * m * np.abs(w))
    dz_u = (dg * g.conjugate()) / m + wprime / (2.0 * w)
    return u, dz_u


def family_spin(z, lam):
    """Unit spin rotating (j, k, i) onto the family's frame (t1, t2, normal).

    r = (i - jg) i (w/|w|)^(1/2) / sqrt(1 + |g|^2), with the square-root
    branch taken as cosh(sqrt(lam) z)/|cosh(sqrt(lam) z)| (nonvanishing on
    the pole-safe patch).
    """
    check_overflow(z, lam)
    split = _Split(z, lam)
    return _spin(split(_TANHC), split(_COSH))


def _spin(g, c):
    """family_spin from g = tanhc_sl and c = cosh_sl."""
    q1 = cj(-g.conjugate())  # -jg
    q1[..., 1] = 1.0
    r = qmul(qmul(q1, _I), from_complex(c / np.abs(c)))
    return r * (1.0 / np.sqrt(1.0 + np.abs(g) ** 2))[..., None]


def family_frame_parts(z, lam):
    """minimal_family, family_spin and family_log_metric of the same (z, lam),
    bit for bit, from one evaluation of each closed form they read.

    Guards as the three do in that order: PoleProximity before
    ClosedFormOverflow, both before any closed form is evaluated.
    """
    check_pole_margin(z, lam)
    check_overflow(z, lam)
    split = _Split(z, lam)
    f, s2 = _minimal_family(split, lam)
    g, c = split(_TANHC), split(_COSH)
    return f, _spin(g, c), _log_metric(g, c, s2, lam)
