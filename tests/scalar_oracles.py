"""Scalar reference for the closed-form family of ``isothermic.oracles``.

These are the per-point ``cmath`` evaluations the package used before its
oracles took whole arrays: one ``Quaternion`` (or ``QMatrix2``) per call.
They are kept here, unchanged, as the independent reference that the array
oracles are tested against (tests/test_oracle_equivalence.py).  The branch
cutoff and the pole margin are shared with the array module, so both sides
switch between the series and the closed branch at the same nodes.
"""

from __future__ import annotations

import cmath

import numpy as np

from isothermic.errors import NearZeroQuaternion, PoleProximity
from isothermic.oracles import POLE_MARGIN, SERIES_CUTOFF
from scalar_quaternion import QMatrix2, Quaternion


def _sqrt_lambda(lam):
    return cmath.sqrt(complex(lam))


def check_pole_margin(z, lam, margin=POLE_MARGIN):
    """Distance guard from the poles of tanh and 1/cosh at w = i(pi/2 + m pi)."""
    w = _sqrt_lambda(lam) * complex(z)
    m = max(0, round((abs(w.imag) - cmath.pi / 2) / cmath.pi))
    dist = min(
        abs(complex(w.real, abs(w.imag) - (cmath.pi / 2 + k * cmath.pi)))
        for k in (max(0, m - 1), m, m + 1)
    )
    if dist < margin:
        raise PoleProximity(f"sqrt(lam) z = {w:.4f} within {margin} of a pole")


def _w2(z, lam):
    return complex(lam) * complex(z) * complex(z)


def _use_series(z, lam):
    return abs(_w2(z, lam)) < SERIES_CUTOFF


def cosh_sl(z, lam):
    """cosh(sqrt(lam) z), series-stable near lam = 0."""
    if _use_series(z, lam):
        w2 = _w2(z, lam)
        return sum(w2**k / _FACT2K[k] for k in range(6))
    return cmath.cosh(_sqrt_lambda(lam) * z)


def sinhc_sl(z, lam):
    """sinh(sqrt(lam) z)/sqrt(lam), an entire function of lam."""
    if _use_series(z, lam):
        w2 = _w2(z, lam)
        return z * sum(w2**k / _FACT2K1[k] for k in range(6))
    sl = _sqrt_lambda(lam)
    return cmath.sinh(sl * z) / sl


def sqrt_sinh_sl(z, lam):
    """sqrt(lam) sinh(sqrt(lam) z) = lam * sinhc_sl."""
    return complex(lam) * sinhc_sl(z, lam)


def tanhc_sl(z, lam):
    """tanh(sqrt(lam) z)/sqrt(lam)."""
    if _use_series(z, lam):
        w2 = _w2(z, lam)
        # tanh(w)/w = 1 - w^2/3 + 2 w^4/15 - 17 w^6/315 + 62 w^8/2835 - 1382 w^10/155925
        coeff = (1.0, -1.0 / 3.0, 2.0 / 15.0, -17.0 / 315.0, 62.0 / 2835.0,
                 -1382.0 / 155925.0)
        return z * sum(c * w2**k for k, c in enumerate(coeff))
    sl = _sqrt_lambda(lam)
    return cmath.tanh(sl * z) / sl


def sinh2c_sl(z, lam):
    """sinh(2 sqrt(lam) z)/(2 sqrt(lam))."""
    if _use_series(z, lam):
        w2 = _w2(z, lam)
        return z * sum((4.0 * w2) ** k / _FACT2K1[k] for k in range(6))
    sl = _sqrt_lambda(lam)
    return cmath.sinh(2.0 * sl * z) / (2.0 * sl)


def cosh2m1_over_lam(z, lam):
    """(cosh(2 sqrt(lam) z) - 1)/lam."""
    if _use_series(z, lam):
        w2 = _w2(z, lam)
        return 4.0 * z * z * sum((4.0 * w2) ** k / _FACT2K[k + 1] for k in range(6))
    return (cmath.cosh(2.0 * _sqrt_lambda(lam) * z) - 1.0) / lam


_FACT2K = [1.0, 2.0, 24.0, 720.0, 40320.0, 3628800.0, 479001600.0]
_FACT2K1 = [1.0, 6.0, 120.0, 5040.0, 362880.0, 39916800.0]


def _cjq(c):
    """Quaternion c*j for complex c."""
    return Quaternion.cj(c)


def _cq(c):
    return Quaternion.from_complex(c)


def _ckq(c):
    """Quaternion c*k for complex c: components (0, 0, -Im c, Re c)."""
    c = complex(c)
    return Quaternion(0.0, 0.0, -c.imag, c.real)


MINUS_J = Quaternion(0.0, 0.0, -1.0, 0.0)


def f_plane(z) -> Quaternion:
    """The flat reference immersion -jz of the polarized plane into Cj."""
    return _cjq(-complex(z).conjugate())


def cf_plane(z) -> Quaternion:
    """Its dual (Christoffel) surface zj."""
    return _cjq(z)


def t_frame(z, lam, margin=POLE_MARGIN) -> QMatrix2:
    """Spectral frame of the plane with frame(0) = Id.

    diag(1,-j) [[cosh(sl z), sl sinh(sl z)], [sinh(sl z)/sl, cosh(sl z)]] diag(1, j)
    """
    check_pole_margin(z, lam, margin)
    c = cosh_sl(z, lam)
    return QMatrix2(
        _cq(c),
        _cjq(sqrt_sinh_sl(z, lam)),
        _cjq(-sinhc_sl(z, lam).conjugate()),
        _cq(c.conjugate()),
    )


def t_plane(z, lam, margin=POLE_MARGIN) -> Quaternion:
    """Spectral transform of the plane: -j tanh(sqrt(lam) z)/sqrt(lam)."""
    check_pole_margin(z, lam, margin)
    return _cjq(-tanhc_sl(z, lam).conjugate())


def ct_plane(z, lam, margin=POLE_MARGIN) -> Quaternion:
    """Dual of the spectral transform: (z + sinh(2 sl z)/(2 sl)) j / 2."""
    check_pole_margin(z, lam, margin)
    return _cjq(0.5 * (complex(z) + sinh2c_sl(z, lam)))


def minimal_family(z, lam, margin=POLE_MARGIN) -> Quaternion:
    """Minimal surface family: catenoid at lam = 1, Enneper as lam -> 0.

    1/4 { Re[(cosh(2 sl z) - 1)/lam] i + [z + sinh(2 sl z)/(2 sl)] j
          + j (1/lam)[z - sinh(2 sl z)/(2 sl)] }
    """
    check_pole_margin(z, lam, margin)
    z = complex(z)
    icomp = 0.25 * cosh2m1_over_lam(z, lam).real
    if _use_series(z, lam):
        w2 = _w2(z, lam)
        third = -(z**3) * sum(
            4.0 ** (k + 1) * w2**k / _FACT2K1[k + 1] for k in range(5)
        )
    else:
        third = (z - sinh2c_sl(z, lam)) / lam
    cjcomp = 0.25 * ((z + sinh2c_sl(z, lam)) + third.conjugate())
    q = _cjq(cjcomp)
    return Quaternion(0.0, icomp, q.y, q.z)


def darboux_plane(z, lam, margin=POLE_MARGIN) -> Quaternion:
    """Darboux transform of the plane seeded by v0 = (1, -i)^t.

    -j { z - [sinh(sl z)/sl - cosh(sl z) k][cosh(sl z) - sl sinh(sl z) k]^-1 }
    """
    check_pole_margin(z, lam, margin)
    z = complex(z)
    c = cosh_sl(z, lam)
    num = _cq(sinhc_sl(z, lam)) - _ckq(c)
    den = _cq(c) - _ckq(sqrt_sinh_sl(z, lam))
    if den.norm() < 1e-14:
        raise NearZeroQuaternion("darboux denominator vanished")
    return MINUS_J * (_cq(z) - num * den.inverse())


def darboux_of_t_plane(z, lam, margin=POLE_MARGIN) -> Quaternion:
    """The simultaneous Darboux transform of the spectral surface.

    -j { tanh(sl z)/sl - (1/cosh(sl z)) [z - k][cosh(sl z) - sl sinh(sl z)(z - k)]^-1 }
    """
    check_pole_margin(z, lam, margin)
    z = complex(z)
    c = cosh_sl(z, lam)
    zk = _cq(z) - Quaternion(0, 0, 0, 1)
    den = _cq(c) - _cq(sqrt_sinh_sl(z, lam)) * zk
    if den.norm() < 1e-14:
        raise NearZeroQuaternion("darboux denominator vanished")
    return MINUS_J * (_cq(tanhc_sl(z, lam)) - _cq(1.0 / c) * zk * den.inverse())


# ---------------------------------------------------------------------------
# Weierstrass data of the family
# ---------------------------------------------------------------------------

def family_g(z, lam) -> complex:
    """Meromorphic data of the minimal family: tanh(sqrt(lam) z)/sqrt(lam)."""
    return tanhc_sl(z, lam)


def family_w(z, lam) -> complex:
    """Holomorphic differential coefficient: cosh(sqrt(lam) z)^2 (= 1/g')."""
    c = cosh_sl(z, lam)
    return c * c


def family_dg(z, lam) -> complex:
    """g'(z) = 1/cosh(sqrt(lam) z)^2."""
    c = cosh_sl(z, lam)
    return 1.0 / (c * c)


def family_log_metric(z, lam):
    """u with e^u = (1 + |g|^2) |w| / 2, the conformal factor of the family.

    Returns (u, du/dz) where du/dz = u_x/2 - i u_y/2 ... specifically the
    Wirtinger derivative such that u_x - i u_y = 2 du/dz.
    """
    g = family_g(z, lam)
    w = family_w(z, lam)
    dg = family_dg(z, lam)
    # w = cosh^2 has w' = sqrt(lam) sinh(2 sqrt(lam) z) = 2 lam sinh2c
    wprime = 2.0 * complex(lam) * sinh2c_sl(z, lam)
    u = float(np.log(0.5 * (1.0 + abs(g) ** 2) * abs(w)))
    dz_u = (dg * g.conjugate()) / (1.0 + abs(g) ** 2) + wprime / (2.0 * w)
    return u, dz_u


def family_spin(z, lam) -> Quaternion:
    """Unit spin rotating (j, k, i) onto the family's frame (t1, t2, normal).

    r = (i - jg) i (w/|w|)^(1/2) / sqrt(1 + |g|^2), with the square-root
    branch taken as cosh(sqrt(lam) z)/|cosh(sqrt(lam) z)| (nonvanishing on
    the pole-safe patch).
    """
    g = family_g(z, lam)
    c = cosh_sl(z, lam)
    phase = c / abs(c)
    q1 = Quaternion(0.0, 1.0, -g.real, g.imag)
    r = q1 * Quaternion(0, 1, 0, 0) * Quaternion.from_complex(phase)
    return r * (1.0 / np.sqrt(1.0 + abs(g) ** 2))
