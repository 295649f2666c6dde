"""The canonical frame family, kept as its parts, against the dense body it
replaced (tests/reference_march.py).

canonical_connection stores f, df and dCf and computes its frame and phi(lam)
on each read; its slopes are the upper-right entries dCf.  The family a
spectral transform returns stores its frame, phi(lam) as its constant part and
the slopes of the family it came from.  Frames, slopes (expanded to dense) and
phi(lam) must equal the dense family's bytes, at the spectral parameters a
march or a transform uses, -0.0 included, and so must the curvature
polynomial.  The permutability suite, which frees each field after
its last reader, must peak at no more than 11 fields, against 33 before.
"""

import tracemalloc

import numpy as np
import pytest

from isothermic import (
    FrameConnection,
    GridSpec,
    PolarizedSurface,
    canonical_connection,
    integrate_frame,
    permutability_suite,
    t_transform_via_connection,
)
from isothermic import oracles as oc
from isothermic.quaternion import qm2_identity, qm2_mul

import reference_march as ref
from conftest import FAMILY_LAMS as LAMS
from conftest import assert_same_family

NAMES = ("example", "weierstrass", "boundary")


@pytest.mark.parametrize("name", NAMES)
def test_canonical_family_equals_the_dense_reference(canonical_inputs, canonical_families,
                                                    name):
    assert_same_family(canonical_families[name],
                        ref.canonical_connection(*canonical_inputs[name]))


@pytest.mark.parametrize("mu", [0.4, -0.0])
@pytest.mark.parametrize("name", NAMES)
def test_spectral_family_equals_the_dense_reference(canonical_inputs, canonical_families,
                                                    name, mu):
    """The family a spectral transform at mu returns equals the dense family
    of the old body: the marched frame moved by frame0(p0), phi(mu) as its
    constant part and the parent's slopes stored."""
    base = ref.canonical_connection(*canonical_inputs[name])
    phi_x, phi_y = base.phi(mu)
    frame = integrate_frame(phi_x, phi_y, base.grid, qm2_identity(), base.p0,
                            curvature_norm=base.curvature_norm(mu))
    want = FrameConnection(base.grid, qm2_mul(base.frame0_at_p0(), frame.values),
                           (phi_x, phi_y), base.slopes, base.p0, base.shifted_curvature(mu))
    got = t_transform_via_connection(canonical_families[name], mu)
    assert got.frame.values.tobytes() == frame.values.tobytes()
    assert_same_family(got.connection, want)


def test_nans_in_the_parts_read_as_in_the_dense_fields(canonical_inputs):
    """A NaN in df or in dCf (of either sign) reaches phi(lam) with the bytes
    the dense const + lam * slope gives it, as do the zeros around it."""
    got = canonical_connection(*canonical_inputs["example"])
    want = ref.canonical_connection(*canonical_inputs["example"])
    got._df[1][5, 7, 3] = want.const[1][5, 7, 1, 0, 3] = np.nan
    got.slopes[0][9, 2, 1] = want.slopes[0][9, 2, 0, 1, 1] = -np.nan
    for lam in LAMS:
        for a, b in zip(got.phi(lam), want.phi(lam)):
            assert a.tobytes() == b.tobytes(), lam


def test_permutability_suite_memory():
    """One suite at n = 129 peaks at no more than 11 (ny, nx, 2, 2, 4) fields
    of traced memory: about 9.8 with its fields freed after their last
    reader, the canonical family kept as its parts and the Darboux chain in
    one blocked pass whose family keeps its two slopes; 12.2 when the chain
    multiplied whole fields and kept five, 33 before the suite freed its
    fields.  At n = 65 the march's fixed blocks of 4096 nodes alone peak at
    about 10 fields, so the count there measures the block size more than
    the suite."""
    n = 129
    dense = n * n * 2 * 2 * 4 * 8
    surface = PolarizedSurface.sample(GridSpec.square(1.0, n), oc.f_plane, "dzbar2")
    permutability_suite(PolarizedSurface.sample(GridSpec.square(1.0, 17), oc.f_plane,
                                                "dzbar2"), 0.8)  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        permutability_suite(surface, 0.8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 11 * dense
