"""Reference forms of the reductions over short component axes.

``isothermic.quaternion`` adds the 3, 4 or 6 components of a quaternion,
an imaginary part or a hermitian form by hand (``quaternion._dot``), and
``grid._march`` takes the per-node norms of a block only when the block's
maximum exceeds the blow-up limit.  The ``np.sum`` and per-node forms the
package ran before are kept here, unchanged, as the references that
tests/test_reduction_equivalence.py holds the package to, bit for bit.
"""

from __future__ import annotations

import numpy as np


def qnormsq(a):
    return np.sum(np.asarray(a, dtype=float) ** 2, axis=-1)


def dot3(a, b):
    return np.sum(np.asarray(a)[..., 1:] * np.asarray(b)[..., 1:], axis=-1)


def lorentz(s, t):
    dot12 = np.sum(s[..., 2:] * t[..., 2:], axis=-1)
    return dot12 - 0.5 * (s[..., 0] * t[..., 1] + s[..., 1] * t[..., 0])


def sign_step(prev, q):
    """The step of cmc._sign_continuity: q with its sign flipped where its
    4-component dot product with the node before it is below 0."""
    return np.where(np.sum(q * prev, axis=-1, keepdims=True) < 0, -q, q)


def first_blowup_node(values, p0, blowup, spine):
    """The node grid._march names for the (ny, nx, ..., 4) states values:
    the first node, in the order the march checks them, whose largest
    absolute component is not at most blowup; None if there is none.

    That order is the spine's upper half (away from p0), then its lower
    half, then the lines' upper half, line by line outwards from p0 and
    each line in node order, then their lower half.  p0 is never checked.
    """
    ny, nx = values.shape[:2]
    norm = np.abs(values).reshape(ny, nx, -1).max(axis=-1)
    iy0, ix0 = p0

    def along(i0, n):  # the upper, then the lower half of a line through i0
        return list(range(i0 + 1, n)) + list(range(i0 - 1, -1, -1))

    if spine == "column":
        order = [(i, ix0) for i in along(iy0, ny)]
        order += [(r, i) for i in along(ix0, nx) for r in range(ny)]
    else:
        order = [(iy0, i) for i in along(ix0, nx)]
        order += [(i, r) for i in along(iy0, ny) for r in range(nx)]
    for node in order:
        if not norm[node] <= blowup:
            return node
    return None
