"""Reference surface and mesh writers for ``isothermic.grid`` and ``isothermic.objio``.

These are the writers the package used before both files came from one
``float.__repr__`` pass (``grid.surface_texts``): the surface document as a
list of per-node float lists handed to ``json.dumps(doc, sort_keys=True,
allow_nan=False)``, and the OBJ records from a per-node loop.  They are kept
here, unchanged, as the independent reference that ``save_field`` and
``export_obj`` are tested against byte for byte
(tests/test_writer_equivalence.py).
"""

from __future__ import annotations

import json

from isothermic.grid import QField, grid_to_dict


def field_to_dict(f: QField):
    return {
        "grid": grid_to_dict(f.grid),
        "values": [[float(c) for c in row] for row in f.values.reshape(-1, 4)],
    }


def field_text(f: QField, header=None):
    """The text the former save_field wrote."""
    doc = field_to_dict(f)
    if header:
        doc.update(header)
    return json.dumps(doc, sort_keys=True, allow_nan=False)


def obj_lines(field: QField):
    """Vertex/face records: vertices are the (i, j, k) components.

    Quad faces cover cells whose four corners are valid; vertex records are
    emitted for every node (row-major) so face indexing is position-stable.
    """
    grid = field.grid
    valid = grid.valid()
    lines = []
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            x, y, z = (float(c) for c in field.values[iy, ix, 1:])
            lines.append(f"v {x!r} {y!r} {z!r}")
    for iy in range(grid.ny - 1):
        for ix in range(grid.nx - 1):
            if valid[iy, ix] and valid[iy, ix + 1] and valid[iy + 1, ix] and valid[iy + 1, ix + 1]:
                a = iy * grid.nx + ix + 1
                b = a + 1
                c = a + grid.nx + 1
                d = a + grid.nx
                lines.append(f"f {a} {b} {c} {d}")
    return lines


def obj_text(field: QField):
    """The text the former export_obj wrote."""
    return "\n".join(obj_lines(field)) + "\n"
