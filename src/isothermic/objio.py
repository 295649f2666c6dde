"""Wavefront OBJ export for sampled surfaces (v/f records only)."""

from .errors import IoError
from .grid import QField, write_text


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


def export_obj(field: QField, path) -> str:
    """Write the mesh atomically; bit-stable for identical input."""
    valid = field.grid.valid()
    cells = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    if not cells.any():
        raise IoError("no unmasked quad cells to export")
    write_text(path, "\n".join(obj_lines(field)) + "\n", "OBJ")
    return path
