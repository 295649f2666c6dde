"""Wavefront OBJ export for sampled surfaces (v/f records only)."""

import numpy as np

from .errors import IoError
from .grid import QField, surface_texts, write_text


def export_obj(field: QField, path, texts=None) -> str:
    """Write the mesh atomically: the vertex lines of texts (surface_texts(field) if
    None), every node row-major so face indexing is position-stable, then quad
    faces over the cells whose four corners are valid."""
    grid = field.grid
    valid = grid.valid()
    cells = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    if not cells.any():
        raise IoError("no unmasked quad cells to export")
    vertices = (texts or surface_texts(field))[1]
    iy, ix = np.nonzero(cells)
    faces = "".join(f"f {a} {a + 1} {a + grid.nx + 1} {a + grid.nx}\n"
                    for a in (iy * grid.nx + ix + 1).tolist())
    write_text(path, [*vertices, faces], "OBJ")
    return path
