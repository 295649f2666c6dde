"""The surface and mesh writers against the reference writers in tests/reference_writers.py.

save_field and export_obj format every float once (grid.surface_texts) and
splice the texts into their files; each file must equal, byte for byte, what
the former writers made from json.dumps(doc, sort_keys=True,
allow_nan=False) and a per-node loop: on a masked grid, on -0.0, the
smallest subnormal, 1e+-300, integral floats and random normals, and with
headers with and without the cmc keys.  run_pipeline formats the surface
once for both files.
"""

import json

import numpy as np
import pytest

from isothermic import GridSpec, QField, export_obj
from isothermic import pipeline
from isothermic.grid import save_field, surface_texts

import reference_writers as ref

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
           1.0, -2.0, 3.0, 1e16, -1e22, 2.0**53, 0.1, 1.7976931348623157e308)

HEADERS = {
    "none": None,
    "empty": {},
    "plain": {"polarization": "dz2", "lambda": 0.7, "provenance": ["example-plane"]},
    "no_lambda": {"polarization": "dzbar2", "lambda": None, "provenance": []},
    "cmc": {"polarization": "dz2", "lambda": 1e-300,
            "provenance": ["darboux-weierstrass", "t_transform(λ=-0.5)"],
            "model": "halfspace", "route": "darboux"},
    # a key that sorts after "values": the values text is spliced in between
    "after_values": {"lambda": -0.0, "zeta": [1, 2.5]},
}


def masked_grid(nx=9, ny=7):
    mask = np.ones((ny, nx), dtype=bool)
    mask[2, 3] = mask[5, 0] = mask[0, 8] = False
    return GridSpec(-1.0, -0.5, 0.25, nx, ny, mask)


def fields():
    rng = np.random.default_rng(7)
    g = masked_grid()
    normals = rng.normal(size=(g.ny, g.nx, 4))
    special = rng.choice(SPECIAL, size=(g.ny, g.nx, 4))
    scaled = normals * 10.0 ** rng.integers(-300, 301, size=normals.shape)
    unmasked = GridSpec.square(1.0, 6)
    return {
        "masked_normals": QField(g, normals),
        "masked_special": QField(g, special),
        "masked_scaled": QField(g, scaled),
        "unmasked_normals": QField(unmasked, rng.normal(size=(6, 6, 4))),
    }


FIELDS = fields()


@pytest.mark.parametrize("header", HEADERS.values(), ids=HEADERS.keys())
@pytest.mark.parametrize("name", FIELDS)
def test_save_field_matches_json_dumps(tmp_path, name, header):
    f = FIELDS[name]
    path = tmp_path / "surface.json"
    save_field(f, str(path), header)
    assert path.read_bytes() == ref.field_text(f, header).encode("utf-8")


@pytest.mark.parametrize("name", FIELDS)
def test_export_obj_matches_per_node_loop(tmp_path, name):
    f = FIELDS[name]
    path = tmp_path / "mesh.obj"
    export_obj(f, str(path))
    assert path.read_bytes() == ref.obj_text(f).encode("utf-8")


def test_pipeline_formats_the_surface_once(tmp_path, monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return surface_texts(f)

    monkeypatch.setattr(pipeline, "surface_texts", counted)
    cfg = pipeline.PipelineConfig.from_dict({
        "grid_n": 17, "generator": {"kind": "example"},
        "export": {"surface": "surface.json", "obj": "mesh.obj"}})
    _, artifacts, surface = pipeline.run_pipeline(cfg, str(tmp_path))
    assert len(calls) == 1
    text = (tmp_path / "surface.json").read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, allow_nan=False)
    assert np.array_equal(np.asarray(doc["values"]), surface.f.values.reshape(-1, 4))
    assert (tmp_path / "mesh.obj").read_text() == ref.obj_text(surface.f)
