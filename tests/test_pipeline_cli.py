import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from isothermic import ConfigInvalid, GridSpec, IoError, QField, export_obj
from isothermic.cli import main as cli_main
from isothermic.pipeline import PipelineConfig, run_pipeline

from conftest import sample_values
from isothermic import oracles as oc


BASE_CONFIG = {
    "grid_n": 33,
    "generator": {"kind": "example", "lambda": 1.0},
    "transforms": [],
    "verify": {"isothermic": True},
    "export": {},
}


def config(**overrides):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw.update(overrides)
    return PipelineConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_unknown_keys_rejected():
    with pytest.raises(ConfigInvalid):
        config(mystery=1)
    with pytest.raises(ConfigInvalid):
        PipelineConfig.from_dict({"generator": {"kind": "example"},
                                  "verify": {"everything": True}})


def test_anisotropic_spacing_rejected():
    with pytest.raises(ConfigInvalid):
        PipelineConfig.from_dict({"generator": {"kind": "example"},
                                  "grid_nx": 33, "grid_ny": 65})


def test_unknown_generator_rejected():
    with pytest.raises(ConfigInvalid):
        PipelineConfig.from_dict({"generator": {"kind": "mystery"}})


# ---------------------------------------------------------------------------
# pipeline runs
# ---------------------------------------------------------------------------

def test_pipeline_spectral_chain(tmp_path):
    cfg = config(
        grid_n=65,
        transforms=[{"op": "t_transform", "lambda": 1.0}],
        export={"surface": "t.json", "report": "report.json", "obj": "t.obj"},
    )
    report, artifacts, surface = run_pipeline(cfg, str(tmp_path))
    assert report.all_passed()
    assert set(artifacts) == {"surface", "report", "obj"}
    target = sample_values(surface.grid, lambda z: oc.t_plane(z, 1.0))
    assert np.abs(surface.f.values - target).max() < 1e-5
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["all_passed"] is True
    for check in doc["checks"]:
        assert np.isfinite(check["residual"])
        assert check["pass"] == (check["residual"] <= check["tolerance"])


def test_pipeline_weierstrass_generator(tmp_path):
    cfg = config(
        grid_n=65,
        generator={"kind": "weierstrass", "data": "plane"},
        verify={"isothermic": True, "spherical_type": True},
    )
    report, _, _ = run_pipeline(cfg, str(tmp_path))
    assert report.all_passed()


def test_pipeline_cmc_generator_mean_curvature(tmp_path):
    cfg = config(
        grid_n=129,
        generator={"kind": "darboux-weierstrass", "data": "plane", "lambda": 1.0},
        verify={"mean_curvature": True},
    )
    report, _, _ = run_pipeline(cfg, str(tmp_path))
    assert report.all_passed()
    assert abs(abs(report.notes["mean_curvature"]) - 2.0) < 1e-3


def test_pipeline_double_dual_chain_is_identity(tmp_path):
    cfg = config(grid_n=65, transforms=[{"op": "christoffel"},
                                        {"op": "christoffel"}])
    report, _, surface = run_pipeline(cfg, str(tmp_path))
    base = sample_values(surface.grid, oc.f_plane)
    diff = surface.f.values - base
    center = surface.grid.center_node()
    assert np.abs(diff - diff[center[0], center[1]]).max() < 1e-9


def test_reports_bitwise_reproducible(tmp_path):
    cfg = config(grid_n=65, transforms=[{"op": "t_transform", "lambda": 0.5}],
                 verify={"isothermic": True, "permutability": True},
                 export={"report": "report.json"}, seed=11)
    run_pipeline(cfg, str(tmp_path / "a"))
    run_pipeline(cfg, str(tmp_path / "b"))
    first = (tmp_path / "a" / "report.json").read_bytes()
    second = (tmp_path / "b" / "report.json").read_bytes()
    assert first == second


# ---------------------------------------------------------------------------
# OBJ export
# ---------------------------------------------------------------------------

def test_obj_minimal_grid(tmp_path):
    g = GridSpec(0.0, 0.0, 1.0, 4, 4)
    vals = np.zeros((4, 4, 4))
    vals[..., 1] = 1.0
    path = tmp_path / "flat.obj"
    export_obj(QField(g, vals), str(path))
    lines = path.read_text().strip().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 16
    assert sum(1 for l in lines if l.startswith("f ")) == 9


def test_obj_plane_sheet(tmp_path, plane65):
    path = tmp_path / "plane.obj"
    export_obj(plane65.f, str(path))
    verts = [
        tuple(float(t) for t in line.split()[1:])
        for line in path.read_text().splitlines()
        if line.startswith("v ")
    ]
    arr = np.asarray(verts)
    assert np.abs(arr[:, 0]).max() < 1e-12  # flat sheet in the j-k plane


def test_obj_golden_hash(tmp_path, catenoid129):
    # deformation-family member at lam = 1: frozen byte-level golden hash
    path = tmp_path / "family.obj"
    export_obj(catenoid129.f, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path2 = tmp_path / "family2.obj"
    export_obj(catenoid129.f, str(path2))
    assert hashlib.sha256(path2.read_bytes()).hexdigest() == digest
    golden = "569e22bfec3b41c3f4fe339ceb2aee0ca19e324359d2956ed8122d22f45de264"
    assert digest == golden


def test_obj_fully_masked_rejected(tmp_path):
    g = GridSpec(0.0, 0.0, 1.0, 4, 4,
                 mask=np.zeros((4, 4), dtype=bool))
    with pytest.raises(IoError):
        export_obj(QField(g, np.zeros((4, 4, 4))), str(tmp_path / "none.obj"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_verify_pass(tmp_path, capsys):
    code = cli_main(["verify", "--grid-n", "33", "--out", str(tmp_path)])
    assert code == 0
    assert "pass" in capsys.readouterr().out


def test_cli_verify_failure_exit_code(tmp_path, capsys):
    cfg = {
        "grid_n": 33,
        "generator": {"kind": "example"},
        "verify": {"spherical_type": True},  # the flat plane is umbilic
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = cli_main(["verify", "--config", str(p), "--out", str(tmp_path)])
    assert code == 3  # umbilic patch surfaces as a numerical-domain error


def test_cli_failing_check_returns_one(tmp_path, capsys):
    # wildly loose grid so the spectral surface misses the flat certificate
    cfg = {
        "grid_n": 33,
        "generator": {"kind": "darboux-weierstrass", "data": "plane",
                      "lambda": 1.0},
        "verify": {"mean_curvature": True},
        "tolerance_scale": 1.0,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = cli_main(["verify", "--config", str(p), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code in (0, 1)  # coarse grid may or may not clear 1e-3
    assert "mean_curvature" in out


def test_cli_config_error_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"generator": {"kind": "example"}, "bogus": 1}))
    assert cli_main(["verify", "--config", str(p)]) == 2


def test_cli_transform_chain_roundtrip(tmp_path, capsys):
    cfg = {
        "grid_n": 33,
        "generator": {"kind": "example"},
        "transforms": [{"op": "christoffel"}, {"op": "christoffel"}],
        "verify": {"isothermic": True},
        "export": {"obj": "round.obj"},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = cli_main(["transform", "--config", str(p), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "round.obj").exists()


def test_cli_sweep(tmp_path, capsys):
    code = cli_main([
        "sweep", "--grid-n", "33", "--out", str(tmp_path),
        "--lambdas", "0,0.25,0.5,1",
    ])
    assert code == 0
    objs = [f for f in os.listdir(tmp_path) if f.endswith(".obj")]
    assert len(objs) == 4
    family = json.loads((tmp_path / "family_report.json").read_text())
    assert [m["lambda"] for m in family["members"]] == [0.0, 0.25, 0.5, 1.0]


def test_cmc_surface_header(tmp_path):
    cfg = config(
        grid_n=33,
        generator={"kind": "darboux-weierstrass", "data": "plane", "lambda": 1.0},
        export={"surface": "cmc.json"},
        verify={},
    )
    run_pipeline(cfg, str(tmp_path))
    doc = json.loads((tmp_path / "cmc.json").read_text())
    assert doc["model"] == "halfspace"
    assert doc["route"] == "darboux-weierstrass"
    assert doc["lambda"] == 1.0


# ---------------------------------------------------------------------------
# input boundary and exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_lambda(tmp_path, capsys, value):
    out = tmp_path / "out"
    code = cli_main(["generate", "--grid-n", "17", f"--lambda={value}", "--out", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
    code = cli_main(["sweep", "--grid-n", "17", "--lambdas", f"0.5,{value}",
                     "--out", str(out)])
    assert code == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("raw", [
    '{"generator": {"kind": "example", "lambda": NaN}}',
    '{"generator": {"kind": "example", "lambda": "abc"}}',
    '{"generator": {"kind": "example"}, "transforms": [{"op": "t_transform", "lambda": Infinity}]}',
])
def test_config_rejects_non_finite_lambda(tmp_path, raw):
    p = tmp_path / "cfg.json"
    p.write_text(raw)
    out = tmp_path / "out"
    assert cli_main(["generate", "--grid-n", "17", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("edit, message", [
    ({"grid_n": "abc"}, "grid_n must be an integer"),
    ({"domain": "x"}, "domain must be a mapping"),
    ({"seed": "s"}, "seed must be an integer"),
    ({"generator": [1]}, "generator must be a mapping"),
    ({"domain": {"x0": "a"}}, "domain x0 must be a number"),
    ({"domain": {"x0": float("inf")}}, "domain x0 must be finite"),
    ({"domain": {"width": -2.0, "height": -2.0}}, "must be positive"),
    ({"grid_n": 33.9}, "grid_n must be an integer, got 33.9"),
    ({"seed": 2.7}, "seed must be an integer, got 2.7"),
    ({"seed": True}, "seed must be an integer, got True"),
], ids=["grid_n", "domain_not_mapping", "seed", "generator_not_mapping",
        "domain_value", "domain_non_finite", "negative_size", "grid_n_fractional",
        "seed_fractional", "seed_bool"])
def test_cli_rejects_config_field_of_wrong_type(tmp_path, capsys, edit, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, **edit)))
    out = tmp_path / "out"
    assert cli_main(["generate", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and message in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_config_accepts_integral_float():
    cfg = config(grid_n=33.0, seed=2.0)
    assert (cfg.grid_nx, cfg.grid_ny, cfg.seed) == (33, 33, 2)
    assert all(type(v) is int for v in (cfg.grid_nx, cfg.grid_ny, cfg.seed))


def test_cli_rejects_grid_n_zero(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["generate", "--grid-n", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "grid too small" in err
    assert not out.exists() or not any(out.iterdir())


def test_json_writers_refuse_non_finite(tmp_path):
    from isothermic.grid import save_field
    from isothermic.pipeline import _write_json

    g = GridSpec.square(1.0, 5)
    vals = np.zeros((5, 5, 4))
    vals[2, 3, 1] = np.nan
    with pytest.raises(IoError):
        save_field(QField(g, vals), str(tmp_path / "nan.json"))
    with pytest.raises(IoError):
        _write_json(str(tmp_path / "inf.json"), {"residual": float("inf")})
    assert list(tmp_path.iterdir()) == []


def test_empty_report_does_not_pass(tmp_path, capsys):
    report, _, _ = run_pipeline(config(verify={}), str(tmp_path))
    assert report.checks == []
    assert not report.all_passed()
    assert report.to_dict()["all_passed"] is False
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, verify={"isothermic": False})))
    assert cli_main(["verify", "--config", str(p), "--out", str(tmp_path)]) == 1


def test_cli_sweep_failing_member_returns_one(tmp_path, capsys, monkeypatch):
    from isothermic import pipeline

    # a negative tolerance fails every isothermic check of the family
    monkeypatch.setattr(pipeline, "TAU_ISOTHERMIC", -1.0)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(BASE_CONFIG))
    code = cli_main(["sweep", "--config", str(p), "--grid-n", "17",
                     "--lambdas", "0.25,0.5", "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def _surface_file(tmp_path, edit):
    """A valid 17x17 surface file changed by edit(doc); returns the verify config path."""
    g = GridSpec.square(1.0, 17)
    doc = {"grid": {"x0": g.x0, "y0": g.y0, "h": g.h, "nx": 17, "ny": 17},
           "values": oc.f_plane(g.zgrid()).reshape(-1, 4).tolist(),
           "polarization": "dz2", "lambda": 1.0, "provenance": []}
    edit(doc)
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 17, "generator": {"kind": "file", "path": str(surface)}}))
    return str(cfg)


def test_cli_reads_surface_file(tmp_path, capsys):
    cfg = _surface_file(tmp_path, lambda doc: None)
    assert cli_main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["values"].pop(), "(288, 4)"),
    (lambda doc: doc["values"].append([0.0] * 4), "(290, 4)"),
    (lambda doc: doc.update(mask=[1] * 289), "'mask'"),
    (lambda doc: doc.update(colour="red"), "'colour'"),
    (lambda doc: doc["values"][7].__setitem__(2, float("nan")), "finite"),
], ids=["truncated", "over_long", "top_level_mask", "unknown_key", "non_finite"])
def test_cli_rejects_malformed_surface_file(tmp_path, capsys, edit, message):
    code = cli_main(["verify", "--config", _surface_file(tmp_path, edit),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error") and message in err
    assert "Traceback" not in err


def test_cli_family_overflow_names_node(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"grid_n": 17, "generator": {
        "kind": "bryant", "data": "family", "lambda": 1e6}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["generate", "--config", str(p), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "overflow" in err and "(at node (0, 0))" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
