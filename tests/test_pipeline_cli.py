import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isothermic import (ConfigInvalid, DegenerateTangent, GeometryError, GridSpec, IoError,
                        QField, export_obj)
from isothermic.cli import main as cli_main
from isothermic.pipeline import (
    FIELDS,
    GENERATOR_KINDS,
    MAX_GRID_N,
    REQUIRED,
    TRANSFORM_OPS,
    InvariantReport,
    PipelineConfig,
    run_pipeline,
)

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


#: at grid_n 33 the Liouville residual of this cmc surface misses its 1e-3 bound
FAILING_CHECK = {
    "grid_n": 33,
    "generator": {"kind": "darboux-weierstrass", "data": "plane", "lambda": 0.5},
    "verify": {"spherical_type": True},
    "export": {"report": "report.json"},
}


def test_cli_failing_check_returns_one(tmp_path, capsys):
    """A configured check that fails gives exit 1 from every command that runs it."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(FAILING_CHECK))
    for command in ("verify", "generate"):
        out_dir = tmp_path / command
        assert cli_main([command, "--config", str(p), "--out", str(out_dir)]) == 1, command
        assert "FAIL  liouville_residual: residual 2.440e-03 (tol 1.0e-03)" in \
            capsys.readouterr().out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["all_passed"] is False
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [
            ("liouville_residual", False)]


def test_cli_rejects_the_removed_tolerance_scale_key(tmp_path, capsys):
    """The gates take their threshold from the grid spacing alone; a config
    that still sets a scale on them is invalid like any unknown key."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, tolerance_scale=1.0,
                                 export={"report": "report.json"})))
    out = tmp_path / "out"
    assert cli_main(["generate", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unknown keys in config: ['tolerance_scale']")
    assert not out.exists()


def test_verify_certifies_the_input_surface_once(tmp_path, monkeypatch):
    """With verify.isothermic and verify.permutability the isothermic check
    reads the certificate the permutability suite computed for its input."""
    from isothermic import pipeline, surfaces, transforms

    original = surfaces.isothermic_certificate
    certified = []

    def counted(surface):
        certified.append(surface)
        return original(surface)

    for module in (pipeline, transforms):
        monkeypatch.setattr(module, "isothermic_certificate", counted)
    report, _, surface = run_pipeline(
        config(grid_n=65, verify={"isothermic": True, "permutability": True}), str(tmp_path))
    assert sum(s is surface for s in certified) == 1
    assert [c.name for c in report.checks] == [
        "isothermic_certificate", "permutability_p1", "permutability_p2_positioning",
        "permutability_p2_translation", "permutability_p3"]
    assert report.all_passed()
    assert report.checks[0].residual == original(surface)[1]


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
    assert sorted(objs) == ["member_0.obj", "member_0p25.obj", "member_0p5.obj", "member_1.obj"]
    family = json.loads((tmp_path / "family_report.json").read_text())
    assert [m["lambda"] for m in family["members"]] == [0.0, 0.25, 0.5, 1.0]


def test_cli_sweep_close_lambdas_get_distinct_files(tmp_path, capsys):
    """Parameters equal to six significant digits are named in full, so
    neither member's mesh overwrites the other's."""
    code = cli_main(["sweep", "--grid-n", "17", "--out", str(tmp_path),
                     "--lambdas", "0.1234567,0.1234568"])
    assert code == 0
    family = json.loads((tmp_path / "family_report.json").read_text())
    names = [m["obj"] for m in family["members"]]
    assert names == ["member_0p1234567.obj", "member_0p1234568.obj"]
    assert sorted(f for f in os.listdir(tmp_path) if f.endswith(".obj")) == names


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


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_out_under_a_file_is_an_io_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli_main([command, "--grid-n", "17", "--out", str(blocker / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("I/O error: cannot create output directory")
    assert "Traceback" not in err


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
    ({"domain": {"x0": "a"}}, "domain x0 must be a finite number, got 'a'"),
    ({"domain": {"x0": float("inf")}}, "domain x0 must be a finite number, got inf"),
    ({"domain": {"width": -2.0, "height": -2.0}}, "must be positive"),
    ({"grid_n": 33.9}, "grid_n must be an integer, got 33.9"),
    ({"seed": 2.7}, "seed must be an integer, got 2.7"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"transforms": [{"op": "goursat", "m": "abc"}]},
     "transform goursat m must be finite numbers of shape (3,), got 'abc'"),
    ({"transforms": [{"op": "goursat", "m": [1]}]},
     "transform goursat m must be finite numbers of shape (3,), got [1]"),
    ({"transforms": [{"op": "goursat", "m": [1, float("nan"), 0]}]},
     "transform goursat m must be finite numbers of shape (3,), got [1, nan, 0]"),
    ({"transforms": [{"op": "darboux", "d0": "x"}]},
     "transform darboux d0 must be finite numbers of shape (4,), got 'x'"),
    ({"generator": {"kind": "darboux-weierstrass", "v0": [[1]]}},
     "generator v0 must be finite numbers of shape (2, 4), got [[1]]"),
    ({"transforms": [{"op": "darboux_linear", "v0": [[1, 0, 0], [0, -1, 0, 0]]}]},
     "transform darboux_linear v0 must be finite numbers of shape (2, 4)"),
    ({"export": {"obj": 5}}, "export obj must be a file name, got 5"),
    ({"generator": {"kind": "file", "path": 5}}, "generator path must be a string, got 5"),
    ({"verify": {"isothermic": "no"}}, "verify isothermic must be true or false, got 'no'"),
    ({"generator": {"kind": "example", "lambda": True}},
     "generator lambda must be a finite number, got True"),
    ({"export": {"obj": ""}}, "export obj must be a file name, got ''"),
    ({"generator": {"kind": "file", "path": "no-such-dir/surface.json"}},
     "cannot read field from no-such-dir/surface.json"),
    ({"generator": {"kind": "file", "path": "."}}, "cannot read field from ."),
    ({"generator": {"kind": []}},
     "generator kind must be one of ('example', 'weierstrass', 'bryant', "
     "'darboux-weierstrass', 'file'), got []"),
    ({"generator": {"kind": {}}},
     "generator kind must be one of ('example', 'weierstrass', 'bryant', "
     "'darboux-weierstrass', 'file'), got {}"),
    ({"seed": -1, "verify": {"permutability": True}}, "seed must be non-negative, got -1"),
    ({"generator": {"kind": "bryant", "lambda": 0}, "verify": {"mean_curvature": True}},
     "verify mean_curvature needs a nonzero spectral parameter, got lambda = 0"),
    ({"generator": {"kind": "weierstrass", "v0": [[1, 0, 0, 0], [0, 1, 0, 0]]}},
     "unknown keys in generator: ['v0']"),
    ({"generator": {"kind": "bryant", "v0": [[1, 0, 0, 0], [0, 1, 0, 0]]}},
     "unknown keys in generator: ['v0']"),
    ({"transforms": [{"op": "christoffel", "lambda": 0.5}]},
     "unknown keys in transform christoffel: ['lambda']"),
    ({"transforms": [{"op": "goursat", "lambda": 0.5}]},
     "unknown keys in transform goursat: ['lambda']"),
], ids=["grid_n", "domain_not_mapping", "seed", "generator_not_mapping",
        "domain_value", "domain_non_finite", "negative_size", "grid_n_fractional",
        "seed_fractional", "seed_bool", "goursat_m_string", "goursat_m_short",
        "goursat_m_non_finite", "darboux_d0_string", "weierstrass_v0_shape",
        "darboux_linear_v0_ragged", "export_path_number", "file_path_number",
        "verify_flag_string", "lambda_bool", "export_path_empty", "file_path_missing",
        "file_path_directory", "kind_list", "kind_dict", "seed_negative",
        "mean_curvature_zero_lambda", "weierstrass_v0", "bryant_v0", "christoffel_lambda",
        "goursat_lambda"])
def test_cli_rejects_config_field_of_wrong_type(tmp_path, capsys, edit, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, **edit)))
    out = tmp_path / "out"
    assert cli_main(["generate", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and message in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_cli_rejects_permutability_at_zero_lambda(tmp_path, capsys):
    # the permutability suite divides by the spectral parameter
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, grid_n=17, verify={"permutability": True},
                                 generator={"kind": "example", "lambda": 0})))
    out = tmp_path / "out"
    assert cli_main(["verify", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "needs a nonzero spectral parameter, got lambda = 0" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert cli_main(["sweep", "--config", str(p), "--lambdas", "0.5,0",
                     "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("edit, args, message", [
    ({"verify": {"permutability": True}}, ["verify", "--seed", "-3"],
     "seed must be non-negative, got -3"),
    ({"generator": {"kind": "bryant", "lambda": 1.0}, "verify": {"mean_curvature": True}},
     ["sweep"], "verify mean_curvature needs a nonzero spectral parameter, got lambda = 0"),
    ({"domain": {"width": 2.0, "height": 4.0}, "grid_nx": 33, "grid_ny": 65},
     ["generate", "--grid-n", "17"], "anisotropic spacing hx=0.125 != hy=0.25"),
], ids=["seed_flag_negative", "sweep_default_lambdas_mean_curvature",
        "grid_n_flag_anisotropic"])
def test_cli_flags_are_validated_like_config_fields(tmp_path, capsys, edit, args, message):
    raw = {key: value for key, value in BASE_CONFIG.items() if key != "grid_n"}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(raw, grid_n=17, **edit)))
    out = tmp_path / "out"
    assert cli_main(args + ["--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_unknown_last_op_is_rejected_before_the_generator(tmp_path, capsys, monkeypatch):
    from isothermic import pipeline

    def generator_ran(grid, gen):
        pytest.fail("the generator ran before the whole config was checked")

    for kind in GENERATOR_KINDS:
        monkeypatch.setitem(pipeline.GENERATORS, kind, generator_ran)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, grid_n=17, transforms=[
        {"op": "christoffel"}, {"op": "t_transform", "lambda": 0.5}, {"op": "mystery"}])))
    out = tmp_path / "out"
    assert cli_main(["transform", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert "transform op must be one of ('christoffel'," in err and "got 'mystery'" in err
    assert not out.exists()


@pytest.mark.parametrize("n, failing", [(33, ["permutability_p2_certificate"]), (65, [])])
def test_cli_permutability_names_the_failing_p2_certificate(tmp_path, capsys, n, failing):
    """At grid_n 33 the input passes its certificate and P2's Darboux
    transform misses its own: a failed check (exit 1) with a line of its
    own, which a passing certificate does not print, as at grid_n 65."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, grid_n=n,
                                 generator={"kind": "example", "lambda": 0.8},
                                 verify={"permutability": True, "isothermic": True},
                                 export={"report": "report.json"})))
    out = tmp_path / "out"
    assert cli_main(["verify", "--config", str(p), "--out", str(out)]) == int(bool(failing))
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert [c["name"] for c in checks] == [
        "isothermic_certificate", "permutability_p1", "permutability_p2_positioning",
        "permutability_p2_translation", *failing, "permutability_p3"]
    assert [c["name"] for c in checks if not c["pass"]] == failing
    if failing:
        assert "FAIL  permutability_p2_certificate: residual 1.796e-04 (tol 1.0e-04)" in (
            captured.out)


@pytest.mark.parametrize("verify", [{"isothermic": True}, {"permutability": True},
                                    {"permutability": True, "isothermic": True}],
                         ids=["isothermic", "permutability", "both"])
def test_cli_permutability_reports_a_missed_input_certificate(tmp_path, capsys, verify):
    """Two Darboux transforms of the example at grid_n 17 miss the input
    certificate: with the permutability suite configured too, that is the
    same failed check (exit 1) as with the isothermic check alone, one
    failing isothermic_certificate line, not a numerical failure (exit 3)."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, grid_n=17,
                                 generator={"kind": "example", "lambda": 0.8},
                                 transforms=[{"op": "darboux", "lambda": 0.5}] * 2,
                                 verify=verify, export={"report": "report.json"})))
    out = tmp_path / "out"
    assert cli_main(["verify", "--config", str(p), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "FAIL  isothermic_certificate: residual 8.309e-04 (tol 1.0e-04)" in captured.out
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [("isothermic_certificate", False)]


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("verify", [{"permutability": True}, {"isothermic": True}],
                         ids=["permutability", "isothermic"])
def test_cli_tiny_grid_names_the_trimmed_rings(tmp_path, capsys, verify, n):
    # no node survives the certificate's four trimmed boundary rings
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, grid_n=n, verify=verify)))
    assert cli_main(["verify", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: isothermic certificate: no valid node of "
                          f"the {n}x{n} grid is left after trimming 4 boundary rings")
    assert "Traceback" not in err


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


def test_grid_n_bound_admits_the_sizes_in_use():
    assert MAX_GRID_N >= 257  # the largest grid of the tests and the benchmark
    assert config(grid_n=MAX_GRID_N).grid_nx == MAX_GRID_N


@pytest.mark.parametrize("args", [["--grid-n", str(MAX_GRID_N + 1)], []],
                         ids=["flag", "grid_ny"])
def test_cli_rejects_grid_n_above_the_memory_bound(tmp_path, capsys, args):
    """The first size above the bound exits 2 from the config check, before
    any grid exists."""
    raw = dict(BASE_CONFIG, grid_ny=MAX_GRID_N + 1) if not args else BASE_CONFIG
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli_main(["generate", "--config", str(cfg), "--out", str(out)] + args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    key = "grid_n" if args else "grid_ny"
    assert err.startswith("configuration error")
    assert f"{key} must be at most {MAX_GRID_N} " in err and f"got {MAX_GRID_N + 1}" in err
    assert peak < 2**20  # one grid of the bound would be (MAX_GRID_N + 1)**2 * 32 bytes
    assert not out.exists() or not any(out.iterdir())


UNRESOLVED_DOMAIN = {"x0": -1, "y0": -1, "width": 1e-300, "height": 1e-300}
HUGE_DOMAIN = {"x0": -1, "y0": -1, "width": 1e300, "height": 1e300}


@pytest.mark.parametrize("raw, expected, message", [
    # every node of this domain rounds to -1: a configuration error
    ({"grid_n": 17, "domain": UNRESOLVED_DOMAIN,
      "generator": {"kind": "example"}, "verify": {"isothermic": True}},
     2, "domain spacing 6.25e-302 does not resolve its coordinates"),
    ({"grid_n": 17, "generator": {"kind": "bryant", "lambda": 1e300}},
     3, "Maurer-Cartan residual overflows"),
    # the Weierstrass form overflows; the march's step matrices overflow
    ({"grid_n": 17, "domain": HUGE_DOMAIN, "generator": {"kind": "weierstrass"}},
     3, "Weierstrass form overflows at grid spacing 6.250e+298"),
    ({"grid_n": 17, "domain": HUGE_DOMAIN, "generator": {"kind": "darboux-weierstrass"}},
     3, "state norm nan exceeds 1.0e+12 (at node (1, 0))"),
    # a form of finite entries whose squared norm overflows
    ({"grid_n": 17, "domain": {"x0": 0, "y0": 0, "width": 1e100, "height": 1e100},
      "generator": {"kind": "weierstrass"}},
     3, "Weierstrass form overflows at grid spacing 6.250e+98"),
], ids=["spacing_1e-300", "bryant_lambda_1e300", "weierstrass_width_1e300",
        "darboux_weierstrass_width_1e300", "weierstrass_width_1e100_at_origin"])
def test_cli_numeric_extremes_fail_without_runtime_warnings(tmp_path, capsys, raw, expected,
                                                            message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    command = "verify" if "verify" in raw else "generate"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == expected
    prefix = {2: "configuration error", 3: "numerical failure"}[expected]
    assert err.startswith(prefix) and message in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_surface_jets_overflow_without_runtime_warnings(tmp_path):
    """The engine's own guard, behind the config check: a surface file of
    finite values whose tangents' cross product overflows (the plane scaled
    by 1e300) fails in surface_jets, not with a warning."""
    def scale(doc):
        doc["values"] = (1e300 * np.asarray(doc["values"])).tolist()

    with open(_surface_file(tmp_path, scale)) as fh:
        cfg = PipelineConfig.from_dict(dict(json.load(fh), verify={"isothermic": True}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateTangent,
                           match="immersion derivatives overflow at grid spacing 1.250e-01"):
            run_pipeline(cfg, str(tmp_path / "out"))


def test_unresolved_domain_spacing_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid_n": 17, "domain": UNRESOLVED_DOMAIN, "generator": {"kind": "weierstrass"},
        "export": {"surface": "surface.json", "obj": "surface.obj", "report": "report.json"}}))
    out = tmp_path / "out"
    assert cli_main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: domain spacing 6.25e-302 does not resolve")
    assert "ulp is 2.220446049250313e-16" in err
    assert not out.exists() or not any(out.iterdir())


WEIERSTRASS_KINDS = ("weierstrass", "bryant", "darboux-weierstrass")


@pytest.mark.parametrize("command, generator, message", [
    ("verify", {"kind": "example"}, "pass  isothermic_certificate"),
    *(("generate", {"kind": kind}, "wrote surface") for kind in WEIERSTRASS_KINDS),
], ids=["example", *WEIERSTRASS_KINDS])
def test_tiny_resolved_domain_runs_as_before(tmp_path, capsys, command, generator, message):
    """At x0 = y0 = 0 the same 1e-300 width is resolved (the ulp of 1e-300 is
    about 1.5e-316): the config passes and the engine runs as it did before
    the spacing rule.  The Weierstrass generators run there too: their
    derivatives sum differences, so the constant w differentiates to exactly
    0 (it read about 2.2e-16 / h at the edges while the one-sided weights
    were divided one by one)."""
    raw = {"grid_n": 17, "domain": dict(UNRESOLVED_DOMAIN, x0=0, y0=0), "generator": generator,
           "verify": {"isothermic": True} if command == "verify" else {}}
    PipelineConfig.from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_obj_writer_refuses_non_finite(tmp_path, bad):
    g = GridSpec.square(1.0, 5)
    vals = np.zeros((5, 5, 4))
    vals[2, 3, 1] = bad
    with pytest.raises(IoError, match="NaN or infinity"):
        export_obj(QField(g, vals), str(tmp_path / "mesh.obj"))
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    from isothermic.grid import save_field
    from isothermic.pipeline import _write_json

    def refuse(src, dst):
        raise OSError("disk full")

    g = GridSpec.square(1.0, 5)
    field = QField(g, sample_values(g, oc.f_plane))
    monkeypatch.setattr(os, "replace", refuse)
    for name, write in (("surface.json", lambda path: save_field(field, path)),
                        ("mesh.obj", lambda path: export_obj(field, path)),
                        ("report.json", lambda path: _write_json(path, {"checks": []}))):
        target = tmp_path / name
        target.write_text("old")
        with pytest.raises(IoError, match="disk full"):
            write(str(target))
        assert target.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mesh.obj", "report.json",
                                                          "surface.json"]


def test_empty_report_does_not_pass(tmp_path, capsys):
    report, _, _ = run_pipeline(config(verify={}), str(tmp_path))
    assert report.checks == []
    assert not report.all_passed()
    assert report.to_dict()["all_passed"] is False
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, verify={"isothermic": False})))
    assert cli_main(["verify", "--config", str(p), "--out", str(tmp_path)]) == 1


def test_report_refuses_a_non_finite_residual():
    report = InvariantReport()
    with pytest.raises(GeometryError, match="check p1 produced a non-finite residual"):
        report.add("p1", np.nan, 1e-5, 0.1)
    assert report.checks == []


def test_cli_sweep_needs_a_parameter_value(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["sweep", "--grid-n", "17", "--lambdas", ",", "--out", str(out)]) == 2
    assert "configuration error: sweep needs at least one parameter value" in \
        capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("valid", [0, 1], ids=["all_masked", "one_valid_node"])
def test_cli_mean_curvature_on_a_masked_surface(tmp_path, capsys, valid):
    """A surface file with no valid interior node left fails the mean
    curvature check as a masked region, not with a non-finite residual."""
    def edit(doc):
        doc["grid"]["mask"] = [0] * 289
        doc["grid"]["mask"][144] = valid

    cfg = _surface_file(tmp_path, edit)
    raw = json.loads(Path(cfg).read_text())
    raw["verify"] = {"mean_curvature": True}
    Path(cfg).write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: mean curvature: no valid interior node is left")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(polarization="dz"), "polarization must be 'dz2' or 'dzbar2'"),
    (lambda doc: doc.update(provenance=5), "'int' object is not iterable"),
], ids=["polarization", "provenance"])
def test_cli_rejects_a_surface_file_the_surface_rejects(tmp_path, capsys, edit, message):
    """A polarization or provenance that PolarizedSurface rejects is a
    configuration error of the file (exit 2), not a traceback."""
    code = cli_main(["verify", "--config", _surface_file(tmp_path, edit),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: surface file ") and message in err
    assert "Traceback" not in err


def test_cli_constant_surface_is_degenerate_everywhere(tmp_path, capsys):
    """A surface file whose values are one point: surface_jets finds no node
    with independent tangents, a numerical failure."""
    cfg = _surface_file(tmp_path, lambda doc: doc.update(values=[[0.0, 1.0, 2.0, 3.0]] * 289))
    raw = json.loads(Path(cfg).read_text())
    raw["verify"] = {"isothermic": True}
    Path(cfg).write_text(json.dumps(raw))
    code = cli_main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: immersion degenerate everywhere")


@pytest.mark.parametrize("op", TRANSFORM_OPS)
def test_cli_runs_every_transform_op(tmp_path, capsys, op):
    """Each transform op on the example surface with its default parameters
    runs to completion and writes its surface, as CI's smoke loop checks
    (darboux from its default start point off the surface)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 33, "generator": {"kind": "example"},
                               "transforms": [{"op": op}], "export": {"surface": "surface.json"}}))
    out = tmp_path / "out"
    assert cli_main(["transform", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "surface.json").read_text())
    assert len(doc["values"]) == 33 * 33 and op in " ".join(doc["provenance"])
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("kind", [kind for kind in GENERATOR_KINDS if kind != "file"])
def test_cli_runs_every_generator_kind(tmp_path, capsys, kind):
    """Each generator kind but file (which reads a written surface) with its
    default fields runs to completion and writes its surface, as CI's smoke
    loop checks; the two cmc kinds add their model and route to the file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 33, "generator": {"kind": kind},
                               "export": {"surface": "surface.json"}}))
    out = tmp_path / "out"
    assert cli_main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "surface.json").read_text())
    assert len(doc["values"]) == 33 * 33 and kind in " ".join(doc["provenance"])
    cmc = kind in ("bryant", "darboux-weierstrass")
    assert (doc.get("model"), doc.get("route")) == (("halfspace", kind) if cmc else (None, None))
    assert "Traceback" not in capsys.readouterr().err


def test_cli_darboux_from_a_point_on_the_surface_is_a_singularity(tmp_path, capsys):
    """A Darboux start point on the surface is a numerical failure (exit 3)
    that names the base node, as CI's smoke step checks."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 33, "generator": {"kind": "example"},
                               "transforms": [{"op": "darboux", "d0": [0, 0, 0, 0]}]}))
    assert cli_main(["transform", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: initial point lies on the surface (at node (16, 16))" in err
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


# ---------------------------------------------------------------------------
# fuzzed configs: mutations drawn from the config table
# ---------------------------------------------------------------------------

#: about half the examples mutate a field, half draw a domain (see mutated_configs)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=600)

#: a valid config of each generator kind; "file" reads the fuzz_surface file,
#: whose path the test puts in place of SURFACE
SURFACE = "@surface"
FUZZ_BASES = {
    "example": {"generator": {"kind": "example", "lambda": 0.5}},
    "weierstrass": {"generator": {"kind": "weierstrass", "data": "plane"}},
    "bryant": {"generator": {"kind": "bryant", "data": "family", "lambda": 0.5},
               "verify": {"mean_curvature": True}},
    "darboux-weierstrass": {"generator": {"kind": "darboux-weierstrass", "lambda": 1.0},
                            "verify": {"mean_curvature": True}},
    "file": {"generator": {"kind": "file", "path": SURFACE}},
}
FUZZ_EXPORT = {"obj": "s.obj", "surface": "s.json", "report": "r.json"}
WRONG_TYPES = (True, "abc", None, [[1.0]], {"key": 1.0})


#: a domain coordinate: 0, or of either sign and a magnitude from 1e-300 to 1e300
COORDINATES = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0**e,
                                                st.sampled_from([1.0, -1.0]),
                                                st.floats(-300, 300)))


@st.composite
def mutated_configs(draw):
    """A valid base config with one field of FIELDS mutated, or with its
    domain's corner and (square) size drawn from 0 and 1e-300 to 1e300
    instead."""
    entry = draw(st.sampled_from(FIELDS))
    kinds = entry.only if entry.section == "generator" and entry.only else GENERATOR_KINDS
    raw = json.loads(json.dumps(FUZZ_BASES[draw(st.sampled_from(kinds))]))
    raw.setdefault("verify", {"isothermic": True})
    raw.update(grid_n=draw(st.integers(9, 17)), export=dict(FUZZ_EXPORT))
    if draw(st.booleans()):
        width = abs(draw(COORDINATES)) or 1e-300
        raw["domain"] = {"x0": draw(COORDINATES), "y0": draw(COORDINATES), "width": width,
                         "height": width}
        return raw
    if entry.section == "transforms":
        box = {"op": entry.only[0] if entry.only else "t_transform"}
        raw["transforms"] = [box]
    else:
        box = raw.setdefault(entry.section, {}) if entry.section else raw
    how = ["wrong type", "extra key"]
    how += ["non-finite"] if entry.kind in ("number", "array") else []
    how += ["wrong length"] if entry.kind == "array" else []
    how += ["missing"] if entry.default is REQUIRED else []
    how = draw(st.sampled_from(how))
    if how == "wrong type":
        box[entry.key] = draw(st.sampled_from(WRONG_TYPES))
    elif how == "extra key":
        box["bogus"] = 1.0
    elif how == "non-finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if entry.kind == "number":
            box[entry.key] = bad
        else:
            array = np.full(entry.shape, 0.5)
            array.flat[draw(st.integers(0, array.size - 1))] = bad
            box[entry.key] = array.tolist()
    elif how == "wrong length":
        rows = entry.shape[0] + draw(st.sampled_from([-1, 1]))
        box[entry.key] = np.full((rows,) + entry.shape[1:], 0.5).tolist()
    else:
        del box[entry.key]
    return raw


def _refuse_constant(name):
    raise AssertionError(f"a written JSON file holds {name}")


def _failed_checks(doc):
    checks = doc.get("checks", []) + [c for m in doc.get("members", []) for c in m["checks"]]
    return [c for c in checks if not c["pass"]]


@pytest.fixture(scope="module")
def fuzz_surface(tmp_path_factory):
    cfg = _surface_file(tmp_path_factory.mktemp("fuzz"), lambda doc: None)
    return json.loads(open(cfg).read())["generator"]["path"]


@FUZZ
@given(raw=mutated_configs(), command=st.sampled_from(["verify", "generate", "sweep"]))
def test_cli_fuzzed_config_keeps_the_exit_code_contract(fuzz_surface, raw, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            fh.write(json.dumps(raw).replace(json.dumps(SURFACE), json.dumps(fuzz_surface)))
        argv = [command, "--config", cfg, "--out", out]
        argv += ["--lambdas", "0.25,0.5"] if command == "sweep" else []
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        assert code in (0, 1, 2, 3), err.getvalue()
        written = sorted(os.listdir(out)) if os.path.isdir(out) else []
        if code == 2:
            assert written == [], err.getvalue()
        docs = []
        for name in written:
            text = open(os.path.join(out, name)).read()
            if text.startswith("{"):
                docs.append(json.loads(text, parse_constant=_refuse_constant))
            else:
                vertices = [line.split()[1:] for line in text.splitlines()
                            if line.startswith("v ")]
                assert np.isfinite(np.asarray(vertices, dtype=float)).all()
        if code == 1:
            assert any(_failed_checks(doc) for doc in docs)
