"""Configuration-driven orchestration: generate, transform, verify, export.

Configs are plain JSON with strict validation (unknown keys are rejected);
reports are JSON and reproducible bit-for-bit for a fixed config and seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import oracles
from .cmc import (
    WeierstrassData,
    bryant_surface,
    darboux_weierstrass,
    mean_curvature_hyperbolic,
    spherical_type_certificate,
    weierstrass_minimal,
)
from .errors import ConfigInvalid, GeometryError, IoError
from .grid import GridSpec, load_field, save_field, write_text
from .objio import export_obj
from .quaternion import Quaternion
from .surfaces import TAU_ISOTHERMIC, PolarizedSurface, isothermic_certificate
from .transforms import (
    christoffel,
    darboux_linear,
    darboux_riccati,
    goursat,
    permutability_suite,
    t_transform,
)

DEFAULT_GRID_N = 129
DEFAULT_DOMAIN = {"x0": -1.0, "y0": -1.0, "width": 2.0, "height": 2.0}


def finite_float(value, where):
    """value as a finite float; anything else, a bool too, is invalid input."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = None
    if number is None or isinstance(value, bool):
        raise ConfigInvalid(f"{where} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigInvalid(f"{where} must be finite, got {value!r}")
    return number


def _integer(value, where):
    """value as an int; a bool, a number with a fractional part and anything
    int() cannot convert are invalid input (an integral float such as 33.0
    is accepted)."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool) or (
            isinstance(value, float) and number != value):
        raise ConfigInvalid(f"{where} must be an integer, got {value!r}")
    return number


#: shapes of the array fields of the generator and of transform steps
_ARRAY_FIELDS = {"m": (3,), "d0": (4,), "v0": (2, 4)}


def _check_arrays(section, where):
    """Every array field of section must be finite numbers of its shape."""
    for key, shape in _ARRAY_FIELDS.items():
        if key not in section:
            continue
        try:
            array = np.asarray(section[key], dtype=float)
            ok = array.shape == shape and np.isfinite(array).all()
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigInvalid(f"{where} {key} must be finite numbers of shape {shape}, "
                                f"got {section[key]!r}")


def _check_values(section, valid, description, where):
    """Every value of section must satisfy valid."""
    for key, value in section.items():
        if not valid(value):
            raise ConfigInvalid(f"{where} {key} must be {description}, got {value!r}")


def _mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{where} must be a mapping, got {value!r}")
    return value


def _require_keys(d, allowed, required=(), where="config"):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigInvalid(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigInvalid(f"missing keys in {where}: {sorted(missing)}")


@dataclass
class PipelineConfig:
    domain: dict
    grid_nx: int
    grid_ny: int
    generator: dict
    transforms: list
    verify: dict
    export: dict
    seed: int = 0
    tolerance_scale: float = 1.0

    @classmethod
    def from_dict(cls, raw):
        _require_keys(
            _mapping(raw, "config"),
            allowed={
                "domain", "grid_n", "grid_nx", "grid_ny", "generator",
                "transforms", "verify", "export", "seed", "tolerance_scale",
            },
            required={"generator"},
        )
        domain = dict(DEFAULT_DOMAIN)
        domain.update(_mapping(raw.get("domain", {}), "domain"))
        _require_keys(domain, {"x0", "y0", "width", "height"}, where="domain")
        domain = {key: finite_float(value, f"domain {key}") for key, value in domain.items()}
        if not (domain["width"] > 0 and domain["height"] > 0):
            raise ConfigInvalid("domain width and height must be positive")
        n = _integer(raw.get("grid_n", DEFAULT_GRID_N), "grid_n")
        nx = _integer(raw.get("grid_nx", n), "grid_nx")
        ny = _integer(raw.get("grid_ny", n), "grid_ny")
        if nx < 4 or ny < 4:
            raise ConfigInvalid("grid needs at least 4 samples per side")
        hx = domain["width"] / (nx - 1)
        hy = domain["height"] / (ny - 1)
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ConfigInvalid(
                f"anisotropic spacing hx={hx!r} != hy={hy!r}: conformal "
                "curvature-line sampling needs a square grid"
            )
        generator = dict(_mapping(raw["generator"], "generator"))
        kinds = {"example", "weierstrass", "bryant", "darboux-weierstrass", "file"}
        if generator.get("kind") not in kinds:
            raise ConfigInvalid(
                f"unknown generator kind {generator.get('kind')!r} "
                f"(expected one of {sorted(kinds)})"
            )
        _check_arrays(generator, "generator")
        if not isinstance(generator.get("path", ""), str):
            raise ConfigInvalid(f"generator path must be a string, got {generator['path']!r}")
        transforms = raw.get("transforms", [])
        if not isinstance(transforms, list):
            raise ConfigInvalid(f"transforms must be a list, got {transforms!r}")
        transforms = [dict(_mapping(t, "transform step")) for t in transforms]
        for step in transforms:
            _check_arrays(step, f"transform {step.get('op')}")
        verify = dict(_mapping(raw.get("verify", {}), "verify"))
        _require_keys(
            verify,
            {"isothermic", "spherical_type", "liouville", "mean_curvature",
             "permutability"},
            where="verify",
        )
        _check_values(verify, lambda v: isinstance(v, bool), "true or false", "verify")
        export = dict(_mapping(raw.get("export", {}), "export"))
        _require_keys(export, {"obj", "surface", "report"}, where="export")
        _check_values(export, lambda v: isinstance(v, str) and v != "", "a file name",
                      "export")
        seed = _integer(raw.get("seed", 0), "seed")
        scale = finite_float(raw.get("tolerance_scale", 1.0), "tolerance_scale")
        if scale <= 0:
            raise ConfigInvalid("tolerance_scale must be positive")
        return cls(domain, nx, ny, generator, transforms, verify, export, seed, scale)

    def grid(self):
        return GridSpec(
            self.domain["x0"], self.domain["y0"],
            self.domain["width"] / (self.grid_nx - 1),
            self.grid_nx, self.grid_ny,
        )


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    grid_h: float
    passed: bool
    convergence_order: float | None = None

    def to_dict(self):
        d = {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "grid_h": float(self.grid_h),
            "pass": bool(self.passed),
        }
        if self.convergence_order is not None:
            d["convergence_order"] = float(self.convergence_order)
        return d


@dataclass
class InvariantReport:
    checks: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(self, name, residual, tolerance, grid_h, order=None):
        residual = float(residual)
        if not np.isfinite(residual):
            raise GeometryError(f"check {name} produced a non-finite residual")
        self.checks.append(
            CheckResult(name, residual, tolerance, grid_h, residual <= tolerance, order)
        )

    def all_passed(self):
        """True when at least one check ran and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "all_passed": self.all_passed(),
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _family_weierstrass(grid, lam):
    return WeierstrassData.sample(
        grid,
        partial(oracles.family_g, lam=lam),
        partial(oracles.family_w, lam=lam),
        partial(oracles.family_dg, lam=lam),
    )


def _plane_weierstrass(grid):
    # g = z, w = 1, dg = 1
    return WeierstrassData.sample(grid, np.asarray, np.ones_like, np.ones_like)


def make_surface(config: PipelineConfig):
    """Run the generator; returns (surface, extras dict)."""
    grid = config.grid()
    gen = dict(config.generator)
    kind = gen.pop("kind", None)
    lam = finite_float(gen.pop("lambda", 1.0), "generator.lambda")
    extras = {"lambda": lam}
    if kind == "example":
        _require_keys(gen, set(), where="generator.example")
        surface = PolarizedSurface.sample(grid, oracles.f_plane, "dzbar2",
                                          ("example-plane",))
    elif kind in ("weierstrass", "bryant", "darboux-weierstrass"):
        data_name = gen.pop("data", "plane")
        _require_keys(gen, {"v0"}, where=f"generator.{kind}")
        if data_name == "plane":
            data = _plane_weierstrass(grid)
        elif data_name == "family":
            data = _family_weierstrass(grid, lam)
        else:
            raise ConfigInvalid(f"unknown weierstrass data preset {data_name!r}")
        if kind == "weierstrass":
            surface = weierstrass_minimal(data, tolerance_scale=config.tolerance_scale)
        elif kind == "bryant":
            cmc = bryant_surface(data, lam, tolerance_scale=config.tolerance_scale)
            extras["cmc"] = cmc
            surface = PolarizedSurface(cmc.f, "dz2", ("bryant",))
        else:
            v0 = np.asarray(gen.get("v0", [[1, 0, 0, 0], [0, -1, 0, 0]]), dtype=float)
            cmc = darboux_weierstrass(data, lam, v0=v0,
                                      tolerance_scale=config.tolerance_scale)
            extras["cmc"] = cmc
            surface = PolarizedSurface(cmc.f, "dz2", ("darboux-weierstrass",))
    elif kind == "file":
        _require_keys(gen, {"path"}, required={"path"}, where="generator.file")
        fld, doc = load_field(gen["path"])
        _require_keys(doc, {"grid", "values", "polarization", "lambda", "provenance",
                            "model", "route"}, where=f"surface file {gen['path']}")
        surface = PolarizedSurface(fld, doc.get("polarization", "dz2"),
                                   tuple(doc.get("provenance", ())))
    else:
        raise ConfigInvalid(f"unknown generator kind {kind!r}")
    return surface, extras


def apply_transforms(surface: PolarizedSurface, steps, config: PipelineConfig):
    for step in steps:
        step = dict(step)
        op = step.pop("op", None)
        lam = finite_float(step.pop("lambda", 1.0), f"transform {op} lambda")
        if op == "christoffel":
            _require_keys(step, set(), where="transform.christoffel")
            surface = christoffel(surface, tolerance_scale=config.tolerance_scale)
        elif op == "goursat":
            m = step.pop("m", [1.0, 0.0, 0.0])
            _require_keys(step, set(), where="transform.goursat")
            surface = goursat(surface, Quaternion.from_imag(m),
                              tolerance_scale=config.tolerance_scale)
        elif op == "darboux":
            d0 = step.pop("d0", None)
            _require_keys(step, set(), where="transform.darboux")
            if d0 is None:
                from .surfaces import normal_field

                p0 = surface.grid.center_node()
                nrm = normal_field(surface)
                d0 = surface.f.value_at(p0) + nrm.values[p0[0], p0[1]]
            else:
                d0 = np.asarray(d0, dtype=float)
            surface = darboux_riccati(surface, lam, d0=d0,
                                      tolerance_scale=config.tolerance_scale)
        elif op == "darboux_linear":
            v0 = np.asarray(step.pop("v0", [[1, 0, 0, 0], [0, -1, 0, 0]]), dtype=float)
            _require_keys(step, set(), where="transform.darboux_linear")
            surface = darboux_linear(surface, lam, v0=v0,
                                     tolerance_scale=config.tolerance_scale)
        elif op == "t_transform":
            _require_keys(step, set(), where="transform.t_transform")
            surface = t_transform(surface, lam,
                                  tolerance_scale=config.tolerance_scale).surface
        else:
            raise ConfigInvalid(f"unknown transform op {op!r}")
    return surface


def run_verifications(surface, extras, config: PipelineConfig, report: InvariantReport):
    grid = surface.grid
    h = grid.h
    verify = config.verify
    if verify.get("isothermic"):
        _, res = isothermic_certificate(surface)
        report.add("isothermic_certificate", res, TAU_ISOTHERMIC, h)
    if verify.get("spherical_type") or verify.get("liouville"):
        _, res = spherical_type_certificate(surface)
        report.add("liouville_residual", res, 1e-3, h)
    if verify.get("mean_curvature"):
        lam = extras.get("lambda", 1.0)
        _, mean, std, _ = mean_curvature_hyperbolic(surface.f, lam)
        report.add("mean_curvature_std", std, 1e-3, h)
        report.add(
            "mean_curvature_value", abs(abs(mean) - 2.0 * abs(lam)), 1e-3, h
        )
        report.notes["mean_curvature"] = mean
    if verify.get("permutability"):
        lam = extras.get("lambda", 1.0)
        rep = permutability_suite(surface, lam, seed=config.seed)
        report.add("permutability_p1", rep.p1_residual, rep.tau, h)
        report.add("permutability_p2_positioning", rep.p2_pointwise, 100 * rep.tau, h)
        report.add("permutability_p3", rep.p3_residual, rep.tau, h)
    return report


def _write_json(path, doc):
    """Write doc as JSON atomically; a NaN or infinity fails before any write."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None
    write_text(path, text, "JSON")


def _make_dir(out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from None


def _check_lambda(verify, lam):
    """The permutability suite divides by the spectral parameter."""
    if verify.get("permutability") and finite_float(lam, "generator.lambda") == 0.0:
        raise ConfigInvalid("verify permutability needs a nonzero spectral parameter, "
                            "got lambda = 0")


def run_pipeline(config: PipelineConfig, out_dir="."):
    """Generate, transform, verify, export; returns (report, artifact paths)."""
    _check_lambda(config.verify, config.generator.get("lambda", 1.0))
    _make_dir(out_dir)
    report = InvariantReport()
    surface, extras = make_surface(config)
    surface = apply_transforms(surface, config.transforms, config)
    run_verifications(surface, extras, config, report)
    artifacts = {}
    if config.export.get("surface"):
        path = os.path.join(out_dir, config.export["surface"])
        header = {
            "polarization": surface.polarization,
            "lambda": extras.get("lambda"),
            "provenance": list(surface.provenance),
        }
        if "cmc" in extras and not config.transforms:
            cmc = extras["cmc"]
            header.update({"model": "halfspace", "route": cmc.route})
        save_field(surface.f, path, header)
        artifacts["surface"] = path
    if config.export.get("obj"):
        path = os.path.join(out_dir, config.export["obj"])
        export_obj(surface.f, path)
        artifacts["obj"] = path
    if config.export.get("report"):
        path = os.path.join(out_dir, config.export["report"])
        _write_json(path, report.to_dict())
        artifacts["report"] = path
    return report, artifacts, surface


def sweep(config: PipelineConfig, lambdas, out_dir="."):
    """Spectral family: run the pipeline for each parameter, one OBJ each.

    If the transform chain carries no spectral step, one is appended, so
    sweeping a bare generator yields the deformation family of its surface.
    """
    for lam in lambdas:  # reject the family before any member runs
        _check_lambda(config.verify, lam)
    _make_dir(out_dir)
    steps = [dict(t) for t in config.transforms]
    if not any(t.get("op") == "t_transform" for t in steps):
        steps.append({"op": "t_transform"})
    family_report = {"members": []}
    for lam in lambdas:
        member = PipelineConfig(
            config.domain, config.grid_nx, config.grid_ny,
            dict(config.generator, **{"lambda": lam}),
            [dict(t, **({"lambda": lam} if t.get("op") == "t_transform" else {}))
             for t in steps],
            config.verify,
            {},
            config.seed,
            config.tolerance_scale,
        )
        report, _, surface = run_pipeline(member, out_dir)
        tag = f"{lam:g}".replace("-", "m").replace(".", "p")
        path = os.path.join(out_dir, f"member_{tag}.obj")
        export_obj(surface.f, path)
        family_report["members"].append(
            {"lambda": lam, "obj": os.path.basename(path),
             "checks": report.to_dict()["checks"]}
        )
    path = os.path.join(out_dir, "family_report.json")
    _write_json(path, family_report)
    return family_report, path


def load_config(path) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from None
    return PipelineConfig.from_dict(raw)
