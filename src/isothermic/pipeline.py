"""Configuration-driven orchestration: generate, transform, verify, export.

Every config rule is in one table, FIELDS.  PipelineConfig.from_dict walks
all of it (unknown or missing keys, each value's kind and range, defaults
filled in), then checks the cross-field rules, before any work runs; the
CLI flags and every sweep member go through it too.  Each generator kind is
named once, as a key of GENERATORS, and each transform op once, as a key of
TRANSFORMS; GENERATOR_KINDS and TRANSFORM_OPS are their keys in order.  The
generator, the transforms and the checks read only validated values.
Reports are JSON and reproducible bit-for-bit for a fixed config and seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import NamedTuple

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
from .errors import ConfigInvalid, GeometryError, IoError, NotClosed
from .grid import GridSpec, load_field, save_field, surface_texts, write_text
from .objio import export_obj
from .quaternion import from_imag3
from .surfaces import TAU_ISOTHERMIC, PolarizedSurface, isothermic_certificate
from .transforms import (
    V0,
    christoffel,
    darboux_linear,
    darboux_riccati,
    goursat,
    permutability_suite,
    t_transform,
)

DEFAULT_GRID_N = 129
#: tracemalloc peak per grid node of the heaviest run, a permutability verify
#: (4.5-4.6 kB at n = 129 and 257), rounded up
PEAK_BYTES_PER_NODE = 4700
MEMORY_BUDGET = 2**31
#: samples per grid side whose square grid stays within MEMORY_BUDGET
MAX_GRID_N = math.isqrt(MEMORY_BUDGET // PEAK_BYTES_PER_NODE)
GRID_N_RANGE = f"at most {MAX_GRID_N} (a {MEMORY_BUDGET >> 30} GiB memory estimate)"
REQUIRED = object()  # the default of a field that must be given


# ---------------------------------------------------------------------------
# generators and transforms
# ---------------------------------------------------------------------------

def _file(grid, gen):
    fld, doc = load_field(gen["path"])
    _require_keys(doc, {"grid", "values", "polarization", "lambda", "provenance",
                        "model", "route"}, f"surface file {gen['path']}")
    try:  # a polarization or provenance the surface rejects is the file's error
        return PolarizedSurface(fld, doc.get("polarization", "dz2"),
                                tuple(doc.get("provenance", ()))), {}
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"surface file {gen['path']}: {exc}") from None


def _weierstrass_data(grid, gen):
    if gen["data"] == "plane":  # g = z, w = 1, dg = 1
        return WeierstrassData.sample(grid, np.asarray, np.ones_like, np.ones_like)
    lam = gen["lambda"]
    return WeierstrassData.sample(grid, partial(oracles.family_g, lam=lam),
                                  partial(oracles.family_w, lam=lam),
                                  partial(oracles.family_dg, lam=lam))


def _cmc(kind, cmc):
    """The surface of a cmc kind and the header keys that name its model and route."""
    return PolarizedSurface(cmc.f, "dz2", (kind,)), {"model": "halfspace", "route": cmc.route}


#: generator kind -> (grid, generator config) -> (surface, extra surface file header)
GENERATORS = {
    "example": lambda grid, gen: (PolarizedSurface.sample(grid, oracles.f_plane, "dzbar2",
                                                          ("example-plane",)), {}),
    "weierstrass": lambda grid, gen: (weierstrass_minimal(_weierstrass_data(grid, gen)), {}),
    "bryant": lambda grid, gen: _cmc("bryant", bryant_surface(_weierstrass_data(grid, gen),
                                                              gen["lambda"])),
    "darboux-weierstrass": lambda grid, gen: _cmc("darboux-weierstrass", darboux_weierstrass(
        _weierstrass_data(grid, gen), gen["lambda"], v0=gen["v0"])),
    "file": _file,
}
#: transform op -> (surface, step config) -> surface
TRANSFORMS = {
    "christoffel": lambda s, step: christoffel(s),
    "goursat": lambda s, step: goursat(s, from_imag3(step["m"])),
    "darboux": lambda s, step: darboux_riccati(s, step["lambda"], d0=step.get("d0")),
    "darboux_linear": lambda s, step: darboux_linear(s, step["lambda"], v0=step["v0"]),
    "t_transform": lambda s, step: t_transform(s, step["lambda"]).surface,
}
GENERATOR_KINDS = tuple(GENERATORS)
TRANSFORM_OPS = tuple(TRANSFORMS)


class Field(NamedTuple):
    """One config field.  section is "" at the top level, else the mapping
    that holds key ("transforms": each step); kind is a key of KINDS;
    default None lets the key be absent; only names the generator kinds or
    transform ops that allow the key, chosen by the first field of section."""

    section: str
    key: str
    kind: str
    default: object = None
    shape: tuple = ()
    choices: tuple = ()
    range: str = ""
    only: tuple = ()


#: every config field; PipelineConfig.from_dict adds the cross-field rules
FIELDS = (
    Field("", "domain", "mapping", {}),
    Field("", "grid_n", "integer", DEFAULT_GRID_N, range=GRID_N_RANGE),
    Field("", "grid_nx", "integer", range=GRID_N_RANGE),
    Field("", "grid_ny", "integer", range=GRID_N_RANGE),
    Field("", "generator", "mapping", REQUIRED),
    Field("", "transforms", "list", []),
    Field("", "verify", "mapping", {}),
    Field("", "export", "mapping", {}),
    Field("", "seed", "integer", 0, range="non-negative"),
    Field("domain", "x0", "number", -1.0),
    Field("domain", "y0", "number", -1.0),
    Field("domain", "width", "number", 2.0, range="positive"),
    Field("domain", "height", "number", 2.0, range="positive"),
    Field("generator", "kind", "choice", REQUIRED, choices=GENERATOR_KINDS),
    Field("generator", "lambda", "number", 1.0),
    Field("generator", "data", "choice", "plane", choices=("plane", "family"),
          only=("weierstrass", "bryant", "darboux-weierstrass")),
    Field("generator", "v0", "array", V0, shape=(2, 4), only=("darboux-weierstrass",)),
    Field("generator", "path", "path", REQUIRED, only=("file",)),
    Field("transforms", "op", "choice", REQUIRED, choices=TRANSFORM_OPS),
    Field("transforms", "lambda", "number", 1.0,
          only=("darboux", "darboux_linear", "t_transform")),
    Field("transforms", "m", "array", [1.0, 0.0, 0.0], shape=(3,), only=("goursat",)),
    Field("transforms", "d0", "array", shape=(4,), only=("darboux",)),
    Field("transforms", "v0", "array", V0, shape=(2, 4), only=("darboux_linear",)),
    *(Field("verify", key, "flag") for key in
      ("isothermic", "spherical_type", "liouville", "mean_curvature", "permutability")),
    *(Field("export", key, "file name") for key in ("obj", "surface", "report")),
)

_RANGES = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0,
           GRID_N_RANGE: lambda v: v <= MAX_GRID_N}


def _ok(valid, value):
    """value, if valid; a kind's converter raises ValueError otherwise."""
    if not valid:
        raise ValueError(value)
    return value


def _number(value, entry):
    number = float(value)
    return _ok(not isinstance(value, bool) and math.isfinite(number), number)


def _integer(value, entry):
    """An integral float such as 33.0 is accepted, 33.9 is not."""
    number = int(value)
    integral = number == value or not isinstance(value, float)
    return _ok(integral and not isinstance(value, bool), number)


def _array(value, entry):
    array = np.asarray(value, dtype=float)
    return _ok(array.shape == entry.shape and np.isfinite(array).all(), array)


def _steps(value, entry):
    return [_walk(step, entry.key, "transform") for step in _ok(isinstance(value, list), value)]


#: kind -> (convert(value, entry), what a valid value is); convert raises
#: TypeError, ValueError or OverflowError on an invalid value
KINDS = {
    "number": (_number, "a finite number"),
    "integer": (_integer, "an integer"),
    "flag": (lambda v, e: _ok(isinstance(v, bool), v), "true or false"),
    "file name": (lambda v, e: _ok(isinstance(v, str) and v != "", v), "a file name"),
    "path": (lambda v, e: _ok(isinstance(v, str), v), "a string"),
    "array": (_array, "finite numbers of shape {shape}"),
    "choice": (lambda v, e: _ok(isinstance(v, str) and v in e.choices, v), "one of {choices}"),
    "mapping": (lambda v, e: _walk(v, e.key, e.key), "a mapping"),
    "list": (_steps, "a list"),
}


def _mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{where} must be a mapping, got {value!r}")
    return value


def _require_keys(d, allowed, where):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigInvalid(f"unknown keys in {where}: {sorted(unknown)}")


def _walk(raw, section, name):
    """The mapping raw checked against the FIELDS of section, defaults filled in."""
    _mapping(raw, name)
    entries = [entry for entry in FIELDS if entry.section == section]
    out = {}
    for entry in entries:
        if entry.only and out[entries[0].key] not in entry.only:
            continue
        value = raw.get(entry.key, entry.default)
        if value is REQUIRED:
            raise ConfigInvalid(f"missing keys in {name}: [{entry.key!r}]")
        if value is None and entry.key not in raw:
            continue
        where = f"{name} {entry.key}" if section else entry.key
        convert, valid = KINDS[entry.kind]
        try:
            out[entry.key] = convert(value, entry)
        except (TypeError, ValueError, OverflowError):
            raise ConfigInvalid(f"{where} must be {valid.format(**entry._asdict())}, "
                                f"got {value!r}") from None
        if entry.range and not _RANGES[entry.range](out[entry.key]):
            raise ConfigInvalid(f"{where} must be {entry.range}, got {value!r}")
        if entry.key == "op":  # messages name a step by its op
            name = f"transform {value}"
    _require_keys(raw, [entry.key for entry in entries
                        if not entry.only or out[entries[0].key] in entry.only], name)
    return out


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

    @classmethod
    def from_dict(cls, raw):
        """The validated config of raw: every field of FIELDS, then the
        cross-field rules, all before any work runs."""
        c = _walk(raw, "", "config")
        nx = c.get("grid_nx", c["grid_n"])
        ny = c.get("grid_ny", c["grid_n"])
        if nx < 4 or ny < 4:
            raise ConfigInvalid(f"grid too small: it needs at least 4 samples per side, "
                                f"got {nx}x{ny}")
        d = c["domain"]
        hx, hy = d["width"] / (nx - 1), d["height"] / (ny - 1)
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ConfigInvalid(
                f"anisotropic spacing hx={hx!r} != hy={hy!r}: conformal "
                "curvature-line sampling needs a square grid"
            )
        # x0 + i*h are distinct floats only if h exceeds the ulp of the largest |x|
        for x0, size, h in ((d["x0"], d["width"], hx), (d["y0"], d["height"], hy)):
            if not h > (ulp := math.ulp(max(abs(x0), abs(x0 + size)))):
                raise ConfigInvalid(f"domain spacing {h!r} does not resolve its "
                                    f"coordinates, whose ulp is {ulp!r}")
        for check in ("permutability", "mean_curvature"):  # both divide by lambda
            if c["verify"].get(check) and c["generator"]["lambda"] == 0.0:
                raise ConfigInvalid(f"verify {check} needs a nonzero spectral parameter, "
                                    "got lambda = 0")
        return cls(c["domain"], nx, ny, c["generator"], c["transforms"], c["verify"],
                   c["export"], c["seed"])

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

    def to_dict(self):
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "grid_h": float(self.grid_h),
            "pass": bool(self.passed),
        }


@dataclass
class InvariantReport:
    checks: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(self, name, residual, tolerance, grid_h):
        residual = float(residual)
        if not np.isfinite(residual):
            raise GeometryError(f"check {name} produced a non-finite residual")
        self.checks.append(CheckResult(name, residual, tolerance, grid_h, residual <= tolerance))

    def all_passed(self):
        """True when at least one check ran and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "all_passed": self.all_passed(),
            "notes": self.notes,
        }


def run_verifications(surface, lam, config: PipelineConfig, report: InvariantReport):
    grid = surface.grid
    h = grid.h
    verify = config.verify
    perm = iso = None
    if verify.get("permutability"):
        # the suite certifies its input: that residual is the isothermic check's
        try:
            perm = permutability_suite(surface, lam, seed=config.seed)
            iso = perm.isothermic_residual
        except NotClosed:
            # the input's missed certificate is a failed check, another surface's a singularity
            iso = isothermic_certificate(surface)[1]
            if iso <= TAU_ISOTHERMIC:
                raise
    if verify.get("isothermic") or (verify.get("permutability") and perm is None):
        res = isothermic_certificate(surface)[1] if iso is None else iso
        report.add("isothermic_certificate", res, TAU_ISOTHERMIC, h)
    if verify.get("spherical_type") or verify.get("liouville"):
        _, res = spherical_type_certificate(surface)
        report.add("liouville_residual", res, 1e-3, h)
    if verify.get("mean_curvature"):
        _, mean, std, _ = mean_curvature_hyperbolic(surface.f, lam)
        report.add("mean_curvature_std", std, 1e-3, h)
        report.add(
            "mean_curvature_value", abs(abs(mean) - 2.0 * abs(lam)), 1e-3, h
        )
        report.notes["mean_curvature"] = mean
    if perm:
        report.add("permutability_p1", perm.p1_residual, perm.tau, h)
        report.add("permutability_p2_positioning", perm.p2_pointwise, 100 * perm.tau, h)
        report.add("permutability_p2_translation", perm.p2_translation, 100 * perm.tau, h)
        # a line only on a miss: a passing certificate would set the margin
        if not perm.p2_certificate <= TAU_ISOTHERMIC:
            report.add("permutability_p2_certificate", perm.p2_certificate, TAU_ISOTHERMIC, h)
        report.add("permutability_p3", perm.p3_residual, perm.tau, h)
    return report


def _write_json(path, doc):
    """Write doc as JSON atomically; a NaN or infinity fails before any write."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None
    write_text(path, (text,), "JSON")


def _make_dir(out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from None


def run_pipeline(config: PipelineConfig, out_dir):
    """Generate, transform, verify, export; returns (report, artifact paths)."""
    _make_dir(out_dir)
    report = InvariantReport()
    gen = config.generator
    surface, header = GENERATORS[gen["kind"]](config.grid(), gen)
    for step in config.transforms:
        surface = TRANSFORMS[step["op"]](surface, step)
    run_verifications(surface, gen["lambda"], config, report)
    artifacts = {}
    # one repr pass serves both files, and a non-finite value fails before either
    texts = surface_texts(surface.f) if config.export.keys() & {"surface", "obj"} else None
    if config.export.get("surface"):
        path = os.path.join(out_dir, config.export["surface"])
        # the generator's own keys describe its surface, not a transformed one
        header = {"polarization": surface.polarization, "lambda": gen["lambda"],
                  "provenance": list(surface.provenance), **({} if config.transforms else header)}
        save_field(surface.f, path, header, texts)
        artifacts["surface"] = path
    if config.export.get("obj"):
        path = os.path.join(out_dir, config.export["obj"])
        export_obj(surface.f, path, texts)
        artifacts["obj"] = path
    if config.export.get("report"):
        path = os.path.join(out_dir, config.export["report"])
        _write_json(path, report.to_dict())
        artifacts["report"] = path
    return report, artifacts, surface


def sweep(config: PipelineConfig, lambdas, out_dir):
    """Spectral family: run the pipeline for each parameter, one OBJ each.

    If the transform chain carries no spectral step, one is appended, so
    sweeping a bare generator yields the deformation family of its surface.
    Every member's config is validated, each parameter as the generator
    lambda, before the first member runs.
    """
    steps = list(config.transforms)
    if not any(t["op"] == "t_transform" for t in steps):
        steps.append({"op": "t_transform"})
    members = []
    for lam in lambdas:
        spectral = {"lambda": lam}
        members.append(PipelineConfig.from_dict(dict(
            asdict(config), export={}, generator=dict(config.generator, **spectral),
            transforms=[dict(t, **spectral) if t["op"] == "t_transform" else t for t in steps])))
    _make_dir(out_dir)
    family_report = {"members": []}
    for member in members:
        lam = member.generator["lambda"]
        report, _, surface = run_pipeline(member, out_dir)
        # six significant digits name the file unless they lose lam
        text = f"{lam:g}" if float(f"{lam:g}") == lam else repr(lam)
        tag = text.replace("-", "m").replace(".", "p")
        path = os.path.join(out_dir, f"member_{tag}.obj")
        export_obj(surface.f, path)
        family_report["members"].append(
            {"lambda": lam, "obj": os.path.basename(path),
             "checks": report.to_dict()["checks"]}
        )
    path = os.path.join(out_dir, "family_report.json")
    _write_json(path, family_report)
    return family_report, path


def read_config(path):
    """The raw config in the JSON file path; PipelineConfig.from_dict validates it."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from None
    return _mapping(raw, "config")
