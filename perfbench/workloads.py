"""The benchmark's workloads: seeded inputs, one op each, and its gate.

Every workload is a closed loop driven by ``run.py``: one op at a time, the
next starting only when the previous one has finished.  An op calls the
engine only through its public API or CLI.  ``run`` is the timed part;
``verify`` inspects what the op returned or wrote and hands back the checks
it found as ``(name, residual, tolerance)`` triples together with the
number of verified output nodes.  ``verify`` raises ``OpFailed`` for
anything other than a check above its tolerance; ``gate`` then fails the
op on such a check, or on a report that ran no checks.

The seed draws only the spectral parameter and the quadruple-sampling
seed, so the work per op has the same size for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from isothermic import cli, cmc, grid, pipeline

#: residual margins are clamped to this many decades on either side, so
#: rounding-level residuals cannot move them
MARGIN_CLAMP = 6.0

#: lambda is drawn stratified over this many equal parts of its range
LAMBDA_STRATA = 4

#: acceptance tolerances of criterion 8 (curvature-data extraction)
TOL_CURVATURE = 1e-6
TOL_GAUSS_CODAZZI = 1e-3


class OpFailed(Exception):
    """The op ran but its output fails the benchmark's gate."""


@dataclass
class OpInput:
    lam: float
    qseed: int
    grid_n: int
    out_dir: str
    config: dict | None = None  # pipeline configuration (permutability)
    generate: str | None = None  # CLI config files (cmc_export)
    verify: str | None = None


def _decades(residual, tolerance):
    if residual == 0:
        return MARGIN_CLAMP
    if not 0 < residual < math.inf:  # negative, infinite or NaN
        return -MARGIN_CLAMP
    return max(-MARGIN_CLAMP, min(MARGIN_CLAMP, math.log10(tolerance / residual)))


def margin(checks):
    """min over checks of log10(tolerance / residual), each term clamped to
    +-6 decades; -6 when no check ran, since then nothing is certified."""
    return min((_decades(res, tol) for _, res, tol in checks), default=-MARGIN_CLAMP)


def gate(checks):
    if not checks:
        raise OpFailed("the op ran no checks")
    failed = [f"{name} {res!r} > {tol!r}" for name, res, tol in checks if not res <= tol]
    if failed:
        raise OpFailed("check above tolerance: " + "; ".join(failed))


def _report_checks(report, prefix=""):
    return [(prefix + c["name"], c["residual"], c["tolerance"]) for c in report["checks"]]


def _reject_constant(token):
    raise OpFailed(f"non-finite value {token} in a written file")


def _load_finite_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# permutability: the pipeline's permutability suite on the flat example
# ---------------------------------------------------------------------------

def permutability_inputs(draws, grid_n, out_dir):
    return [
        OpInput(lam, qseed, grid_n, out_dir, config={
            "grid_n": grid_n,
            "seed": qseed,
            "generator": {"kind": "example", "lambda": lam},
            "verify": {"permutability": True, "isothermic": True},
        })
        for lam, qseed in draws
    ]


def permutability_run(inp):
    cfg = pipeline.PipelineConfig.from_dict(inp.config)
    report, _, surface = pipeline.run_pipeline(cfg, inp.out_dir)
    return report, surface


def permutability_verify(inp, result):
    report, surface = result
    if not np.isfinite(surface.f.values[surface.grid.valid()]).all():
        raise OpFailed("non-finite value in the output surface")
    return _report_checks(report.to_dict()), int(surface.grid.valid().sum())


# ---------------------------------------------------------------------------
# curvature_frame: the criterion-8 chain on the reference minimal family
# ---------------------------------------------------------------------------

def curvature_frame_inputs(draws, grid_n, out_dir):
    return [OpInput(lam, qseed, grid_n, out_dir) for lam, qseed in draws]


def curvature_frame_run(inp):
    g = grid.GridSpec.square(1.0, inp.grid_n)
    conn = cmc.family_ribaucour_connection(g, inp.lam)
    # the connection family at 1, as in acceptance criterion 8
    phi_x, phi_y = conn.phi(1.0)
    frame = grid.integrate_frame(phi_x, phi_y, g, conn.frame0_at_p0(), conn.p0)
    return frame, cmc.ribaucour_data_extract(frame)


def curvature_frame_verify(inp, result):
    frame, data = result
    sel = data.valid
    if not sel.any():
        raise OpFailed("extraction left no valid node")
    if not np.isfinite(frame.values).all():
        raise OpFailed("non-finite value in the frame field")
    checks = [
        ("H", float(np.abs(data.H[sel]).max()), TOL_CURVATURE),
        ("Hhat_minus_1", float(np.abs(data.Hhat[sel] - 1.0).max()), TOL_CURVATURE),
        ("lamhat", float(np.abs(data.lamhat[sel]).max()), TOL_CURVATURE),
        ("gauss", data.gauss_residual, TOL_GAUSS_CODAZZI),
        ("codazzi", data.codazzi_residual, TOL_GAUSS_CODAZZI),
    ]
    return checks, int(frame.grid.valid().sum())


# ---------------------------------------------------------------------------
# cmc_export: CLI generate (export) then CLI verify of the written surface
# ---------------------------------------------------------------------------

EXPORTS = {"surface": "surface.json", "obj": "surface.obj", "report": "report.json"}
VERIFY_REPORT = "verify_report.json"


def cmc_export_inputs(draws, grid_n, out_dir):
    inputs = []
    surface_path = os.path.join(out_dir, EXPORTS["surface"])
    for k, (lam, qseed) in enumerate(draws):
        gen = {
            "grid_n": grid_n,
            "seed": qseed,
            "generator": {"kind": "darboux-weierstrass", "data": "plane", "lambda": lam},
            "verify": {"mean_curvature": True, "spherical_type": True},
            "export": EXPORTS,
        }
        ver = {
            "grid_n": grid_n,
            "seed": qseed,
            "generator": {"kind": "file", "path": surface_path, "lambda": lam},
            "verify": {"mean_curvature": True, "isothermic": True},
            "export": {"report": VERIFY_REPORT},
        }
        paths = []
        for stage, cfg in (("generate", gen), ("verify", ver)):
            path = os.path.join(out_dir, f"{stage}-{grid_n}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            paths.append(path)
        inputs.append(OpInput(lam, qseed, grid_n, out_dir,
                              generate=paths[0], verify=paths[1]))
    return inputs


def cmc_export_run(inp):
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in ("generate", "verify"):
            code = cli.main([stage, "--config", getattr(inp, stage), "--out", inp.out_dir])
            codes.append(code)
            if code != 0:
                break
    return codes


def cmc_export_verify(inp, codes):
    if codes != [0, 0]:
        raise OpFailed(f"CLI exit codes {codes}")
    n = inp.grid_n
    checks = []
    for stage, name in (("generate.", EXPORTS["report"]), ("verify.", VERIFY_REPORT)):
        report = _load_finite_json(os.path.join(inp.out_dir, name))
        if not report["checks"]:
            raise OpFailed(f"{name} ran no checks")
        checks += _report_checks(report, stage)  # gate() fails any check above tolerance
    surface_path = os.path.join(inp.out_dir, EXPORTS["surface"])
    doc = _load_finite_json(surface_path)
    field, _ = grid.load_field(surface_path)
    declared = (doc["grid"]["ny"], doc["grid"]["nx"], 4)
    if field.values.shape != declared or declared != (n, n, 4):
        raise OpFailed(f"surface reloads as {field.values.shape}, declared {declared}")
    vertices = 0
    with open(os.path.join(inp.out_dir, EXPORTS["obj"]), encoding="ascii") as fh:
        for line in fh:
            if line.startswith("v "):
                if not all(math.isfinite(float(c)) for c in line.split()[1:]):
                    raise OpFailed("non-finite vertex in the OBJ")
                vertices += 1
    if vertices != n * n:
        raise OpFailed(f"OBJ has {vertices} vertices, expected {n * n}")
    return checks, vertices


@dataclass(frozen=True)
class Workload:
    name: str
    grid_n: int
    lam_range: tuple
    make_inputs: object
    run: object
    verify: object

    def draw(self, rng, count):
        """(lambda, quadruple seed) pairs: all the seed decides.

        Each block of ``LAMBDA_STRATA`` consecutive inputs takes one lambda
        from each equal part of the range, in shuffled order: an op's
        residual margin falls by up to a decade across the range, so a run
        of a dozen ops drawn independently would average a different margin
        for every seed."""
        lo, hi = self.lam_range
        width = (hi - lo) / LAMBDA_STRATA
        draws = []
        while len(draws) < count:
            strata = list(range(LAMBDA_STRATA))
            rng.shuffle(strata)
            draws += [(lo + width * (k + rng.random()), rng.randrange(2**31)) for k in strata]
        return draws[:count]


WORKLOADS = {
    w.name: w
    for w in (
        # RK4 marches (frame, left vector, Riccati) through qm2_mul/qmul
        # dominate; next to no closed-form sampling and no file I/O
        Workload("permutability", 129, (0.5, 1.5), permutability_inputs,
                 permutability_run, permutability_verify),
        # per-node scalar oracle sampling dominates; the only frame field
        # (about 8.4 MB) larger than a core's L2
        Workload("curvature_frame", 257, (0.25, 1.0), curvature_frame_inputs,
                 curvature_frame_run, curvature_frame_verify),
        # the only workload that writes and reads files and goes through
        # the CLI exit-code path
        Workload("cmc_export", 129, (0.25, 1.5), cmc_export_inputs,
                 cmc_export_run, cmc_export_verify),
    )
}
