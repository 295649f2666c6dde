#!/usr/bin/env python3
"""SHA-256 digests of a fixed list of engine outputs, to check a change bit for bit.

``--tree DIR`` imports the package from DIR/src (default: this checkout)
and prints one ``name sha256`` line per output: the permutability reports,
the transforms and their families, the cmc constructions, the criterion-8
frame and extraction, the files the CLI writes (``cmc_export``, every
transform op, every generator kind but ``file`` and ``sweep``) and the lines of DIR's acceptance suite.  An output that
raises is digested as its error type and message, so errors are compared
too.  Arrays are digested with their dtype and shape.  Where a change may
flip the sign of a zero that no later float operation tells apart (the
slopes of a Darboux chain skip products with zeros), the entry named
``... +0.0`` digests x + 0.0 next to the raw one.

``--compare A B`` runs both trees, one process each, at the current SIMD
dispatch level, prints every name as ``equal`` or ``DIFFERS`` and exits 1
when a digest differs or a name is missing from one side.  No digest is
committed: the bits depend on the host and its dispatch level.

    python3 bench/digests.py
    python3 bench/digests.py --compare ../parent .
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3" \\
        python3 bench/digests.py --compare ../parent .
    python3 bench/digests.py --tree ../parent --select permutability,cli

``--select`` keeps the groups whose name contains one of its
comma-separated words.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve()


def digest(obj):
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    import numpy as np

    if isinstance(obj, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(obj)
        h.update(f"array {a.dtype.str} {a.shape}:".encode())
        h.update(a.tobytes())
    elif isinstance(obj, str):
        h.update(f"str {len(obj)}:{obj}".encode())
    elif isinstance(obj, bytes):
        h.update(f"bytes {len(obj)}:".encode() + obj)
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq {len(obj)}:".encode())
        for x in obj:
            _feed(h, x)
    elif dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}:".encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    else:  # float, int, bool, None: repr is exact
        h.update(f"{type(obj).__name__} {obj!r};".encode())


# ---------------------------------------------------------------------------
# the outputs, in groups; each group yields (name, output) pairs
# ---------------------------------------------------------------------------

W0 = ((1.0, 0, 0, 0), (0.1, 0.3, -0.7, 0.2))


def _plane(iso, n):
    from isothermic import oracles

    return iso.PolarizedSurface.sample(iso.GridSpec.square(1.0, n), oracles.f_plane, "dzbar2")


def _family_data(iso, g, lam):
    from isothermic import oracles as oc

    return iso.WeierstrassData.sample(g, lambda z: oc.family_g(z, lam),
                                      lambda z: oc.family_w(z, lam),
                                      lambda z: oc.family_dg(z, lam))


def _plane_data(iso, g):
    return iso.WeierstrassData.sample(g, lambda z: z, lambda z: 1.0 + 0j, lambda z: 1.0 + 0j)


def _surface(s):
    return s.f.values, s.grid.valid(), s.polarization


def _family(name, conn, lams=(0.32, 1.0, -0.7)):
    import numpy as np

    yield f"{name}/frame", conn.frame(...)
    yield f"{name}/frame_p0", conn.frame0_at_p0()
    yield f"{name}/slopes", conn.slopes
    yield f"{name}/slopes+0.0", [s + 0.0 for s in conn.slopes]
    for lam in lams:
        phi = conn.phi(lam)
        yield f"{name}/phi({lam})", phi
        yield f"{name}/phi({lam})+0.0", [p + 0.0 for p in phi]
    yield f"{name}/grid", conn.grid.valid(), np.float64(conn.grid.h)


def group_permutability(iso):
    for n in (65, 129):
        s = _plane(iso, n)
        for lam in (0.8, 1.3, -0.6):
            yield f"permutability/n{n}/lam{lam}", iso.permutability_suite(s, lam)


def group_transforms(iso):
    import numpy as np
    from isothermic import surfaces

    for n in (33, 65):
        s = _plane(iso, n)
        enneper = iso.weierstrass_minimal(_plane_data(iso, s.grid))
        for name, surf in (("plane", s), ("enneper", enneper)):
            yield f"jets/{name}/n{n}", surfaces.surface_jets(surf)
            yield f"normal/{name}/n{n}", iso.normal_field(surf).values
            yield f"certificate/{name}/n{n}", iso.isothermic_certificate(surf)
            yield f"christoffel_form/{name}/n{n}", iso.christoffel_form(surf)
            yield f"christoffel/{name}/n{n}", _surface(iso.christoffel(surf))
            yield f"darboux_riccati/{name}/n{n}", _surface(iso.darboux_riccati(surf, 0.8))
        yield f"goursat/n{n}", _surface(iso.goursat(s, np.array([0.0, 1.0, 0.5, 0.0])))
        yield f"darboux_riccati/d0/n{n}", _surface(
            iso.darboux_riccati(s, 1.0, d0=np.array([0.0, -1.0, 0.0, 0.0])))
        yield f"darboux_linear/n{n}", _surface(iso.darboux_linear(s, 1.0))
        tt = iso.t_transform(s, 0.7)
        yield f"t_transform/n{n}/surface", _surface(tt.surface)
        yield f"t_transform/n{n}/second_point", tt.second_point.values
        yield f"t_transform/n{n}/frame", tt.frame.values
        yield f"canonical_connection/n{n}/curvature", iso.canonical_connection(s).curvature


def group_moebius(iso):
    import numpy as np

    s = _plane(iso, 65)
    tt = iso.t_transform(s, 1.0)
    tc = iso.t_transform(iso.christoffel(s), 1.0)
    for seed in (0, 7, 11):
        yield f"moebius/seed{seed}", iso.moebius_equivalent(tt.second_point, tc.surface,
                                                             seed=seed)
    for name, rows in (("retries", slice(None, None, 2)), ("exhausted", slice(None))):
        vals = tc.surface.f.values.copy()
        vals[::2, rows] = 0.0  # coincident points force retries
        try:
            yield f"moebius/{name}", iso.moebius_equivalent(tt.second_point,
                                                            iso.QField(s.grid, vals), seed=3)
        except iso.DegenerateQuadruple as exc:
            yield f"moebius/{name}", str(exc)
    vals = tc.surface.f.values.copy()
    vals[np.ix_(range(0, 65, 2), range(0, 65, 3))] = np.nan
    yield "moebius/nan", iso.moebius_equivalent(tt.second_point, iso.QField(s.grid, vals),
                                                seed=5)


def group_chains(iso):
    from isothermic.quaternion import qm2_identity
    from isothermic.transforms import frame_connection_from_field

    s = _plane(iso, 65)
    conn = iso.canonical_connection(s)
    chain = iso.darboux_via_connection(conn, 0.8, W0, chain=True)
    yield "chain/surface", _surface(chain.surface)
    yield from _family("chain", chain.connection)
    chain2 = iso.darboux_via_connection(chain.connection, -0.6, W0, chain=True)
    yield "chain_of_chain/surface", _surface(chain2.surface)
    yield from _family("chain_of_chain", chain2.connection)
    yield "chain/spectral", _surface(iso.t_transform_via_connection(chain.connection,
                                                                    0.32).surface)
    yield "chain/unchained_darboux", _surface(
        iso.darboux_via_connection(chain.connection, 0.5, W0).surface)
    frame = iso.integrate_frame(*conn.phi(0.0), conn.grid, conn.frame0_at_p0(), conn.p0)
    numeric = frame_connection_from_field(s, frame)
    ribaucour = iso.family_ribaucour_connection(s.grid, 0.6)
    for name, parent in (("numeric", numeric), ("ribaucour", ribaucour)):
        out = iso.darboux_via_connection(parent, 1.3, W0, chain=True)
        yield f"chain_on_{name}/surface", _surface(out.surface)
        yield from _family(f"chain_on_{name}", out.connection)
    gauged = iso.t_transform_gauged(s, 0.5, frame)
    yield "t_transform_gauged/numeric", _surface(gauged.surface), gauged.frame.values
    fam = _family_data(iso, s.grid, 0.5)
    minimal = iso.weierstrass_minimal(fam)
    gauged = iso.t_transform_gauged(minimal, -0.5, iso.ribaucour_connection(minimal))
    yield "t_transform_gauged/ribaucour", _surface(gauged.surface), gauged.frame.values
    yield "t_transform/identity", iso.integrate_frame(
        *conn.phi(0.5), conn.grid, qm2_identity(), conn.p0).values


def group_cmc(iso):
    for n in (65, 129):
        g = iso.GridSpec.square(1.0, n)
        data = _plane_data(iso, g)
        yield f"darboux_weierstrass/n{n}", iso.darboux_weierstrass(data, 0.5).f.values
        conn = iso.family_ribaucour_connection(g, 1.0)
        frame = iso.integrate_frame(*conn.phi(1.0), g, conn.frame0_at_p0(), conn.p0)
        yield f"criterion8/n{n}/frame", frame.values
        yield f"criterion8/n{n}/extraction", iso.ribaucour_data_extract(frame)
    g = iso.GridSpec.square(1.0, 65)
    data = _plane_data(iso, g)
    pair = iso.dual_cmc(data, 0.5)
    yield "dual_cmc", (pair.surface.f.values, pair.dual.f.values, _surface(pair.cousin),
                       _surface(pair.dual_cousin))
    yield "double_dual", _surface(iso.double_dual(pair, data, 0.5))
    minimal = iso.weierstrass_minimal(_family_data(iso, g, 0.5))
    yield "umehara_yamada_check", iso.umehara_yamada_check(minimal, 0.5)
    yield "spherical_type", iso.spherical_type_certificate(minimal)[1]
    yield "mean_curvature_hyperbolic", iso.mean_curvature_hyperbolic(
        iso.darboux_weierstrass(data, 0.5).f, 0.5)


def _cli_files(name, configs):
    """Run the CLI on each (command, config) of configs(out), out a temporary
    directory, and digest its exit code, its output and every file it wrote."""
    import contextlib
    import io

    from isothermic import cli

    with tempfile.TemporaryDirectory() as tmp:
        for k, (command, cfg) in enumerate(configs(tmp)):
            path = os.path.join(tmp, f"config{k}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", path, "--out", tmp])
            yield f"{name}/{k}/{command}", (code, out.getvalue().replace(tmp, "OUT"),
                                            err.getvalue().replace(tmp, "OUT"))
        for fname in sorted(os.listdir(tmp)):
            if not fname.startswith("config"):
                with open(os.path.join(tmp, fname), "rb") as fh:
                    yield f"{name}/{fname}", fh.read().replace(tmp.encode(), b"OUT")


def _cmc_export(lam):
    """The cmc_export workload's op: generate with every export, then verify
    the written surface."""
    def configs(out):
        gen = {"grid_n": 129, "seed": 7, "verify": {"mean_curvature": True,
                                                    "spherical_type": True},
               "generator": {"kind": "darboux-weierstrass", "data": "plane", "lambda": lam},
               "export": {"surface": "surface.json", "obj": "surface.obj",
                          "report": "report.json"}}
        ver = {"grid_n": 129, "seed": 7, "verify": {"mean_curvature": True, "isothermic": True},
               "generator": {"kind": "file", "lambda": lam,
                             "path": os.path.join(out, "surface.json")},
               "export": {"report": "verify_report.json"}}
        return [("generate", gen), ("verify", ver)]
    return configs


def group_cli(iso):
    from isothermic.pipeline import GENERATOR_KINDS, TRANSFORM_OPS

    for lam in (0.5, 0.8):
        yield from _cli_files(f"cmc_export/lam{lam}", _cmc_export(lam))
    for n, lam, seed in ((65, 0.8, 7), (65, 1.2, 11), (129, 0.7, 3), (129, 1.4, 19)):
        cfg = {"grid_n": n, "seed": seed, "generator": {"kind": "example", "lambda": lam},
               "verify": {"permutability": True, "isothermic": True},
               "export": {"report": "report.json"}}
        yield from _cli_files(f"cli_permutability/n{n}/lam{lam}", lambda out: [("verify", cfg)])
    for op in TRANSFORM_OPS:
        cfg = {"grid_n": 33, "generator": {"kind": "example"}, "transforms": [{"op": op}],
               "export": {"surface": "surface.json"}}
        yield from _cli_files(f"cli_transform/{op}", lambda out: [("transform", cfg)])
    for kind in GENERATOR_KINDS:
        if kind != "file":  # cmc_export covers file
            cfg = {"grid_n": 33, "generator": {"kind": kind},
                   "export": {"surface": "surface.json", "obj": "surface.obj",
                              "report": "report.json"}}
            yield from _cli_files(f"cli_generate/{kind}", lambda out: [("generate", cfg)])
    # the default --lambdas: four members, exit 0
    cfg = {"grid_n": 17, "generator": {"kind": "example"}}
    yield from _cli_files("cli_sweep", lambda out: [("sweep", cfg)])


def group_acceptance(iso, tree):
    """Every line of the tree's acceptance suite, run in its own process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                          "tests/test_acceptance.py"], cwd=tree, env=env,
                         capture_output=True, text=True)
    lines = [m.group(1) for m in re.finditer(r"^\.*((?:PASS|FAIL)  .*?)\s*$", run.stdout,
                                             re.MULTILINE)]
    yield "acceptance/exit_code", run.returncode
    for line in lines:
        label = line.split(": residual")[0].split("  ", 1)[1]
        yield "acceptance/" + re.sub(r"\W+", "_", label).strip("_"), line


GROUPS = {name[6:]: fn for name, fn in globals().items() if name.startswith("group_")}


def run_tree(tree, select):
    sys.path.insert(0, str(tree / "src"))
    import isothermic as iso

    for gname, group in GROUPS.items():
        if select and not any(word in gname for word in select):
            continue
        items = group(iso, tree) if gname == "acceptance" else group(iso)
        try:
            for name, *obj in items:
                print(name, digest(obj), flush=True)
        except Exception as exc:  # the error is an output too
            print(f"{gname}/error", digest(f"{type(exc).__name__}: {exc}"), flush=True)


def _lines(tree, select):
    args = [sys.executable, str(HERE), "--tree", str(tree)]
    if select:
        args += ["--select", ",".join(select)]
    out = subprocess.run(args, capture_output=True, text=True, check=True).stdout
    return dict(line.split(" ", 1) for line in out.splitlines())


def compare(a, b, select):
    da, db = _lines(a, select), _lines(b, select)
    differ = 0
    for name in list(da) + [n for n in db if n not in da]:
        same = da.get(name) == db.get(name)
        differ += not same
        print(f"{name} {'equal' if same else 'DIFFERS'}")
    print(f"{len(da) + len(set(db) - set(da)) - differ} of "
          f"{len(da) + len(set(db) - set(da))} digests equal")
    return 1 if differ else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=Path, default=HERE.parents[1],
                   help="checkout whose src/ is imported (and whose tests/ give the "
                        "acceptance lines)")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                   help="digest both trees and exit 1 when a digest differs")
    p.add_argument("--select", default="", help="comma-separated words of group names")
    args = p.parse_args(argv)
    select = [w for w in args.select.split(",") if w]
    if args.compare:
        return compare(*(t.resolve() for t in args.compare), select)
    run_tree(args.tree.resolve(), select)
    return 0


if __name__ == "__main__":
    sys.exit(main())
