#!/usr/bin/env python3
"""Traced memory of each stage of the criterion-8 chain or of the permutability suite.

``--chain curvature_frame`` (the default) runs the chain of the
``curvature_frame`` workload once, as ``perfbench/workloads.py`` does: build
the reference minimal family's Ribaucour connection at the family parameter
LAM, take its connection forms phi(1), march the frame from the family's
frame at the base node, and read the curvature data off the frame.  Every
stage's output stays alive to the end, as in the workload.

``--chain permutability`` runs ``transforms.permutability_suite`` once on the
flat example surface at the spectral parameter LAM, as the ``permutability``
workload's pipeline does.  Its stages are the suite's own top-level calls,
in order: each function that the suite's body or one of its
``_permutability_*`` helpers names is wrapped (the helpers themselves are
not stages), so what each stage keeps alive is what the suite itself keeps,
not a copy of it.

After each stage it prints the memory that ``tracemalloc`` traces: current
(what the outputs so far hold) and the stage's peak, in MB (10^6 bytes).

    python3 bench/memstages.py --n 257 --lam 0.9
    python3 bench/memstages.py --chain permutability --n 129 --lam 0.8
    python3 bench/memstages.py --n 257 --lam 0.9 --tree ../parent

``--tree`` imports the package from another checkout's ``src/`` (default:
this one's), so two trees can be compared stage by stage.  A stage's peak
counts everything traced, the earlier stages' outputs included, so the
chain's traced peak is the largest of them.  The process's resident set,
which ``perfbench`` reports as ``peak_rss_mb``, holds the interpreter and
numpy on top of that.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import tracemalloc
from pathlib import Path


def _stage(name, run):
    tracemalloc.reset_peak()
    out = run()
    current, peak = tracemalloc.get_traced_memory()
    print(f"{name:<28}{current / 1e6:>12.1f}{peak / 1e6:>10.1f}")
    return out


def curvature_frame(g, lam):
    from isothermic import cmc, grid

    conn = _stage("build", lambda: cmc.family_ribaucour_connection(g, lam))
    phi_x, phi_y = _stage("phi", lambda: conn.phi(1.0))
    frame = _stage("march", lambda: grid.integrate_frame(phi_x, phi_y, g,
                                                         conn.frame0_at_p0(), conn.p0))
    _stage("extraction", lambda: cmc.ribaucour_data_extract(frame))


def permutability(g, lam):
    from isothermic import oracles, surfaces, transforms

    surface = _stage("surface", lambda: surfaces.PolarizedSurface.sample(
        g, oracles.f_plane, "dzbar2"))
    depth = [0]

    def traced(name, fn):
        def run(*args, **kwargs):
            depth[0] += 1
            try:
                if depth[0] > 1:
                    return fn(*args, **kwargs)
                return _stage(name, lambda: fn(*args, **kwargs))
            finally:
                depth[0] -= 1
        return run

    space = vars(transforms)
    bodies, names = [transforms.permutability_suite], []
    for body in bodies:  # the suite, then the _permutability_* helpers it names
        for name in body.__code__.co_names:
            if name.startswith("_permutability"):
                bodies.append(space[name])
            elif inspect.isfunction(space.get(name)) and name not in names:
                names.append(name)
    saved = {name: space[name] for name in names}
    try:
        for name, fn in saved.items():
            space[name] = traced(name, fn)
        report = transforms.permutability_suite(surface, lam)
    finally:
        space.update(saved)
    _stage("report", lambda: report)


CHAINS = {"curvature_frame": curvature_frame, "permutability": permutability}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--chain", choices=sorted(CHAINS), default="curvature_frame",
                   help="what to run stage by stage")
    p.add_argument("--n", type=int, default=257, help="grid nodes per side")
    p.add_argument("--lam", type=float, default=0.9, help="family or spectral parameter")
    p.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ is imported")
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from isothermic import grid

    g = grid.GridSpec.square(1.0, args.n)
    print(f"{args.chain}: n = {args.n}, lam = {args.lam}, tree {args.tree}")
    print(f"{'stage':<28}{'current MB':>12}{'peak MB':>10}")
    tracemalloc.start()
    try:
        CHAINS[args.chain](g, args.lam)
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    main()
