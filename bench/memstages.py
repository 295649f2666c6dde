#!/usr/bin/env python3
"""Traced memory of each stage of the criterion-8 chain.

Runs the chain of the ``curvature_frame`` workload once, as
``perfbench/workloads.py`` does: build the reference minimal family's
Ribaucour connection at the family parameter LAM, take its connection forms
phi(1), march the frame from the family's frame at the base node, and read
the curvature data off the frame.  Every stage's output stays alive to the
end, as in the workload.  After each stage it prints the memory that
``tracemalloc`` traces: current (what the outputs so far hold) and the
stage's peak, in MB (10^6 bytes).

    python3 bench/memstages.py --n 257 --lam 0.9
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
import sys
import tracemalloc
from pathlib import Path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=257, help="grid nodes per side")
    p.add_argument("--lam", type=float, default=0.9, help="family parameter")
    p.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ is imported")
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from isothermic import cmc, grid

    def stage(name, run):
        tracemalloc.reset_peak()
        out = run()
        current, peak = tracemalloc.get_traced_memory()
        print(f"{name:<12}{current / 1e6:>12.1f}{peak / 1e6:>10.1f}")
        return out

    g = grid.GridSpec.square(1.0, args.n)
    print(f"n = {args.n}, lam = {args.lam}, tree {args.tree}")
    print(f"{'stage':<12}{'current MB':>12}{'peak MB':>10}")
    tracemalloc.start()
    try:
        conn = stage("build", lambda: cmc.family_ribaucour_connection(g, args.lam))
        phi_x, phi_y = stage("phi", lambda: conn.phi(1.0))
        frame = stage("march", lambda: grid.integrate_frame(phi_x, phi_y, g,
                                                            conn.frame0_at_p0(), conn.p0))
        stage("extraction", lambda: cmc.ribaucour_data_extract(frame))
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    main()
