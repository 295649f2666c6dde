#!/usr/bin/env python3
"""Benchmark trajectory files: run perfbench on source trees, compare the results.

Measure one or more trees (a checkout with ``src/`` and ``perfbench/``) and
write ``BENCH_<pr>.json``:

    python3 bench/trajectory.py --pr N --tree parent=../parent --tree change=. \\
        --seeds 21 22 23 --seconds 36

For every workload each tree runs ``perfbench/run.py --trace 0`` once per
seed, then ``--trace 1`` once on each of the first TRACED_SEEDS seeds; the
trees take turns, and which one runs first alternates from seed to seed.
The file keeps, per tree and workload, every ``--trace 0`` run (its
end-to-end metrics, ops attempted and failed, and which ops failed), the
median and quartiles of each end-to-end metric, and the median, min and max
of each per-layer metric over the traced runs (one traced run alone reads
host drift as a per-layer change), together with the tree's commit, the
Python and numpy versions and core count perfbench reports, the CPU model,
and the SIMD features numpy found and did not disable
(``NPY_DISABLE_CPU_FEATURES``), which pick its kernels.  It also keeps each
tree's acceptance residuals, read from the report lines of
``pytest tests/test_acceptance.py -s`` run on the tree: per check its
residual, tolerance and, where printed, refinement order.

Compare two trees, each named FILE:LABEL (LABEL defaults to the file's only
or last tree):

    python3 bench/trajectory.py --compare BENCH_N.json:parent BENCH_N.json:change

Every ratio is printed as B/A with A as its base; a per-layer ratio is that
of the medians (a file written before per-layer ranges were kept has one
traced run, whose value stands for its median).  Runs of the two trees are
paired by seed.  A run is closed-loop for a fixed time, so a faster tree
attempts more of a seed's input sequence than a slower one; failures are
therefore counted only on the ops both runs of a pair attempted.  Every
acceptance residual that differs between the trees is listed with its
relative change and its B/A ratio, unless the trees ran at different SIMD
dispatch: residual reprs differ between dispatch levels by rounding, so then
only the count is printed.  At the same dispatch a residual whose ratio is
above RESIDUAL_GROWTH is marked RESIDUAL GREW, and --compare exits 1: a
change that costs accuracy shows even where every tolerance still passes.
Every refinement order both trees print is listed too, at any dispatch (it
prints with two decimals); one that dropped by more than ORDER_DROP is marked
ORDER DROPPED, and --compare exits 1.  The orders of criteria 1-4 are
labelled not order evidence and not gated: their marches run on the plane,
whose canonical connection has constant coefficients, so no march's midpoint
order shows in them (criterion 2's Enneper lines march nothing at all).
Neither is criterion 5's: its residual is the worst of 20 quadruples that
moebius_equivalent draws anew at each grid size, and at n = 129 and 257 it
sits near its rounding floor, so rounding alone moves the order by more
than ORDER_DROP.  Over n = 65/129/257 the same code reads 3.94 at the
line's seed 3 and 2.77 at numpy's baseline SIMD dispatch (the residual at
129 is 9.1e-9 and 1.8e-8), and 2.56 and 5.46 at seeds 4 and 5.  Nor is the
order of the permutability suite's P3 line, which compares the two sides of
T_mu D_lam f = D_(lam-mu) T_mu f through chained frame families: rounding in
the chained family sets it, so the same code reads its n = 257 residual as
1.75e-9 and 1.05e-9 at the two dispatch levels, and its order as 3.83 and
4.08.  Its residual is gated like every other line's.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("permutability", "curvature_frame", "cmc_export")

#: traced runs per tree and workload, on the first seeds
TRACED_SEEDS = 3

#: B/A ratio above which an acceptance residual counts as grown; rounding
#: alone has moved residuals by a few per cent
RESIDUAL_GROWTH = 2.0

#: drop of a printed refinement order that counts as lost order; rounding
#: moves a printed order by a few hundredths
ORDER_DROP = 0.3

#: acceptance lines whose printed order is not order evidence, and why:
#: those that run on the plane (criteria 1-4, not 10), criterion 5 and P3
NOT_ORDER_EVIDENCE = ((re.compile(r"criterion [1-4](?!\d)"), "criteria 1-4"),
                      (re.compile(r"criterion 5(?!\d)"), "criterion 5: near its rounding floor"),
                      (re.compile(r"permutability P3 "),
                       "P3: set by rounding in the chained family"))

#: a report line of tests/test_acceptance.py (pytest's progress dots may precede it)
REPORT_LINE = re.compile(
    r"(?:PASS|FAIL)  (.+?): residual (\S+) \(tolerance (\S+)\)(?: order (\S+))?")


def _spec():
    """End-to-end metric name -> its BENCHMARK.json entry (unit, better, bound)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def _commit(tree):
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True).stdout.strip()

    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


def dispatch_env():
    """The CPU model and the SIMD features numpy found and did not disable;
    perfbench's processes inherit this process's interpreter and environment,
    so they dispatch the same."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"cpu_model": _cpu_model(),
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench process; its result record from perfbench/out/."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    path = Path(tree) / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def parse_acceptance(text):
    """Check name -> {"residual", "tolerance"[, "order"]} from report lines."""
    out = {}
    for m in REPORT_LINE.finditer(text):
        name, residual, tol, order = m.groups()
        out[name] = {"residual": float(residual), "tolerance": float(tol)}
        if order is not None:
            out[name]["order"] = float(order)
    return out


def acceptance(tree):
    """The acceptance residuals of a tree, run against its own src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(tree) / "src"),
                                                      env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
           "tests/test_acceptance.py"]
    run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    found = parse_acceptance(run.stdout)
    if not found:
        print(f"trajectory: no acceptance report line from {tree} (pytest exit "
              f"{run.returncode})", file=sys.stderr)
    return found


def _summary(record, seed, order):
    return {
        "seed": seed,
        "order": order,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "failed_ops": [r["op"] for r in record["ops"] if "error" in r],
        "metrics": {k: m["value"] for k, m in record["metrics"].items()},
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _alternating(trees, seeds):
    """(seed, position, label, path) with the trees taking turns and the
    first of them alternating from seed to seed."""
    for i, seed in enumerate(seeds):
        order = trees if i % 2 == 0 else trees[::-1]
        for position, (label, path) in enumerate(order):
            yield seed, position, label, path


def per_layer_summary(traced):
    """The per-layer record of a tree's traced runs: their seeds, ops
    attempted and failed, and each metric's median, min and max."""
    names = [n for n in traced[0]["metrics"] if all(n in r["metrics"] for r in traced)]
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in traced]
        metrics[name] = {"median": statistics.median(values), "min": min(values),
                         "max": max(values), "unit": traced[0]["metrics"][name]["unit"]}
    return {"seeds": [r["seed"] for r in traced],
            "attempted": [r["attempted"] for r in traced],
            "failed": [r["failed"] for r in traced], "metrics": metrics}


def measure(trees, seeds, seconds):
    """Run every tree on every workload; returns {label: tree record}."""
    spec = _spec()
    dispatch = dispatch_env()
    out = {label: {"tree_commit": _commit(path), "workloads": {}} for label, path in trees}
    for label, path in trees:
        print(f"trajectory: {label} acceptance", file=sys.stderr)
        out[label]["acceptance"] = acceptance(path)
    for workload in WORKLOADS:
        runs = {label: [] for label, _ in trees}
        for seed, position, label, path in _alternating(trees, seeds):
            print(f"trajectory: {label} {workload} seed {seed}", file=sys.stderr)
            record = run_once(path, workload, seed, seconds, 0)
            runs[label].append(_summary(record, seed, position))
            out[label]["env"] = {k: record["env"][k] for k in ("python", "numpy", "nproc")}
            out[label]["env"].update(dispatch)
        traced = {label: [] for label, _ in trees}
        for seed, _, label, path in _alternating(trees, seeds[:TRACED_SEEDS]):
            print(f"trajectory: {label} {workload} seed {seed} traced", file=sys.stderr)
            traced[label].append(dict(run_once(path, workload, seed, seconds, 1), seed=seed))
        for label, path in trees:
            end_to_end = {}
            for name in spec:
                q1, med, q3 = _quartiles([r["metrics"][name] for r in runs[label]])
                end_to_end[name] = {"median": med, "q1": q1, "q3": q3,
                                    "unit": spec[name]["unit"]}
            out[label]["workloads"][workload] = {
                "seconds": seconds,
                "runs": runs[label],
                "end_to_end": end_to_end,
                "per_layer": per_layer_summary(traced[label]),
            }
    return out


def _load(ref):
    path, _, label = ref.partition(":")
    trees = json.loads(Path(path).read_text())["trees"]
    label = label or list(trees)[-1]
    if label not in trees:
        sys.exit(f"trajectory: {path} has no tree {label!r} (has {sorted(trees)})")
    return f"{path}:{label}", trees[label]


def _ratio(b, a):
    return f"{b / a:.4f}" if a else "n/a"


def _layers(per_layer):
    """Per-layer metrics as {name: {median, min, max, unit}}; a file with one
    traced run keeps {value, unit}, which stands for all three."""
    return {name: m if "median" in m else
            {"median": m["value"], "min": m["value"], "max": m["value"], "unit": m["unit"]}
            for name, m in per_layer["metrics"].items()}


def _seeds(per_layer):
    return " ".join(str(s) for s in per_layer.get("seeds", [per_layer.get("seed")]))


def _spread(m):
    """A metric's median, with its range where the traced runs differ."""
    if m["min"] == m["max"]:
        return f"{m['median']:.6g}"
    return f"{m['median']:.6g} ({m['min']:.6g}-{m['max']:.6g})"


def compare_dispatch(env_a, env_b):
    """Print the CPU and SIMD dispatch of A and B; False when both recorded
    their features and these differ."""
    missing = [side for side, env in (("A", env_a), ("B", env_b)) if not env.get("cpu_features")]
    if missing:
        print("SIMD dispatch: not recorded in " + " and ".join(missing))
        return True
    cpus = {env_a.get("cpu_model"), env_b.get("cpu_model")}
    cpu = (f"CPU {cpus.pop()}" if len(cpus) == 1 else
           f"CPU A {env_a.get('cpu_model')}, B {env_b.get('cpu_model')}")
    fa, fb = set(env_a["cpu_features"]), set(env_b["cpu_features"])
    if fa == fb:
        print(f"SIMD dispatch: same ({cpu}; {len(fa)} features)")
        return True
    print(f"SIMD dispatch differs ({cpu}): only A has {' '.join(sorted(fa - fb)) or '-'};"
          f" only B has {' '.join(sorted(fb - fa)) or '-'}")
    return False


def compare_acceptance(a, b, same_dispatch=True):
    """Print every acceptance residual that differs between A and B, with its
    B/A ratio, marking one above RESIDUAL_GROWTH (a residual of 0 in A has no
    ratio); at different SIMD dispatch only their count.  Returns the names
    of the residuals that grew."""
    if not (a and b):
        print("acceptance residuals: not recorded in " + " and ".join(
            side for side, acc in (("A", a), ("B", b)) if not acc))
        return []
    differ = [name for name in a if name in b and a[name]["residual"] != b[name]["residual"]]
    print(f"acceptance residuals: {len(differ)} of {len([n for n in a if n in b])} differ")
    if not same_dispatch:
        print("  not listed: the trees ran at different SIMD dispatch, where residual "
              "reprs differ by rounding")
        return []
    grew = []
    for name in differ:
        ra, rb = a[name]["residual"], b[name]["residual"]
        change = f"{(rb - ra) / abs(ra):+.3e}" if ra else "n/a"
        mark = ""
        if ra and rb / ra > RESIDUAL_GROWTH:
            grew.append(name)
            mark = "  RESIDUAL GREW"
        print(f"  {name}: A {ra!r}  B {rb!r}  relative change {change}"
              f"  B/A {_ratio(rb, ra)}{mark}")
    for side, x, y in (("A", a, b), ("B", b, a)):
        for name in [n for n in x if n not in y]:
            print(f"  {name}: only in {side}")
    if grew:
        print(f"RESIDUAL GREW: {len(grew)} acceptance residual(s) above "
              f"{RESIDUAL_GROWTH:g} times A")
    return grew


def compare_orders(a, b):
    """Print every refinement order that A and B both record, marking a drop
    of more than ORDER_DROP on a line that NOT_ORDER_EVIDENCE does not label
    not order evidence.  Returns the names of the lines whose order
    dropped."""
    both = [n for n in a if n in b and "order" in a[n] and "order" in b[n]]
    if not both:
        return []
    print(f"refinement orders: {len(both)} lines")
    dropped = []
    for name in both:
        oa, ob = a[name]["order"], b[name]["order"]
        why = [why for line, why in NOT_ORDER_EVIDENCE if line.match(name)]
        mark = ""
        if why:
            mark = f"  not order evidence ({why[0]})"
        elif ob < oa - ORDER_DROP:
            dropped.append(name)
            mark = "  ORDER DROPPED"
        print(f"  {name}: A {oa!r}  B {ob!r}{mark}")
    if dropped:
        print(f"ORDER DROPPED: {len(dropped)} refinement order(s) more than "
              f"{ORDER_DROP:g} below A")
    return dropped


def compare(ref_a, ref_b):
    """Print B against A: acceptance residuals and refinement orders, then
    workload by workload.  Returns the names of the acceptance lines whose
    residual grew or whose order dropped (see compare_acceptance and
    compare_orders)."""
    spec = _spec()
    name_a, a = _load(ref_a)
    name_b, b = _load(ref_b)
    print(f"A = {name_a} ({a['tree_commit']}), B = {name_b} ({b['tree_commit']}); "
          "ratios are B/A, base A")
    same_dispatch = compare_dispatch(a.get("env", {}), b.get("env", {}))
    grew = compare_acceptance(a.get("acceptance"), b.get("acceptance"), same_dispatch)
    grew += compare_orders(a.get("acceptance") or {}, b.get("acceptance") or {})
    for workload in [w for w in a["workloads"] if w in b["workloads"]]:
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        pairs = [(ra, rb) for ra in wa["runs"] for rb in wb["runs"] if ra["seed"] == rb["seed"]]
        print(f"\n{workload}: {len(pairs)} pairs by seed")
        if not pairs:
            continue
        for name, m in spec.items():
            ea, eb = wa["end_to_end"][name], wb["end_to_end"][name]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (rb["metrics"][name] - ra["metrics"][name]) > 0 for ra, rb in pairs)
            worse = sign * (eb["median"] - ea["median"]) < 0
            beyond = worse and abs(eb["median"] / ea["median"] - 1) > m["bound"]
            print(f"  {name} [{m['unit']}]: A {ea['median']:.6g} (IQR {ea['q3'] - ea['q1']:.3g})"
                  f"  B {eb['median']:.6g} (IQR {eb['q3'] - eb['q1']:.3g})"
                  f"  B/A {_ratio(eb['median'], ea['median'])}  B better in {wins}/{len(pairs)}"
                  f"  median gap {abs(eb['median'] - ea['median']):.3g}"
                  + ("  WORSE BEYOND BOUND" if beyond else ""))
        # ops are numbered in the seed's input order: both runs of a pair
        # attempted the first min(attempted) of them
        common = [min(ra["attempted"], rb["attempted"]) for ra, rb in pairs]
        fails = [sum(op < n for r, n in zip(side, common) for op in r["failed_ops"])
                 for side in zip(*pairs)]
        print(f"  failed on ops both attempted: A {fails[0]}, B {fails[1]} "
              f"of {sum(common)} (attempted in all: A {sum(r['attempted'] for r in wa['runs'])},"
              f" B {sum(r['attempted'] for r in wb['runs'])})")
        la, lb = (_layers(w["per_layer"]) for w in (wa, wb))
        print(f"  per layer, median (min-max) of the traced runs of seeds "
              f"{_seeds(wa['per_layer'])} (A) and {_seeds(wb['per_layer'])} (B), per op:")
        for name in [n for n in la if n in lb and (la[n]["median"] or lb[n]["median"])]:
            ma, mb = la[name]["median"], lb[name]["median"]
            print(f"    {name} [{la[name]['unit']}]: A {_spread(la[name])}  "
                  f"B {_spread(lb[name])}  B/A {_ratio(mb, ma)}")
    return grew


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two measured trees, each FILE[:LABEL]; exits 1 when an "
                        "acceptance residual grew or a refinement order dropped")
    p.add_argument("--pr", type=int, help="writes BENCH_<pr>.json in the repository root")
    p.add_argument("--tree", action="append", metavar="LABEL=DIR",
                   help="a tree to measure (repeatable; default: change=the repository root)")
    p.add_argument("--seeds", nargs="+", type=int, default=[1],
                   help="one --trace 0 run per seed and tree; the first "
                        f"{TRACED_SEEDS} seeds are also traced")
    p.add_argument("--seconds", type=float, default=36.0, help="perfbench's --seconds")
    args = p.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if args.pr is None:
        p.error("--pr is needed to measure (or give --compare)")
    trees = []
    for spec in args.tree or [f"change={ROOT}"]:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "perfbench" / "run.py").is_file():
            p.error(f"--tree {spec!r}: expected LABEL=DIR with DIR/perfbench/run.py")
        trees.append((label, str(Path(path).resolve())))
    trees_out = measure(trees, args.seeds, args.seconds)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps({"pr": args.pr, "seeds": args.seeds, "trees": trees_out},
                               indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
