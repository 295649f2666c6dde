#!/usr/bin/env python3
"""Benchmark of the isothermic engine.

Run from the repository root:

    python3 perfbench/run.py --workload permutability --seed 1 --seconds 40 --trace 0

It drives one workload of ``workloads.py`` as a closed loop in this
process: one op at a time for ``--seconds`` (at least one op), each op's
geometric result gated against the acceptance tolerances.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` it wraps
the engine's public functions (``tracing.py``) and prints per-layer metrics
instead.  End-to-end times are normalised by a host-speed probe that runs
around and, on a timer, inside every op and the set-up (``hostspeed.py``),
so they read as seconds on the reference host; the raw wall times are
printed and recorded next to them.  Every metric prints on its own line as ``name value unit``; the
last line of standard output is a JSON summary with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (seed,
environment, per-op times and residuals) and, for a traced run, the spans
are written to ``perfbench/out/``.

The engine is imported from ``src/`` next to this directory; without it the
benchmark exits with a non-zero code before printing any result.
"""

import time

PROCESS_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up is measured in this process and in this many fresh set-up-only ones
SETUP_PROBES = 4
#: grid size of the untimed warm-up op
WARMUP_N = 17
#: inputs drawn per run; a run that needs more reuses them in order
INPUTS = 96
#: each quaternion product reads two 4-double operands and writes one
QMUL_FLOPS, QMUL_BYTES = 28, 96

END_TO_END = {
    "op_s.p50": "s",
    "nodes_per_s": "nodes/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_margin": "decades",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="permutability, curvature_frame or cmc_export")
    p.add_argument("--seed", type=int, required=True,
                   help="draws the spectral parameters and quadruple seeds")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time; ops start while it lasts (0: one op)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--grid-n", type=int,
                   help="override the workload's grid size (small grids for the self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit")
    return p.parse_args(argv)


def set_up(args):
    """Import the engine from src/, draw every input and warm up."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import isothermic
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the engine from {src}: {exc}")
    if Path(isothermic.__file__).resolve().parent != src / "isothermic":
        sys.exit(f"perfbench: isothermic was imported from {isothermic.__file__}, not {src}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(expected one of {sorted(workloads.WORKLOADS)})")
    wl = workloads.WORKLOADS[args.workload]
    n = args.grid_n or wl.grid_n
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    draws = wl.draw(random.Random(args.seed), INPUTS)
    inputs = wl.make_inputs(draws, n, out_dir)
    warm = wl.make_inputs(draws[:1], min(n, WARMUP_N), out_dir)[0]
    try:
        wl.run(warm)  # primes the code paths; the result is not gated
    except isothermic.errors.GeometryError:
        pass  # the engine's accuracy gates may reject so coarse a grid
    return wl, n, inputs, out_dir


def measure(wl, inputs, seconds, tracer):
    """Closed loop: start ops while the measuring time lasts; a failure never aborts.

    The host-speed probe samples every op; in a traced run only at its
    edges, so that no probe time lands in a span."""
    from workloads import OpFailed, gate, margin

    sampler = hostspeed.Sampler(0 if tracer else hostspeed.PERIOD_S)
    ops = []
    loop_start = time.perf_counter()
    while True:
        inp = inputs[len(ops) % len(inputs)]
        rec = {"op": len(ops), "lambda": inp.lam, "qseed": inp.qseed}
        sampler.start()
        root = tracer.begin_op(rec["op"]) if tracer else None
        error = None
        try:
            result = wl.run(inp)
        except Exception:
            error = traceback.format_exc(limit=3)
        if tracer:
            rec["span"] = tracer.end_op(root)["id"]
        rec["seconds"] = sampler.stop()
        rec["probes"] = len(sampler.samples)
        rec["probe_s"] = sampler.probe_s
        rec["norm_s"] = hostspeed.normalise(rec["seconds"], rec["probe_s"])
        if error is None:
            try:
                checks, nodes = wl.verify(inp, result)
                rec["checks"] = checks
                rec["margin"] = margin(checks)
                gate(checks)
                rec["nodes"] = nodes
            except OpFailed as exc:
                error = str(exc)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            rec["error"] = error
            print(f"perfbench: op {rec['op']} failed: {error}", file=sys.stderr)
        ops.append(rec)
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.median(r["seconds"] for r in ops) > seconds:
            return ops, elapsed


def timed_set_up(args):
    """Set up, sampling the host's speed; returns set_up's values and the
    (normalised, wall) seconds from process start to the end of set-up."""
    sampler = hostspeed.Sampler()
    before = time.perf_counter() - PROCESS_START
    sampler.start()
    try:
        values = set_up(args)
    finally:
        wall = before + sampler.stop()
    return values, hostspeed.normalise(wall, sampler.probe_s), wall


def setup_probe(args):
    """Normalised set-up seconds of one fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.grid_n:
        cmd += ["--grid-n", str(args.grid_n)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def end_to_end(ops, setup_s):
    from workloads import MARGIN_CLAMP

    ok = [r for r in ops if "error" not in r]
    margins = [r["margin"] for r in ops if "margin" in r]
    # the mean over ops: one op's margin swings by up to two decades with its
    # lambda and quadruple seed, so a run's minimum is too unsteady to compare
    return {
        "op_s.p50": statistics.median(r["norm_s"] for r in (ok or ops)),
        "nodes_per_s": sum(r["nodes"] for r in ok) / sum(r["norm_s"] for r in (ok or ops)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "residual_margin": statistics.fmean(margins) if margins else -MARGIN_CLAMP,
    }


def main(argv=None):
    args = parse_args(argv)
    (wl, n, inputs, out_dir), setup_s, setup_wall_s = timed_set_up(args)
    try:
        if args.setup_only:
            print(setup_s)
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer, layer_metric_units

            tracer = Tracer()
            tracer.install()
        ops, wall = measure(wl, inputs, args.seconds, tracer)
    finally:
        hostspeed.disarm()
        shutil.rmtree(out_dir, ignore_errors=True)

    import numpy

    failed = sum("error" in r for r in ops)
    env = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": len(ops), "grid_n": n, "warmup_grid_n": min(n, WARMUP_N),
        "lambda_range": wl.lam_range, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }
    record = {"env": env, "attempted": len(ops), "failed": failed,
              "error_rate": failed / len(ops), "ops": ops}
    if tracer:
        units = layer_metric_units()
        metrics = tracer.layer_metrics([r["norm_s"] for r in ops])
        products = tracer.counts["quaternion.qmul.products"] / len(ops)
        record["computed_per_op"] = {
            "note": "from array shapes, not hardware counters: "
                    f"{QMUL_FLOPS} flops and {QMUL_BYTES} bytes per quaternion product; "
                    "grid.*.nodes from grid sizes; I/O bytes are file sizes",
            "quaternion.qmul.products": products,
            "quaternion.qmul.flops": products * QMUL_FLOPS,
            "quaternion.qmul.bytes": products * QMUL_BYTES,
        }
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "env": env, "spans": tracer.spans, "kernels": tracer.kernel_records(),
            "ops": [{k: r[k] for k in ("op", "span", "seconds", "checks") if k in r}
                    for r in ops],
        }))
    else:
        units = END_TO_END
        samples = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        env["setup_samples_s"] = samples
        metrics = end_to_end(ops, statistics.median(samples))
    ok = [r for r in ops if "error" not in r] or ops
    record["wall"] = {
        "op_s.p50": statistics.median(r["seconds"] for r in ok),
        "nodes_per_s": sum(r.get("nodes", 0) for r in ok) / wall,
        "setup_s": setup_wall_s,
        "probe_s.p50": statistics.median(r["probe_s"] for r in ops),
    }
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    result_path = OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))

    print(f"workload {wl.name} seed {args.seed} grid_n {n} trace {args.trace} "
          f"python {env['python']} numpy {env['numpy']} nproc {NPROC} "
          f"blas_threads {NPROC} -> {result_path.relative_to(ROOT)}")
    print(f"ops {len(ops)} count")
    print(f"error_rate {record['error_rate']!r} ratio")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in record["wall"].items():
        print(f"wall.{name} {value!r} {END_TO_END.get(name, 's')}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
