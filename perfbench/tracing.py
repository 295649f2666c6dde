"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps public functions of the engine by rebinding their
names in every ``isothermic.*`` module namespace, so call sites that
imported a name with ``from .grid import ...`` are caught as well.  The
program's code is not changed.  Wrappers record only while an op is open,
so set-up and the benchmark's own gate run untraced.

Layer functions record one span each: name, start, end, parent span, op id
and, for the certificates and gates, the residual they returned.  Kernel
calls (the quaternion array kernels) and closed-form oracle evaluations are
too many for a span each; they are aggregated per parent span and op, and
their time still counts as child time of that parent.  A span's self time
is its duration minus the time its child spans and kernels cover, so the
self times of an op add up to the op's duration.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict

perf = time.perf_counter

SPAN, KERNEL, ORACLE = "span", "kernel", "oracle"

MODULES = ("quaternion", "grid", "oracles", "surfaces", "transforms", "cmc",
           "objio", "pipeline", "cli")

ROOT = "bench.op"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _grid_nodes(g):
    return g.nx * g.ny


def _array_nodes(result):
    values = getattr(result, "values", result)
    return values.shape[0] * values.shape[1]


def _surface_of(result):
    return getattr(result, "surface", result)


#: per-target hooks: name -> (count suffix or None, hook); a hook maps
#: (args, kwargs, result) to (count, residual), either of which may be None
HOOKS = {
    "quaternion.qmul": ("products", lambda a, k, r: (r.size // 4, None)),
    "grid.integrate_frame": ("nodes", lambda a, k, r: (_array_nodes(r), None)),
    "grid.integrate_left_vector": ("nodes", lambda a, k, r: (_array_nodes(r), None)),
    "grid.integrate_riccati": ("nodes", lambda a, k, r: (_array_nodes(r), None)),
    "grid.integrate_form": ("nodes", lambda a, k, r: (_grid_nodes(r.grid), None)),
    "grid.maurer_cartan_residual": ("nodes", lambda a, k, r: (
        _grid_nodes(_arg(a, k, 2, "grid")), r)),
    "grid.closedness_residual": ("nodes", lambda a, k, r: (
        _grid_nodes(_arg(a, k, 0, "omega").grid), r)),
    "grid.save_field": ("bytes", lambda a, k, r: (
        os.path.getsize(_arg(a, k, 1, "path")), None)),
    "grid.load_field": ("bytes", lambda a, k, r: (
        os.path.getsize(_arg(a, k, 0, "path")), None)),
    "objio.export_obj": ("bytes", lambda a, k, r: (os.path.getsize(r), None)),
    "surfaces.isothermic_certificate": (None, lambda a, k, r: (None, r[1])),
    "cmc.spherical_type_certificate": (None, lambda a, k, r: (None, r[1])),
    "cmc.mean_curvature_hyperbolic": (None, lambda a, k, r: (None, r[2])),
    "transforms.moebius_equivalent": (None, lambda a, k, r: (None, r[1])),
    "transforms.permutability_suite": (None, lambda a, k, r: (None, {
        "p1": r.p1_residual, "p2": r.p2_pointwise, "p3": r.p3_residual})),
    "cmc.ribaucour_data_extract": (None, lambda a, k, r: (None, {
        "gauss": r.gauss_residual, "codazzi": r.codazzi_residual,
        "pattern": r.pattern_residual})),
}

COUNT_UNITS = {"products": "count", "nodes": "count", "bytes": "B"}

#: transforms whose output surface feeds transforms.valid_node_ratio
SURFACE_TRANSFORMS = {
    "transforms.christoffel", "transforms.goursat", "transforms.t_transform",
    "transforms.t_transform_via_connection", "transforms.darboux_via_connection",
    "transforms.darboux_linear", "transforms.darboux_riccati",
}

TARGETS = (
    [(f"quaternion.{f}", KERNEL) for f in (
        "qmul", "qm2_mul", "qm2_matvec", "qm2_inv", "cross_ratio_class_array")]
    + [(f"grid.{f}", SPAN) for f in (
        "QField.sample", "integrate_form", "closedness_residual",
        "maurer_cartan_residual", "integrate_frame", "integrate_left_vector",
        "integrate_riccati", "save_field", "load_field")]
    + [(f"surfaces.{f}", SPAN) for f in ("surface_jets", "isothermic_certificate")]
    + [(f"transforms.{f}", SPAN) for f in (
        "christoffel", "goursat", "canonical_connection", "t_transform",
        "t_transform_via_connection", "darboux_via_connection", "darboux_linear",
        "darboux_riccati", "moebius_equivalent", "permutability_suite")]
    + [(f"cmc.{f}", SPAN) for f in (
        "WeierstrassData.sample", "family_ribaucour_connection",
        "darboux_weierstrass", "mean_curvature_hyperbolic",
        "spherical_type_certificate", "ribaucour_data_extract")]
    + [("objio.export_obj", SPAN), ("pipeline.run_pipeline", SPAN), ("cli.main", SPAN)]
)

#: public closed forms; an evaluation is an outermost call of one of these
ORACLES = (
    "f_plane", "cf_plane", "t_frame", "t_plane", "ct_plane", "minimal_family",
    "darboux_plane", "darboux_of_t_plane", "family_g", "family_w", "family_dg",
    "family_log_metric", "family_spin",
)


def layer_metric_units():
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for name, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        suffix = HOOKS.get(name, (None,))[0]
        if suffix:
            units[f"{name}.{suffix}"] = COUNT_UNITS[suffix]
        units[f"{name}.self_s"] = "s"
    units["quaternion.qmul.ns_per_product"] = "ns"
    units["oracles.evals"] = "count"
    units["transforms.valid_node_ratio"] = "ratio"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units[f"{ROOT}.self_s"] = "s"
    units["traced.op_s.p50"] = "s"
    return units


class Tracer:
    """Spans, kernel aggregates and counts of one traced run."""

    def __init__(self):
        self.spans = []  # finished spans, in end order
        self.kernels = defaultdict(lambda: [0, 0.0])  # (op, parent, name) -> calls, self_s
        self.counts = defaultdict(int)  # "<name>.<suffix>" -> total
        self.stack = []  # open frames: [child_s, span id]
        self.next_id = 0
        self.op = None
        self.in_oracle = False
        self.transform_nodes = [0, 0]  # valid output nodes, nodes marched

    # -- installation ------------------------------------------------------

    def install(self):
        import isothermic  # noqa: F401  (every submodule is loaded by it)

        namespaces = [m for key, m in sys.modules.items()
                      if key == "isothermic" or key.startswith("isothermic.")]
        for name, kind in TARGETS:
            self._wrap(namespaces, name, kind)
        for fn in ORACLES:
            self._wrap(namespaces, f"oracles.{fn}", ORACLE)

    def _wrap(self, namespaces, name, kind):
        module_name, _, attr = name.partition(".")
        module = sys.modules[f"isothermic.{module_name}"]
        if "." in attr:  # classmethod on a class of the module
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            func = cls.__dict__[meth].__func__
            setattr(cls, meth, classmethod(self._wrapper(name, kind, func)))
            return
        original = getattr(module, attr)
        wrapper = self._wrapper(name, kind, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)

    def _wrapper(self, name, kind, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            if not self.stack or (kind == ORACLE and self.in_oracle):
                return fn(*args, **kwargs)
            return self._call(name, kind, hook, fn, args, kwargs)

        return traced

    # -- recording ---------------------------------------------------------

    def _call(self, name, kind, hook, fn, args, kwargs):
        parent = self.stack[-1]
        frame = [0.0, parent[1]]
        if kind == SPAN:
            frame[1] = self.next_id
            self.next_id += 1
        elif kind == ORACLE:
            self.in_oracle = True
        self.stack.append(frame)
        start = perf()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(name, kind, frame, parent, start, type(exc).__name__)
            raise
        span = self._close(name, kind, frame, parent, start, None)
        if hook is not None:
            suffix, fn_counts = hook
            count, residual = fn_counts(args, kwargs, result)
            if suffix:
                self.counts[f"{name}.{suffix}"] += count
            if residual is not None:
                span["residual"] = residual
        if name in SURFACE_TRANSFORMS:
            g = _surface_of(result).grid
            self.transform_nodes[0] += int(g.valid().sum())
            self.transform_nodes[1] += _grid_nodes(g)
        return result

    def _close(self, name, kind, frame, parent, start, error):
        end = perf()
        self.stack.pop()
        duration = end - start
        parent[0] += duration
        self_s = duration - frame[0]
        if kind != SPAN:
            agg = self.kernels[(self.op, parent[1], name)]
            agg[0] += 1
            agg[1] += self_s
            if kind == ORACLE:
                self.in_oracle = False
                self.counts["oracles.evals"] += 1
            return None
        span = {"id": frame[1], "name": name, "parent": parent[1], "op": self.op,
                "start": start, "end": end, "self_s": self_s}
        if error:
            span["error"] = error
        self.spans.append(span)
        return span

    def begin_op(self, op):
        self.op = op
        self.stack.append([0.0, self.next_id])
        self.next_id += 1
        return perf()

    def end_op(self, start):
        """Close the op's root span; returns its record."""
        end = perf()
        child_s, span_id = self.stack.pop()
        span = {"id": span_id, "name": ROOT, "parent": None, "op": self.op,
                "start": start, "end": end, "self_s": end - start - child_s}
        self.spans.append(span)
        return span

    # -- results -----------------------------------------------------------

    def kernel_records(self):
        return [{"op": op, "parent": parent, "name": name, "calls": calls, "self_s": self_s}
                for (op, parent, name), (calls, self_s) in self.kernels.items()]

    def layer_metrics(self, op_seconds):
        """Per-op averages of every per-layer metric, plus the traced op median."""
        ops = max(1, len(op_seconds))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for span in self.spans:
            calls[span["name"]] += 1
            self_s[span["name"]] += span["self_s"]
        for (_, _, name), (n, s) in self.kernels.items():
            calls[name] += n
            self_s[name] += s
        values = {}
        for key in layer_metric_units():
            name, _, suffix = key.rpartition(".")
            if suffix == "calls":
                values[key] = calls[name] / ops
            elif suffix in ("products", "nodes", "bytes"):
                values[key] = self.counts[key] / ops
            elif suffix == "self_s" and name in MODULES:
                values[key] = sum(s for n, s in self_s.items()
                                  if n.split(".")[0] == name) / ops
            elif suffix == "self_s":
                values[key] = self_s[name] / ops
        values["oracles.evals"] = self.counts["oracles.evals"] / ops
        products = self.counts["quaternion.qmul.products"]
        values["quaternion.qmul.ns_per_product"] = (
            1e9 * self_s["quaternion.qmul"] / products if products else 0.0)
        valid, marched = self.transform_nodes
        # no transform ran: nothing was marched, so nothing was wasted
        values["transforms.valid_node_ratio"] = valid / marched if marched else 1.0
        values["traced.op_s.p50"] = statistics.median(op_seconds)
        return values
