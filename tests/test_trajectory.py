"""bench/trajectory.py --compare on hand-made trajectory files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("trajectory", ROOT / "bench" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

NAMES = ("op_s.p50", "nodes_per_s", "setup_s", "peak_rss_mb", "residual_margin")


def _tree(op_s, attempted, failed_ops):
    runs = [{"seed": seed, "order": 0, "attempted": n, "failed": len(bad), "failed_ops": bad,
             "metrics": dict.fromkeys(NAMES, 1.0) | {"op_s.p50": t}}
            for seed, t, n, bad in zip((1, 2), op_s, attempted, failed_ops)]
    end_to_end = {name: {"median": 1.0, "q1": 1.0, "q3": 1.0, "unit": "x"} for name in NAMES}
    end_to_end["op_s.p50"] = {"median": sum(op_s) / 2, "q1": min(op_s), "q3": max(op_s),
                              "unit": "s"}
    per_layer = {"seed": 1, "attempted": 1, "failed": 0,
                 "metrics": {"grid.integrate_frame.calls": {"value": 5.0, "unit": "count"}}}
    return {"tree_commit": "abc", "env": {},
            "workloads": {"permutability": {"seconds": 36, "runs": runs,
                                            "end_to_end": end_to_end, "per_layer": per_layer}}}


def test_compare_counts_failures_on_ops_both_attempted(tmp_path, capsys):
    """The faster tree B attempts ops 42-44 of seed 1 that A never reached and
    fails op 44: not counted.  Its failure at op 10 of seed 2, which A also
    attempted, is."""
    a = _tree((1.0, 1.2), (42, 40), ([], []))
    b = _tree((0.8, 0.9), (45, 44), ([44], [10]))
    b["workloads"]["permutability"]["per_layer"]["metrics"]["grid.integrate_frame.calls"][
        "value"] = 4.0
    path = tmp_path / "BENCH_1.json"
    path.write_text(json.dumps({"pr": 1, "seeds": [1, 2], "trees": {"parent": a, "change": b}}))
    trajectory.compare(f"{path}:parent", f"{path}")
    out = capsys.readouterr().out
    assert "ratios are B/A, base A" in out
    assert "failed on ops both attempted: A 0, B 1 of 82" in out
    assert "op_s.p50 [s]: A 1.1 (IQR 0.2)  B 0.85 (IQR 0.1)  B/A 0.7727  B better in 2/2" in out
    assert "grid.integrate_frame.calls [count]: A 5  B 4  B/A 0.8000" in out


def test_compare_lists_every_acceptance_residual_that_differs(tmp_path, capsys):
    """Only the residual that moved is listed, with its relative change; a
    file written before residuals were recorded says so."""
    a = _tree((1.0, 1.2), (42, 40), ([], []))
    b = _tree((1.0, 1.2), (42, 40), ([], []))
    a["acceptance"] = {
        "criterion 1a (spectral surface vs closed form)": {"residual": 1.7e-9, "tolerance": 5e-6},
        "criterion 5 (group law)": {"residual": 2e-8, "tolerance": 1e-5},
    }
    b["acceptance"] = json.loads(json.dumps(a["acceptance"]))
    b["acceptance"]["criterion 5 (group law)"]["residual"] = 2.5e-8
    path = tmp_path / "BENCH_2.json"
    path.write_text(json.dumps({"pr": 2, "seeds": [1, 2], "trees": {"parent": a, "change": b}}))
    trajectory.compare(f"{path}:parent", f"{path}:change")
    out = capsys.readouterr().out
    assert "acceptance residuals: 1 of 2 differ" in out
    assert "  criterion 5 (group law): A 2e-08  B 2.5e-08  relative change +2.500e-01" in out
    assert "criterion 1a" not in out
    del a["acceptance"]
    path.write_text(json.dumps({"pr": 2, "seeds": [1, 2], "trees": {"parent": a, "change": b}}))
    trajectory.compare(f"{path}:parent", f"{path}:change")
    assert "acceptance residuals: not recorded in A" in capsys.readouterr().out


def test_parse_acceptance_reads_report_lines():
    text = (
        ".PASS  criterion 6 (|H| = 2.0 at parameter 1.0: deviation): residual "
        "9.310003241961478e-07 (tolerance 1.0e-03) \n"
        "PASS  criterion 2 wedge(df, dCf) [plane]: residual 9.8e-15 (tolerance 1.0e-04) "
        "order inf\n"
        "FAIL  criterion 8 (Gauss residual): residual 0.0012 (tolerance 1.0e-03) order 1.99\n"
        "PASS  criterion 7 (cylinder negative control): residual 2.500e-01 (required >= 1e-01)\n"
    )
    assert trajectory.parse_acceptance(text) == {
        "criterion 6 (|H| = 2.0 at parameter 1.0: deviation)":
            {"residual": 9.310003241961478e-07, "tolerance": 1e-3},
        "criterion 2 wedge(df, dCf) [plane]":
            {"residual": 9.8e-15, "tolerance": 1e-4, "order": float("inf")},
        "criterion 8 (Gauss residual)": {"residual": 0.0012, "tolerance": 1e-3, "order": 1.99},
    }


def _dispatch_file(tmp_path, features_a, features_b):
    """Two trees whose criterion 5 residuals differ, with the given SIMD
    features (None: not recorded)."""
    trees = {}
    for label, features, residual in (("parent", features_a, 2e-8), ("change", features_b, 4e-8)):
        tree = _tree((1.0, 1.2), (42, 40), ([], []))
        tree["acceptance"] = {"criterion 5 (group law)": {"residual": residual, "tolerance": 1e-5}}
        if features is not None:
            tree["env"] = {"cpu_model": "Test CPU", "cpu_features": features}
        trees[label] = tree
    path = tmp_path / "BENCH_3.json"
    path.write_text(json.dumps({"pr": 3, "seeds": [1, 2], "trees": trees}))
    return path


def test_compare_does_not_list_residuals_across_dispatch_levels(tmp_path, capsys):
    """At different SIMD dispatch the moved residual is counted, not listed."""
    path = _dispatch_file(tmp_path, ["AVX2", "SSE2", "X86_V3"], ["SSE2"])
    trajectory.compare(f"{path}:parent", f"{path}:change")
    out = capsys.readouterr().out
    assert "SIMD dispatch differs (CPU Test CPU): only A has AVX2 X86_V3; only B has -" in out
    assert "acceptance residuals: 1 of 1 differ" in out
    assert "not listed: the trees ran at different SIMD dispatch" in out
    assert "criterion 5" not in out


def test_compare_lists_residuals_at_the_same_dispatch(tmp_path, capsys):
    path = _dispatch_file(tmp_path, ["SSE2", "AVX2"], ["AVX2", "SSE2"])
    trajectory.compare(f"{path}:parent", f"{path}:change")
    out = capsys.readouterr().out
    assert "SIMD dispatch: same (CPU Test CPU; 2 features)" in out
    assert "  criterion 5 (group law): A 2e-08  B 4e-08  relative change +1.000e+00" in out
    path = _dispatch_file(tmp_path, None, ["SSE2"])
    trajectory.compare(f"{path}:parent", f"{path}:change")
    out = capsys.readouterr().out
    assert "SIMD dispatch: not recorded in A" in out
    assert "  criterion 5 (group law): A 2e-08" in out


def test_dispatch_env_lists_enabled_features():
    env = trajectory.dispatch_env()
    assert env["cpu_model"] and env["cpu_features"] == sorted(env["cpu_features"])
    assert all(isinstance(name, str) for name in env["cpu_features"])


def test_compare_gates_residual_growth_at_the_same_dispatch(tmp_path, capsys):
    """A residual that grew by more than RESIDUAL_GROWTH is marked and makes
    --compare exit 1; growth by exactly that factor is not marked."""
    path = _dispatch_file(tmp_path, ["SSE2"], ["SSE2"])
    assert trajectory.main(["--compare", f"{path}:parent", f"{path}:change"]) == 0
    out = capsys.readouterr().out
    assert ("  criterion 5 (group law): A 2e-08  B 4e-08  relative change +1.000e+00"
            "  B/A 2.0000\n") in out
    assert "RESIDUAL GREW" not in out
    doc = json.loads(path.read_text())
    doc["trees"]["change"]["acceptance"]["criterion 5 (group law)"]["residual"] = 4.2e-8
    path.write_text(json.dumps(doc))
    assert trajectory.main(["--compare", f"{path}:parent", f"{path}:change"]) == 1
    out = capsys.readouterr().out
    assert "B/A 2.1000  RESIDUAL GREW" in out
    assert "RESIDUAL GREW: 1 acceptance residual(s) above 2 times A" in out


def test_compare_does_not_gate_residuals_across_dispatch_levels(tmp_path, capsys):
    """Across dispatch levels residuals differ by rounding: growth is not gated."""
    path = _dispatch_file(tmp_path, ["AVX2", "SSE2"], ["SSE2"])
    doc = json.loads(path.read_text())
    doc["trees"]["change"]["acceptance"]["criterion 5 (group law)"]["residual"] = 1e-6
    path.write_text(json.dumps(doc))
    assert trajectory.main(["--compare", f"{path}:parent", f"{path}:change"]) == 0
    assert "RESIDUAL GREW" not in capsys.readouterr().out


def test_compare_gates_refinement_order_drops(tmp_path, capsys):
    """An order that dropped by more than ORDER_DROP is marked and makes
    --compare exit 1, at any dispatch; a drop of 0.18 is not, and neither is
    any drop on the plane lines of criteria 1-4 (criterion 10 is not one),
    on criterion 5's line or on P3's."""
    orders = {"criterion 2 wedge(df, dCf) [plane]": (float("inf"), 2.0),
              "criterion 2 C^2 identity [enneper]": (3.98, 3.8),
              "criterion 4b (Darboux member)": (3.9, 2.0),
              "criterion 5 (group law T_0.7 T_0.3 = T_1.0)": (3.94, 2.56),
              "permutability P3 (T_mu D_lam f = D_(lam-mu) T_mu f)": (4.08, 3.6),
              "criterion 8 (Gauss residual)": (1.99, 1.99),
              "criterion 10 (double dual vs original)": (4.0, 4.0)}
    path = _dispatch_file(tmp_path, ["AVX2", "SSE2"], ["SSE2"])
    doc = json.loads(path.read_text())
    for label, k in (("parent", 0), ("change", 1)):
        acc = doc["trees"][label]["acceptance"]
        for name, pair in orders.items():
            acc[name] = {"residual": 1e-8, "tolerance": 1e-4, "order": pair[k]}
    path.write_text(json.dumps(doc))
    assert trajectory.main(["--compare", f"{path}:parent", f"{path}:change"]) == 0
    out = capsys.readouterr().out
    assert "refinement orders: 7 lines" in out
    assert ("  criterion 2 wedge(df, dCf) [plane]: A inf  B 2.0"
            "  not order evidence (criteria 1-4)\n") in out
    assert "  criterion 2 C^2 identity [enneper]: A 3.98  B 3.8  not order evidence" in out
    assert ("  criterion 5 (group law T_0.7 T_0.3 = T_1.0): A 3.94  B 2.56"
            "  not order evidence (criterion 5: near its rounding floor)\n") in out
    assert ("  permutability P3 (T_mu D_lam f = D_(lam-mu) T_mu f): A 4.08  B 3.6"
            "  not order evidence (P3: set by rounding in the chained family)\n") in out
    assert "ORDER DROPPED" not in out
    doc["trees"]["change"]["acceptance"]["criterion 8 (Gauss residual)"]["order"] = 1.6
    doc["trees"]["change"]["acceptance"]["criterion 10 (double dual vs original)"]["order"] = 3.5
    path.write_text(json.dumps(doc))
    assert trajectory.main(["--compare", f"{path}:parent", f"{path}:change"]) == 1
    out = capsys.readouterr().out
    assert "  criterion 8 (Gauss residual): A 1.99  B 1.6  ORDER DROPPED\n" in out
    assert "  criterion 10 (double dual vs original): A 4.0  B 3.5  ORDER DROPPED\n" in out
    assert "ORDER DROPPED: 2 refinement order(s) more than 0.3 below A" in out


def test_measure_traces_the_first_seeds_in_alternating_order(monkeypatch):
    """Each tree runs traced on the first TRACED_SEEDS seeds, the trees taking
    turns as in the untraced runs; per layer the file keeps each metric's
    median, min and max over those runs."""
    calls = []

    def run_once(tree, workload, seed, seconds, trace):
        calls.append((tree, workload, seed, trace))
        calls_per_op = 7.0 if tree == "A" else 6.0
        metrics = {name: {"value": 1.0, "unit": "x"} for name in NAMES}
        if trace:
            metrics = {"grid.integrate_frame.calls": {"value": calls_per_op, "unit": "count"},
                       "grid.self_s": {"value": 0.1 * seed, "unit": "s"}}
        return {"attempted": 3, "failed": 0, "ops": [], "metrics": metrics,
                "env": {"python": "3", "numpy": "2", "nproc": 2}}

    monkeypatch.setattr(trajectory, "run_once", run_once)
    monkeypatch.setattr(trajectory, "acceptance", lambda tree: {})
    monkeypatch.setattr(trajectory, "_commit", lambda tree: "abc")
    out = trajectory.measure([("parent", "A"), ("change", "B")], [5, 6, 7, 8], 1.0)
    traced = [(tree, seed) for tree, workload, seed, trace in calls
              if trace and workload == "permutability"]
    assert trajectory.TRACED_SEEDS == 3
    assert traced == [("A", 5), ("B", 5), ("B", 6), ("A", 6), ("A", 7), ("B", 7)]
    untraced = [(tree, seed) for tree, workload, seed, trace in calls
                if not trace and workload == "permutability"]
    assert untraced[:4] == [("A", 5), ("B", 5), ("B", 6), ("A", 6)] and len(untraced) == 8
    layer = out["change"]["workloads"]["permutability"]["per_layer"]
    assert layer["seeds"] == [5, 6, 7]
    assert layer["metrics"]["grid.integrate_frame.calls"] == {
        "median": 6.0, "min": 6.0, "max": 6.0, "unit": "count"}
    self_s = layer["metrics"]["grid.self_s"]
    assert (self_s["median"], self_s["min"], self_s["max"]) == (0.1 * 6, 0.1 * 5, 0.1 * 7)


def test_compare_prints_the_median_ratio_of_traced_runs(tmp_path, capsys):
    """A per-layer line shows each side's median and range and the B/A ratio
    of the medians; a file with one traced run per tree still compares."""
    a = _tree((1.0, 1.2), (42, 40), ([], []))
    b = _tree((0.8, 0.9), (45, 44), ([], []))
    b["workloads"]["permutability"]["per_layer"] = trajectory.per_layer_summary([
        {"seed": s, "attempted": 9, "failed": 0,
         "metrics": {"grid.integrate_frame.calls": {"value": 4.0, "unit": "count"},
                     "quaternion.self_s": {"value": v, "unit": "s"}}}
        for s, v in ((1, 0.02), (2, 0.03), (3, 0.025))])
    a["workloads"]["permutability"]["per_layer"]["metrics"]["quaternion.self_s"] = {
        "value": 0.05, "unit": "s"}
    path = tmp_path / "BENCH_3.json"
    path.write_text(json.dumps({"pr": 3, "seeds": [1, 2], "trees": {"parent": a, "change": b}}))
    trajectory.compare(f"{path}:parent", f"{path}:change")
    out = capsys.readouterr().out
    assert "traced runs of seeds 1 (A) and 1 2 3 (B), per op:" in out
    assert "grid.integrate_frame.calls [count]: A 5  B 4  B/A 0.8000" in out
    assert "quaternion.self_s [s]: A 0.05  B 0.025 (0.02-0.03)  B/A 0.5000" in out
