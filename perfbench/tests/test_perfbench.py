"""Self-tests of the benchmark: metric names, tiny op lists, checker, spans."""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, check  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layer == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [*e2e, *layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_op_list_runs_end_to_end_at_tiny_size(name, tmp_path, monkeypatch):
    import curvehull.cli as cli

    monkeypatch.setattr(cli, "ORACLE_SAMPLES", 20_000)  # the oracle's size is fixed in the CLI
    workload = workloads.build(name, 1, tmp_path, tiny=True)
    first = {}
    records = bench.run_pass(cli, workload, first) + bench.run_pass(cli, workload, first)
    assert [r["status"] for r in records if r["status"] == "fail"] == [], records
    assert workload.headline in {op.name for op in workload.ops}


def test_checker_flags_a_wrong_volume():
    op = Op("v", ("volume", "saddle"), "volume", "saddle")
    good = json.dumps({"formula_volume": {"volume": 3.1415}, "oracle_volume": None})
    bad = json.dumps({"formula_volume": {"volume": 3.15}, "oracle_volume": None})
    wrong_oracle = json.dumps({"formula_volume": {"volume": 3.1415}, "oracle_volume": 3.2})
    assert check(op, 0, good).status == "pass"
    assert check(op, 0, bad).status == "fail"
    assert check(op, 0, wrong_oracle).status == "fail"
    assert check(op, 2, "").status == "fail"


def test_checker_flags_a_wrong_gate():
    refusal = Op("r", ("volume", "wobble:k=3"), "refusal", gate="vertex_count")
    defect = Op("d", ("volume", "f.txt"), "volume", "saddle", defect_gate="vertex_count")

    def refused(gate):
        return json.dumps({"error": {"gate": gate, "message": "m"}})

    assert check(refusal, 1, refused("vertex_count")).status == "pass"
    assert check(refusal, 1, refused("convexity")).status == "fail"
    assert check(refusal, 0, json.dumps({"formula_volume": {"volume": 1.0}})).status == "fail"
    assert check(defect, 1, refused("vertex_count")).status == "refused"
    assert check(defect, 1, refused("planarity")).status == "fail"


def test_checker_flags_a_stdout_mismatch():
    calls = []

    class FlakyCli:
        @staticmethod
        def main(argv):
            calls.append(argv)
            print(json.dumps({"formula_volume": {"volume": 3.1415 + 1e-9 * len(calls)},
                              "oracle_volume": None}))
            return 0

    ops = (Op("a", ("volume", "saddle"), "volume", "saddle"),
           Op("b", ("volume", "saddle", "--threads", "2"), "volume", "saddle",
              same_stdout_as="a"))
    workload = workloads.Workload("w", "a", ops)
    first = {}
    assert [r["status"] for r in bench.run_pass(FlakyCli, workload, first)] == ["pass", "fail"]
    assert [r["status"] for r in bench.run_pass(FlakyCli, workload, first)] == ["fail", "fail"]


def test_converge_mask_hides_only_the_seconds_column():
    a = "n,formula_volume,oracle_volume,relative_gap,seconds\n125,1.5,2,0.1,0.013\n"
    b = "n,formula_volume,oracle_volume,relative_gap,seconds\n125,1.5,2,0.1,0.020\n"
    c = "n,formula_volume,oracle_volume,relative_gap,seconds\n125,1.6,2,0.1,0.013\n"
    assert workloads.mask_converge_seconds(a) == workloads.mask_converge_seconds(b)
    assert workloads.mask_converge_seconds(a) != workloads.mask_converge_seconds(c)


def test_self_times_sum_to_wrapped_totals():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    def outer(x, depth=0):
        return wrapped_middle(x) + (wrapped_outer(x, depth + 1) if depth < 1 else 0)

    wrapped_leaf = tracer.wrap("m.leaf", leaf)
    wrapped_middle = tracer.wrap("m.middle", middle)
    wrapped_outer = tracer.wrap("m.outer", outer)
    wrapped_outer(1)
    wrapped_outer(2)

    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 2
    assert sum(s.self_s for s in tracer.spans) == sum(s.total_s for s in roots)
    agg = spans.aggregate(tracer.spans)
    assert agg["m.outer"]["calls"] == 4 and agg["m.leaf"]["calls"] == 8
    assert agg["m.outer"]["total_s"] == sum(s.total_s for s in roots)  # recursion counted once
    assert sum(row["self_s"] for row in agg.values()) == agg["m.outer"]["total_s"]


def test_install_patches_every_binding_and_uninstall_restores():
    import curvehull.cli as cli
    import curvehull.curves as curves
    import curvehull.quadrature as quadrature

    originals = (cli.sample_uniform, quadrature.planarity_check, curves.is_convex_curve)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.sample_uniform is not originals[0]
        assert quadrature.planarity_check is not originals[1]
        assert curves.is_convex_curve is not originals[2]
        tracer.op = "op"
        cli.main(["volume", "saddle", "--n", "300"])
    finally:
        tracer.uninstall()
    assert (cli.sample_uniform, quadrature.planarity_check, curves.is_convex_curve) == originals
    agg = spans.aggregate(tracer.spans, op="op")
    assert agg["quadrature.hull_volume"]["counters"]["pairs"] == 300**2 + 150**2
    assert agg["curves.planarity_check"]["calls"] >= 2
    # is_convex_curve reaches build_hull through the hull module's attribute
    hull_spans = [s for s in tracer.spans if s.name == "hull.build_hull"]
    assert hull_spans and tracer.spans[hull_spans[0].parent].name == "curves.is_convex_curve"
