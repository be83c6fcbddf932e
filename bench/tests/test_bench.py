"""The benchmark's own plumbing: metric lists, tracing, report parsing,
input files, and short runs of the workloads."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import make_inputs
import oracles
import pytest
import run
import spans
import workloads

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_theorem_and_verb_names_are_the_programs():
    from skewlat import cli, theorems

    assert tuple(theorems.THEOREMS) == run.THEOREM_NAMES
    for verb in run.CLI_VERBS:
        assert hasattr(cli, f"_cmd_{verb}")


def test_percentile_interpolates():
    assert run.percentile([1, 2, 3, 4, 5], 50) == 3
    assert run.percentile(range(11), 90) == 9
    assert run.percentile([0, 10], 25) == 2.5


def test_self_time_excludes_children():
    tracer = spans.Tracer()

    def child():
        time.sleep(0.02)
        return True

    def parent():
        time.sleep(0.01)
        return tracer.wrap("child", child)()

    tracer.wrap("parent", parent)()
    sums = tracer.snapshot()
    calls, total, self_s, trues = sums["parent"]
    assert calls == 1 and trues == 1
    assert total >= 0.03 and 0.01 <= self_s < 0.02
    assert sums["child"][0] == 1 and sums["child"][2] >= 0.02
    (child_span,) = [s for s in tracer.spans if s[2] == "child"]
    (parent_span,) = [s for s in tracer.spans if s[2] == "parent"]
    assert child_span[1] == parent_span[0] and parent_span[1] == -1


def test_tracer_wraps_every_binding_and_restores_it():
    import skewlat
    from skewlat import core, search

    before = (core.validate, search.validate, search.resolve_predicate)
    S = skewlat.constructions.fixed("NC5L")
    tracer = spans.Tracer()
    tracer.install(skewlat)
    try:
        assert not tracer.missing
        pred = search.resolve_predicate("left_handed")
        assert pred(S) is True
        search.validate(S.pair)
        sums = tracer.snapshot()
        assert sums["search.predicate"][0] == 1 and sums["search.predicate"][3] == 1
        assert sums["core.validate"][0] == 1
    finally:
        tracer.uninstall()
    assert (core.validate, search.validate, search.resolve_predicate) == before


def test_layer_metrics_from_sums():
    sums = {"search.is_canonical": (4, 0.4, 0.4, 1), "search.enumerate": (1, 2.0, 1.5, 0)}
    out = run.layer_metrics(sums, 10)
    assert set(out) == set(run.PER_LAYER)
    assert out["search.leaves"] == 4 and out["search.canonical_yield"] == 0.25
    assert out["search.dfs.self_s"] == 1.5 and out["search.nodes"] == 10
    assert out["terms.holds.calls"] == 0 and out["search.filter_yield"] == 0.0


def test_report_verdicts_ignore_labels():
    props = "distributive: true\nleft_handed: false\n  counterexample: x=1, y=2\nnc5_free: false (contains NC5R on elements {0, 1})\n"
    assert workloads.verdicts("props", props) == {"distributive": True, "left_handed": False, "nc5_free": False}
    ybe_text = "map: strong\nbraid: fail (braid fails at (0, 1, 2): (0, 1, 2) != (1, 1, 2))\npower-class: cubic\n"
    assert workloads.verdicts("ybe", ybe_text) == {("strong", "braid"): "fail", ("strong", "power-class"): "cubic"}
    structure = "n: 3\nleft-handed: False\nD-class 0: {0}\nD-class 1: {1, 2}\nS/D edge: 0 < 1\n"
    assert workloads.verdicts("structure", structure) == {"n": "3", "left-handed": "False", "d_classes": 2, "edges": 1}


def test_input_files_are_skew_lattices_of_order_6_to_16():
    files = sorted(workloads.INPUT_DIR.glob("*.skl"))
    assert len(files) == len(make_inputs.ALGEBRAS)
    for path in files:
        meet, join = workloads.read_skl(path)
        assert 6 <= len(meet) <= 16
        assert oracles.is_skew_lattice(meet, join)
        assert workloads.skl_text(meet, join) == path.read_text()


def test_committed_input_files_match_the_constructions():
    assert make_inputs.main(["--check"]) == 0


class SmallCensus(workloads.Census):
    N = 4


def _round(workload, seed, trace):
    import skewlat

    runner = run.Runner(workload, seed, 0.01, spans.Tracer() if trace else None, skewlat)
    try:
        runner.run()
    finally:
        workload.close()
    return runner


@pytest.mark.parametrize("make", [SmallCensus, workloads.Reports])
def test_a_round_passes_its_checks_and_tracing_changes_no_output(make):
    import skewlat

    plain = _round(make(skewlat), 5, trace=False)
    traced = _round(make(skewlat), 5, trace=True)
    again = _round(make(skewlat), 5, trace=True)
    assert plain.errors == [] and plain.failed == 0
    assert [make(skewlat).digest(o) for o in plain.first] == [make(skewlat).digest(o) for o in traced.first]
    counts = [k for k, unit in run.PER_LAYER.items() if unit == "count"]
    assert [traced.round_layers[0][k] for k in counts] == [again.round_layers[0][k] for k in counts]


def test_census_counters_at_order_4():
    import skewlat

    layers = _round(SmallCensus(skewlat), 1, trace=True).round_layers[0]
    assert layers["search.leaves"] * layers["search.canonical_yield"] == pytest.approx(21)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
