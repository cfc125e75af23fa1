"""Tests of the benchmark's own machinery (run with: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
from types import SimpleNamespace

import checks
import inputs
import pytest
import run
import stats
import workloads
from inputs import Doc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    a = workloads.make_instance(workload, 7, 3, tmp_path / "a")
    b = workloads.make_instance(workload, 7, 3, tmp_path / "b")
    assert a.path.read_bytes() == b.path.read_bytes()
    assert a.weighted[1].read_bytes() == b.weighted[1].read_bytes()
    assert (a.family, a.n, a.sample_seed) == (b.family, b.n, b.sample_seed)
    c = workloads.make_instance(workload, 8, 3, tmp_path / "c")
    assert c.path.read_bytes() != a.path.read_bytes()


def test_generated_shapes():
    rng = inputs.instance_rng(1, "x", 0)
    tree = inputs.tree_plus_extras(rng, 40, 80)
    assert len(tree.vertices) == 40 and len(tree.arrows) == 80
    assert len(checks.cycle_words(tree, limit=1000)) == 80 - 40 + 1
    ham = inputs.cycle_plus_extras(rng, 10, 30)
    cycle = ham.arrows[:10]
    assert [h for _, _, h in cycle] == [t for _, t, _ in cycle[1:]] + [cycle[0][1]]
    assert len({t for _, t, _ in cycle}) == 10
    weighted = ham.with_random_weights(rng)
    assert all(0 <= m <= inputs.MAX_RANDOM_WEIGHT and 0 <= n <= inputs.MAX_RANDOM_WEIGHT for _, m, n in weighted.weights)


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))  # 100 samples
    assert stats.tail(values) == (90.0, 90.0, 100)
    assert stats.tail(list(range(1, 201)))[0] == 95.0
    assert stats.tail(list(range(1, 41))) == (75.0, 30.0, 40)


@pytest.mark.parametrize("n", [0, 1, 10, 39])
def test_tail_reports_none_with_too_few_samples(n):
    assert stats.tail(list(range(n))) is None


def _span(id, parent, start, end):
    return SimpleNamespace(id=id, parent=parent, start=start, end=end)


def test_self_time_on_nested_spans():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0),
        _span(4, None, 20.0, 21.0),
    ]
    assert stats.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 4.0, 12.0)]
    assert stats.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_spans_and_restores_functions():
    import quivergauge.dsl as dsl
    import quivergauge.quiver as quiver

    tracer = run.Tracer()
    original = dsl.parse
    tracer.install([dsl, quiver])
    try:
        dsl.parse("quiver { vertices: v0 v1; arrows: a0: v0 -> v1; }")
    finally:
        tracer.uninstall()
    assert dsl.parse is original
    names = {s.name for s in tracer.spans}
    assert "dsl.parse" in names and "quiver.validate_relations" in names
    root = next(s for s in tracer.spans if s.name == "dsl.parse")
    assert root.parent is None
    assert all(s.parent is not None for s in tracer.spans if s is not root)
    seconds, calls = run.layer_totals(tracer.spans)
    assert calls["dsl"] == 1 and seconds["dsl"] > 0


def test_failing_output_check_is_counted(tmp_path, monkeypatch):
    doc = Doc("One", ("v0",), (("a0", "v0", "v0"),))
    path = tmp_path / "one.quiver"
    path.write_text(doc.text())
    job = workloads.Job("info", ["info", str(path), "--json"], lambda out: "forced failure", doc)
    monkeypatch.setattr(workloads, "round_jobs", lambda workload, inst, batch=None: [job])
    runner = run.Runner("small-docs", 1, 1.0, False, run.load_library())
    runner.dir = tmp_path
    runner.run_round(0, None)
    assert (runner.attempted, len(runner.failures)) == (1, 1)
    assert "forced failure" in runner.failures[0]
    assert not runner.walls  # failed jobs give no latency sample


def test_checks_reject_wrong_outputs():
    doc = Doc("T", ("v0", "v1"), (("a0", "v0", "v1"), ("a1", "v1", "v0"), ("a2", "v0", "v0")))
    good_kernel = {"arrow_order": ["a0", "a1", "a2"], "vectors": [[0, 0, 1], [1, 1, 0]], "cell_dimension": 2}
    assert checks.check_toric(doc, json.dumps(good_kernel)) is None
    bad = dict(good_kernel, vectors=[[0, 0, 1], [1, 0, 0]])
    assert "not in the kernel" in checks.check_toric(doc, json.dumps(bad))
    short = dict(good_kernel, vectors=[[0, 0, 1]])
    assert checks.check_toric(doc, json.dumps(short)) is not None
    rose = {"rose": {"vertices": ["v0"], "arrows": [{"name": "a1", "tail": "v0", "head": "v0"}]}, "trace": {"steps": [{}]}}
    assert "loops" in checks.check_reduce(doc, json.dumps(rose))


def test_flow_check_requires_convergence_and_monotone_norms():
    doc = Doc("L", ("v0",), (("a0", "v0", "v0"),))
    rep = {"a0": [[[2.0, 0.0]]]}
    payload = {
        "iterations": 1,
        "converged": True,
        "norm_history": [4.0, 4.0],
        "residual_history": [0.0, 0.0],
        "final": {"group": {"family": "GL", "n": 1}, "markings": rep},
    }
    ms = checks.markings({"markings": rep})
    assert checks.check_flow(doc, ms, 1e-4, json.dumps(payload)) is None
    assert "converged false" in checks.check_flow(doc, ms, 1e-4, json.dumps(dict(payload, converged=False)))
    rising = dict(payload, norm_history=[4.0, 5.0])
    assert "increases" in checks.check_flow(doc, ms, 1e-4, json.dumps(rising))


def test_scipy_import_time_counts_outermost_scipy_imports():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |       scipy._lib",
            "import time:        20 |         30 |     scipy",
            "import time:         5 |          5 |       numpy.x",
            "import time:        40 |         75 |     scipy.linalg",
            "import time:       100 |        205 |   quivergauge.matrices",
        ]
    )
    assert run.scipy_import_seconds(log) == pytest.approx(105e-6)


def test_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    runner = run.Runner("gl3-orbits", 1, 1.0, False, SimpleNamespace(tracer=run.Tracer()))
    runner.dir, runner.n_rounds = tmp_path, 1
    runner.walls = [("info", 0.3, 0.1), ("info", 0.4, 0.1), ("toric", 0.5, 0.1)]
    runner.inproc, runner.setup_times, runner.peak_rss_mb = [(0.01, 0.02), (0.02, 0.02)], [0.4], 60.0
    runner.imports = {"interpreter": [0.05], "import": [0.35], "scipy": [0.15]}
    runner.glue, runner.rounds = [(0.4, 0.01)], [{"trace.spans": 10}]
    for got, want in ((runner.end_to_end(), spec["end_to_end"]), (runner.trace_metrics(), spec["per_layer"])):
        assert {k: unit for k, (_, unit) in got.items()} == {m["name"]: m["unit"] for m in want}
