"""Tests for the benchmark's tracer and its bookkeeping (no tactilab run)."""

import json
import sys
import types
from pathlib import Path

import pytest

import run
from tracer import Tracer, install, merge


def fake_clock(*times):
    return iter(times).__next__


def test_self_time_subtracts_child_spans():
    # outer [0, 10] holds inner [2, 5] and inner [6, 7]
    tracer = Tracer(clock=fake_clock(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))
    tracer.begin("outer")
    tracer.begin("inner")
    tracer.end()
    tracer.begin("inner")
    tracer.end()
    tracer.end()
    stats = tracer.snapshot()["stats"]
    assert stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0, "failed": 0}
    assert stats["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0, "failed": 0}


def test_grandchild_time_is_charged_to_its_parent_only():
    # a [0, 10] > b [1, 9] > c [2, 5]
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 5.0, 9.0, 10.0))
    for name in ("a", "b", "c"):
        tracer.begin(name)
    for _ in range(3):
        tracer.end()
    snap = tracer.snapshot()
    assert {n: s["self_s"] for n, s in snap["stats"].items()} == {"a": 2.0, "b": 5.0, "c": 3.0}
    assert {tuple(e) for e in snap["edges"]} == {(None, "a", 1), ("a", "b", 1), ("b", "c", 1)}


def test_same_name_nesting_keeps_self_time_exact():
    # f [0, 8] > f [2, 4]
    tracer = Tracer(clock=fake_clock(0.0, 2.0, 4.0, 8.0))
    tracer.begin("f")
    tracer.begin("f")
    tracer.end()
    tracer.end()
    assert tracer.snapshot()["stats"]["f"]["self_s"] == 8.0


def test_wrapped_call_that_raises_closes_its_span():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.0))
    seen = []

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap("boom", boom, lambda t, a, k, r: seen.append(r))
    outer = tracer.wrap("outer", lambda: pytest.raises(ValueError, wrapped))
    outer()
    stats = tracer.snapshot()["stats"]
    assert stats["boom"]["failed"] == 1 and stats["boom"]["calls"] == 1
    assert stats["outer"]["self_s"] == 2.0
    assert seen == [None]
    assert tracer.stack == []


def test_search_depth_seen_by_nested_calls():
    tracer = Tracer()
    inside = []
    fit = tracer.wrap("gp.gpc_fit", lambda: inside.append(tracer.in_search()))
    search = tracer.wrap("gp.optimize_hyperparams", fit)
    fit()
    search()
    assert inside == [False, True]


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.layer defines ``work``; fakepkg.user holds it through a
    from-import and calls it; fakepkg.harness returns a closure."""
    layer = types.ModuleType("fakepkg.layer")
    exec("def work(x):\n    return 2 * x\ndef _private():\n    return 0\n", layer.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.work = layer.work
    exec("def caller():\n    return work(3)\n", user.__dict__)
    harness = types.ModuleType("fakepkg.harness")
    exec("def make_evaluator(k):\n    return lambda x: k * x\n", harness.__dict__)
    for mod in (layer, user, harness):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    return layer, user, harness


def test_install_wraps_every_binding(fake_package):
    layer, user, harness = fake_package
    tracer = Tracer()
    missing = install(
        tracer, "fakepkg", {"layer": ("work", "absent"), "harness": ("make_evaluator",)}
    )
    assert missing == ["layer.absent"]
    assert layer.work is user.work and layer.work.__name__ == "work"
    assert user.caller() == 6 and layer.work(1) == 2
    evaluate = harness.make_evaluator(5)
    assert evaluate(2) == 10
    stats = tracer.snapshot()["stats"]
    assert stats["layer.work"]["calls"] == 2
    assert stats["harness.make_evaluator"]["calls"] == 1
    assert stats["harness.evaluate"]["calls"] == 1


def test_merge_sums_processes():
    a, b = Tracer(clock=fake_clock(0.0, 1.0)), Tracer(clock=fake_clock(0.0, 3.0))
    for t in (a, b):
        t.begin("x")
        t.end()
        t.counters["n"] += 2
    merged = merge([a.snapshot(), b.snapshot()])
    assert merged["stats"]["x"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0, "failed": 0}
    assert merged["edges"] == [[None, "x", 2]]
    assert merged["counters"] == {"n": 4}


def test_layer_metrics_arithmetic():
    snap = merge([])
    snap["stats"] = {
        "gp.gpc_fit": {"calls": 4, "total_s": 2.0, "self_s": 1.5, "failed": 1},
        "gp.optimize_hyperparams": {"calls": 1, "total_s": 2.0, "self_s": 0.25, "failed": 0},
        "gp.optimize_kernel_for_sets": {"calls": 1, "total_s": 1.0, "self_s": 0.25, "failed": 0},
        "harness.run_trial": {"calls": 2, "total_s": 6.0, "self_s": 0.1, "failed": 0},
        "harness.write_report": {"calls": 1, "total_s": 1.0, "self_s": 1.0, "failed": 0},
    }
    snap["counters"] = {
        "gpc_fit.n_sum": 40,
        "search.fits": 3,
        "selection.decisions": 4,
        "selection.selected": 1,
    }
    traced = {"run_s": 10.0, "setup_s": 5.0, "trace": snap}
    out = run.layer_metrics(traced, {"run_s": 9.0}, 2, {"acc_final": 0.5})
    assert list(out) == list(run.PER_LAYER)
    assert out["gp.gpc_fit.n_mean"] == 10.0
    assert out["gp.search.calls"] == 2 and out["gp.search.s"] == 0.5
    assert out["gp.search.fits_per_call"] == 1.5
    assert out["transfer.selected_ratio"] == 0.25
    assert out["harness.parallel_efficiency"] == 6.0 / (2 * 4.0)
    assert out["trace.overhead_s"] == 1.0
    assert out["harness.acc_final"] == 0.5 and out["harness.acc_gain_final"] == 0.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_inputs_follow_the_seed(tmp_path):
    a = run.make_inputs(7, tmp_path / "a")
    b = run.make_inputs(7, tmp_path / "b")
    c = run.make_inputs(8, tmp_path / "c")
    assert a == b != c and a["seeds"] != c["seeds"]
    assert run.expected_test_samples(a) == 8 * (20 + 20 + 10)
    read = lambda d: (d / "config.json").read_text()  # noqa: E731
    assert read(tmp_path / "a") == read(tmp_path / "b") != read(tmp_path / "c")


def test_digest_check_compares_only_runs_of_the_same_sources(tmp_path, monkeypatch):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"digests": {"a1": "d1"}}))
    monkeypatch.setattr(run, "BASELINE", baseline)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "source_digest", lambda: "src-a")
    problems = []
    assert "not compared" in run.check_digest("a1_serial", 5, "x", problems)
    assert "compared with a1_serial" in run.check_digest("a1_jobs2", 5, "x", problems)
    assert problems == []
    run.check_digest("a1_jobs2", 5, "y", problems)  # same sources, other curves
    assert sorted(p.split("from ")[1] for p in problems) == [
        "a1_jobs2's on the same sources",
        "a1_serial's on the same sources",
    ]
    monkeypatch.setattr(run, "source_digest", lambda: "src-b")  # changed sources
    problems = []
    assert "not compared" in run.check_digest("a1_jobs2", 5, "z", problems)
    run.check_digest("a1_serial", 1, "not-d1", problems)  # default seed
    assert len(problems) == 1 and "recorded" in problems[0]
