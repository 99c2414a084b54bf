"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import inspect
import json
import sys

import pytest

import checkout
import run
import tracing
import worker
import workloads
from checkout import load_library

lc, oracles = load_library()


def instance(kind, n, edges, expect=None):
    return vars(workloads.Instance(f"{kind}-test", kind,
                                   workloads.graph_text(n, edges), expect or {}))


@pytest.mark.parametrize("make", [
    lambda seed: workloads.sparse(seed, 1),
    lambda seed: workloads.dense(seed, 1),
    lambda seed: workloads.sweep(seed, 0),
])
def test_generator_is_deterministic_per_seed(make):
    first, again, other = make(1), make(1), make(2)
    assert first == again
    assert workloads.digest([first]) == workloads.digest([again])
    assert workloads.digest([first]) != workloads.digest([other])


def test_fewer_rounds_are_a_prefix_of_more():
    assert workloads.sparse(3, 1) == workloads.sparse(3, 2)[:len(workloads.SPARSE_CELLS)]
    assert workloads.dense(3, 1) == workloads.dense(3, 2)[:workloads.DENSE_ROUND]


def test_generated_constructions_have_their_stated_span():
    for inst in workloads.dense(5, 2):
        if "span" in inst.expect:
            g = lc.parse_graph(inst.text)
            assert lc.lambda_number(g).lambda_value == inst.expect["span"]


def test_corrupted_witness_is_caught_and_counted(monkeypatch):
    solve = lc.lambda_number

    def corrupted(g, *args, **kwargs):
        rep = solve(g, *args, **kwargs)
        labels = list(rep.witness.labels)
        u, v = min(g.edges)
        labels[u] = labels[v]
        low = min(labels)
        witness = lc.Colouring(tuple(x - low for x in labels))
        return lc.SolveReport(rep.lambda_value, witness, rep.holes)

    monkeypatch.setattr(lc, "lambda_number", corrupted)
    instances = [instance("sparse", k + 1, workloads.path_complement_edges(k))
                 for k in range(3, 9)]
    result = worker.run_pass(lc, oracles, instances, 5.0, trace=False)
    assert [r["status"] for r in result["records"]] == ["error"] * len(instances)
    assert run.error_frac(result["records"]) == 1.0


def test_deadline_fires_on_path_complement_16():
    slow = instance("sparse", 17, workloads.path_complement_edges(16))
    quick = instance("sparse", 4, workloads.path_complement_edges(3))
    result = worker.run_pass(lc, oracles, [slow, quick], 0.2, trace=True)
    stopped, answered = result["records"]
    assert stopped["status"] == "undecided"
    assert 200 <= stopped["ms"] < 2000
    assert answered["status"] == "decided"
    charged = [row for row in result["spans"] if row[tracing.TIMED_OUT]]
    assert [row[tracing.NAME] for row in charged] == ["solver.lambda_number"]


def test_self_times_and_uncovered_time_add_up_to_the_wall():
    passes = [(workloads.sweep(1, 0)[:9], 30.0), (workloads.sparse(1, 1)[:10], 0.5)]
    results = [worker.run_pass(lc, oracles, [vars(i) for i in p], deadline, True)
               for p, deadline in passes]
    spans = tracing.merge(r["spans"] for r in results)
    wall = sum(r["wall_s"] for r in results)
    own = sum(tracing.self_times(spans))
    metrics = {m["name"]: m["value"]
               for m in tracing.layer_metrics(spans, wall, wall, [], [])}
    assert metrics["trace.uncovered_s"] >= 0
    assert own + metrics["trace.uncovered_s"] == pytest.approx(wall)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(own)


def _bindings():
    """Every function and method object bound in a lambdacol module."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "lambdacol" or name.startswith("lambdacol."):
            for attr, value in vars(mod).items():
                out[name, attr] = value
                if inspect.isclass(value):
                    for key, member in vars(value).items():
                        out[name, attr, key] = member
    return out


def test_tracer_restores_every_original():
    before = _bindings()
    with tracing.Tracer(worker.DeadlineExceeded):
        during = _bindings()
        assert lc.lambda_number is not before["lambdacol", "lambda_number"]
        assert sys.modules["lambdacol.extremal"].lambda_number is lc.lambda_number
        assert lc.Graph.complement is not before[
            "lambdacol.graphs", "Graph", "complement"]
    after = _bindings()
    assert during.keys() == before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before)


def test_setup_time_does_not_move_with_the_machine_speed():
    probes = [(0.2, 0.1), (0.3, 0.15), (0.22, 0.11), (0.5, 0.12)]
    slower = [(2 * own, 2 * reference) for own, reference in probes]
    assert run.setup_s(probes) == pytest.approx(2 * run.REFERENCE_S)
    assert run.setup_s(slower) == pytest.approx(run.setup_s(probes))


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    one = {"wall_s": 1.0, "peak_rss_mb": 1.0,
           "records": [{"ms": 1.0, "status": "decided"}]}
    emitted = run.end_to_end([(0.1, 0.05)], [one], one["records"])
    assert {m["name"] for m in spec["end_to_end"]} == set(run.RESULT_METRICS)
    assert all(emitted[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    layer = tracing.layer_metrics([], 1.0, 1.0, [], [])
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in layer] == \
        spec["per_layer"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
