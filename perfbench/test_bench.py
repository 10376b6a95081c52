"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import json

import numpy as np
import pytest

import layers
import run
from cnfscope import cnf, features, random_3cnf
from spans import Tracer, self_times, subtree


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        ["round", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.child", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
        ["late", 8.5, 9.5, 3, None],    # a child clock may overrun its parent
        ["other", 11.0, 12.0, -1, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.5, 1.0, 1.0]
    assert subtree(spans, 0) == [0, 1, 2, 3, 4]
    got = layers.aggregate(spans, 0, {"a_self": ("%", "a", "self"),
                                      "a_total": ("%", "a", "total"),
                                      "round_lead": ("%", "round", "lead"),
                                      "a_lead": ("%", "a", "lead")})
    assert got["a_self"] == 20.0 and got["a_total"] == 30.0   # percent of the root
    assert got["round_lead"] == 10.0 and got["a_lead"] == 10.0
    # the tree's self times add up to the root's duration
    assert got["_self_sum"] == pytest.approx(10.5)
    assert sum(self_times(spans[:4])) == 10.0


def test_probes_leave_extract_features_bit_identical():
    f = random_3cnf(300, 1275, seed=5)
    plain = features.extract_features(f)
    originals = {name: getattr(features, name) for name in ("extract_features", "build_vig")}
    tracer = Tracer()
    probes = layers.Probes(tracer)
    probes.install()
    try:
        with tracer.span("round") as root:
            traced = features.extract_features(f)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {name: getattr(features, name) for name in originals} == originals
    names = {s[0] for s in tracer.spans}
    assert {"features.extract_features", "community.fold_communities",
            "community.modularity", "graph.from_edges", "fractal.vig.greedy_r2",
            "fractal.cover_curve_cvig", "scalefree.fit_alpha"} <= names
    got = layers.aggregate(tracer.spans, root, layers.SPAN_METRICS)
    assert got["community.q_mean"] == plain.q
    assert got["community.q_drift"] <= layers.Q_DRIFT_LIMIT
    assert probes.curve_errors() == []


def _round(w):
    return w.ops(run._timed_steps(w.steps())[0])


def test_perturbed_output_trips_the_digest_check(monkeypatch):
    w = run.FeaturesRandom()
    w.formulas = [random_3cnf(300, 1275, seed=s) for s in (1, 2)]
    reference = [op.ref for op in _round(w)]
    checker = run.Checker(reference)
    checker.check(_round(w))
    assert (checker.attempted, checker.failed) == (2, 0)

    real = features.extract_features

    def nudged(f, config=None):
        v = real(f, config)
        return features.FeatureVector(v.alpha, v.q, float(np.nextafter(v.d, 0.0)),
                                      v.d_b, v.ratio, v.extras)

    monkeypatch.setattr(features, "extract_features", nudged)
    checker.check(_round(w))
    assert (checker.attempted, checker.failed) == (4, 2)
    assert all("digest" in m for m in checker.messages)


def test_generators_are_seeded_and_carry_defects():
    a = run.gen.community_clauses(400, 1600, seed=3)
    assert a == run.gen.community_clauses(400, 1600, seed=3)
    f = cnf.parse_dimacs(cnf.write_dimacs(cnf.CnfFormula(400, tuple(a))))
    assert f.num_clauses == 1600 and len(f.tautological) == 8
    assert sum("duplicate" in w for w in f.warnings) == 8

    base = random_3cnf(400, 1700, seed=1)
    ckpts = run.gen.learnt_checkpoints(base.clauses, 400, (10, 20), seed=2)
    trace = cnf.ClauseTrace(ckpts)
    assert trace.decision_counts == (100, 200)
    units = [c for c in trace.learnt_at(200) if len(c) == 1]
    assert len(units) == 8
    propagated = cnf.augment_with_learnt(base, trace, 200)
    assert propagated.num_clauses < base.num_clauses + 20 + len(units)


def test_benchmark_json_names_what_the_runs_report(monkeypatch):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {name: unit for name, (unit, _, _) in
                {**layers.SPAN_METRICS, **layers.SETUP_METRICS}.items()}
    assert per_layer == {**reported, **layers.TRACE_METRICS}
    monkeypatch.setattr(run, "RANDOM_COUNT", 1)
    checker, metrics, _ = run._measure(run.FeaturesRandom(), None, 0, 0.0)
    assert (checker.attempted, checker.failed) == (run.MIN_ROUNDS, 0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: unit for name, (_, unit) in metrics.items()}


def test_traced_run_reports_layers_that_add_up(monkeypatch):
    monkeypatch.setattr(run, "RANDOM_COUNT", 1)
    checker, metrics, _ = run._measure_traced(run.FeaturesRandom(), None, 0, 0.0)
    assert checker.failed == 0
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["trace.self_sum_s"] == pytest.approx(value["trace.wall_s"], rel=1e-9)
    assert 100 > value["features.extract_features_pct"] >= value["community.fold_communities_pct"] > 0
    assert value["cnf.random_3cnf_pct"] > 0 and value["cli.process_pct"] == 0
