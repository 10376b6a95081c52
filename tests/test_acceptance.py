"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them live).

The random-formula dimension checks (criteria 1 and 2) share one batch of
fifteen n=100000 instances and take a couple of minutes; everything else is
fast. Criterion 11's real-corpus assertions only run when a SAT Race 2010
feature/runtime export is supplied via CNFSCOPE_SATRACE_DIR.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cnfscope.cnf import ClauseTrace, augment_with_learnt, random_3cnf, \
    random_replacement
from cnfscope.community import fold_communities
from cnfscope.features import FeatureMatrix, FeatureRow, FeatureVector, \
    matrix_from_csv
from cnfscope.fractal import cover_curve, fit_dimension, greedy_cover_count
from cnfscope.graph import build_cvig, build_vig
from cnfscope.portfolio import RuntimeMatrix, loo_classify, loo_portfolio_sim, \
    predict_runtime
from cnfscope.scalefree import OccurrenceHistogram, fit_alpha
from oracles import (
    chromatic_number,
    communities,
    eccentricities,
    exact_box_cover_count,
    exact_cover_count,
    graph_from_edges,
    histogram_from_samples,
    modularity_optimum,
    neighbors,
    random_connected_graph,
    random_formula,
    random_graph,
    sample_discrete_powerlaw,
    verify_cover,
)


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Criteria 1 and 2: random-formula dimensions and decay halving (Table 1).


RATIOS = {1.0: 100000, 4.25: 425000, 10.0: 1000000}
N_VARS = 100000
SEEDS = 5

TABLE1 = {
    4.25: {"d": (5.76, 0.3), "beta": (2.39, 0.15),
           "d_b": (3.03, 0.2), "beta_b": (1.23, 0.1)},
    1.0: {"d": (1.77, 0.2), "d_b": (1.58, 0.2)},
    10.0: {"d": (7.35, 0.4), "d_b": (3.93, 0.25)},
}


@pytest.fixture(scope="module")
def table1_stats():
    stats = {}
    t0 = time.time()
    for ratio, m in RATIOS.items():
        vals = {"d": [], "beta": [], "d_b": [], "beta_b": []}
        for seed in range(SEEDS):
            f = random_3cnf(N_VARS, m, seed=1000 + seed)
            fit = fit_dimension(cover_curve(build_vig(f), r_stop=5))
            fit_b = fit_dimension(cover_curve(build_cvig(f), r_stop=5))
            vals["d"].append(fit.d)
            vals["beta"].append(fit.beta)
            vals["d_b"].append(fit_b.d)
            vals["beta_b"].append(fit_b.beta)
        stats[ratio] = {k: float(np.mean(v)) for k, v in vals.items()}
    stats["elapsed"] = time.time() - t0
    return stats


def test_c01_random_formula_dimensions(table1_stats):
    problems = []
    for ratio, targets in TABLE1.items():
        for key, (center, tol) in targets.items():
            got = table1_stats[ratio][key]
            if abs(got - center) > tol:
                problems.append(f"m/n={ratio} {key}={got:.3f} not in "
                                f"{center}+-{tol}")
    elapsed = table1_stats["elapsed"]
    detail = (f"family means over {SEEDS} seeds x {len(RATIOS)} ratios in "
              f"{elapsed:.0f}s: " +
              "; ".join(f"m/n={r}: d={table1_stats[r]['d']:.2f} "
                        f"d_b={table1_stats[r]['d_b']:.2f}"
                        for r in RATIOS))
    if elapsed > 900:
        problems.append(f"runtime {elapsed:.0f}s exceeds 15 minutes")
    _report(1, not problems, detail if not problems else "; ".join(problems))


def test_c02_decay_halving(table1_stats):
    problems = []
    details = []
    for ratio in (4.25, 10.0):
        beta = table1_stats[ratio]["beta"]
        beta_b = table1_stats[ratio]["beta_b"]
        rel = abs(beta_b - beta / 2) / (beta / 2)
        details.append(f"m/n={ratio}: beta_b={beta_b:.3f} vs beta/2="
                       f"{beta / 2:.3f} (rel {rel:.1%})")
        if rel > 0.15:
            problems.append(details[-1])
    _report(2, not problems, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 3: greedy versus exact covers on random small graphs.


def test_c03_exact_cover_oracle_suite():
    t0 = time.time()
    rng = np.random.default_rng(30)
    graphs = 0
    checks = 0
    ok = True
    while graphs < 200:
        n = int(rng.integers(2, 13))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 4)))
        diam = int(eccentricities(g).max())
        exact_prev = None
        for r in range(1, diam + 2):
            exact = exact_cover_count(g, r)
            greedy, centers = greedy_cover_count(g, r)
            ok &= greedy >= exact
            ok &= verify_cover(g, centers, r)
            if exact_prev is not None:
                ok &= exact <= exact_prev
            exact_prev = exact
            checks += 1
        graphs += 1
    elapsed = time.time() - t0
    ok &= elapsed < 120
    _report(3, ok, f"{graphs} connected graphs, {checks} (greedy>=exact, "
                   f"valid cover, monotone) checks in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: box-size-2 cover of the complement equals the chromatic number.


def _complement(g):
    n = g.node_count
    present = {(u, int(v)) for u in range(n) for v in neighbors(g, u)}
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (i, j) not in present]
    return graph_from_edges(n, edges)


def test_c04_coloring_reduction():
    t0 = time.time()
    rng = np.random.default_rng(40)
    ok = True
    for k in range(100):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, float(rng.uniform(0.15, 0.75)))
        ok &= exact_box_cover_count(_complement(g), 2) == chromatic_number(g)
    elapsed = time.time() - t0
    ok &= elapsed < 120
    _report(4, ok, f"100 graphs <= 8 nodes, clique-cover == chromatic oracle "
                   f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: CVIG/VIG sandwich on exact counts.


def test_c05_sandwich_relation():
    rng = np.random.default_rng(50)
    formulas = 0
    checks = 0
    ok = True
    while formulas < 100:
        f = random_formula(rng, max_vars=8, max_clauses=8)
        vig = build_vig(f)
        cvig = build_cvig(f)
        if cvig.node_count > 18:
            continue
        rmax = int(eccentricities(vig).max()) + 1
        for r in range(1, rmax + 1):
            n_r = exact_cover_count(vig, r)
            ok &= exact_cover_count(cvig, 2 * r, max_nodes=20) <= n_r
            if r >= 2:
                ok &= n_r <= exact_cover_count(cvig, 2 * r - 2, max_nodes=20)
            checks += 1
        formulas += 1
    _report(5, ok, f"{formulas} formulas, {checks} radii: "
                   "N_b(2r) <= N(r) <= N_b(2r-2) on exact covers")


# ---------------------------------------------------------------------------
# Criterion 6: radius/diameter hop bounds.


def test_c06_radius_diameter_bounds():
    t0 = time.time()
    rng = np.random.default_rng(60)
    ok = True
    for k in range(50):
        n = int(rng.integers(2, 201))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)))
        ecc = eccentricities(g)
        r_max = int(ecc.min()) + 1  # smallest r with a full circle
        d_max = int(ecc.max())
        ok &= r_max <= d_max + 1
        ok &= d_max <= 2 * (r_max - 1) + 1
        if n <= 12:
            # dual route: r_max is also the first radius with exact N(r) = 1
            first = next(r for r in range(1, n + 2)
                         if exact_cover_count(g, r) == 1)
            ok &= first == r_max
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(6, ok, f"50 connected graphs <= 200 nodes, hop bounds hold "
                   f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 7: alpha recovery and fit properties.


def test_c07_alpha_recovery():
    rng = np.random.default_rng(70)
    samples = sample_discrete_powerlaw(rng, 2.5, 100000)
    ks, fs = histogram_from_samples(samples)
    h = OccurrenceHistogram(ks, fs, int(fs.sum()))
    fit = fit_alpha(h)
    ok = abs(fit.alpha - 2.5) <= 0.1
    # degenerate tail reports an error
    try:
        fit_alpha(OccurrenceHistogram(np.array([3]), np.array([10]), 10))
        ok = False
    except ValueError:
        pass
    # scale invariance
    scaled = fit_alpha(OccurrenceHistogram(ks, fs * 13, int(fs.sum()) * 13))
    ok &= math.isclose(scaled.alpha, fit.alpha, rel_tol=1e-12)
    ok &= scaled.k_min == fit.k_min
    _report(7, ok, f"alpha={fit.alpha:.3f} for true 2.5 (1e5 samples, "
                   f"k_min={fit.k_min}); degenerate + scale-invariance hold")


# ---------------------------------------------------------------------------
# Criterion 8: modularity folding quality.


def test_c08_modularity_folding():
    cliq = [(a, b) for i, a in enumerate(range(5)) for b in range(i + 1, 5)]
    edges = cliq + [(a + 5, b + 5) for a, b in cliq]
    g = graph_from_edges(10, edges)
    res = fold_communities(g, seed=0)
    ok = res.q == 0.5
    blocks = {frozenset(b) for b in communities(res.partition)}
    ok &= blocks == {frozenset(range(5)), frozenset(range(5, 10))}
    rng = np.random.default_rng(80)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, float(rng.uniform(0.25, 0.7)))
        if g.edge_count == 0:
            continue
        opt, _ = modularity_optimum(g)
        res = fold_communities(g, seed=done)
        ok &= res.q >= 0.9 * opt - 1e-12
        done += 1
    _report(8, ok, "two K5s fold to Q=0.5 exactly; folding >= 0.9x brute-force"
                   " optimum on 100 graphs <= 8 nodes")


# ---------------------------------------------------------------------------
# Criterion 9: runtime predictor arithmetic.


def _vec(alpha):
    return FeatureVector(alpha, 0.0, 0.0, 0.0, 0.0)


def test_c09_predictor_arithmetic():
    train = FeatureMatrix([FeatureRow("i0", None, _vec(1.0)),
                           FeatureRow("i1", None, _vec(2.0))])
    times = RuntimeMatrix(["i0", "i1"], ["s"], [[10.0], [20.0]], 1000.0)
    worked = predict_runtime(_vec(0.0), train, times, "s")
    ok = worked == pytest.approx(12.0, abs=1e-12)
    single = predict_runtime(_vec(5.0),
                             FeatureMatrix([FeatureRow("i0", None, _vec(1.0))]),
                             RuntimeMatrix(["i0"], ["s"], [[33.0]], 100.0), "s")
    ok &= single == 33.0
    zero_train = FeatureMatrix([FeatureRow("a", None, _vec(4.0)),
                                FeatureRow("b", None, _vec(9.0))])
    zero_times = RuntimeMatrix(["a", "b"], ["s"], [[7.0], [100.0]], 1000.0)
    ok &= predict_runtime(_vec(4.0), zero_train, zero_times, "s") == 7.0
    _report(9, ok, "worked example = 12.0; single neighbor and zero-distance "
                   "rules exact")


# ---------------------------------------------------------------------------
# Criterion 10: dimension evolution under augmentation.


def test_c10_dimension_evolution():
    n, m = 10000, 42500
    f = random_3cnf(n, m, seed=100)
    rng = np.random.default_rng(101)
    checkpoints = []
    for decisions, count in ((100, 50), (1000, 500), (10000, 5000)):
        clauses = []
        for _ in range(count):
            size = int(rng.integers(2, 9))
            vs = rng.choice(n, size=size, replace=False) + 1
            signs = rng.integers(0, 2, size=size) * 2 - 1
            clauses.append(tuple(int(v * s) for v, s in zip(vs, signs)))
        checkpoints.append((decisions, tuple(clauses)))
    trace = ClauseTrace(tuple(checkpoints))

    def dims(formula):
        d = fit_dimension(cover_curve(build_vig(formula), r_stop=5)).d
        d_b = fit_dimension(cover_curve(build_cvig(formula), r_stop=5)).d
        return d, d_b

    d0, db0 = dims(f)
    deepest = 10000
    d_l, db_l = dims(augment_with_learnt(f, trace, deepest))
    d_r, db_r = dims(random_replacement(f, trace, deepest, seed=102))
    ok = d_l > d0 and d_r > d0 and db_l > db0 and db_r > db0
    _report(10, ok, f"original d={d0:.2f}/d_b={db0:.2f}; deepest checkpoint "
                    f"learnt d={d_l:.2f}/d_b={db_l:.2f}, "
                    f"random d={d_r:.2f}/d_b={db_r:.2f} (all strictly higher)")


# ---------------------------------------------------------------------------
# Criterion 11: classification and portfolio properties (plus the real-corpus
# numbers when the SAT Race 2010 export is available).


def test_c11_classification_portfolio_properties():
    ok = True
    # perfect split: LOO accuracy 100%
    rows = []
    for k in range(8):
        fam = "low" if k < 4 else "high"
        rows.append(FeatureRow(f"i{k}", fam,
                               FeatureVector(1.0 + 8.0 * (k >= 4) + 0.01 * k,
                                             0.5, 2.0, 2.0, 4.0)))
    ok &= loo_classify(FeatureMatrix(rows)).accuracy == 1.0

    # random labels, symmetric features: aggregate accuracy near chance
    correct = total = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        rws = [FeatureRow(f"r{k}", None,
                          FeatureVector(float(rng.normal()), 0.0,
                                        float(rng.normal()), 0.0, 0.0))
               for k in range(30)]
        labels = [("a" if rng.random() < 0.5 else "b") for _ in range(30)]
        rep = loo_classify(FeatureMatrix(rws), labels=labels,
                           features=("alpha", "d"))
        correct += rep.successes
        total += rep.total
    band = correct / total
    ok &= 0.35 <= band <= 0.65

    # portfolio never beats the virtual best solver
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        k = int(rng.integers(3, 12))
        mat = FeatureMatrix([FeatureRow(f"p{j}", None, _vec(float(rng.normal())))
                             for j in range(k)])
        raw = rng.uniform(1, 900, size=(k, 3))
        raw[rng.random(size=(k, 3)) < 0.35] = np.inf
        times = RuntimeMatrix(mat.instance_ids, ["a", "b", "c"], raw, 900.0)
        rep = loo_portfolio_sim(mat, times)
        ok &= rep.solved_count <= rep.vbs_count

    # a dominant solver is recovered exactly
    rng = np.random.default_rng(3000)
    mat = FeatureMatrix([FeatureRow(f"d{j}", None, _vec(float(rng.normal())))
                         for j in range(10)])
    fast = rng.uniform(1, 50, size=10)
    times = RuntimeMatrix(mat.instance_ids, ["best", "worst"],
                          np.column_stack([fast, fast * 8]), 900.0)
    rep = loo_portfolio_sim(mat, times)
    ok &= rep.solved_count == rep.vbs_count == 10
    ok &= all(r["solver"] == "best" for r in rep.per_instance)

    _report(11, ok, f"perfect split 100%; permutation-label accuracy "
                    f"{band:.2f} in [0.35, 0.65]; solved<=VBS on 20 matrices; "
                    "dominant solver recovered")


def _satrace_dir():
    env = os.environ.get("CNFSCOPE_SATRACE_DIR")
    if env:
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "satrace2010"
    return default


@pytest.mark.skipif(not (_satrace_dir() / "features.csv").is_file() or
                    not (_satrace_dir() / "runtimes.csv").is_file(),
                    reason="SAT Race 2010 corpus export not supplied")
def test_c11_satrace_numbers():
    base = _satrace_dir()
    matrix = matrix_from_csv((base / "features.csv").read_text(),
                             skip_errors=True)
    times = RuntimeMatrix.from_csv((base / "runtimes.csv").read_text())
    rep = loo_classify(matrix)
    ok = rep.successes >= 75
    sim = loo_portfolio_sim(matrix, times)
    ok &= 68 <= sim.solved_count <= 78
    _report(11, ok, f"SAT Race 2010: classification {rep.successes}/"
                    f"{rep.total}; portfolio solved {sim.solved_count} "
                    f"(VBS {sim.vbs_count})")
