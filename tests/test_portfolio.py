import json
import math
import warnings

import numpy as np
import pytest

from cnfscope.features import FeatureMatrix, FeatureRow, FeatureVector
from cnfscope.portfolio import (
    RuntimeMatrix,
    knn_loo_classify,
    loo_classify,
    loo_portfolio_sim,
    predict_runtime,
    select_solver,
    train_tree,
)
from oracles import idw_weights, minmax_scaled, runtime_csv


def _vec(alpha=0.0, q=0.0, d=0.0, d_b=0.0, ratio=0.0):
    return FeatureVector(alpha, q, d, d_b, ratio)


def _matrix(alphas, ids=None, families=None):
    ids = ids or [f"i{k}" for k in range(len(alphas))]
    families = families or [None] * len(alphas)
    return FeatureMatrix([FeatureRow(i, fam, _vec(alpha=a))
                          for i, fam, a in zip(ids, families, alphas)])


def _times(instances, solvers, rows, timeout=1000.0):
    arr = [[np.inf if c == "T" else float(c) for c in row] for row in rows]
    return RuntimeMatrix(instances, solvers, arr, timeout)


def _family_matrix(seed, families, n=30, duplicates=False):
    """Seeded rows i00.. with family labels fam0.. and features rounded to
    0.1 around one centre per family; `duplicates` copies a fifth of the
    rows' features onto others, so exact matches occur."""
    rng = np.random.default_rng(seed)
    fams = [f"fam{j}" for j in range(families)]
    labels = [fams[int(rng.integers(families))] for _ in range(n)]
    centers = rng.normal(size=(families, 5))
    vals = np.round([centers[fams.index(lb)] + rng.normal(size=5)
                     for lb in labels], 1)
    if duplicates:
        pairs = rng.integers(n, size=(n // 5, 2))
        vals[pairs[:, 0]] = vals[pairs[:, 1]]
    return FeatureMatrix([FeatureRow(f"i{k:02d}", lb, FeatureVector(*map(float, v)))
                          for k, (lb, v) in enumerate(zip(labels, vals))])


def _random_times(seed, instances, solvers, timeout=100.0):
    """Runtimes in [1, timeout) with about 30 % timeouts."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(1.0, timeout, size=(len(instances), len(solvers)))
    raw[rng.random(size=raw.shape) < 0.3] = np.inf
    return RuntimeMatrix(instances, solvers, raw, timeout)


def _vector_list(test) -> list[float]:
    if isinstance(test, FeatureVector):
        return test.as_array().tolist()
    return [float(v) for v in test]


class TestPredictRuntime:
    def test_worked_example(self):
        # distances 1 and 2 to the two training rows, times 10 and 20
        train = _matrix([1.0, 2.0])
        times = _times(["i0", "i1"], ["s"], [[10.0], [20.0]])
        pred = predict_runtime(_vec(alpha=0.0), train, times, "s")
        assert pred == pytest.approx(12.0)

    def test_single_neighbor(self):
        train = _matrix([3.0])
        times = _times(["i0"], ["s"], [[7.5]])
        assert predict_runtime(_vec(alpha=9.0), train, times, "s") == 7.5

    def test_zero_distance_exact_match(self):
        train = _matrix([1.0, 5.0, 5.0])
        times = _times(["i0", "i1", "i2"], ["s"], [[100.0], [7.0], [9.0]])
        pred = predict_runtime(_vec(alpha=5.0), train, times, "s")
        assert pred == pytest.approx(8.0)  # mean over the exact matches

    def test_timeout_contributes_cap(self):
        train = _matrix([1.0, 2.0])
        times = _times(["i0", "i1"], ["s"], [["T"], [20.0]], timeout=100.0)
        pred = predict_runtime(_vec(alpha=0.0), train, times, "s")
        assert pred == pytest.approx((100.0 / 1 + 20.0 / 4) / (1 + 0.25))

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            train = _matrix(rng.normal(size=k).tolist())
            ts = rng.uniform(1, 500, size=k)
            times = _times(train.instance_ids, ["s"], [[t] for t in ts])
            pred = predict_runtime(_vec(alpha=float(rng.normal())), train,
                                   times, "s")
            assert ts.min() - 1e-9 <= pred <= ts.max() + 1e-9

    def test_empty_training(self):
        times = _times(["x"], ["s"], [[1.0]])
        with pytest.raises(ValueError):
            predict_runtime(_vec(), FeatureMatrix([]), times, "s")


class TestIdwOracle:
    """predict_runtime, select_solver and the knn vote against the per-row
    loops of oracles.idw_weights, on matrices with duplicate feature rows
    and timeouts."""

    def test_predict_and_select(self):
        solvers = ["s2", "s0", "s1"]
        multi_exact = 0
        for seed in range(12):
            m = _family_matrix(seed, 3, n=24, duplicates=True)
            times = _random_times(100 + seed, m.instance_ids, solvers)
            train = FeatureMatrix(m.rows[1:])
            train_x = [r.vector.as_array().tolist() for r in train.rows]
            effective = [[min(t, times.timeout_value) for t in row]
                         for row in times.times[1:].tolist()]
            tests = [r.vector for r in m.rows[:8]]
            tests.append(np.round(np.random.default_rng(seed).normal(size=5), 1))
            for test in tests:
                x = _vector_list(test)
                w = idw_weights(x, train_x)
                if train_x.count(x) > 1:
                    multi_exact += 1
                want = {s: sum(wi * row[j] for wi, row in zip(w, effective)) / sum(w)
                        for j, s in enumerate(solvers)}
                for s in solvers:
                    got = predict_runtime(test, train, times, s)
                    assert got == pytest.approx(want[s], rel=1e-12)
                best = min(want.values())
                assert select_solver(test, train, times) == min(
                    s for s in solvers if want[s] <= best * (1 + 1e-12))
        assert multi_exact > 0  # the plain mean over several exact matches ran

    def test_knn_votes(self):
        for seed in range(12):
            m = _family_matrix(seed, 2 + seed % 4, duplicates=True)
            x = [r.vector.as_array().tolist() for r in m.rows]
            confusion = {}
            for i, row in enumerate(m.rows):
                others = [j for j in range(len(m)) if j != i]
                y = minmax_scaled(x, i)
                votes = {}
                for wj, j in zip(idw_weights(y[i], [y[j] for j in others]), others):
                    if wj:
                        fam = m.rows[j].family
                        votes[fam] = votes.get(fam, 0.0) + wj
                top = max(votes.values())
                pred = min(lb for lb, v in votes.items() if v >= top * (1 - 1e-12))
                per = confusion.setdefault(row.family, {})
                per[pred] = per.get(pred, 0) + 1
            assert knn_loo_classify(m).confusion == confusion


class TestSelectSolver:
    def test_single_solver(self):
        train = _matrix([1.0])
        times = _times(["i0"], ["only"], [[5.0]])
        assert select_solver(_vec(), train, times) == "only"

    def test_argmin(self):
        train = _matrix([1.0, 2.0])
        times = _times(["i0", "i1"], ["A", "B"],
                       [[10.0, 30.0], [20.0, 30.0]])
        assert select_solver(_vec(alpha=0.0), train, times) == "A"

    def test_tie_breaks_lexicographic(self):
        train = _matrix([1.0])
        times = _times(["i0"], ["zeta", "acme"], [[5.0, 5.0]])
        assert select_solver(_vec(), train, times) == "acme"

    def test_feature_scaling_invariance(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            r = np.random.default_rng(seed)
            k = 6
            alphas = r.normal(size=k).tolist()
            train = _matrix(alphas)
            tmat = r.uniform(1, 100, size=(k, 3))
            times = _times(train.instance_ids, ["a", "b", "c"], tmat.tolist())
            test = _vec(alpha=float(r.normal()))
            picked = select_solver(test, train, times)
            scaled_train = _matrix([a * 37.5 for a in alphas])
            scaled_test = _vec(alpha=test.alpha * 37.5)
            assert select_solver(scaled_test, scaled_train, times) == picked
        del rng


class TestRuntimeMatrix:
    def test_csv_round_trip(self):
        m = _times(["a", "b", "a,b.cnf"], ["s1", "s2"],
                   [[1.5, "T"], [3.0, 10.0], [2.0, 4.0]])
        back = RuntimeMatrix.from_csv(runtime_csv(m), timeout_value=1000.0)
        assert back.instances == ["a", "b", "a,b.cnf"]
        assert back.time("a,b.cnf", "s2") == 4.0
        assert back.time("a", "s2") == math.inf
        assert back.time("b", "s2") == 10.0

    def test_csv_bytes(self):
        m = _times(["a,b.cnf", "c"], ["s1", "s2"], [[1.5, "T"], ["T", 0.25]])
        assert runtime_csv(m) == ('instance,s1,s2\n"a,b.cnf",1.5,TIMEOUT\n'
                                  'c,TIMEOUT,0.25\n')

    def test_timeout_inferred(self):
        m = RuntimeMatrix.from_csv("instance,s\na,5.0\nb,TIMEOUT\n")
        assert m.timeout_value == 5.0
        assert m.time("b", "s") == math.inf

    def test_vbs_count(self):
        times = _times(["a", "b", "c"], ["s1", "s2"],
                       [[1.0, "T"], ["T", "T"], ["T", 2.0]])
        m = _matrix([0.0, 1.0, 2.0], ids=["a", "b", "c"])
        assert loo_portfolio_sim(m, times).vbs_count == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeMatrix(["a"], ["s"], [[-1.0]], 100.0)
        with pytest.raises(ValueError):
            RuntimeMatrix(["a"], ["s"], [[200.0]], 100.0)

    @pytest.mark.parametrize("cell", (np.nan, -np.inf, 0.0, -1.0))
    def test_unrankable_runtime(self, cell):
        with pytest.raises(ValueError, match="positive seconds or timeouts"):
            RuntimeMatrix(["a", "b"], ["s"], [[1.0], [cell]], 100.0)

    @pytest.mark.parametrize("timeout", (np.nan, np.inf, 0.0, -5.0))
    def test_bad_timeout_value(self, timeout):
        # a NaN or infinite timeout made the penalized average NaN or inf,
        # which no JSON reader takes; zero and below rank nothing
        match = f"^timeout_value must be positive and finite, got {timeout}$"
        with pytest.raises(ValueError, match=match):
            RuntimeMatrix(["a"], ["s"], [[np.inf]], timeout)
        with pytest.raises(ValueError, match=match):
            RuntimeMatrix.from_csv("instance,s\na,TIMEOUT\n",
                                   timeout_value=timeout)

    @pytest.mark.parametrize("text", (
        pytest.param("instance,s,t\na,nan,1\nb,-inf,2\n", id="nan-and-neg-inf"),
        pytest.param("instance,s,t\na,4,1\nb,-inf,2\n", id="neg-inf"),
        pytest.param("instance,s\na,NaN\nb,2\n", id="nan"),
    ))
    def test_unrankable_runtime_csv(self, text):
        with pytest.raises(ValueError, match="positive seconds or timeouts"):
            RuntimeMatrix.from_csv(text)

    @pytest.mark.parametrize("text,kind", (
        pytest.param("instance,s\na,1\na,2\n", "instance", id="instance"),
        pytest.param("instance,s,s\na,1,2\n", "solver", id="solver"),
    ))
    def test_duplicate_names(self, text, kind):
        with pytest.raises(ValueError, match=f"duplicate {kind} names: \\['(a|s)'\\]"):
            RuntimeMatrix.from_csv(text)

    def test_plus_inf_is_timeout(self):
        m = RuntimeMatrix.from_csv("instance,s,t\na,inf,1\nb,TIMEOUT,2\n")
        assert m.rows(["a", "b"]).tolist() == [[math.inf, 1.0], [math.inf, 2.0]]


class TestLooPortfolioSim:
    def test_all_timeout(self):
        m = _matrix([1.0, 2.0, 3.0])
        times = _times(m.instance_ids, ["s1", "s2"],
                       [["T", "T"]] * 3)
        rep = loo_portfolio_sim(m, times)
        assert rep.solved_count == 0
        assert rep.vbs_count == 0
        assert rep.avg_time == 0.0

    def test_dominant_solver_matches_vbs(self):
        rng = np.random.default_rng(2)
        m = _matrix(rng.normal(size=8).tolist())
        fast = rng.uniform(1, 10, size=8)
        slow = fast * 10
        times = _times(m.instance_ids, ["fast", "slow"],
                       np.column_stack([fast, slow]).tolist())
        rep = loo_portfolio_sim(m, times)
        assert rep.solved_count == rep.vbs_count == 8
        assert all(r["solver"] == "fast" for r in rep.per_instance)

    def test_solved_never_exceeds_vbs(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(3, 10))
            m = _matrix(rng.normal(size=k).tolist())
            raw = rng.uniform(1, 100, size=(k, 3))
            mask = rng.random(size=(k, 3)) < 0.4
            raw[mask] = np.inf
            times = RuntimeMatrix(m.instance_ids, ["a", "b", "c"], raw, 100.0)
            rep = loo_portfolio_sim(m, times)
            assert rep.solved_count <= rep.vbs_count

    def test_avg_times(self):
        m = _matrix([0.0, 1.0, 2.0])
        times = _times(m.instance_ids, ["s"], [[10.0], [20.0], ["T"]],
                       timeout=100.0)
        rep = loo_portfolio_sim(m, times)
        assert rep.solved_count == 2
        assert rep.avg_time == pytest.approx(15.0)
        assert rep.avg_time_penalized == pytest.approx((10 + 20 + 100) / 3)

    def test_missing_instance(self):
        m = _matrix([0.0, 1.0])
        times = _times(["i0"], ["s"], [[1.0]])
        with pytest.raises(ValueError):
            loo_portfolio_sim(m, times)

    def test_duplicate_instance(self):
        # each round holds out one instance: a second row of the same name
        # would be scored twice and dropped from its own training set
        m = _matrix([0.0, 1.0, 2.0], ids=["a", "a", "b"])
        times = _times(["a", "b"], ["s"], [[1.0], [2.0]])
        with pytest.raises(ValueError,
                           match=r"^duplicate instance names: \['a'\]$"):
            loo_portfolio_sim(m, times)

    @pytest.mark.parametrize("case", ("constant", "exact", "timeout"))
    def test_pinned_reports(self, case):
        # whole reports pinned byte for byte: a column constant on every
        # training set (q), a held-out row with an exact match, TIMEOUT cells
        rng = np.random.default_rng(("constant", "exact", "timeout").index(case))
        vals = np.round(rng.normal(size=(6, 5)), 1)
        raw = np.round(rng.uniform(1.0, 50.0, size=(6, 3)), 1)
        if case == "constant":
            vals[:, 1] = 0.5
        elif case == "exact":
            vals[4] = vals[1]  # i1 and i4 are each other's exact match
        else:
            raw[rng.random(size=raw.shape) < 0.4] = np.inf
        m = FeatureMatrix([FeatureRow(f"i{k}", None, FeatureVector(*map(float, v)))
                           for k, v in enumerate(vals)])
        times = RuntimeMatrix(m.instance_ids, ["s2", "s0", "s1"], raw, 50.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = loo_portfolio_sim(m, times)
        assert json.dumps(rep.to_dict()) == PINNED_REPORTS[case]
        assert ({str(w.message) for w in caught}
                == ({"feature 'q' constant on training set; excluded from "
                     "distances"} if case == "constant" else set()))

    def test_report_json(self):
        m = _matrix([0.0, 1.0])
        times = _times(m.instance_ids, ["s"], [[10.0], [20.0]])
        rep = loo_portfolio_sim(m, times)
        d = rep.to_dict()
        assert set(d) == {"solved", "avg_time", "avg_time_penalized", "vbs",
                          "per_instance"}
        assert len(d["per_instance"]) == 2


PINNED_REPORTS = {
    "constant": (
        '{"solved": 6, "avg_time": 28.683333333333334, "avg_time_penalized": '
        '28.683333333333334, "vbs": 6, "per_instance": ['
        '{"instance": "i0", "solver": "s0", "solved": true, "time": 20.1}, '
        '{"instance": "i1", "solver": "s0", "solved": true, "time": 26.7}, '
        '{"instance": "i2", "solver": "s0", "solved": true, "time": 44.6}, '
        '{"instance": "i3", "solver": "s0", "solved": true, "time": 29.0}, '
        '{"instance": "i4", "solver": "s1", "solved": true, "time": 20.2}, '
        '{"instance": "i5", "solver": "s1", "solved": true, "time": 31.5}]}'),
    "exact": (
        '{"solved": 6, "avg_time": 23.08333333333333, "avg_time_penalized": '
        '23.08333333333333, "vbs": 6, "per_instance": ['
        '{"instance": "i0", "solver": "s1", "solved": true, "time": 39.1}, '
        '{"instance": "i1", "solver": "s2", "solved": true, "time": 31.0}, '
        '{"instance": "i2", "solver": "s1", "solved": true, "time": 4.1}, '
        '{"instance": "i3", "solver": "s1", "solved": true, "time": 30.1}, '
        '{"instance": "i4", "solver": "s1", "solved": true, "time": 26.0}, '
        '{"instance": "i5", "solver": "s1", "solved": true, "time": 8.2}]}'),
    "timeout": (
        '{"solved": 5, "avg_time": 28.98, "avg_time_penalized": '
        '32.483333333333334, "vbs": 6, "per_instance": ['
        '{"instance": "i0", "solver": "s1", "solved": true, "time": 34.3}, '
        '{"instance": "i1", "solver": "s1", "solved": true, "time": 20.9}, '
        '{"instance": "i2", "solver": "s1", "solved": true, "time": 43.2}, '
        '{"instance": "i3", "solver": "s1", "solved": false, "time": null}, '
        '{"instance": "i4", "solver": "s1", "solved": true, "time": 34.9}, '
        '{"instance": "i5", "solver": "s1", "solved": true, "time": 11.6}]}'),
}


class TestTrainTree:
    def test_single_class_leaf(self):
        m = _matrix([1.0, 2.0, 3.0], families=["x"] * 3)
        tree = train_tree(m)
        assert tree.root.is_leaf
        assert tree.root.label == "x"

    def test_perfect_split_midpoint(self):
        m = FeatureMatrix([
            FeatureRow("a", "lo", _vec(d_b=2.0)),
            FeatureRow("b", "lo", _vec(d_b=2.5)),
            FeatureRow("c", "hi", _vec(d_b=3.5)),
            FeatureRow("d", "hi", _vec(d_b=4.0)),
        ])
        tree = train_tree(m)
        assert not tree.root.is_leaf
        assert tree.root.feature == 3  # d_b column
        assert tree.root.threshold == pytest.approx(3.0)
        assert tree.root.left.label == "lo"
        assert tree.root.right.label == "hi"
        assert tree.predict(_vec(d_b=2.9)) == "lo"
        assert tree.predict(_vec(d_b=3.2)) == "hi"

    def test_min_leaf_blocks_small_split(self):
        m = FeatureMatrix([
            FeatureRow("a", "x", _vec(alpha=1.0)),
            FeatureRow("b", "y", _vec(alpha=2.0)),
            FeatureRow("c", "y", _vec(alpha=3.0)),
        ])
        tree = train_tree(m, min_leaf=2)
        assert tree.root.is_leaf
        assert tree.root.label == "y"

    def test_deterministic_under_row_order(self):
        rows = [
            FeatureRow("a", "x", _vec(alpha=1.0, d=4.0)),
            FeatureRow("b", "y", _vec(alpha=2.0, d=1.0)),
            FeatureRow("c", "x", _vec(alpha=1.2, d=3.0)),
            FeatureRow("d", "y", _vec(alpha=2.2, d=0.5)),
        ]
        t1 = train_tree(FeatureMatrix(rows))
        t2 = train_tree(FeatureMatrix(rows[::-1]))
        assert t1.root.feature == t2.root.feature
        assert t1.root.threshold == t2.root.threshold

    def test_empty(self):
        with pytest.raises(ValueError):
            train_tree(FeatureMatrix([]))


class TestLooClassify:
    def test_duplicates_perfect(self):
        rows = []
        for k in range(10):
            rows.append(FeatureRow(f"a{k}", "one", _vec(alpha=1.0)))
            rows.append(FeatureRow(f"b{k}", "two", _vec(alpha=5.0)))
        rep = loo_classify(FeatureMatrix(rows))
        assert rep.accuracy == 1.0
        assert rep.successes == rep.total == 20

    def test_random_labels_near_chance(self):
        total_correct = 0
        total_rows = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rows = [FeatureRow(f"i{k}", None,
                               _vec(alpha=float(rng.normal()),
                                    d=float(rng.normal())))
                    for k in range(30)]
            labels = [("a" if rng.random() < 0.5 else "b") for _ in range(30)]
            rep = loo_classify(FeatureMatrix(rows), labels=labels)
            total_correct += rep.successes
            total_rows += rep.total
        assert 0.30 <= total_correct / total_rows <= 0.70

    def test_confusion_shape(self):
        m = FeatureMatrix([
            FeatureRow("a", "x", _vec(alpha=1.0)),
            FeatureRow("b", "x", _vec(alpha=1.1)),
            FeatureRow("c", "y", _vec(alpha=9.0)),
            FeatureRow("d", "y", _vec(alpha=9.1)),
        ])
        rep = loo_classify(m)
        assert rep.successes == 4
        assert rep.confusion == {"x": {"x": 2}, "y": {"y": 2}}

    def test_four_families_pinned(self):
        # with four families the order in which entropy terms are added
        # decides a split here: adding the right side's terms in any order
        # other than first appearance (say, as counts minus left) changes it
        rep = loo_classify(_family_matrix(3, 4))
        assert (rep.successes, rep.total) == (15, 30)
        assert rep.confusion == {
            "fam3": {"fam1": 1, "fam0": 1, "fam3": 2},
            "fam0": {"fam0": 6, "fam1": 2, "fam2": 2},
            "fam2": {"fam1": 7, "fam2": 1},
            "fam1": {"fam1": 6, "fam2": 2},
        }
        assert list(rep.confusion) == ["fam3", "fam0", "fam2", "fam1"]


@pytest.mark.parametrize("classify", (loo_classify, knn_loo_classify))
@pytest.mark.parametrize("n", (0, 1))
def test_classifiers_need_two_instances(classify, n):
    m = _matrix([1.0] * n, families=["x"] * n)
    with pytest.raises(ValueError, match="need at least 2 instances"):
        classify(m)


def _unlabeled(m):
    return FeatureMatrix([FeatureRow(r.instance, None, r.vector) for r in m.rows])


@pytest.mark.parametrize("classify", (loo_classify, knn_loo_classify))
def test_labels_pair_with_rows_by_position(classify):
    # rows a(p), a(q), b(p), c(q): both rows named a keep their own label
    m = _matrix([1.0, 5.0, 1.1, 5.1], ids=["a", "a", "b", "c"],
                families=["p", "q", "p", "q"])
    rep = classify(_unlabeled(m), labels=["p", "q", "p", "q"])
    assert rep == classify(m)
    assert {true: sum(row.values()) for true, row in rep.confusion.items()} \
        == {"p": 2, "q": 2}
    for seed in range(6):
        m = _family_matrix(seed, 3, duplicates=seed % 2 == 1)
        # rows 2k and 2k + 1 share a name, and the names run backwards
        m = FeatureMatrix([FeatureRow(f"i{(len(m) - 1 - k) // 2:02d}", r.family,
                                      r.vector) for k, r in enumerate(m.rows)])
        labels = [r.family for r in m.rows]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # constant training columns
            assert (json.dumps(classify(_unlabeled(m), labels=labels).to_dict())
                    == json.dumps(classify(m).to_dict()))


@pytest.mark.parametrize("classify", (loo_classify, knn_loo_classify, train_tree))
@pytest.mark.parametrize("count", (3, 5))
def test_labels_one_per_row(classify, count):
    m = _matrix([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=f"^{count} labels for 4 rows$"):
        classify(m, labels=(["x", "y"] * 3)[:count])


@pytest.mark.parametrize("classify", (loo_classify, knn_loo_classify))
def test_classifiers_independent_of_row_order(classify):
    # rows are sorted by instance id once, so the input order cannot matter
    for seed in range(6):
        m = _family_matrix(seed, 2 + seed % 3, duplicates=seed % 2 == 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            forward = classify(m).to_dict()
            backward = classify(FeatureMatrix(m.rows[::-1])).to_dict()
        assert json.dumps(forward) == json.dumps(backward)


class TestKnnClassify:
    def test_exact_match_vote(self):
        rows = [
            FeatureRow("a", "x", _vec(alpha=1.0)),
            FeatureRow("b", "x", _vec(alpha=1.0)),
            FeatureRow("c", "y", _vec(alpha=2.0)),
        ]
        rep = knn_loo_classify(FeatureMatrix(rows))
        assert rep.confusion["x"]["x"] == 2

    def test_narrow_feature_separates(self):
        # ratio (2.0 vs 2.5) separates the families; alpha spans 3.0-9.1 at
        # random. On raw features alpha's range decides every vote (0/6);
        # scaled per round, ratio counts as much and every row is right.
        rows = [FeatureRow(f"{fam}{k}", fam, _vec(alpha=a + off, ratio=r))
                for fam, off, r in (("a", 0.0, 2.0), ("b", 0.1, 2.5))
                for k, a in enumerate((3.0, 6.0, 9.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # q, d and d_b are constant
            rep = knn_loo_classify(FeatureMatrix(rows))
        assert (rep.successes, rep.total) == (6, 6)

    def test_separated_clusters(self):
        rows = []
        for k in range(6):
            rows.append(FeatureRow(f"a{k}", "one", _vec(alpha=0.0 + 0.01 * k)))
            rows.append(FeatureRow(f"b{k}", "two", _vec(alpha=9.0 + 0.01 * k)))
        rep = knn_loo_classify(FeatureMatrix(rows))
        assert rep.accuracy == 1.0


@pytest.mark.parametrize("fit", [train_tree, loo_classify, knn_loo_classify])
def test_feature_named_twice(fit):
    # a repeated column would count twice in every knn distance
    rows = [FeatureRow(f"{fam}{k}", fam, _vec(alpha=a + k, q=0.1 * k))
            for fam, a in (("x", 0.0), ("y", 5.0)) for k in range(3)]
    with pytest.raises(ValueError,
                       match=r"^duplicate feature names: \['q'\]$"):
        fit(FeatureMatrix(rows), features=("alpha", "q", "q"))
