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
        back = RuntimeMatrix.from_csv(m.to_csv(), timeout_value=1000.0)
        assert back.instances == ["a", "b", "a,b.cnf"]
        assert back.time("a,b.cnf", "s2") == 4.0
        assert back.is_timeout("a", "s2")
        assert back.time("b", "s2") == 10.0

    def test_timeout_inferred(self):
        m = RuntimeMatrix.from_csv("instance,s\na,5.0\nb,TIMEOUT\n")
        assert m.timeout_value == 5.0
        assert m.effective_time("b", "s") == 5.0

    def test_vbs_count(self):
        m = _times(["a", "b", "c"], ["s1", "s2"],
                   [[1.0, "T"], ["T", "T"], ["T", 2.0]])
        assert m.vbs_count() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeMatrix(["a"], ["s"], [[-1.0]], 100.0)
        with pytest.raises(ValueError):
            RuntimeMatrix(["a"], ["s"], [[200.0]], 100.0)


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

    def test_report_json(self):
        m = _matrix([0.0, 1.0])
        times = _times(m.instance_ids, ["s"], [[10.0], [20.0]])
        rep = loo_portfolio_sim(m, times)
        d = rep.to_dict()
        assert set(d) == {"solved", "avg_time", "avg_time_penalized", "vbs",
                          "per_instance"}
        assert len(d["per_instance"]) == 2


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


class TestKnnClassify:
    def test_exact_match_vote(self):
        rows = [
            FeatureRow("a", "x", _vec(alpha=1.0)),
            FeatureRow("b", "x", _vec(alpha=1.0)),
            FeatureRow("c", "y", _vec(alpha=2.0)),
        ]
        rep = knn_loo_classify(FeatureMatrix(rows))
        assert rep.confusion["x"]["x"] == 2

    def test_separated_clusters(self):
        rows = []
        for k in range(6):
            rows.append(FeatureRow(f"a{k}", "one", _vec(alpha=0.0 + 0.01 * k)))
            rows.append(FeatureRow(f"b{k}", "two", _vec(alpha=9.0 + 0.01 * k)))
        rep = knn_loo_classify(FeatureMatrix(rows))
        assert rep.accuracy == 1.0
