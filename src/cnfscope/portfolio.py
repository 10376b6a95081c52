"""Solver selection machinery: inverse-distance-squared runtime prediction,
leave-one-out portfolio simulation, and a C4.5-style decision tree for family
classification (binary splits on continuous features, gain-ratio criterion,
no pruning)."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .features import (FEATURE_NAMES, FeatureMatrix, FeatureVector, _minmax,
                       csv_rows)

TIMEOUT = "TIMEOUT"


def _check_unique(kind: str, names) -> None:
    if dup := [x for x, c in Counter(names).items() if c > 1]:
        raise ValueError(f"duplicate {kind} names: {dup}")


class RuntimeMatrix:
    """Instance x solver runtimes in seconds; timeouts are stored as inf and
    stay distinct from every finite value. Finite runtimes must lie in
    (0, timeout_value]; NaN and -inf cannot be ranked and are rejected, as
    are duplicate instance or solver names. timeout_value itself must be
    positive and finite, since it stands in for a timeout in the averages."""

    def __init__(self, instances, solvers, times, timeout_value: float):
        self.instances = list(instances)
        self.solvers = list(solvers)
        self.times = np.asarray(times, dtype=np.float64)
        self.timeout_value = float(timeout_value)
        if not 0 < self.timeout_value < np.inf:  # NaN compares False
            raise ValueError("timeout_value must be positive and finite, "
                             f"got {timeout_value}")
        if self.times.shape != (len(self.instances), len(self.solvers)):
            raise ValueError("times shape does not match instances x solvers")
        bad = self.times[~(self.times > 0)]  # NaN compares False
        if bad.size:
            raise ValueError("runtimes must be positive seconds or timeouts, "
                             f"got {bad[0]}")
        if (self.times[np.isfinite(self.times)] > self.timeout_value).any():
            raise ValueError("finite runtime exceeds timeout_value")
        _check_unique("instance", self.instances)
        _check_unique("solver", self.solvers)
        self._row = {inst: i for i, inst in enumerate(self.instances)}
        self._col = {s: j for j, s in enumerate(self.solvers)}

    def time(self, instance: str, solver: str) -> float:
        """Runtime in seconds, inf when the solver timed out."""
        return float(self.times[self._row[instance], self._col[solver]])

    def rows(self, instances) -> np.ndarray:
        """The runtime rows of `instances`, in their order (inf = timeout)."""
        missing = [i for i in instances if i not in self._row]
        if missing:
            raise ValueError(f"instances missing from runtime matrix: {missing}")
        return self.times[[self._row[i] for i in instances]]

    @classmethod
    def from_csv(cls, text: str, timeout_value: float | None = None
                 ) -> "RuntimeMatrix":
        table = csv_rows(text)
        if not table:
            raise ValueError("empty runtime CSV")
        header = table[0]
        if header[0] != "instance" or len(header) < 2:
            raise ValueError(f"bad runtime CSV header: {','.join(header)!r}")
        instances, rows = [], []
        for cells in table[1:]:
            if len(cells) != len(header):
                raise ValueError(f"bad runtime CSV row: {','.join(cells)!r}")
            instances.append(cells[0])
            rows.append([np.inf if c.strip() == TIMEOUT else float(c)
                         for c in cells[1:]])
        times = np.asarray(rows, dtype=np.float64)
        if timeout_value is None:
            finite = times[np.isfinite(times)]
            if finite.size == 0:
                raise ValueError("cannot infer timeout_value: no finite runtimes")
            timeout_value = float(finite.max())
        return cls(instances, header[1:], times, timeout_value)


# ---------------------------------------------------------------------------
# Inverse-distance-squared runtime prediction


def _as_vec(test, names) -> np.ndarray:
    if isinstance(test, FeatureVector):
        return test.as_array(names)
    return np.asarray(test, dtype=np.float64)


def _weights(test_vec: np.ndarray, train_arr: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """(rows, weights) of an inverse-distance-squared average: every training
    row at weight 1/d^2 or, when some rows equal test_vec exactly, only those
    rows at weight 1."""
    # 1 / d**2 of the rooted distance: 1 / (sum of squares) can differ in the
    # last bit, and so can every prediction and vote
    d = np.sqrt(((train_arr - test_vec) ** 2).sum(axis=1))
    exact = np.flatnonzero(d == 0.0)
    if exact.size:
        return exact, np.ones(exact.size)
    return np.arange(d.size), 1.0 / d ** 2


def _predictions(x: np.ndarray, X: np.ndarray, capped: np.ndarray, solvers
                 ) -> dict[str, float]:
    """Predicted runtime of each solver for the test vector x, from the
    training array X and its runtimes `capped` at timeout_value."""
    rows, w = _weights(x, X)
    t = capped[rows]
    # one 1-D sum per solver: `w @ t` would add in another order
    return {s: float((t[:, j] * w).sum() / w.sum())
            for j, s in enumerate(solvers)}


def _best(predictions: dict[str, float]) -> str:
    """Solver with the minimal prediction; ties break on name."""
    return min((p, s) for s, p in predictions.items())[1]


def _matrix_predictions(test, train: FeatureMatrix, times: RuntimeMatrix
                        ) -> dict[str, float]:
    """_predictions for a FeatureMatrix and a FeatureVector or 5-entry array."""
    if len(train) == 0:
        raise ValueError("empty training set")
    capped = np.minimum(times.rows(train.instance_ids), times.timeout_value)
    return _predictions(_as_vec(test, FEATURE_NAMES), train.to_array(), capped,
                        times.solvers)


def predict_runtime(test, train: FeatureMatrix, times: RuntimeMatrix,
                    solver: str) -> float:
    """Predicted runtime of `solver`: the inverse-square-distance weighted
    mean of its training runtimes (timeouts contribute timeout_value). When
    some training instance matches the test features exactly, the plain
    average over the exact matches is returned."""
    return _matrix_predictions(test, train, times)[solver]


def select_solver(test, train: FeatureMatrix, times: RuntimeMatrix) -> str:
    """Solver with the minimal predicted runtime; ties break on name."""
    return _best(_matrix_predictions(test, train, times))


@dataclass(frozen=True)
class SimulationReport:
    solved_count: int
    avg_time: float
    avg_time_penalized: float
    vbs_count: int
    per_instance: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "solved": self.solved_count,
            "avg_time": self.avg_time,
            "avg_time_penalized": self.avg_time_penalized,
            "vbs": self.vbs_count,
            "per_instance": list(self.per_instance),
        }


def _loo(X: np.ndarray, predict) -> list:
    """predict(train, i) for each row i of X in row order; train masks out i."""
    if len(X) < 2:
        raise ValueError("need at least 2 instances")
    return [predict(np.arange(len(X)) != i, i) for i in range(len(X))]


def loo_portfolio_sim(matrix: FeatureMatrix, times: RuntimeMatrix
                      ) -> SimulationReport:
    """Leave-one-out portfolio simulation.

    Each round holds one instance out, min-max normalizes features on the
    rest, picks the solver with the best predicted runtime, and scores the
    choice with its true runtime. avg_time averages over solved instances
    only; avg_time_penalized substitutes timeout_value for unsolved ones.
    Instance names must be unique: a round holds out one instance.
    """
    ids = matrix.instance_ids
    _check_unique("instance", ids)
    X = matrix.to_array()
    runtimes = times.rows(ids)
    capped = np.minimum(runtimes, times.timeout_value)

    def pick(train, i):
        Y = _minmax(X, train)
        return _best(_predictions(Y[i], Y[train], capped[train], times.solvers))
    records = []
    solved, solved_total, penalized_total = 0, 0.0, 0.0
    for inst, solver in zip(ids, _loo(X, pick)):
        t = times.time(inst, solver)
        ok = math.isfinite(t)
        if ok:
            solved += 1
            solved_total += t
        penalized_total += t if ok else times.timeout_value
        records.append({"instance": inst, "solver": solver, "solved": ok,
                        "time": (t if ok else None)})
    return SimulationReport(
        solved_count=solved,
        avg_time=(solved_total / solved if solved else 0.0),
        avg_time_penalized=penalized_total / len(ids),
        # the virtual best solver finishes an instance when any solver does
        vbs_count=int(np.isfinite(runtimes).any(axis=1).sum()),
        per_instance=tuple(records),
    )


# ---------------------------------------------------------------------------
# C4.5-style decision tree


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    label: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class DecisionTree:
    root: TreeNode
    feature_names: tuple[str, ...]

    def predict(self, vec) -> str:
        x = _as_vec(vec, self.feature_names)
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.label


def _entropy(counts) -> float:
    """Entropy of a label distribution, summed over `counts` in their order."""
    n = sum(counts)
    h = 0.0
    for c in counts:
        p = c / n
        h -= p * math.log2(p)
    return h


def _winner(counts: Counter) -> str:
    """The label with the largest count (or vote); ties break on the label."""
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def _grow(X: np.ndarray, y: list, min_leaf: int) -> TreeNode:
    counts = Counter(y)
    if len(counts) == 1 or len(y) < 2 * min_leaf:
        return TreeNode(label=_winner(counts))
    h_parent = _entropy(counts.values())
    n = len(y)
    candidates = []  # (gain, gain_ratio, feature, threshold, mask)
    for fi in range(X.shape[1]):
        vals = np.unique(X[:, fi])
        for thr in (vals[:-1] + vals[1:]) / 2.0:
            mask = X[:, fi] <= thr
            nl = int(mask.sum())
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            # each side's terms in the order its labels first appear
            gain = (h_parent
                    - (nl / n) * _entropy(Counter(compress(y, mask)).values())
                    - (nr / n) * _entropy(Counter(compress(y, ~mask)).values()))
            if gain <= 1e-12:
                continue
            candidates.append((gain, gain / _entropy((nl, nr)), fi,
                               float(thr), mask))
    if not candidates:
        return TreeNode(label=_winner(counts))
    mean_gain = sum(c[0] for c in candidates) / len(candidates)
    eligible = [c for c in candidates if c[0] >= mean_gain - 1e-12]
    _, _, fi, thr, mask = max(eligible, key=lambda c: (c[1], -c[2], -c[3]))
    left = _grow(X[mask], list(compress(y, mask)), min_leaf)
    right = _grow(X[~mask], list(compress(y, ~mask)), min_leaf)
    return TreeNode(feature=fi, threshold=thr, left=left, right=right)


def _sorted_xy(matrix: FeatureMatrix, labels, features):
    """Feature array and labels of the rows stably sorted by instance id;
    labels[k] labels row k, and without labels each row's family does.
    A feature named twice is a ValueError."""
    _check_unique("feature", features)
    if labels is None:
        labels = [r.family for r in matrix.rows]
        if None in labels:
            raise ValueError("rows without family label")
    elif len(labels := list(labels)) != len(matrix):
        raise ValueError(f"{len(labels)} labels for {len(matrix)} rows")
    order = sorted(range(len(matrix)), key=lambda k: matrix.rows[k].instance)
    return (np.array([matrix.rows[k].vector.as_array(features) for k in order]),
            [labels[k] for k in order])


def train_tree(matrix: FeatureMatrix, labels=None, min_leaf: int = 1,
               features=FEATURE_NAMES) -> DecisionTree:
    """Grow a gain-ratio decision tree on the given feature columns.

    Splits are binary on midpoint thresholds between consecutive observed
    values; only splits with information gain at least the mean gain of all
    positive candidates compete, the gain ratio picks the winner. Rows are
    sorted by instance id first, so training is order-independent.
    """
    if len(matrix) == 0:
        raise ValueError("empty training data")
    X, y = _sorted_xy(matrix, labels, features)
    return DecisionTree(_grow(X, y, min_leaf), tuple(features))


@dataclass(frozen=True)
class ClassificationReport:
    successes: int
    total: int
    confusion: dict

    @property
    def accuracy(self) -> float:
        return self.successes / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        per_family = {true: {"total": sum(row.values()),
                             "correct": row.get(true, 0)}
                      for true, row in self.confusion.items()}
        return {
            "successes": self.successes,
            "total": self.total,
            "accuracy": self.accuracy,
            "per_family": per_family,
            "confusion": self.confusion,
        }


def _tally(y: list, predicted: list) -> ClassificationReport:
    """Report of the true labels y against the predicted ones, row by row."""
    confusion: dict[str, dict[str, int]] = {}
    for (true, pred), c in Counter(zip(y, predicted)).items():
        confusion.setdefault(true, {})[pred] = c
    successes = sum(true == pred for true, pred in zip(y, predicted))
    return ClassificationReport(successes, len(y), confusion)


def loo_classify(matrix: FeatureMatrix, labels=None, min_leaf: int = 1,
                 features=FEATURE_NAMES) -> ClassificationReport:
    """Leave-one-out cross-validation of the decision-tree classifier."""
    X, y = _sorted_xy(matrix, labels, features)

    # splits do not depend on scale, so the tree sees the raw features
    def predict(train, i):
        root = _grow(X[train], list(compress(y, train)), min_leaf)
        return DecisionTree(root, tuple(features)).predict(X[i])
    return _tally(y, _loo(X, predict))


def knn_loo_classify(matrix: FeatureMatrix, labels=None,
                     features=FEATURE_NAMES) -> ClassificationReport:
    """Leave-one-out family classification by inverse-square-distance vote,
    on features min-max scaled on each round's training rows (as the
    portfolio scales them), so no feature wins by its range alone."""
    X, y = _sorted_xy(matrix, labels, features)

    def vote(train, i):
        Y = _minmax(X, train, features)
        rows, w = _weights(Y[i], Y[train])
        votes = Counter()
        for r, wr in zip(rows, w):   # training row r is row r + (r >= i) of X
            votes[y[r + (r >= i)]] += wr
        return _winner(votes)
    return _tally(y, _loo(X, vote))
