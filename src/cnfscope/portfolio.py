"""Solver selection machinery: inverse-distance-squared runtime prediction,
leave-one-out portfolio simulation, and a C4.5-style decision tree for family
classification (binary splits on continuous features, gain-ratio criterion,
no pruning)."""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .features import (FEATURE_NAMES, FeatureMatrix, FeatureVector, csv_rows,
                       csv_writer, normalize)

TIMEOUT = "TIMEOUT"


class RuntimeMatrix:
    """Instance x solver runtimes in seconds; timeouts are stored as inf and
    stay distinct from every finite value. Finite runtimes must lie in
    (0, timeout_value]."""

    def __init__(self, instances, solvers, times, timeout_value: float):
        self.instances = list(instances)
        self.solvers = list(solvers)
        self.times = np.asarray(times, dtype=np.float64)
        self.timeout_value = float(timeout_value)
        if self.times.shape != (len(self.instances), len(self.solvers)):
            raise ValueError("times shape does not match instances x solvers")
        finite = self.times[np.isfinite(self.times)]
        if finite.size and (finite <= 0).any():
            raise ValueError("runtimes must be positive")
        if finite.size and (finite > self.timeout_value).any():
            raise ValueError("finite runtime exceeds timeout_value")
        self._row = {inst: i for i, inst in enumerate(self.instances)}
        self._col = {s: j for j, s in enumerate(self.solvers)}

    def time(self, instance: str, solver: str) -> float:
        """Runtime in seconds, inf when the solver timed out."""
        return float(self.times[self._row[instance], self._col[solver]])

    def is_timeout(self, instance: str, solver: str) -> bool:
        return math.isinf(self.time(instance, solver))

    def effective_time(self, instance: str, solver: str) -> float:
        """Runtime with timeouts replaced by timeout_value."""
        t = self.time(instance, solver)
        return self.timeout_value if math.isinf(t) else t

    def solved_by_any(self, instance: str) -> bool:
        return bool(np.isfinite(self.times[self._row[instance]]).any())

    def vbs_count(self) -> int:
        """Instances the virtual best solver would solve."""
        return int(np.isfinite(self.times).any(axis=1).sum())

    @classmethod
    def from_csv(cls, text: str, timeout_value: float | None = None
                 ) -> "RuntimeMatrix":
        table = csv_rows(text)
        if not table:
            raise ValueError("empty runtime CSV")
        header = table[0]
        if header[0] != "instance" or len(header) < 2:
            raise ValueError(f"bad runtime CSV header: {','.join(header)!r}")
        solvers = header[1:]
        instances = []
        rows = []
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
        return cls(instances, solvers, times, timeout_value)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv_writer(out)
        writer.writerow(["instance"] + list(self.solvers))
        for i, inst in enumerate(self.instances):
            cells = [inst]
            for j in range(len(self.solvers)):
                t = self.times[i, j]
                cells.append(TIMEOUT if math.isinf(t) else repr(float(t)))
            writer.writerow(cells)
        return out.getvalue()


# ---------------------------------------------------------------------------
# Inverse-distance-squared runtime prediction


def _distances(test_vec: np.ndarray, train_arr: np.ndarray) -> np.ndarray:
    return np.sqrt(((train_arr - test_vec) ** 2).sum(axis=1))


def _as_vec(test, names) -> np.ndarray:
    if isinstance(test, FeatureVector):
        return test.as_array(names)
    return np.asarray(test, dtype=np.float64)


def predict_runtime(test, train: FeatureMatrix, times: RuntimeMatrix,
                    solver: str) -> float:
    """Predicted runtime of `solver`: the inverse-square-distance weighted
    mean of its training runtimes (timeouts contribute timeout_value). When
    some training instance matches the test features exactly, the plain
    average over the exact matches is returned."""
    if len(train) == 0:
        raise ValueError("empty training set")
    names = train.distance_features
    test_vec = _as_vec(test, names)
    train_arr = train.to_array(names)
    t = np.array([times.effective_time(r.instance, solver) for r in train.rows])
    d = _distances(test_vec, train_arr)
    zero = d == 0.0
    if zero.any():
        return float(t[zero].mean())
    w = 1.0 / d ** 2
    return float((t * w).sum() / w.sum())


def select_solver(test, train: FeatureMatrix, times: RuntimeMatrix) -> str:
    """Solver with the minimal predicted runtime; ties break on name."""
    preds = [(predict_runtime(test, train, times, s), s) for s in times.solvers]
    return min(preds)[1]


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def loo_portfolio_sim(matrix: FeatureMatrix, times: RuntimeMatrix
                      ) -> SimulationReport:
    """Leave-one-out portfolio simulation.

    Each round holds one instance out, min-max normalizes features on the
    rest, picks the solver with the best predicted runtime, and scores the
    choice with its true runtime. avg_time averages over solved instances
    only; avg_time_penalized substitutes timeout_value for unsolved ones.
    """
    ids = matrix.instance_ids
    if len(ids) < 2:
        raise ValueError("need at least 2 instances")
    missing = [i for i in ids if i not in times._row]
    if missing:
        raise ValueError(f"instances missing from runtime matrix: {missing}")
    records = []
    solved = 0
    solved_total = 0.0
    penalized_total = 0.0
    for inst in ids:
        train_ids = [i for i in ids if i != inst]
        normed = normalize(matrix, train_ids)
        test_row = normed.row(inst)
        train = normed.drop(inst)
        chosen = select_solver(test_row.vector, train, times)
        t = times.time(inst, chosen)
        ok = math.isfinite(t)
        if ok:
            solved += 1
            solved_total += t
        penalized_total += t if ok else times.timeout_value
        records.append({
            "instance": inst,
            "solver": chosen,
            "solved": ok,
            "time": (t if ok else None),
        })
    return SimulationReport(
        solved_count=solved,
        avg_time=(solved_total / solved if solved else 0.0),
        avg_time_penalized=penalized_total / len(ids),
        vbs_count=sum(1 for i in ids if times.solved_by_any(i)),
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
    counts: dict | None = None

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

    def depth(self) -> int:
        def walk(nd):
            if nd.is_leaf:
                return 0
            return 1 + max(walk(nd.left), walk(nd.right))
        return walk(self.root)


def _entropy(labels) -> float:
    n = len(labels)
    h = 0.0
    counts: dict[str, int] = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    for c in counts.values():
        p = c / n
        h -= p * math.log2(p)
    return h


def _majority(labels) -> tuple[str, dict]:
    counts: dict[str, int] = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return best, counts


def _grow(X: np.ndarray, y: list, min_leaf: int) -> TreeNode:
    label, counts = _majority(y)
    if len(set(y)) == 1 or len(y) < 2 * min_leaf:
        return TreeNode(label=label, counts=counts)
    h_parent = _entropy(y)
    n = len(y)
    candidates = []  # (gain, gain_ratio, feature, threshold, mask)
    for fi in range(X.shape[1]):
        vals = np.unique(X[:, fi])
        if vals.size < 2:
            continue
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, fi] <= thr
            nl = int(mask.sum())
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            yl = [y[i] for i in np.nonzero(mask)[0]]
            yr = [y[i] for i in np.nonzero(~mask)[0]]
            gain = h_parent - (nl / n) * _entropy(yl) - (nr / n) * _entropy(yr)
            if gain <= 1e-12:
                continue
            split_info = _entropy(["l"] * nl + ["r"] * nr)
            candidates.append((gain, gain / split_info, fi, float(thr), mask))
    if not candidates:
        return TreeNode(label=label, counts=counts)
    mean_gain = sum(c[0] for c in candidates) / len(candidates)
    eligible = [c for c in candidates if c[0] >= mean_gain - 1e-12]
    best = max(eligible, key=lambda c: (c[1], -c[2], -c[3]))
    _, _, fi, thr, mask = best
    left = _grow(X[mask], [y[i] for i in np.nonzero(mask)[0]], min_leaf)
    right = _grow(X[~mask], [y[i] for i in np.nonzero(~mask)[0]], min_leaf)
    return TreeNode(feature=fi, threshold=thr, left=left, right=right,
                    counts=counts)


def _rows_and_labels(matrix: FeatureMatrix, labels, features):
    rows = sorted(matrix.rows, key=lambda r: r.instance)
    if labels is None:
        y = [r.family for r in rows]
        if any(lb is None for lb in y):
            raise ValueError("rows without family label")
    else:
        by_id = dict(zip(matrix.instance_ids, labels))
        y = [by_id[r.instance] for r in rows]
    X = np.array([r.vector.as_array(features) for r in rows])
    return rows, X, y


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
    _, X, y = _rows_and_labels(matrix, labels, features)
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
        per_family = {}
        for true, row in self.confusion.items():
            n = sum(row.values())
            per_family[true] = {"total": n, "correct": row.get(true, 0)}
        return {
            "successes": self.successes,
            "total": self.total,
            "accuracy": self.accuracy,
            "per_family": per_family,
            "confusion": self.confusion,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _tally(pairs) -> ClassificationReport:
    confusion: dict[str, dict[str, int]] = {}
    successes = 0
    total = 0
    for true, pred in pairs:
        confusion.setdefault(true, {})
        confusion[true][pred] = confusion[true].get(pred, 0) + 1
        successes += int(true == pred)
        total += 1
    return ClassificationReport(successes, total, confusion)


def loo_classify(matrix: FeatureMatrix, labels=None, min_leaf: int = 1,
                 features=FEATURE_NAMES) -> ClassificationReport:
    """Leave-one-out cross-validation of the decision-tree classifier."""
    rows, _, y = _rows_and_labels(matrix, labels, features)
    pairs = []
    for idx, row in enumerate(rows):
        train = FeatureMatrix([r for i, r in enumerate(rows) if i != idx])
        tree = train_tree(train, [yy for i, yy in enumerate(y) if i != idx],
                          min_leaf, features)
        pairs.append((y[idx], tree.predict(row.vector)))
    return _tally(pairs)


def knn_loo_classify(matrix: FeatureMatrix, labels=None,
                     features=FEATURE_NAMES) -> ClassificationReport:
    """Leave-one-out family classification by inverse-square-distance vote."""
    rows, X, y = _rows_and_labels(matrix, labels, features)
    pairs = []
    for idx in range(len(rows)):
        test_vec = X[idx]
        keep = [i for i in range(len(rows)) if i != idx]
        d = _distances(test_vec, X[keep])
        votes: dict[str, float] = {}
        zero = d == 0.0
        if zero.any():
            for j, z in zip(keep, zero):
                if z:
                    votes[y[j]] = votes.get(y[j], 0.0) + 1.0
        else:
            w = 1.0 / d ** 2
            for j, wj in zip(keep, w):
                votes[y[j]] = votes.get(y[j], 0.0) + wj
        pred = min(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        pairs.append((y[idx], pred))
    return _tally(pairs)
