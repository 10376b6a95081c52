"""Structural feature vectors of CNF formulas: the power-law exponent alpha,
modularity q, pseudo-dimensions d (VIG) and d_b (CVIG), and the clause to
variable ratio, plus min-max normalization for distance-based learning."""

from __future__ import annotations

import csv
import io
import math
import warnings as _warnings
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from .cnf import CnfFormula, _literal_keys
from .community import fold_communities
from .fractal import CoverCurve, DimensionFit, cover_curve, fit_dimension
from .graph import Graph, build_cvig, build_vig, row_ranges
from .scalefree import fit_alpha, occurrence_histogram

FEATURE_NAMES = ("alpha", "q", "d", "d_b", "ratio")
EXTRA_NAMES = ("beta", "beta_b", "n", "m", "r_max")
COLUMNS = ("instance", "family") + FEATURE_NAMES + EXTRA_NAMES
CSV_HEADER = ",".join(COLUMNS)


@dataclass(frozen=True)
class FeatureConfig:
    seed: int = 42
    fit_lo: int = 1
    fit_hi: int = 5


@dataclass(frozen=True)
class FeatureVector:
    alpha: float
    q: float
    d: float
    d_b: float
    ratio: float
    extras: dict = field(default_factory=dict)

    def value(self, name: str) -> float:
        if name in FEATURE_NAMES:
            return getattr(self, name)
        return self.extras[name]

    def as_array(self, names=FEATURE_NAMES) -> np.ndarray:
        return np.array([self.value(n) for n in names], dtype=np.float64)


@dataclass(frozen=True)
class FeatureRow:
    instance: str
    family: str | None
    vector: FeatureVector


class FeatureMatrix:
    """Feature rows, in their order."""

    def __init__(self, rows):
        self.rows: list[FeatureRow] = list(rows)

    @property
    def instance_ids(self) -> list[str]:
        return [r.instance for r in self.rows]

    def to_array(self) -> np.ndarray:
        return np.array([r.vector.as_array() for r in self.rows])

    def __len__(self) -> int:
        return len(self.rows)


# literal columns compared per lexsort; longer clauses are ranked in chunks
_ORDER_COLUMNS = 8


def _clause_order(lengths: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Stable order of the clauses by their literal rows (clause-major in
    `rows`), compared by value in turn, a row that is a prefix of another
    first: the order of sorted() on the rows as tuples.

    One lexsort ranks each chunk of _ORDER_COLUMNS columns, from the last
    chunk to the first, over the clauses that reach it; a missing literal is
    int64's minimum, and the ranks of a chunk break the ties of the one
    before it. Rows of up to _ORDER_COLUMNS literals take a single lexsort."""
    starts = np.cumsum(lengths) - lengths
    top = int(lengths.max(initial=0))
    tail = np.full(lengths.size, -1, dtype=np.int64)   # rank after the chunk

    def chunk_keys(lo: int, sel: np.ndarray) -> np.ndarray:
        keys = np.full((min(_ORDER_COLUMNS, top - lo) + 1, sel.size),
                       np.iinfo(np.int64).min)
        keys[0] = tail[sel]
        for j in range(1, len(keys)):
            has = lengths[sel] >= lo + j
            keys[-j, has] = rows[starts[sel[has]] + lo + j - 1]
        return keys

    for lo in range((top - 1) // _ORDER_COLUMNS * _ORDER_COLUMNS, 0,
                    -_ORDER_COLUMNS):
        sel = np.flatnonzero(lengths > lo)
        keys = chunk_keys(lo, sel)
        order = np.lexsort(keys)
        ranked = keys[:, order]
        new = np.ones(sel.size, dtype=bool)
        new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
        tail[sel[order]] = np.cumsum(new)
    return np.lexsort(chunk_keys(0, np.arange(lengths.size)))


def _canonical_clause_order(f: CnfFormula) -> CnfFormula:
    """Sort clauses lexicographically so clause node ids (and therefore
    degree-tie iteration) do not depend on the input clause order. A
    clause's key is its literals sorted by (abs(l), l < 0), compared as a
    tuple; equal keys keep their order."""
    lengths, lits = f.literal_arrays()
    key = _literal_keys(lengths, lits)[0]
    order = _clause_order(lengths, lits[np.argsort(key, kind="stable")])
    new_lengths = lengths[order]
    pos = row_ranges(np.cumsum(lengths)[order], new_lengths)
    return CnfFormula.from_arrays(f.num_vars, new_lengths, lits[pos])


def cover_and_fit(g: Graph, cfg: FeatureConfig
                  ) -> tuple[CoverCurve, DimensionFit]:
    """Greedy cover curve of g up to r = fit_hi and its dimension fit."""
    curve = cover_curve(g, r_stop=cfg.fit_hi)
    return curve, fit_dimension(curve, cfg.fit_lo, cfg.fit_hi)


def extract_features(f: CnfFormula, config: FeatureConfig | None = None
                     ) -> FeatureVector:
    """Full feature pipeline for one formula.

    Fractal fits run on the VIG and CVIG, alpha on the occurrence histogram,
    q by folding the weighted VIG. Deterministic per config seed, and
    invariant under clause permutation (clause order is canonicalized).
    """
    cfg = config or FeatureConfig()
    if f.num_vars == 0 or f.num_clauses == 0:
        raise ValueError("features need a nonempty formula")
    f = _canonical_clause_order(f)
    alpha = fit_alpha(occurrence_histogram(f)).alpha

    # covers ignore weights, so the weighted VIG serves both; it is dropped
    # before the CVIG is built, so the two graphs are never held together
    vig = build_vig(f, weighted=True)
    curve, fit_v = cover_and_fit(vig, cfg)
    q = fold_communities(vig, seed=cfg.seed).q
    del vig
    _, fit_b = cover_and_fit(build_cvig(f), cfg)

    extras = {
        "beta": fit_v.beta,
        "beta_b": fit_b.beta,
        "n": float(f.num_vars),
        "m": float(f.num_clauses),
    }
    if curve.r_max is not None:
        extras["r_max"] = float(curve.r_max)
    return FeatureVector(alpha=alpha, q=q, d=fit_v.d, d_b=fit_b.d,
                         ratio=f.num_clauses / f.num_vars, extras=extras)


def _minmax(X: np.ndarray, train: np.ndarray, names=FEATURE_NAMES) -> np.ndarray:
    """Min-max scale the feature columns of X, named `names`, on the rows
    where `train` is set; other rows are clamped into [0, 1]. A column
    constant on the training rows maps to 0.0, so it adds nothing to any
    distance."""
    T = X[train]
    if not len(T):
        raise ValueError("no training rows")
    # the first minimal value, as min() takes it: 0.0 and -0.0 tie, and the
    # sign of lo decides the sign of a zero result
    lo = T[T.argmin(axis=0), range(X.shape[1])]
    hi = T.max(axis=0)
    const = hi == lo
    for name in compress(names, const):
        _warnings.warn(f"feature {name!r} constant on training set; "
                       "excluded from distances")
    with np.errstate(divide="ignore", invalid="ignore"):
        Y = (X - lo) / (hi - lo)
    # min(max(x, 0.0), 1.0) on the other rows: -0.0 and NaN stay as they are
    held = ~train[:, None]
    Y[held & (Y < 0.0)] = 0.0
    Y[held & (Y > 1.0)] = 1.0
    Y[:, const] = 0.0
    return Y


def normalize(matrix: FeatureMatrix, training_ids) -> FeatureMatrix:
    """Min-max normalize each feature using the training rows; other rows are
    clamped into [0, 1]. Constant training features map to 0 (see _minmax)."""
    training = set(training_ids)
    train = np.array([r.instance in training for r in matrix.rows], dtype=bool)
    Y = _minmax(matrix.to_array(), train)
    return FeatureMatrix(
        FeatureRow(r.instance, r.family,
                   replace(r.vector, **dict(zip(FEATURE_NAMES, y))))
        for r, y in zip(matrix.rows, Y.tolist()))


# ---------------------------------------------------------------------------
# CSV / JSON interchange


def csv_text(header, rows) -> str:
    """The one CSV writer: '\n' line ends, and fields holding a comma or a
    quote (such as instance names) quoted. A None cell is written empty,
    strings and ints as they are, any other number as repr(float(x))."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([x if x is None or isinstance(x, (str, int))
                      else repr(float(x)) for x in row] for row in rows)
    return out.getvalue()


def csv_rows(text: str) -> list[list[str]]:
    """The nonblank rows of a CSV text."""
    return [row for row in csv.reader(io.StringIO(text))
            if any(cell.strip() for cell in row)]


def _finite(instance: str, column: str, cell: str) -> float:
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"non-finite {column} for {instance}: {cell!r}")
    return x


def matrix_from_csv(text: str, skip_errors: bool = False) -> FeatureMatrix:
    """Read a feature CSV. Rows marked ERROR (from batch extraction failures)
    raise unless skip_errors is set, in which case they are dropped with a
    warning. A NaN or infinite cell is an error: it has no place in a
    distance or a split."""
    rows = csv_rows(text)
    if not rows:
        raise ValueError("empty feature CSV")
    header = rows[0]
    if tuple(header[:len(COLUMNS)]) != COLUMNS:
        raise ValueError(f"unexpected feature CSV header: {','.join(header)!r}")
    out = []
    for cells in rows[1:]:
        if len(cells) < 7:
            raise ValueError(f"short feature CSV row: {','.join(cells)!r}")
        instance, family = cells[0], cells[1] or None
        if family == "ERROR":
            if skip_errors:
                _warnings.warn(f"skipping ERROR row for {instance}")
                continue
            raise ValueError(f"feature CSV contains ERROR row for {instance}")
        alpha, q, d, d_b, ratio = (_finite(instance, name, cell) for name, cell
                                   in zip(FEATURE_NAMES, cells[2:7]))
        extras = {name: _finite(instance, name, cell)
                  for name, cell in zip(EXTRA_NAMES, cells[7:]) if cell}
        out.append(FeatureRow(instance, family,
                              FeatureVector(alpha, q, d, d_b, ratio, extras)))
    return FeatureMatrix(out)


def row_to_dict(r: FeatureRow) -> dict:
    """One feature row as a JSON object: instance, family, the five
    features and whichever extras the row has, in COLUMNS order."""
    v = r.vector
    entry = {"instance": r.instance, "family": r.family}
    entry.update((n, getattr(v, n)) for n in FEATURE_NAMES)
    entry.update((n, v.extras[n]) for n in EXTRA_NAMES if n in v.extras)
    return entry
