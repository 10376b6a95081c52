"""Variable occurrence statistics and power-law exponent estimation.

f(k) counts the variables occurring exactly k times. The exponent alpha of
the tail p(k) ~ k**-alpha is estimated by discrete maximum likelihood with a
half-integer offset, discarding up to five of the smallest k values and
keeping the candidate with the smallest KS-style error between the empirical
and the fitted tail distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnf import CnfFormula


@dataclass(frozen=True)
class OccurrenceHistogram:
    """Sorted occurrence counts: ks ascending, fs[i] variables occur ks[i]
    times. Variables with zero occurrences are excluded; total_vars is the
    formula's n."""

    ks: np.ndarray
    fs: np.ndarray
    total_vars: int

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=np.int64)
        fs = np.asarray(self.fs, dtype=np.int64)
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "fs", fs)
        if ks.size != fs.size:
            raise ValueError("ks and fs length mismatch")
        if ks.size and ((ks[1:] <= ks[:-1]).any() or ks[0] < 1):
            raise ValueError("ks must be strictly increasing and >= 1")
        if (fs < 1).any():
            raise ValueError("fs must be >= 1")
        if int(fs.sum()) > self.total_vars:
            raise ValueError("histogram counts more variables than total_vars")


@dataclass(frozen=True)
class AlphaFit:
    alpha: float
    k_min: int
    discarded: int
    ks_error: float


def occurrence_histogram(f: CnfFormula) -> OccurrenceHistogram:
    """Count occurrences of each variable over all clauses (a variable
    occurring with both polarities in a clause counts once)."""
    occ = np.bincount(f.clause_vars[1], minlength=f.num_vars)
    occ = occ[occ > 0]
    ks, fs = np.unique(occ, return_counts=True)
    return OccurrenceHistogram(ks, fs, f.num_vars)


def fit_alpha(h: OccurrenceHistogram, max_discard: int = 5) -> AlphaFit:
    """Most-likely power-law exponent of the occurrence tail.

    For each discard count t the head k values below the (t+1)-th smallest k
    are dropped, alpha is the discrete MLE over the remaining sample, and the
    error is the largest absolute gap between empirical and model tail CCDFs.
    The t with the smallest error wins, ties going to the smaller t.
    """
    ks = h.ks.astype(np.float64)
    fs = h.fs.astype(np.float64)
    best: AlphaFit | None = None
    for t in range(0, max_discard + 1):
        if ks.size - t < 2:
            break
        k_min = ks[t]
        tail_k = ks[t:]
        tail_f = fs[t:]
        sample = tail_f.sum()
        denom = float((tail_f * np.log(tail_k / (k_min - 0.5))).sum())
        alpha = 1.0 + float(sample) / denom
        emp = np.cumsum(tail_f[::-1])[::-1] / sample
        model = (tail_k / k_min) ** (-(alpha - 1.0))
        err = float(np.abs(emp - model).max())
        if best is None or err < best.ks_error:
            best = AlphaFit(alpha, int(k_min), t, err)
    if best is None:
        raise ValueError(
            "degenerate occurrence tail: need >= 2 distinct occurrence counts")
    return best

