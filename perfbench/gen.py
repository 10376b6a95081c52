"""Seeded input generators for the benchmark.

The benchmark owns the seed: everything here is a pure function of its
arguments, and the program under test only ever receives the resulting
formulas, DIMACS files and trace files.
"""

from __future__ import annotations

import numpy as np

# Shape of the community-structured formulas: blocks of BLOCK_SIZE variables,
# occurrence counts ~ k**-ALPHA within a block, a CROSS share of clauses over
# uniform variables, and DEFECTS duplicate-literal plus DEFECTS tautological
# clauses.
BLOCK_SIZE, ALPHA, CROSS, DEFECTS = 500, 2.5, 0.05, 8
# Learnt clauses span variables within WINDOW of a centre; each checkpoint
# adds UNIT_PAIRS more pairs of units.
WINDOW, UNIT_PAIRS = 16, 2


def _redraw_duplicates(rows: np.ndarray, draw) -> np.ndarray:
    """Redraw every row that repeats a value until all rows are distinct."""
    while True:
        srt = np.sort(rows, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if not bad.any():
            return rows
        rows[bad] = draw(int(bad.sum()))


def community_clauses(n: int, m: int, seed: int) -> list[tuple[int, ...]]:
    """Community-structured clauses with power-law variable occurrences.

    The shape of demos/demo_structure_features.py, drawn in numpy: clause
    lengths are uniform in 2..5, most clauses stay inside one block of
    BLOCK_SIZE variables and draw from it by rank weights giving
    occurrence counts ~ k**-ALPHA, and a CROSS share of clauses picks
    uniform variables so the graph stays connected. Variable ids are then
    permuted so blocks are not contiguous id ranges. DEFECTS clauses get a
    repeated literal and DEFECTS others a complementary pair, so the parser
    has to collapse duplicates and flag tautologies.
    """
    rng = np.random.default_rng(seed)
    blocks = max(1, n // BLOCK_SIZE)
    per = n // blocks
    weights = np.arange(1, per + 1, dtype=np.float64) ** (-1.0 / (ALPHA - 1.0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    relabel = rng.permutation(n) + 1
    sizes = rng.integers(2, 6, size=m)
    clauses: list = [None] * m
    for size in range(2, 6):
        idx = np.nonzero(sizes == size)[0]
        count = idx.size
        if count == 0:
            continue
        is_cross = rng.random(count) < CROSS
        block = rng.integers(0, blocks, size=count)

        def in_block(k):
            return np.minimum(np.searchsorted(cdf, rng.random((k, size))), per - 1)

        ranks = _redraw_duplicates(in_block(count), in_block)
        vars_ = block[:, None] * per + ranks
        ncross = int(is_cross.sum())
        if ncross:
            def uniform(k):
                return rng.integers(0, n, size=(k, size))
            vars_[is_cross] = _redraw_duplicates(uniform(ncross), uniform)
        signs = rng.integers(0, 2, size=(count, size)) * 2 - 1
        lits = relabel[vars_] * signs
        for i, row in zip(idx.tolist(), lits.tolist()):
            clauses[i] = tuple(row)
    picked = rng.choice(m, size=2 * DEFECTS, replace=False).tolist()
    for i in picked[:DEFECTS]:
        clauses[i] = clauses[i] + (clauses[i][0],)
    for i in picked[DEFECTS:]:
        clauses[i] = clauses[i] + (-clauses[i][0],)
    return clauses


def learnt_checkpoints(clauses, n: int, sizes: tuple[int, ...], seed: int
                       ) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """Checkpoints of learnt-like clauses for `cnfscope evolution`.

    Checkpoint i holds the first sizes[i] clauses of one growing list, as a
    solver's learnt database grows. Each clause has 3..8 literals over
    variables within WINDOW of a random centre, so, like real learnt
    clauses, they are local. Each checkpoint also adds UNIT_PAIRS more
    pairs of units that falsify two literals of an original clause, so unit
    propagation forces its third literal and shortens the clauses around it.
    Decision counts are ten times the clause count.
    """
    rng = np.random.default_rng(seed)
    total = sizes[-1]
    lengths = rng.integers(3, 9, size=total)
    centres = rng.integers(0, n, size=total)
    offsets = np.argsort(rng.random((total, 2 * WINDOW + 1)), axis=1)[:, :8] - WINDOW
    vars_ = (centres[:, None] + offsets) % n + 1
    signs = rng.integers(0, 2, size=(total, 8)) * 2 - 1
    rows = (vars_ * signs).tolist()
    learnt = [tuple(row[:k]) for row, k in zip(rows, lengths.tolist())]

    units: list[tuple[int]] = []
    used: set[int] = set()
    for ci in rng.permutation(len(clauses)).tolist():
        if len(units) == 2 * UNIT_PAIRS * len(sizes):
            break
        clause = clauses[ci]
        if len(clause) < 3 or used & {abs(l) for l in clause}:
            continue
        used.update(abs(l) for l in clause)
        units += [(-clause[0],), (-clause[1],)]
    out = []
    for i, size in enumerate(sizes):
        out.append((10 * size,
                    tuple(learnt[:size]) + tuple(units[:2 * UNIT_PAIRS * (i + 1)])))
    return tuple(out)
