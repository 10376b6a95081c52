"""CNF formulas: DIMACS I/O, random 3-CNF generation, unit propagation and
clause augmentation (learnt clauses from a solver trace, or random stand-ins).
"""

from __future__ import annotations

import bz2
import gzip
import lzma
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

Clause = tuple[int, ...]


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


class TraceError(ValueError):
    """Malformed learnt-clause trace."""


class PropagationConflict(Exception):
    """Unit propagation derived an empty clause (formula is UNSAT at level 0)."""

    def __init__(self, variable: int):
        super().__init__(f"unit propagation conflict on variable {variable}")
        self.variable = variable


def _normalize_clause(lits) -> tuple[Clause, bool, bool]:
    """Collapse duplicate literals, keeping first-occurrence order.

    Returns (clause, had_duplicates, is_tautological).
    """
    seen = set()
    out = []
    for lit in lits:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    taut = any(-lit in seen for lit in out)
    return tuple(out), len(out) < len(tuple(lits)), taut


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over variables 1..num_vars.

    Clauses are tuples of nonzero integer literals (sign = polarity). The
    direct constructor CnfFormula(num_vars, clauses, warnings=()) trusts its
    literals to be in range; use from_clauses() or parse_dimacs() to
    normalize and validate. Two views are derived from the clauses on first
    use and cached: `clause_vars`, the distinct variables of each clause,
    which the graph builders and the occurrence histogram read, and
    `tautological`, the indices of clauses holding a complementary literal
    pair (such a clause is kept, and counts each variable once).
    """

    num_vars: int
    clauses: tuple[Clause, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def ratio(self) -> float:
        """Clause/variable ratio m/n."""
        return len(self.clauses) / self.num_vars

    @cached_property
    def clause_vars(self) -> tuple[np.ndarray, np.ndarray]:
        """Clause-to-variable incidence in CSR form, (indptr, vars): the
        distinct 0-based variables of clause i, ascending, are
        vars[indptr[i]:indptr[i + 1]]."""
        m, n = len(self.clauses), max(self.num_vars, 1)
        lengths = np.fromiter(map(len, self.clauses), dtype=np.int64, count=m)
        flat = np.fromiter(chain.from_iterable(self.clauses), dtype=np.int64,
                           count=int(lengths.sum()))
        # clause-major keys arrive nearly sorted, which a stable sort exploits
        # and np.unique does not
        key = np.repeat(np.arange(m, dtype=np.int64) * n, lengths)
        key += np.abs(flat) - 1
        key.sort(kind="stable")
        clause_ids, vars_ = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(clause_ids, minlength=m), out=indptr[1:])
        return indptr, vars_

    @cached_property
    def tautological(self) -> tuple[int, ...]:
        """Indices of the clauses holding both some literal l and -l."""
        return tuple(ci for ci, c in enumerate(self.clauses)
                     if not set(c).isdisjoint([-lit for lit in c]))

    @classmethod
    def from_clauses(cls, num_vars: int, clauses) -> "CnfFormula":
        """Normalize and validate raw clauses (lists of literals)."""
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        norm = []
        warns = []
        for ci, raw in enumerate(clauses):
            raw = tuple(raw)
            for lit in raw:
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} out of range in clause {ci}")
            clause, had_dup, taut = _normalize_clause(raw)
            if had_dup:
                warns.append(f"clause {ci}: duplicate literal collapsed")
            if taut:
                warns.append(f"clause {ci}: tautological (kept)")
            norm.append(clause)
        return cls(num_vars, tuple(norm), tuple(warns))


@dataclass(frozen=True)
class ClauseTrace:
    """Learnt clauses recorded at solver decision checkpoints.

    checkpoints is a tuple of (decision_count, clauses) with strictly
    increasing decision counts.
    """

    checkpoints: tuple[tuple[int, tuple[Clause, ...]], ...]

    def __post_init__(self):
        counts = [k for k, _ in self.checkpoints]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise TraceError("checkpoint decision counts must be strictly increasing")

    @property
    def decision_counts(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.checkpoints)

    def learnt_at(self, checkpoint: int) -> tuple[Clause, ...]:
        for k, cls_ in self.checkpoints:
            if k == checkpoint:
                return cls_
        raise ValueError(
            f"checkpoint {checkpoint} not in trace (have {self.decision_counts})"
        )


# ---------------------------------------------------------------------------
# DIMACS I/O


_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open}


def read_input(path) -> bytes:
    """Raw bytes of a DIMACS or trace file. A `.gz`, `.bz2` or `.xz` suffix
    (any case) selects the matching decompressor."""
    opener = _OPENERS.get(Path(path).suffix.lower(), open)
    with opener(path, "rb") as fh:
        return fh.read()


def _decode(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data


def parse_dimacs(source) -> CnfFormula:
    """Parse DIMACS CNF from a string, bytes, or file-like object.

    Duplicate literals within a clause are collapsed and tautological clauses
    are kept but flagged in formula.warnings. If the declared clause count
    disagrees with the actual one, the actual count wins and a warning is
    recorded. A line starting with `%` ends the formula, as in SATLIB files.
    """
    text = _decode(source)
    num_vars = None
    declared_m = None
    lits_raw: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header line")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed header: {line!r}")
            try:
                num_vars = int(parts[2])
                declared_m = int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header: {line!r}") from None
            if num_vars < 0 or declared_m < 0:
                raise DimacsError(f"malformed header: {line!r}")
            continue
        if num_vars is None:
            raise DimacsError("clause data before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad token {tok!r}") from None
            if lit == 0:
                lits_raw.append(current)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(f"literal {lit} out of range (n={num_vars})")
                current.append(lit)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if current:
        raise DimacsError("last clause not terminated by 0")
    formula = CnfFormula.from_clauses(num_vars, lits_raw)
    if declared_m != len(lits_raw):
        extra = (f"header declares {declared_m} clauses, found {len(lits_raw)} "
                 "(actual count wins)",)
        formula = CnfFormula(formula.num_vars, formula.clauses,
                             formula.warnings + extra)
    return formula


def write_dimacs(f: CnfFormula) -> str:
    """Serialize to DIMACS text; parse_dimacs(write_dimacs(f)) == f."""
    lines = [f"p cnf {f.num_vars} {f.num_clauses}\n"]
    for clause in f.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# Trace I/O: lines `t <decision_count>` each followed by DIMACS-style clauses.


def parse_trace(source) -> ClauseTrace:
    text = _decode(source)
    checkpoints: list[tuple[int, list[Clause]]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("t"):
            if current:
                raise TraceError("clause not terminated by 0 before checkpoint line")
            parts = line.split()
            if len(parts) != 2:
                raise TraceError(f"malformed checkpoint line: {line!r}")
            try:
                k = int(parts[1])
            except ValueError:
                raise TraceError(f"malformed checkpoint line: {line!r}") from None
            checkpoints.append((k, []))
            continue
        if not checkpoints:
            raise TraceError("clause data before first 't <decisions>' line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise TraceError(f"bad token {tok!r}") from None
            if lit == 0:
                checkpoints[-1][1].append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        raise TraceError("last clause not terminated by 0")
    return ClauseTrace(tuple((k, tuple(cs)) for k, cs in checkpoints))


def write_trace(trace: ClauseTrace) -> str:
    lines = []
    for k, clauses in trace.checkpoints:
        lines.append(f"t {k}\n")
        for clause in clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# Random generation


def _distinct_rows(rng: np.random.Generator, n: int, count: int, width: int) -> np.ndarray:
    """count rows of `width` distinct variables in 1..n, uniform, by resampling."""
    if width > n:
        raise ValueError(f"cannot draw {width} distinct variables from 1..{n}")
    rows = rng.integers(1, n + 1, size=(count, width), dtype=np.int64)
    while True:
        srt = np.sort(rows, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        nbad = int(bad.sum())
        if nbad == 0:
            return rows
        rows[bad] = rng.integers(1, n + 1, size=(nbad, width), dtype=np.int64)


def random_3cnf(n: int, m: int, seed: int) -> CnfFormula:
    """Uniform random 3-CNF: m clauses of 3 distinct variables, random signs.

    Duplicate clauses across the formula are allowed. Deterministic per seed.
    """
    if n < 3:
        raise ValueError("random 3-CNF needs n >= 3")
    if m < 1:
        raise ValueError("m must be positive")
    rng = np.random.default_rng(seed)
    vars_ = _distinct_rows(rng, n, m, 3)
    signs = rng.integers(0, 2, size=(m, 3), dtype=np.int64) * 2 - 1
    lits = vars_ * signs
    clauses = tuple(map(tuple, lits.tolist()))
    return CnfFormula(n, clauses)


def _random_clause(rng: np.random.Generator, n: int, size: int) -> Clause:
    row = _distinct_rows(rng, n, 1, size)[0]
    signs = rng.integers(0, 2, size=size, dtype=np.int64) * 2 - 1
    return tuple((row * signs).tolist())


# ---------------------------------------------------------------------------
# Unit propagation


def unit_propagate(f: CnfFormula) -> tuple[CnfFormula, dict[int, bool]]:
    """Propagate unit clauses to fixpoint.

    Satisfied clauses are dropped, falsified literals removed, and the forced
    assignment returned. Raises PropagationConflict if an empty clause is
    derived.
    """
    clauses = [list(c) for c in f.clauses]
    alive = [True] * len(clauses)
    occ: dict[int, list[int]] = {}
    for ci, c in enumerate(clauses):
        for lit in c:
            occ.setdefault(abs(lit), []).append(ci)
    queue: deque[int] = deque()
    for c in clauses:
        if len(c) == 0:
            raise PropagationConflict(0)
        if len(c) == 1:
            queue.append(c[0])
    assignment: dict[int, bool] = {}
    while queue:
        lit = queue.popleft()
        var, val = abs(lit), lit > 0
        if var in assignment:
            if assignment[var] != val:
                raise PropagationConflict(var)
            continue
        assignment[var] = val
        for ci in occ.get(var, ()):
            if not alive[ci]:
                continue
            c = clauses[ci]
            if lit in c:
                alive[ci] = False
            elif -lit in c:
                c.remove(-lit)
                if not c:
                    raise PropagationConflict(var)
                if len(c) == 1:
                    queue.append(c[0])
    remaining = tuple(tuple(c) for ci, c in enumerate(clauses) if alive[ci])
    result = CnfFormula(f.num_vars, remaining)
    return result, assignment


# ---------------------------------------------------------------------------
# Augmentation


def _normalized_learnt(f: CnfFormula, learnt) -> list[Clause]:
    out = []
    for raw in learnt:
        for lit in raw:
            if lit == 0 or abs(lit) > f.num_vars:
                raise ValueError(f"learnt literal {lit} out of range (n={f.num_vars})")
        clause, _, _ = _normalize_clause(tuple(raw))
        out.append(clause)
    return out


def augment_with_learnt(f: CnfFormula, trace: ClauseTrace, checkpoint: int) -> CnfFormula:
    """Add the learnt clauses recorded at `checkpoint`, then unit-propagate.

    Clauses are added verbatim (normalized, no deduplication against existing
    ones). Raises PropagationConflict when propagation hits a contradiction.
    """
    learnt = _normalized_learnt(f, trace.learnt_at(checkpoint))
    combined = f.clauses + tuple(learnt)
    base = CnfFormula(f.num_vars, combined)
    result, _ = unit_propagate(base)
    return result


def random_replacement(f: CnfFormula, trace: ClauseTrace, checkpoint: int,
                       seed: int) -> CnfFormula:
    """Like augment_with_learnt, but each learnt clause is replaced by a fresh
    uniformly random clause of the same size before propagation."""
    learnt = _normalized_learnt(f, trace.learnt_at(checkpoint))
    rng = np.random.default_rng(seed)
    added = [_random_clause(rng, f.num_vars, len(c)) for c in learnt]
    combined = f.clauses + tuple(added)
    base = CnfFormula(f.num_vars, combined)
    result, _ = unit_propagate(base)
    return result
