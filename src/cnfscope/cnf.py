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


def _tautological(clause) -> bool:
    """Whether a clause of distinct literals holds some l and -l."""
    return len(set(map(abs, clause))) < len(clause)


def _normalized(num_vars: int, clauses, error=ValueError, label="clause"
                ) -> tuple[tuple[Clause, ...], tuple[str, ...]]:
    """Collapse duplicate literals (first occurrences kept, in order) and
    range-check the result. Returns the clauses and their warnings, in clause
    order: duplicates collapsed, then tautologies (kept)."""
    out, warns = [], []
    for ci, raw in enumerate(clauses):
        clause = tuple(dict.fromkeys(raw))
        if len(clause) < len(raw):
            warns.append(f"clause {ci}: duplicate literal collapsed")
        if _tautological(clause):
            warns.append(f"clause {ci}: tautological (kept)")
        out.append(clause)
    bad = next(((ci, lit) for ci, clause in enumerate(out) for lit in clause
                if lit == 0 or abs(lit) > num_vars), None)
    if bad:
        raise error(f"literal {bad[1]} out of range in {label} {bad[0]} "
                    f"(n={num_vars})")
    return tuple(out), tuple(warns)


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

    def literal_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(lengths, literals): each clause's length and all literals in
        clause order, as int64 arrays, built afresh on each call."""
        lengths = np.fromiter(map(len, self.clauses), dtype=np.int64,
                              count=len(self.clauses))
        flat = np.fromiter(chain.from_iterable(self.clauses), dtype=np.int64,
                           count=int(lengths.sum()))
        return lengths, flat

    @cached_property
    def clause_vars(self) -> tuple[np.ndarray, np.ndarray]:
        """Clause-to-variable incidence in CSR form, (indptr, vars): the
        distinct 0-based variables of clause i, ascending, are
        vars[indptr[i]:indptr[i + 1]]."""
        m, n = len(self.clauses), max(self.num_vars, 1)
        lengths, flat = self.literal_arrays()
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
        return tuple(ci for ci, c in enumerate(self.clauses) if _tautological(set(c)))

    @classmethod
    def from_clauses(cls, num_vars: int, clauses) -> "CnfFormula":
        """Normalize and validate raw clauses (lists of literals)."""
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        return cls(num_vars, *_normalized(num_vars, map(tuple, clauses)))


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
    data = source if isinstance(source, (str, bytes)) else source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def _read_blocks(text: str, tag: str, what: str, error
                 ) -> list[tuple[str, list[list[int]]]]:
    """Split DIMACS-style text into blocks: each directive line (one starting
    with `tag`) with the 0-terminated clauses that follow it. Blank and `c`
    lines are skipped, and a line starting with `%` ends the input, as in
    SATLIB files. Malformed clause data raises `error`; `what` names the
    directive in its messages."""
    blocks: list[tuple[str, list[int]]] = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0][0] == "c":
            continue
        if tokens[0][0] == "%":
            break
        if tokens[0].startswith(tag):
            blocks.append((line.strip(), []))
            continue
        if not blocks:
            raise error(f"clause data before {what}")
        try:
            blocks[-1][1].extend(map(int, tokens))
        except ValueError:
            for tok in tokens:
                try:
                    int(tok)
                except ValueError:
                    raise error(f"bad token {tok!r}") from None
    out = []
    for i, (line, lits) in enumerate(blocks):
        clauses, start = [], 0
        for end in [j for j, lit in enumerate(lits) if not lit]:
            clauses.append(lits[start:end])
            start = end + 1
        if start < len(lits):
            raise error(f"clause not terminated by 0 before {what}"
                        if i + 1 < len(blocks) else "last clause not terminated by 0")
        out.append((line, clauses))
    return out


def _clause_lines(clauses) -> str:
    return "".join(" ".join(map(str, clause)) + " 0\n" for clause in clauses)


def parse_dimacs(source) -> CnfFormula:
    """Parse DIMACS CNF from a string, bytes, or file-like object.

    Duplicate literals within a clause are collapsed and tautological clauses
    are kept but flagged in formula.warnings. If the declared clause count
    disagrees with the actual one, the actual count wins and a warning is
    recorded. A line starting with `%` ends the formula, as in SATLIB files.
    """
    blocks = _read_blocks(_decode(source), "p", "'p cnf' header", DimacsError)
    if not blocks:
        raise DimacsError("missing 'p cnf' header")
    if len(blocks) > 1:
        raise DimacsError("duplicate header line")
    (header, raw), = blocks
    parts = header.split()
    try:
        num_vars, declared_m = map(int, parts[2:])
    except ValueError:
        num_vars = declared_m = -1
    if parts[:2] != ["p", "cnf"] or min(num_vars, declared_m) < 0:
        raise DimacsError(f"malformed header: {header!r}")
    clauses, warnings = _normalized(num_vars, raw, DimacsError)
    if declared_m != len(raw):
        warnings += (f"header declares {declared_m} clauses, found {len(raw)} "
                     "(actual count wins)",)
    return CnfFormula(num_vars, clauses, warnings)


def write_dimacs(f: CnfFormula) -> str:
    """Serialize to DIMACS text; parse_dimacs(write_dimacs(f)) == f."""
    return f"p cnf {f.num_vars} {f.num_clauses}\n" + _clause_lines(f.clauses)


# ---------------------------------------------------------------------------
# Trace I/O: lines `t <decision_count>` each followed by DIMACS-style clauses,
# with DIMACS comments and `%` trailer.


def parse_trace(source) -> ClauseTrace:
    checkpoints = []
    for line, clauses in _read_blocks(_decode(source), "t", "'t <decisions>' line",
                                      TraceError):
        tag, *fields = line.split()
        try:
            if tag != "t":
                raise ValueError
            k, = map(int, fields)
        except ValueError:
            raise TraceError(f"malformed checkpoint line: {line!r}") from None
        checkpoints.append((k, tuple(map(tuple, clauses))))
    return ClauseTrace(tuple(checkpoints))


def write_trace(trace: ClauseTrace) -> str:
    return "".join(f"t {k}\n" + _clause_lines(clauses)
                   for k, clauses in trace.checkpoints)


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


def _with_learnt(f: CnfFormula, trace: ClauseTrace, checkpoint: int,
                 replace=None) -> CnfFormula:
    """f plus the learnt clauses recorded at `checkpoint` (normalized, each
    mapped through `replace` when given), unit-propagated."""
    learnt, _ = _normalized(f.num_vars, trace.learnt_at(checkpoint),
                            label="learnt clause")
    if replace is not None:
        learnt = tuple(map(replace, learnt))
    result, _ = unit_propagate(CnfFormula(f.num_vars, f.clauses + learnt))
    return result


def augment_with_learnt(f: CnfFormula, trace: ClauseTrace, checkpoint: int) -> CnfFormula:
    """Add the learnt clauses recorded at `checkpoint`, then unit-propagate.

    Clauses are added verbatim (normalized, no deduplication against existing
    ones). Raises PropagationConflict when propagation hits a contradiction.
    """
    return _with_learnt(f, trace, checkpoint)


def random_replacement(f: CnfFormula, trace: ClauseTrace, checkpoint: int,
                       seed: int) -> CnfFormula:
    """Like augment_with_learnt, but each learnt clause is replaced by a fresh
    uniformly random clause of the same size before propagation."""
    rng = np.random.default_rng(seed)
    return _with_learnt(f, trace, checkpoint,
                        lambda c: _random_clause(rng, f.num_vars, len(c)))
