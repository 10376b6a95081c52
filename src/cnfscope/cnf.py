"""CNF formulas: DIMACS I/O, random 3-CNF generation, unit propagation and
clause augmentation (learnt clauses from a solver trace, or random stand-ins).

A formula is two int64 arrays, each clause's length and all its literals in
clause order. The readers build them from the text in one pass, and the
writers, the normaliser and unit propagation work on them directly.
"""

from __future__ import annotations

import bz2
import gzip
import lzma
import re
from collections import deque
from collections.abc import Iterator
from dataclasses import FrozenInstanceError
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

Clause = tuple[int, ...]
_INT64 = np.iinfo(np.int64)
# the normaliser and the writers take the clauses in ranges of at most
# RANGE_LITERALS literals, so their temporaries stay small
RANGE_LITERALS = 2 ** 16
# the tokens int() reads, but for its digit limit
_DECIMAL = re.compile(r"[+-]?\d+(?:_\d+)*")


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


class TraceError(ValueError):
    """Malformed learnt-clause trace."""


class PropagationConflict(Exception):
    """Unit propagation derived an empty clause (formula is UNSAT at level 0)."""

    def __init__(self, variable: int):
        super().__init__(f"unit propagation conflict on variable {variable}")
        self.variable = variable


def _int64(value: int) -> bool:
    return _INT64.min <= value <= _INT64.max


def _head(lit, keep: int = 30) -> str:
    """The text of a token or an int literal cut to `keep` characters, "..."
    marking a cut; an int keeps its leading digits past str()'s limit."""
    if isinstance(lit, int):
        # bit_length * 3 // 10 never exceeds the digit count, so at least
        # 2 * keep leading digits survive the division
        drop = max(0, abs(lit).bit_length() * 3 // 10 - 2 * keep)
        lit = f"{'-' * (lit < 0)}{abs(lit) // 10 ** drop}"
    text = str(lit)
    return text if len(text) <= keep else text[:keep] + "..."


def _arrays(clauses) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, literals) int64 arrays of a sequence of clauses, each a
    sequence of int literals. A literal beyond int64 is a ValueError."""
    lengths = np.fromiter(map(len, clauses), np.int64, len(clauses))
    try:
        lits = np.fromiter(chain.from_iterable(clauses), np.int64,
                           int(lengths.sum()))
    except OverflowError:
        bad = next(lit for c in clauses for lit in c if not _int64(lit))
        raise ValueError(f"literal {_head(bad)} out of range") from None
    return lengths, lits


def _tuples(lengths: np.ndarray, lits: np.ndarray) -> tuple[Clause, ...]:
    flat = lits.tolist()
    ends = np.cumsum(lengths).tolist()
    return tuple([tuple(flat[a:b]) for a, b in zip([0, *ends], ends)])


def _clause_ids(lengths: np.ndarray) -> np.ndarray:
    """The clause of each literal; for any CSR array, the row of each
    element, given the row lengths."""
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal keys (sorted keys:
    of each distinct key)."""
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _literal_keys(lengths: np.ndarray, lits: np.ndarray
                  ) -> tuple[np.ndarray, int, np.ndarray | None]:
    """(key, span, ids): the keys 2 * (clause * span + variable) + (literal
    < 0) in clause order, 0-based variables: equal keys are equal literals of
    a clause, keys 2k, 2k + 1 a complementary pair. Where 2 * m * span would
    pass int64, ids holds the variables and the keys their ranks in it."""
    var = np.abs(lits) - 1
    ids = None
    span = int(var.max(initial=0)) + 1
    if 2 * max(lengths.size, 1) * span > _INT64.max:
        ids, var = np.unique(var, return_inverse=True)
        span = ids.size
    key = _clause_ids(lengths)
    key *= span
    key += var
    key *= 2
    key += lits < 0
    return key, span, ids


def _row_ranges(indptr: np.ndarray, limit: int):
    """Consecutive row ranges (r0, r1) of a CSR array, each of at most
    `limit` elements (a longer row is a range of its own)."""
    rows = indptr.size - 1
    r0 = 0
    while r0 < rows:
        r1 = max(r0 + 1, int(indptr.searchsorted(indptr[r0] + limit, "right")) - 1)
        yield r0, r1
        r0 = r1


def _normalized(num_vars: int, lengths: np.ndarray, lits: np.ndarray,
                error=ValueError, label="clause"
                ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Range-check raw clauses, given as (lengths, literals) arrays, and
    collapse duplicate literals (first occurrences kept, in order). Returns
    the arrays and their warnings, in clause order: duplicates collapsed,
    then tautologies (kept). The clauses go in ranges of at most
    RANGE_LITERALS literals, so the temporaries stay small."""
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    flags, drop, shrink = [], [], []
    for c0, c1 in _row_ranges(indptr, RANGE_LITERALS):
        lo, hi = indptr[c0], indptr[c1]
        part = lits[lo:hi]
        bad = (part == 0) | (part < -num_vars) | (part > num_vars)
        if bad.any():
            i = lo + int(bad.argmax())
            ci = c0 + int(np.searchsorted(indptr[c0 + 1:c1 + 1], i, side="right"))
            raise error(f"literal {lits[i]} out of range in {label} {ci} "
                        f"(n={num_vars})")
        key = _literal_keys(lengths[c0:c1], part)[0]
        srt = np.sort(key)
        step = np.diff(srt)
        # the sorted literals stay grouped by clause, so position i + 1 of
        # the sorted order lies in clause ids[i]
        ids = _clause_ids(lengths[c0:c1])[1:] + c0
        dup = step == 0
        taut = (step == 1) & (srt[:-1] % 2 == 0)
        flags += sorted([(ci, 0) for ci in set(ids[dup].tolist())]
                        + [(ci, 1) for ci in set(ids[taut].tolist())])
        if dup.any():
            # every occurrence of a repeated literal but its first
            pos = np.flatnonzero(np.isin(key, srt[1:][dup]))
            pos = pos[np.argsort(key[pos], kind="stable")]
            drop.append(pos[~run_starts(key[pos])] + lo)
            shrink.append(ids[dup])
    if drop:
        keep = np.ones(lits.size, dtype=bool)
        keep[np.concatenate(drop)] = False
        lits = lits[keep]
        lengths = lengths - np.bincount(np.concatenate(shrink),
                                        minlength=lengths.size)
    texts = ("duplicate literal collapsed", "tautological (kept)")
    return (lengths, lits,
            tuple(f"clause {ci}: {texts[k]}" for ci, k in flags))


class CnfFormula:
    """A CNF formula over variables 1..num_vars.

    The formula is stored as two read-only int64 arrays, returned by
    literal_arrays(): each clause's length, and all literals in clause order
    (sign = polarity). The direct constructor
    CnfFormula(num_vars, clauses, warnings=()) takes the clauses as tuples of
    literals and trusts them to be in range; use from_clauses() or
    parse_dimacs() to normalize and validate. `clauses` is a tuple view of
    the arrays, built on each access and never kept. Two views are derived
    on first use and cached: `clause_vars`, the distinct variables of each
    clause, which the graph builders and the occurrence histogram read, and
    `tautological`, the indices of clauses holding a complementary literal
    pair (such a clause is kept, and counts each variable once).

    Formulas are immutable. Two are equal (and hash alike) when num_vars and
    the arrays are; warnings do not count.
    """

    def __init__(self, num_vars: int, clauses, warnings: tuple[str, ...] = ()):
        self._set(num_vars, *_arrays(tuple(clauses)), warnings)

    @classmethod
    def from_arrays(cls, num_vars: int, lengths: np.ndarray, lits: np.ndarray,
                    warnings: tuple[str, ...] = ()) -> "CnfFormula":
        """A formula owning the given int64 (lengths, literals) arrays,
        trusted like the direct constructor."""
        f = cls.__new__(cls)
        f._set(num_vars, lengths, lits, warnings)
        return f

    def _set(self, num_vars, lengths, lits, warnings) -> None:
        lengths.flags.writeable = lits.flags.writeable = False
        for name, value in (("num_vars", num_vars), ("warnings", tuple(warnings)),
                            ("_lengths", lengths), ("_lits", lits)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and np.array_equal(self._lengths, other._lengths)
                and np.array_equal(self._lits, other._lits))

    def __hash__(self):
        return hash((self.num_vars, self._lengths.tobytes(), self._lits.tobytes()))

    def __repr__(self):
        return (f"CnfFormula(num_vars={self.num_vars!r}, "
                f"clauses={self.clauses!r}, warnings={self.warnings!r})")

    @property
    def clauses(self) -> tuple[Clause, ...]:
        return _tuples(self._lengths, self._lits)

    @property
    def num_clauses(self) -> int:
        return self._lengths.size

    @property
    def ratio(self) -> float:
        """Clause/variable ratio m/n."""
        return self._lengths.size / self.num_vars

    def literal_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(lengths, literals): each clause's length and all literals in
        clause order, the formula's own read-only int64 arrays."""
        return self._lengths, self._lits

    @cached_property
    def clause_vars(self) -> tuple[np.ndarray, np.ndarray]:
        """Clause-to-variable incidence in CSR form, (indptr, vars): the
        distinct 0-based variables of clause i, ascending, are
        vars[indptr[i]:indptr[i + 1]]."""
        m = self._lengths.size
        # one plain sort of the keys clause * span + variable, deduped
        key, span, ids = _literal_keys(self._lengths, self._lits)
        key >>= 1
        key.sort()
        key = key[run_starts(key)]
        clause = key // span
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(clause, minlength=m), out=indptr[1:])
        clause *= span
        key -= clause
        return indptr, key if ids is None else ids[key]

    @cached_property
    def tautological(self) -> tuple[int, ...]:
        """Indices of the clauses holding both some literal l and -l."""
        key, span, _ = _literal_keys(self._lengths, self._lits)
        key.sort()
        pair = (np.diff(key) == 1) & (key[:-1] % 2 == 0)
        # the keys are sorted, so the clause ids of the pairs are too
        ids = key[1:][pair] // (2 * span)
        return tuple(ids[run_starts(ids)].tolist())

    @classmethod
    def from_clauses(cls, num_vars: int, clauses) -> "CnfFormula":
        """Normalize and validate raw clauses (lists of literals)."""
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        raw = _arrays(tuple(map(tuple, clauses)))
        return cls.from_arrays(num_vars, *_normalized(num_vars, *raw))


class ClauseTrace:
    """Learnt clauses recorded at solver decision checkpoints.

    ClauseTrace(((decision_count, clauses), ...)) takes tuple clauses, the
    counts strictly increasing, and keeps each checkpoint as a CnfFormula
    over its largest variable: `checkpoints` and learnt_at() are tuple views,
    built on each access. Traces are immutable, equal and hashed by value."""

    def __init__(self, checkpoints):
        self._set([(k, _arrays(tuple(clauses))) for k, clauses in checkpoints])

    def _set(self, checkpoints) -> None:
        # checkpoints: (decision_count, (lengths, literals)) int64 arrays
        if any(b <= a for (a, _), (b, _) in zip(checkpoints, checkpoints[1:])):
            raise TraceError("checkpoint decision counts must be strictly increasing")
        # the largest variable in Python ints: np.abs(-2**63) wraps
        object.__setattr__(self, "_learnt", {k: CnfFormula.from_arrays(
            max(int(lits.max(initial=0)), -int(lits.min(initial=0))), lengths, lits)
            for k, (lengths, lits) in checkpoints})

    __setattr__ = CnfFormula.__setattr__

    def __eq__(self, other):
        return isinstance(other, ClauseTrace) and self._learnt == other._learnt

    def __hash__(self):
        return hash(tuple(self._learnt.items()))

    def __repr__(self):
        return f"ClauseTrace(checkpoints={self.checkpoints!r})"

    @property
    def checkpoints(self) -> tuple[tuple[int, tuple[Clause, ...]], ...]:
        return tuple((k, f.clauses) for k, f in self._learnt.items())

    @property
    def decision_counts(self) -> tuple[int, ...]:
        return tuple(self._learnt)

    def learnt_at(self, checkpoint: int) -> tuple[Clause, ...]:
        return self._at(checkpoint).clauses

    def _at(self, checkpoint: int) -> CnfFormula:
        if checkpoint in self._learnt:
            return self._learnt[checkpoint]
        raise ValueError(f"checkpoint {checkpoint} not in trace "
                         f"(have {self.decision_counts})")


# ---------------------------------------------------------------------------
# DIMACS I/O


_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open}


def read_input(path) -> bytes:
    """Raw bytes of a DIMACS or trace file, decompressed per a `.gz`, `.bz2`
    or `.xz` suffix (any case); truncated or corrupt data is an OSError.
    Every OSError names the path once."""
    opener = _OPENERS.get(Path(path).suffix.lower(), open)
    try:
        with opener(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        if exc.filename is not None:  # open's own errors name it already
            raise
        # gzip and bz2 reject garbage this way: "Invalid data stream"
        raise OSError(f"{path}: {exc}") from None
    except (EOFError, lzma.LZMAError) as exc:
        raise OSError(f"{path}: corrupt or truncated input ({exc})") from None


# The reader takes the input as bytes, in chunks of about CHUNK_BYTES that
# end at a line end, its bytes classed by _CLASS: 0 digit, 1 other ink (a
# byte >= 0x80 too), 2 blank (space, tab, \x1f) and 3 line break (\n, \r,
# \v, \f, \x1c-\x1e: the ASCII breaks of str.splitlines).
CHUNK_BYTES = 2 ** 18
_CLASS = np.ones(256, dtype=np.uint8)
_CLASS[48:58] = 0
_CLASS[list(b" \t\x1f")] = 2
_CLASS[list(b"\n\r\v\f\x1c\x1d\x1e")] = 3
_DIGIT = np.zeros(256, dtype=np.int64)
_DIGIT[48:58] = np.arange(10)
# a plain token is an optional "-" and at most this many digits: within int64
_PLAIN_DIGITS = 18


class _Blocks:
    """The blocks of DIMACS-style input, filled as it is read: each
    directive line with the (lengths, literals) arrays of the clauses that
    follow it. All literals go into one int64 array, grown to the literals
    per byte read so far over the whole input and trimmed at the end; no
    view of it exists before blocks() returns, so it is resized in place
    without a reference check."""

    def __init__(self, size: int, tag: str, what: str, error):
        self.size, self.tag, self.what, self.error = size, tag, what, error
        self.lits = np.empty(0, dtype=np.int64)
        self.n = self.m = 0        # literals and clauses read
        self.lengths = []          # the clause lengths, one array per chunk
        self.heads = []            # per block: its line, first literal, first clause
        self.open = []             # per block: literals after its last 0
        self.stopped = False       # a % line ended the input

    def tokens(self, toks: np.ndarray, done: int, words=None) -> None:
        """Clause data as int64 tokens, 0 ending a clause, read up to byte
        `done` of the input. words, when given, is (indices, texts): the
        tokens at those indices are read from their texts by int()."""
        if not toks.size:
            return
        if not self.heads:
            raise self.error(f"clause data before {self.what}")
        if words is not None:
            toks[words[0]] = _tokens(words[1], self.error)
        ends = np.flatnonzero(toks == 0)
        lits = toks[toks != 0]
        end = self.n + lits.size
        if end > self.lits.size:
            self.lits.resize(end * self.size // done + end // 16, refcheck=False)
        self.lits[self.n:end] = lits
        self.n = end
        if not ends.size:
            self.open[-1] += toks.size
            return
        lengths = np.diff(ends, prepend=-1) - 1
        lengths[0] += self.open[-1]
        self.open[-1] = toks.size - 1 - int(ends[-1])
        self.lengths.append(lengths)
        self.m += lengths.size

    def head(self, line: str) -> None:
        self.heads.append((line, self.n, self.m))
        self.open.append(0)

    def blocks(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        for i, rest in enumerate(self.open):
            if rest:
                raise self.error(f"clause not terminated by 0 before {self.what}"
                                 if i + 1 < len(self.open)
                                 else "last clause not terminated by 0")
        self.lits.resize(self.n, refcheck=False)
        lengths = np.concatenate([np.empty(0, dtype=np.int64), *self.lengths])
        bounds = [*self.heads[1:], (None, self.n, self.m)]
        return [(line, lengths[m0:m1], self.lits[n0:n1])
                for (line, n0, m0), (_, n1, m1) in zip(self.heads, bounds)]


def _read_blocks(source, tag: str, what: str, error
                 ) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Split DIMACS-style input (bytes, str or a file-like object) into
    blocks: each directive line (one starting with `tag`) with the (lengths,
    literals) arrays of the 0-terminated clauses that follow it. The input
    is read as bytes, a str encoded as UTF-8 first. Blank and `c` lines are
    skipped, and a line starting with `%` ends the input, as in SATLIB
    files. Blanks and line breaks are the ASCII ones of _CLASS. A token is
    whatever int() reads of its ASCII text, within int64. A byte >= 0x80
    reads as \\xNN there and in a directive line, which no token and no
    directive accepts; comment lines, and whatever follows a `%` line, may
    hold any bytes. Malformed clause data raises `error`; `what` names the
    directive in its messages."""
    data = source if isinstance(source, (str, bytes)) else source.read()
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    out = _Blocks(len(data), tag, what, error)
    buf = np.frombuffer(data, dtype=np.uint8)
    a, mid = 0, False
    while a < len(data) and not out.stopped:
        z, in_line = _chunk_end(data, buf, a, mid)
        _read_plain(out, buf[a:z], z, mid)
        a, mid = z, in_line
    return out.blocks()


def _chunk_end(data: bytes, buf: np.ndarray, a: int, mid: bool
               ) -> tuple[int, bool]:
    """The end of the chunk starting at byte a (within a line when mid),
    and whether it ends within a line: just past the last \\n or \\r in the
    next CHUNK_BYTES bytes. Without one there, a line of clause data (led
    by a digit, "-" or "+", or the line the last chunk cut) is cut past
    its last blank there, so no line costs more than a chunk to read; any
    other line runs to the first \\n or \\r after them."""
    z = a + CHUNK_BYTES
    if z >= len(data):
        return len(data), False
    cut = max(data.rfind(b"\n", a, z), data.rfind(b"\r", a, z))
    if cut >= 0:
        return cut + 1, False
    window = buf[a:z]
    cls = _CLASS[window]
    breaks = np.flatnonzero(cls == 3)
    start = int(breaks[-1]) + 1 if breaks.size else 0   # of the last line
    if start or not mid:
        # a line that starts in the window is cut past its lead only
        lead = start + np.flatnonzero(cls[start:] < 2)[:1]
        start = int(lead[0]) if lead.size and (
            cls[lead[0]] == 0 or window[lead[0]] in b"-+") else cls.size
    blanks = np.flatnonzero(cls[start:] == 2)
    if blanks.size:
        return a + start + int(blanks[-1]) + 1, True
    cut = min([i for i in (data.find(b"\n", z), data.find(b"\r", z)) if i >= 0],
              default=len(data) - 1)
    return cut + 1, False


def _read_plain(out: _Blocks, b: np.ndarray, done: int, mid: bool) -> None:
    """Read a chunk of the input into out; when mid, its first line goes on
    a line of clause data. Plain tokens (an optional "-" and 1 to
    _PLAIN_DIGITS digits) are decoded with array arithmetic; any other
    token is read from its _ascii text by int()."""
    cls = _CLASS[b]
    starts, ends = _token_bounds(cls)
    lead = b[starts]
    cand = np.flatnonzero((lead == ord("c")) | (lead == ord("%"))
                          | (lead == ord(out.tag)))
    heads, stop = [], False
    if cand.size:
        # a candidate token leads its line when a line break lies between
        # it and the token before, or the chunk starts its line; such a line
        # is blanked once read
        brk = np.append(np.flatnonzero(cls == 3), b.size)
        line = np.searchsorted(brk, starts[cand])
        first = np.where(cand == 0, (line > 0) | (not mid),
                         np.searchsorted(brk, ends[cand - 1]) < line)
        for p, end in zip(starts[cand[first]].tolist(), brk[line[first]].tolist()):
            if b[p] == ord("%"):
                cls[p:] = 2
                stop = True
                break
            if b[p] == ord(out.tag):
                heads.append((p, _ascii(b[p:end]).strip()))
            cls[p:end] = 2
        starts, ends = _token_bounds(cls)
        lead = b[starts]
    neg = lead == ord("-")
    digits = ends - starts - neg
    odd = None
    # plain clause data (each non-digit the sign of a signed token) skips the
    # search for odd tokens: those with other ink, no digit or too many
    # digits, which int() reads and the digit loop skips
    if starts.size and (digits.min() < 1 or digits.max() > _PLAIN_DIGITS
                        or np.count_nonzero(cls == 1) != np.count_nonzero(neg)):
        cls[starts[neg]] = 0
        odd = (digits < 1) | (digits > _PLAIN_DIGITS)
        odd[np.searchsorted(starts, np.flatnonzero(cls == 1), "right") - 1] = True
        odd = np.flatnonzero(odd)
        digits[odd] = 1
    toks = _DIGIT[b[ends - 1]]
    pos = ends - 1
    for k in range(1, int(digits.max(initial=0))):
        pos -= 1
        d = _DIGIT[b.take(pos, mode="clip")]
        d *= digits > k
        d *= 10 ** k
        toks += d
    np.negative(toks, out=toks, where=neg)
    at = 0
    for p, line in [*heads, (b.size, None)]:
        cut = int(np.searchsorted(starts, p))
        words = None
        if odd is not None:
            i = odd[(odd >= at) & (odd < cut)]
            words = i - at, [_ascii(b[s:e]) for s, e in
                             zip(starts[i].tolist(), ends[i].tolist())]
        out.tokens(toks[at:cut], done, words)
        if line is not None:
            out.head(line)
        at = cut
    out.stopped = stop


def _ascii(b: np.ndarray) -> str:
    """The bytes as ASCII text, a byte >= 0x80 as \\xNN."""
    return b.tobytes().decode("ascii", "backslashreplace")


def _token_bounds(cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the runs of ink bytes (classes 0 and 1)."""
    ink = np.zeros(cls.size + 2, dtype=bool)
    np.less(cls, 2, out=ink[1:-1])
    bounds = np.flatnonzero(ink[1:] != ink[:-1])
    return bounds[::2], bounds[1::2]


def _tokens(tokens: list[str], error) -> np.ndarray:
    """The tokens as an int64 array. The first token that int() rejects is
    a bad token, and one beyond int64 or int()'s digit limit out of range."""
    try:
        return np.fromiter(map(int, tokens), np.int64, len(tokens))
    except (ValueError, OverflowError):
        for tok in tokens:
            try:
                if _int64(int(tok)):
                    continue
            except ValueError:
                if not _DECIMAL.fullmatch(tok):
                    raise error(f"bad token {_head(repr(tok))}") from None
            raise error(f"literal {_head(tok)} out of range") from None
        raise


def _clause_text(lengths: np.ndarray, lits: np.ndarray) -> Iterator[str]:
    """The DIMACS clause lines of the clauses, RANGE_LITERALS literals at a
    time."""
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    for c0, c1 in _row_ranges(indptr, RANGE_LITERALS):
        yield _clause_lines(lengths[c0:c1], lits[indptr[c0]:indptr[c1]])


def _clause_lines(lengths: np.ndarray, lits: np.ndarray) -> str:
    """DIMACS clause lines: the literals of each clause, then " 0\n".

    Every token (the terminating 0s included) is one row of a byte matrix:
    its digits right-aligned, a sign or the space before an empty clause's
    0, and a separator in the last column; the used cells, read row by row,
    are the text."""
    ends = np.cumsum(lengths)
    toks = np.insert(lits, ends, 0)
    zero = np.zeros(toks.size, dtype=bool)
    zero[ends + np.arange(ends.size)] = True
    mag = np.abs(toks).astype(np.uint64)     # |-2**63| wraps back in uint64
    ndig = np.ones(toks.size, dtype=np.int64)
    top, p = int(mag.max(initial=0)), 10
    while p <= top:
        ndig += mag >= p
        p *= 10
    width = int(ndig.max(initial=1)) + 2
    chars = np.empty((toks.size, width), dtype=np.uint8)
    for j in range(width - 2, -1, -1):
        rest = mag // np.uint64(10)
        chars[:, j] = mag - rest * np.uint64(10)
        mag = rest
    chars += ord("0")
    chars[:, -1] = np.where(zero, ord("\n"), ord(" "))
    lead = (toks < 0) | (zero & np.repeat(lengths == 0, lengths + 1))
    rows = np.flatnonzero(lead)
    chars[rows, width - 2 - ndig[rows]] = np.where(toks[rows] < 0, ord("-"), ord(" "))
    used = np.arange(width) >= (width - 1 - ndig - lead)[:, None]
    return chars[used].tobytes().decode("ascii")


def parse_dimacs(source) -> CnfFormula:
    """Parse DIMACS CNF from bytes, a string, or a file-like object.

    The format is ASCII: a str is read as its UTF-8 bytes, and a byte >=
    0x80 outside comment lines is a bad token or a malformed header.
    Duplicate literals within a clause are collapsed and tautological clauses
    are kept but flagged in formula.warnings. If the declared clause count
    disagrees with the actual one, the actual count wins and a warning is
    recorded. A line starting with `%` ends the formula, as in SATLIB files.
    """
    blocks = _read_blocks(source, "p", "'p cnf' header", DimacsError)
    if not blocks:
        raise DimacsError("missing 'p cnf' header")
    if len(blocks) > 1:
        raise DimacsError("duplicate header line")
    (header, lengths, lits), = blocks
    parts = header.split()
    try:
        num_vars, declared_m = map(int, parts[2:])
    except ValueError:
        num_vars = declared_m = -1
    if parts[:2] != ["p", "cnf"] or min(num_vars, declared_m) < 0:
        raise DimacsError(f"malformed header: {_head(repr(header))}")
    lengths, lits, warnings = _normalized(num_vars, lengths, lits, DimacsError)
    if declared_m != lengths.size:
        warnings += (f"header declares {declared_m} clauses, found {lengths.size} "
                     "(actual count wins)",)
    return CnfFormula.from_arrays(num_vars, lengths, lits, warnings)


def iter_dimacs(f: CnfFormula) -> Iterator[str]:
    """The DIMACS text of f in pieces: the header line, then the lines of
    one range of clauses at a time, to write to a file as they come."""
    yield f"p cnf {f.num_vars} {f.num_clauses}\n"
    yield from _clause_text(*f.literal_arrays())


def write_dimacs(f: CnfFormula) -> str:
    """Serialize to DIMACS text; parse_dimacs(write_dimacs(f)) == f."""
    return "".join(iter_dimacs(f))


# ---------------------------------------------------------------------------
# Trace I/O: lines `t <decision_count>` each followed by DIMACS-style clauses,
# with DIMACS comments and `%` trailer.


def parse_trace(source) -> ClauseTrace:
    checkpoints = []
    for line, lengths, lits in _read_blocks(
            source, "t", "'t <decisions>' line", TraceError):
        tag, *fields = line.split()
        try:
            if tag != "t":
                raise ValueError
            k, = map(int, fields)
        except ValueError:
            raise TraceError(f"malformed checkpoint line: {_head(repr(line))}") from None
        checkpoints.append((k, (lengths, lits)))
    trace = ClauseTrace.__new__(ClauseTrace)
    trace._set(checkpoints)
    return trace


def write_trace(trace: ClauseTrace) -> str:
    pieces = []
    for k, learnt in trace._learnt.items():
        pieces.append(f"t {k}\n")
        pieces.extend(_clause_text(*learnt.literal_arrays()))
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Random generation


def _distinct_rows(rng: np.random.Generator, n: int, count: int, width: int) -> np.ndarray:
    """count rows of `width` distinct variables in 1..n, uniform, by
    resampling: each pass redraws the rows that repeat a variable, in row
    order, and checks only those."""
    if width > n:
        raise ValueError(f"cannot draw {width} distinct variables from 1..{n}")
    rows = rng.integers(1, n + 1, size=(count, width), dtype=np.int64)
    redo = np.flatnonzero(_repeats(rows))
    while redo.size:
        new = rng.integers(1, n + 1, size=(redo.size, width), dtype=np.int64)
        rows[redo] = new
        redo = redo[_repeats(new)]
    return rows


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows holding some value twice, by comparing each pair of
    columns: no sorted copy of the rows."""
    bad = np.zeros(len(rows), dtype=bool)
    for j in range(1, rows.shape[1]):
        for i in range(j):
            bad |= rows[:, i] == rows[:, j]
    return bad


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
    # in place: no temporary of m rows beside the formula being built
    signs = rng.integers(0, 2, size=(m, 3), dtype=np.int64)
    signs *= 2
    signs -= 1
    vars_ *= signs
    del signs
    return CnfFormula.from_arrays(n, np.full(m, 3, dtype=np.int64),
                                  vars_.ravel())


def _random_clause(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """One clause of `size` distinct variables in 1..n, random signs: the
    draws of _distinct_rows(rng, n, 1, size) and its signs, one row redrawn
    whole while it repeats a variable."""
    if size > n:
        raise ValueError(f"cannot draw {size} distinct variables from 1..{n}")
    row = rng.integers(1, n + 1, size=size, dtype=np.int64)
    while len(set(row.tolist())) < size:
        row = rng.integers(1, n + 1, size=size, dtype=np.int64)
    signs = rng.integers(0, 2, size=size, dtype=np.int64) * 2 - 1
    return row * signs


# ---------------------------------------------------------------------------
# Unit propagation


def unit_propagate(f: CnfFormula) -> tuple[CnfFormula, dict[int, bool]]:
    """Propagate unit clauses to fixpoint.

    Satisfied clauses are dropped, falsified literals removed, and the forced
    assignment returned. Raises PropagationConflict if an empty clause is
    derived. Units are queued first in clause order, then as clauses become
    unit; each occurrence of a falsified literal (a repeated one too) is
    removed in turn.
    """
    lengths, lits = f.literal_arrays()
    if (lengths == 0).any():
        raise PropagationConflict(0)
    starts = np.cumsum(lengths) - lengths
    ids = _clause_ids(lengths)
    # the positions of variable v, in clause order, are occ[bounds[v]:bounds[v + 1]],
    # from one plain sort of the keys v * size + position
    occ = np.abs(lits)
    size = lits.size
    if (int(occ.max(initial=0)) + 1) * size > _INT64.max:
        raise MemoryError(f"{size} literals over {f.num_vars} variables are "
                          "too many to propagate")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(occ)))).tolist()
    occ *= size
    occ += np.arange(size)
    occ.sort()
    occ %= size
    live = lengths.tolist()              # literals left in each clause
    alive = [True] * lengths.size
    removed = bytearray(lits.size)
    queue = deque(lits[starts[lengths == 1]].tolist())
    assignment: dict[int, bool] = {}
    while queue:
        lit = queue.popleft()
        v, val = abs(lit), lit > 0
        if v in assignment:
            if assignment[v] != val:
                raise PropagationConflict(v)
            continue
        assignment[v] = val
        pos = occ[bounds[v]:bounds[v + 1]]
        clause = ids[pos]
        satisfied = set(clause[lits[pos] == lit].tolist())
        for p, ci in zip(pos.tolist(), clause.tolist()):
            if not alive[ci]:
                continue
            if ci in satisfied:
                alive[ci] = False
                continue
            removed[p] = True
            live[ci] -= 1
            if not live[ci]:
                raise PropagationConflict(v)
            if live[ci] == 1:
                start = int(starts[ci])
                rest = next(q for q in range(start, start + int(lengths[ci]))
                            if not removed[q])
                queue.append(int(lits[rest]))
    kept = np.array(alive, dtype=bool)
    keep = kept[ids] & ~np.frombuffer(removed, dtype=bool)
    result = CnfFormula.from_arrays(f.num_vars, np.array(live, dtype=np.int64)[kept],
                                    lits[keep])
    return result, assignment


# ---------------------------------------------------------------------------
# Augmentation


def _with_learnt(f: CnfFormula, trace: ClauseTrace, checkpoint: int,
                 replace=None) -> CnfFormula:
    """f plus the learnt clauses recorded at `checkpoint` (normalized, each
    replaced by replace(its number of distinct variables) when given),
    unit-propagated."""
    learnt = trace._at(checkpoint)
    lengths, lits, _ = _normalized(f.num_vars, *learnt.literal_arrays(),
                                   label="learnt clause")
    if replace is not None:
        # a tautological clause holds fewer distinct variables than
        # literals; clause_vars is read once the range check has passed,
        # as it takes np.abs of the literals, which wraps at -2**63
        lengths = np.diff(learnt.clause_vars[0])
        lits = np.concatenate([lits[:0], *map(replace, lengths.tolist())])
    base_lengths, base_lits = f.literal_arrays()
    result, _ = unit_propagate(CnfFormula.from_arrays(
        f.num_vars, np.concatenate((base_lengths, lengths)),
        np.concatenate((base_lits, lits))))
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
    uniformly random clause over as many distinct variables before
    propagation: a tautological clause's stand-in is shorter than it."""
    rng = np.random.default_rng(seed)
    return _with_learnt(f, trace, checkpoint,
                        lambda size: _random_clause(rng, f.num_vars, size))
