"""Graph models of a CNF formula (VIG, CVIG, CIG) plus BFS utilities.

Graphs are stored in CSR form with adjacency sorted by neighbor id, so that
degree-tie iteration downstream is canonical. Distances are unweighted hop
counts; edge weights only matter for modularity.
"""

from __future__ import annotations

import numpy as np

from .cnf import _INT64, CnfFormula, _clause_ids, _literal_keys, run_starts


class Graph:
    """Undirected weighted graph; no self-loops, no parallel edges; node ids
    0..node_count-1. Built without weights, `weights` is a read-only
    zero-stride view of one 1.0: the values, dtype and shape of ones."""

    __slots__ = ("node_count", "indptr", "indices", "weights", "variable_count")

    def __init__(self, node_count, indptr, indices, weights, variable_count):
        self.node_count = int(node_count)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.variable_count = int(variable_count)

    @classmethod
    def from_edges(cls, node_count: int, u, v, w=None) -> "Graph":
        """Build from parallel edge arrays.

        Coinciding edges collapse into one, whose weight is the sum of theirs
        (see _csr); without weights (w None) every retained edge weighs 1.
        Self-loops and node ids outside 0..node_count-1 are rejected, and so
        are u, v and w that are not 1-D arrays of one length.

        The edges are collapsed first as int64 keys lo * node_count + hi,
        sorted plainly without weights (several times faster than any
        argsort) and lexsorted by key and weight with them; both directions
        of the edges left then go to _csr."""
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        arrays = {"u": u, "v": v}
        if w is not None:
            arrays["w"] = w = np.asarray(w, dtype=np.float64)
        if any(a.ndim != 1 or a.shape != u.shape for a in arrays.values()):
            shapes = ", ".join(f"{k} {a.shape}" for k, a in arrays.items())
            raise ValueError(f"edge arrays must be 1-D of one length, got {shapes}")
        if u.size:
            if (u == v).any():
                raise ValueError("self-loops are not allowed")
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= node_count:
                bad = next(x for x in np.column_stack((u, v)).flat
                           if not 0 <= x < node_count)
                raise ValueError(f"node id {bad} out of range for {node_count} nodes")
        n = np.int64(node_count)
        key = np.minimum(u, v)
        key *= n
        key += np.maximum(u, v)
        if w is None:
            key.sort()
        else:
            # secondary sort on w keeps float summation order canonical
            order = np.lexsort((w, key))
            key, w = key[order], w[order]
        boundary = run_starts(key)
        if w is not None:
            w = np.add.reduceat(w, np.flatnonzero(boundary))
        key = key[boundary]
        del boundary
        # both directions of every edge: lo * n + hi, then hi * n + lo
        e = key.size
        buf = np.empty(2 * e, dtype=np.int64)
        np.divmod(key, n, out=(buf[:e], buf[e:]))
        buf[e:] *= n
        buf[e:] += buf[:e]
        buf[:e] = key
        del key
        if w is None:
            buf.sort()
        else:
            # the keys are distinct, so any sort gives the same order
            order = np.argsort(buf)
            buf = buf[order]
            w = np.concatenate((w, w))[order]
        return cls(node_count, *_csr(node_count, buf, w), node_count)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum()) / 2.0

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each undirected edge once, as (u, v, w) arrays with u < v."""
        src = _clause_ids(self.degrees)
        mask = src < self.indices
        return src[mask], self.indices[mask], self.weights[mask]


# ---------------------------------------------------------------------------
# Builders


def _csr(n: int, key: np.ndarray, w=None) -> tuple[np.ndarray, ...]:
    """(indptr, indices, weights) of n nodes from the sorted int64 keys
    src * n + dst of both directions of every edge, with weights w (None:
    unit) ascending within each run of equal keys.

    A run becomes one entry weighing np.add.reduceat's sum of its run, which
    does not add left to right: with three or more parallel weights it can
    differ from a left-to-right sum in the last bit, but the ascending order
    makes it canonical, the same for both directions of an edge. Without
    repeats the arrays are kept as they are; the keys become the columns in
    place, and unit weights are a read-only zero-stride view of one 1.0."""
    first = run_starts(key)
    if not first.all():
        if w is not None:
            w = np.add.reduceat(w, np.flatnonzero(first))
        key = key[first]
    del first
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    # each key less its row's base row * n is its column. floor_divide by a
    # scalar multiplies where % divides, so one small buffer of row bases
    # at a time takes half the time of key %= n, with no key-sized scratch
    base = np.empty(min(key.size, 1 << 13), dtype=np.int64)
    for a in range(0, key.size, base.size or 1):
        part, b = key[a:a + base.size], base[:key.size - a]
        part -= np.multiply(np.floor_divide(part, n, out=b), n, out=b)
    if w is None:
        w = np.broadcast_to(np.float64(1.0), key.shape)
    return indptr, key, w


def build_vig(f: CnfFormula, weighted: bool = False) -> Graph:
    """Variable incidence graph: one node per variable, edges between
    variables sharing a clause. Weighted mode spreads weight 1 over the
    C(k,2) pairs of each clause with k distinct variables.

    Each variable is paired with the later variables of its clause, all
    clauses at once, so a clause costs linear work in its pairs. Both
    directions of every pair go into one buffer of int64 keys u * n + v,
    sorted once, for _csr. A weighted pair weighs 1 / C(k, 2) by its clause
    size k alone, so the rank of k among the distinct sizes, largest first,
    is the lowest digit of its key: the one sort lays each edge's weights
    out ascending. The arrays are those Graph.from_edges builds."""
    n = f.num_vars
    indptr, vars_ = f.clause_vars
    sizes = np.diff(indptr)
    digits = 1
    if weighted:
        pairs = sizes * (sizes - 1) // 2
        # the pair counts of the distinct sizes, ascending: rank 0 goes to
        # the last, the largest clause and the smallest weight
        table = np.sort(pairs[pairs > 0])
        table = table[run_starts(table)]
        digits = max(table.size, 1)
    if n * n * digits > _INT64.max:   # the keys would overflow
        raise MemoryError(f"a VIG of {n} variables is too large")
    # the end of each variable's clause row, and the variables after it there
    ends = indptr[1:].repeat(sizes)
    later = ends - np.arange(1, vars_.size + 1)
    idx = row_ranges(ends, later)
    del ends
    key = np.empty(2 * idx.size, dtype=np.int64)
    lo, hi = np.split(key, 2)
    # hi holds v until it becomes v * n + u; mode "clip" writes to hi
    # directly, and the indices are in range anyway
    vars_.take(idx, out=hi, mode="clip")
    del idx
    u = vars_.repeat(later)
    del later
    np.multiply(u, n, out=lo)
    lo += hi
    hi *= n
    hi += u
    del u
    if weighted:
        key *= digits
        rank = (table.size - 1 - table.searchsorted(pairs)).repeat(pairs)
        lo += rank
        hi += rank
        del rank
    del lo, hi
    key.sort()
    w = None
    if weighted:
        w = (1.0 / table)[::-1][key % digits]
        key //= digits
    return Graph(n, *_csr(n, key, w), n)


def build_cvig(f: CnfFormula, weighted: bool = False) -> Graph:
    """Clause-variable incidence graph: bipartite, variable nodes 0..n-1
    followed by clause nodes n..n+m-1, one unweighted edge per occurrence;
    `weighted` True is a ValueError (False keeps build_vig's call shape).

    The edges are distinct already, so each clause row is its clause_vars
    row, and the variable rows come from one plain sort of the keys
    variable * m + clause."""
    if weighted:
        raise ValueError("the CVIG is built unweighted")
    n, m = f.num_vars, f.num_clauses
    if n * m > _INT64.max:   # the keys would overflow
        raise MemoryError(f"a CVIG of {n} variables and {m} clauses is too large")
    rows, vars_ = f.clause_vars
    size = vars_.size
    # the variable rows fill the first half of indices, and the second half
    # holds each key's variable until the clause rows overwrite it
    indices = np.empty(2 * size, dtype=np.int64)
    key, var = indices[:size], indices[size:]
    np.multiply(vars_, m, out=key)
    key += _clause_ids(np.diff(rows))
    key.sort()
    np.floor_divide(key, m, out=var)
    var *= m
    key -= var
    key += n
    var[:] = vars_
    indptr = np.empty(n + m + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(np.bincount(vars_, minlength=n), out=indptr[1:n + 1])
    np.add(rows[1:], size, out=indptr[n + 1:])
    weights = np.broadcast_to(np.float64(1.0), (2 * size,))
    return Graph(n + m, indptr, indices, weights, n)


def build_cig(f: CnfFormula) -> Graph:
    """Clause incidence graph: one node per clause, an edge when two clauses
    contain complementary occurrences of some variable. Unweighted.

    Both directions of every clause pair go into one buffer of int64 keys
    u * m + v, sorted once, for _csr, as in build_vig."""
    m = f.num_clauses
    key, span, _ = _literal_keys(*f.literal_arrays())
    # one key group * m + clause per (variable, polarity, clause)
    # occurrence; group 2v holds the clauses where variable v occurs
    # positively, 2v + 1 those where it occurs negatively. group < 2 * span,
    # so the key fits int64 whenever the literal key does
    clause, key = np.divmod(key, 2 * span)
    key *= m
    key += clause
    # a plain sort and a run mask: numpy's unique hashes int64, far slower
    key.sort()
    group, clause = np.divmod(key[run_starts(key)], m)
    del key
    # pair each positive occurrence with every negative one of its variable
    pos = group % 2 == 0
    negative = group[pos] + 1
    # occurrence k pairs with clause[ends_k - counts_k:ends_k]
    ends = np.searchsorted(group, negative, "right")
    counts = ends - np.searchsorted(group, negative, "left")
    del group, negative
    idx = row_ranges(ends, counts)
    del ends
    key = np.empty(2 * idx.size, dtype=np.int64)
    lo, hi = np.split(key, 2)
    clause.take(idx, out=hi, mode="clip")
    del idx
    u = clause[pos].repeat(counts)
    del clause, pos, counts
    np.multiply(u, m, out=lo)
    lo += hi
    hi *= m
    hi += u
    del u
    # a clause with both literals of a variable pairs with itself: u == v
    if (lo == hi).any():
        key = key[np.tile(lo != hi, 2)]
    del lo, hi
    key.sort()
    return Graph(m, *_csr(m, key), 0)


# ---------------------------------------------------------------------------
# BFS machinery


def row_ranges(ends: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index ranges ends[k] - counts[k] .. ends[k] - 1, concatenated: the
    positions of the rows of a CSR array that end at ends and hold counts."""
    # output position p of range k reads p + ends[k] - counts[:k + 1].sum()
    shift = counts.cumsum()
    np.subtract(ends, shift, out=shift)
    idx = shift.repeat(counts)
    idx += np.arange(idx.size)
    return idx


def gather_neighbors(g: Graph, frontier: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbor lists of all frontier nodes (with repeats), and
    the neighbour count of each frontier node. The lists are a new array,
    never a view of g.indices."""
    ends = g.indptr[frontier + 1]
    counts = ends - g.indptr[frontier]
    return g.indices[row_ranges(ends, counts)], counts


def bfs_layers(g: Graph, sources, seen: np.ndarray, token,
               max_depth: int | None = None) -> list[np.ndarray]:
    """Breadth-first layers from a set of sources, sources first.

    A node counts as visited when seen[node] == token; every node reached,
    sources included, is marked that way, so callers stamp repeated searches
    with fresh tokens instead of clearing seen. Layer 0 is the sources; layer
    k holds the nodes first reached after k hops, sorted and distinct, up to
    max_depth hops (no cap on None).

    A new layer is deduped by an in-place sort and a run mask (unique is
    several times slower on large layers).
    """
    frontier = np.asarray(sources, dtype=np.int64)
    seen[frontier] = token
    layers = [frontier]
    while max_depth is None or len(layers) <= max_depth:
        neigh, _ = gather_neighbors(g, frontier)
        fresh = neigh[seen[neigh] != token]
        if fresh.size == 0:
            break
        fresh.sort()
        frontier = fresh[run_starts(fresh)]
        seen[frontier] = token
        layers.append(frontier)
    return layers


def connected_components(g: Graph) -> tuple[int, np.ndarray]:
    """(component_count, component id per node); components are numbered in
    the order of their smallest nodes. One BFS per component with an edge;
    the isolated nodes are labelled in one step."""
    # comp[x] is first the smallest node of x's component, and doubles as
    # the visit marks: a neighbour of that node's component is either
    # unlabelled (-1) or already labelled with it
    comp = np.full(g.node_count, -1, dtype=np.int64)
    linked = g.degrees > 0
    for start in linked.nonzero()[0].tolist():
        if comp[start] == -1:
            bfs_layers(g, [start], comp, start)
    isolated = (~linked).nonzero()[0]
    comp[isolated] = isolated
    heads = comp == np.arange(g.node_count)
    ids = heads.cumsum() - 1
    return int(heads.sum()), ids[comp]
