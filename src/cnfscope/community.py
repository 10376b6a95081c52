"""Community structure: Newman-Girvan modularity of a partition and its
approximate maximization by graph folding (multilevel local moving over the
weighted VIG, with community aggregation between levels)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .cnf import _clause_ids, _row_ranges
from .graph import Graph, run_starts

# A level that raises Q by no more than MIN_GAIN ends a restart.
MIN_GAIN = 1e-6
# The move check of a drained queue (_flagged) and the row build of a level
# graph (_rows) take the nodes in ranges of at most CHECK_EDGES directed
# edges, so their temporaries stay small.
CHECK_EDGES = 2 ** 15
# Graphs of up to SMALL_GRAPH nodes are folded SMALL_GRAPH_RESTARTS times,
# each fold refined by one local moving pass over the input graph; larger
# ones are folded once, unrefined.
SMALL_GRAPH, SMALL_GRAPH_RESTARTS = 2000, 3


@dataclass(frozen=True)
class Partition:
    """Per-node community ids, contiguous 0..community_count-1."""

    assignment: np.ndarray
    community_count: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        cc = self.community_count
        if a.size:
            if a.min() < 0 or a.max() >= cc:
                raise ValueError("community ids out of range")
            if not (cc <= a.size and np.bincount(a, minlength=cc).all()):
                raise ValueError("community ids must be contiguous 0..count-1")
        elif cc != 0:
            raise ValueError("empty assignment with nonzero community count")

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Compact arbitrary labels to contiguous ids, by first appearance."""
        labels = np.asarray(labels, dtype=np.int64)
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(first))
        compact = rank[inverse]
        return cls(compact, int(rank.size))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(np.arange(n, dtype=np.int64), n)


def modularity(g: Graph, p: Partition) -> float:
    """Weighted Newman-Girvan modularity Q of the partition.

    Q = sum_c [w_in(c)/W - (s(c)/(2W))^2] with W the total edge weight,
    w_in the intra-community weight and s the community strength.
    """
    if p.assignment.size != g.node_count:
        raise ValueError(
            f"partition covers {p.assignment.size} nodes, graph has {g.node_count}")
    u, v, w = g.edge_arrays()
    total = float(w.sum())
    if total == 0.0:
        return 0.0
    labels = p.assignment
    cc = p.community_count
    intra = labels[u] == labels[v]
    w_in = np.bincount(labels[u[intra]], weights=w[intra], minlength=cc)
    strength = np.bincount(u, weights=w, minlength=g.node_count)
    strength += np.bincount(v, weights=w, minlength=g.node_count)
    s_c = np.bincount(labels, weights=strength, minlength=cc)
    return float((w_in / total).sum() - ((s_c / (2.0 * total)) ** 2).sum())


@dataclass(frozen=True)
class ModularityResult:
    """Outcome of fold_communities. q is recomputed from scratch on the flat
    partition; q_incremental is the sum of the accepted move gains. levels
    counts aggregations. passes counts local-moving rounds, summed over
    levels and, on a small graph, the refinement pass: each level's first
    round visits every node, a queue round the nodes queued by a move in
    the round before, and a flagged round the nodes the check of a drained
    queue found a better community for. The refinement pass starts at the
    check, so it adds no round when nothing moves, and no round only
    confirms that nothing moves."""

    q: float
    partition: Partition
    levels: int
    passes: int
    q_incremental: float


class _LevelGraph:
    """Working graph during folding: a Graph without self-loops plus a
    per-node self-loop weight (a self-loop of weight w adds w to w_in and 2w
    to strength), the node strengths and the total weight. It holds no
    rows: _local_moving builds a level's rows when its pass starts, so they
    are freed when the pass returns, before the level aggregates."""

    def __init__(self, g: Graph, selfw: np.ndarray):
        self.g = g
        self.selfw = selfw
        deg_w = np.zeros(g.node_count)
        nonempty = g.degrees > 0
        if g.weights.size:
            deg_w[nonempty] = np.add.reduceat(g.weights, g.indptr[:-1][nonempty])
        self.strength = deg_w + 2.0 * selfw
        self.total = g.total_weight + float(selfw.sum())

    def aggregate(self, labels: np.ndarray, n_comm: int) -> "_LevelGraph":
        u, v, w = self.g.edge_arrays()
        u, v = labels[u], labels[v]
        selfw = np.bincount(labels, weights=self.selfw, minlength=n_comm)
        loop = u == v
        if loop.any():
            selfw += np.bincount(u[loop], weights=w[loop], minlength=n_comm)
        keep = ~loop
        # only the kept edges, and no mask, live through from_edges
        u, v, w = u[keep], v[keep], w[keep]
        del loop, keep
        return _LevelGraph(Graph.from_edges(n_comm, u, v, w), selfw)


def _rows(g: Graph) -> tuple[list[tuple[int, ...]], list[tuple[float, ...]],
                             list[Callable]]:
    """The rows that _local_moving visits, (nbrs, ws, gets): per node a
    tuple of its neighbour ids and one of its edge weights, in CSR order,
    and a getter of its neighbours' communities. They are cut from one node
    range at a time, so the temporaries stay small, each row a slice of one
    tuple per range. Ids come from one object array of the node ids and
    weights from one of the distinct weights (a weighted VIG has few: two
    for a random 3-CNF at n=1e5), so the rows cost a pointer per directed
    edge in each of the two rows, and a row header and a getter per node.
    A getter called with the community list returns the row's communities
    as a tuple in CSR order: itemgetter(*row) keeps the row tuple it is
    called with, so it copies nothing. A node of degree 1 gets
    itemgetter(v, v), whose pair the weight zip cuts to one entry and whose
    second entry the gain loop finds already reset; one of degree 0 gets a
    function that returns ()."""
    ids = np.arange(g.node_count).astype(object)
    values = np.unique(g.weights)
    objects = values.astype(object)
    indptr = g.indptr.tolist()
    nbrs: list[tuple[int, ...]] = []
    ws: list[tuple[float, ...]] = []
    gets: list[Callable] = []
    for u0, u1 in _row_ranges(g.indptr, CHECK_EDGES):
        lo, hi = indptr[u0], indptr[u1]
        vs = tuple(ids[g.indices[lo:hi]].tolist())
        wv = tuple(objects[values.searchsorted(g.weights[lo:hi])].tolist())
        for a, b in zip(indptr[u0:u1], indptr[u0 + 1:u1 + 1]):
            row = vs[a - lo:b - lo]
            nbrs.append(row)
            ws.append(wv[a - lo:b - lo])
            gets.append(itemgetter(*row) if b - a > 1 else
                        itemgetter(row[0], row[0]) if row else _no_communities)
    return nbrs, ws, gets


def _no_communities(comm: list[int]) -> tuple[()]:
    return ()


def _flagged(lg: _LevelGraph, comm, sigma) -> np.ndarray:
    """Mask of the nodes with a single move that raises modularity, given
    the community of each node and the strength of each community.

    The arithmetic is _local_moving's: each node's weights into a community
    are summed in CSR neighbour order (np.bincount adds in input order, as
    the dict does; np.add.reduceat does not sum left to right), and the stay
    and move gains use the same expressions, so a node is flagged exactly
    when its visit would move it. The nodes go in ranges of at most
    CHECK_EDGES directed edges.
    """
    g = lg.g
    n = g.node_count
    comm = np.asarray(comm, dtype=np.int64)
    sigma = np.asarray(sigma, dtype=np.float64)
    strength = lg.strength
    total_w = lg.total
    two_w2 = 2.0 * total_w * total_w
    indptr = g.indptr
    flags = np.zeros(n, dtype=bool)
    for u0, u1 in _row_ranges(indptr, CHECK_EDGES):
        lo, hi = indptr[u0], indptr[u1]
        # one group per (node, neighbour community), numbered in key order
        key = _clause_ids(np.diff(indptr[u0:u1 + 1])) * n
        key += comm[g.indices[lo:hi]]
        perm = key.argsort()
        first = run_starts(key[perm])
        group = np.empty(key.size, dtype=np.int64)
        group[perm] = first.cumsum() - 1
        w = np.bincount(group, weights=g.weights[lo:hi])
        row, c = np.divmod(key[perm[first]], n)
        u = row + u0
        inside = c == comm[u]
        stay = np.zeros(u1 - u0)
        stay[row[inside]] = w[inside]
        s = strength[u0:u1]
        stay = stay / total_w - (sigma[comm[u0:u1]] - s) * s / two_w2
        out = ~inside
        row, u = row[out], u[out]
        gain = w[out] / total_w - sigma[c[out]] * strength[u] / two_w2
        flags[u[gain > stay[row]]] = True
    return flags


def _local_moving(lg: _LevelGraph, rng: np.random.Generator, start=None,
                  rows=None) -> tuple[np.ndarray, float, int]:
    """Move nodes greedily between communities until no single move raises
    modularity. Returns (labels, total gain, rounds).

    Fast local moving (Traag, Waltman & van Eck 2019): from singletons,
    round 1 visits every node once in seeded random order; each later round
    visits only the nodes queued in the round before, the neighbours of a
    moved node that lie outside its new community. Given start, per-node
    community ids below the node count, the level starts from that
    partition with sigma summed from it and an empty queue, so it begins at
    the check: a start that no single move improves comes back unchanged
    after one check, with gain 0.0 and 0 rounds, and draws nothing from
    rng. A move also shifts two community strengths, which can open a move
    for a node that is not queued, so when the queue drains, _flagged
    checks every node at once with the loop's own arithmetic. The level
    ends when it flags nothing; otherwise the flagged
    nodes are visited in the order of a fresh permutation, as queued nodes.
    The level also ends when the queue drains on a partition seen at an
    earlier check of the level (kept as hashes of tuple(comm); two
    partitions of one level share a hash with odds of about 2^-64, and
    such a collision would only end the level early). Every move
    strictly raises Q in the loop's arithmetic, so in exact arithmetic no
    partition comes back. One does when a flagged round moves nothing,
    should the check and a visit ever disagree (a visit that stays still
    runs sigma[a] -= s_u; sigma[a] += s_u, which can change the last bit of
    a strength), and when rounding makes moves cycle: a node between two
    communities of equal strength, whose sigmas differ in the last bit,
    can see each as one ulp better than staying and move back and forth.

    The pass builds its rows, _rows(lg.g), when it starts, unless given
    them, so a level's rows are freed when its pass returns.

    Plain-list state: the loop is node-at-a-time by nature and python list
    indexing beats numpy scalar access by a wide margin here. A visit reads
    its neighbours' communities with its node's getter, one itemgetter call
    on the community list, and sums the weights into each
    neighbour community in one flat accumulator indexed by community, acc,
    left to right in CSR neighbour order, as _flagged does. The gain loop
    walks the neighbours' communities and takes each nonzero entry once,
    resetting it to 0.0; the own community's entry is read for the stay
    gain and reset first. Edge weights are positive, so a summed entry is
    never 0.0, and acc is all zeros again after every visit. Highest gain,
    then lowest community id, wins, whatever the order of the walk; a node
    with no neighbour outside its community keeps best_gain at -inf and
    stays.
    """
    n = lg.g.node_count
    strength = lg.strength.tolist()
    if start is None:
        comm = list(range(n))
        sigma = strength[:]
        todo = rng.permutation(n).tolist()
    else:
        comm = np.asarray(start, dtype=np.int64).tolist()
        sigma = np.bincount(comm, weights=lg.strength, minlength=n).tolist()
        todo = []
    total_w = lg.total
    two_w2 = 2.0 * total_w * total_w
    nbrs, ws, gets = _rows(lg.g) if rows is None else rows
    acc = [0.0] * n
    no_gain = -np.inf
    total_gain = 0.0
    rounds = 0
    queued = [start is None] * n
    seen: set[int] = set()
    while True:
        if not todo:
            state = hash(tuple(comm))
            if state in seen:
                break
            seen.add(state)
            flags = _flagged(lg, comm, sigma)
            if not flags.any():
                break
            order = rng.permutation(n)
            todo = order[flags[order]].tolist()
            for u in todo:
                queued[u] = True
        rounds += 1
        nxt: list[int] = []
        for u in todo:
            queued[u] = False
            a = comm[u]
            s_u = strength[u]
            row = nbrs[u]
            cs = gets[u](comm)
            for c, w in zip(cs, ws[u]):
                acc[c] += w
            sigma[a] -= s_u
            stay = acc[a] / total_w - sigma[a] * s_u / two_w2
            acc[a] = 0.0
            best_c, best_gain = -1, no_gain
            for c in cs:
                w_c = acc[c]
                if w_c:
                    acc[c] = 0.0
                    gain = w_c / total_w - sigma[c] * s_u / two_w2
                    if gain > best_gain or (gain == best_gain and c < best_c):
                        best_gain, best_c = gain, c
            if best_gain > stay:
                sigma[best_c] += s_u
                comm[u] = best_c
                total_gain += best_gain - stay
                for v in row:
                    if not queued[v] and comm[v] != best_c:
                        queued[v] = True
                        nxt.append(v)
            else:
                sigma[a] += s_u
        todo = nxt
    return np.asarray(comm, dtype=np.int64), total_gain, rounds


def _fold_once(lg: _LevelGraph, q_inc: float, rng: np.random.Generator,
               rows=None) -> tuple[np.ndarray, float, int, int]:
    # rows, if given, are lg's, for the first level only
    flat = np.arange(lg.g.node_count, dtype=np.int64)
    levels = 0
    passes = 0
    while True:
        labels, gain, level_passes = _local_moving(lg, rng, rows=rows)
        rows = None
        passes += level_passes
        q_inc += gain
        # number the used labels in id order
        used = np.bincount(labels) > 0
        n_comm = int(used.sum())
        compact = (used.cumsum() - 1)[labels]
        flat = compact[flat]
        if n_comm == lg.g.node_count or gain <= MIN_GAIN:
            break
        lg = lg.aggregate(compact, n_comm)
        levels += 1
    return flat, q_inc, levels, passes


def fold_communities(g: Graph, seed: int = 42) -> ModularityResult:
    """Approximate maximum modularity by multilevel folding.

    Each restart alternates seeded local moving (queue-based, run to a local
    optimum) with community aggregation until a level improves Q by no more
    than MIN_GAIN; the best restart wins. Graphs of up to SMALL_GRAPH nodes
    are cheap to re-run and local moving is order-sensitive there, so they
    get SMALL_GRAPH_RESTARTS restarts, each ending with one refinement
    pass: local moving over the input graph from the restart's flat
    partition, on the restart's generator, whose gain and rounds add to
    q_incremental and passes. After it no single node move raises Q, which
    aggregation alone does not promise. Such a graph's rows are built once,
    for the first level of every restart and every refinement pass. Larger
    graphs get one restart, unrefined, and every level builds its rows in
    its own pass.
    The reported q is recomputed from scratch on the returned flat partition;
    q_incremental tracks the accumulated move gains for cross-checking,
    from the singleton Q, computed once per call. Edge weights must be
    positive and finite (ValueError otherwise).
    """
    if g.node_count < 1:
        raise ValueError("graph must have at least one node")
    w = g.weights
    if not np.all((w > 0.0) & (w < np.inf)):
        raise ValueError("edge weights must be positive and finite")
    base = _LevelGraph(g, np.zeros(g.node_count))
    if base.total == 0.0:
        return ModularityResult(0.0, Partition.singletons(g.node_count), 0, 0, 0.0)
    q_singletons = modularity(g, Partition.singletons(g.node_count))
    small = g.node_count <= SMALL_GRAPH
    rows = _rows(g) if small else None
    best = None
    for child in np.random.SeedSequence(seed).spawn(
            SMALL_GRAPH_RESTARTS if small else 1):
        rng = np.random.default_rng(child)
        flat, q_inc, levels, passes = _fold_once(base, q_singletons, rng, rows)
        if small:
            flat, gain, rounds = _local_moving(base, rng, flat, rows)
            q_inc += gain
            passes += rounds
        part = Partition.from_labels(flat)
        q = modularity(g, part)
        if best is None or q > best.q:
            best = ModularityResult(q, part, levels, passes, q_inc)
    return best
