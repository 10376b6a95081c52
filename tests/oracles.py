"""Independent brute-force oracles used to compute expected test values.

Nothing here shares algorithmic machinery with the library paths it checks:
coloring is plain backtracking, partition search enumerates every set
partition, breadth-first search walks adjacency sets with a deque, CSR
arrays are built edge by edge from a dict, the power-law sampler inverts
the exact discrete CDF, inverse-distance weights loop over plain lists,
greedy centers are found in rounds of a maximal independent set as well as
by visiting nodes one by one, unit propagation edits clause lists through a
dict of occurrence lists, the canonical clause order is sorted() on
tuple keys, and a formula's ranked twin renames its variables by a dict.
Minimum circle covers try center sets by increasing size, and minimum box
covers place nodes into blocks one by one, as the coloring search does.
dict_local_moving is the earlier local moving loop, kept as it
was: each visit slices the flat CSR lists and sums its neighbour
communities into a fresh dict (it shares only the drained-queue check,
community._flagged, with the library). text_blocks is the earlier DIMACS
reader, kept as it was: one regex over the whole decoded text, every block
tokenized before any is checked (it shares only the token conversion,
cnf._tokens, with the library). The instruments that do run on the
library's graph.bfs_layers (verify_cover, bfs_distances, eccentricities and
the exact covers by branch and bound) are measures the tool itself never
takes; the exact covers are judged by the exhaustive searches. The last
section holds small readers and writers that the program has no use for,
kept for the tests that read graphs, partitions and matrices through them.
"""

import itertools
import json
import math
import re
from collections import deque

import numpy as np

from cnfscope.cnf import CnfFormula, PropagationConflict, _tokens
from cnfscope.community import Partition, _flagged, modularity
from cnfscope.features import COLUMNS, FeatureMatrix, csv_text, row_to_dict
from cnfscope.graph import Graph, bfs_layers
from cnfscope.portfolio import TIMEOUT, RuntimeMatrix


def graph_from_edges(n, edges, weights=None) -> Graph:
    if not edges:
        return Graph.from_edges(n, [], [], None)
    u = [a for a, b in edges]
    v = [b for a, b in edges]
    return Graph.from_edges(n, u, v, weights)


def adjacency_sets(g: Graph) -> list[set[int]]:
    return [set(neighbors(g, u).tolist()) for u in range(g.node_count)]


def reference_csr(n, u, v, w, weight_mode):
    """CSR arrays built edge by edge: parallel edges in either direction
    collapse into one whose weight is the sum of theirs in ascending order
    (or 1 in 'unit' mode); each row lists its neighbours in ascending order.

    The sum adds left to right. Graph.from_edges sums the same ascending
    weights with np.add.reduceat, which groups them differently, so with
    three or more parallel weights the two agree only to rounding; compare
    weights with a relative tolerance (TestBuilderOracles uses 1e-14)."""
    merged: dict[tuple[int, int], list[float]] = {}
    for a, b, x in zip(u, v, w):
        merged.setdefault((min(a, b), max(a, b)), []).append(x)
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (a, b), ws in merged.items():
        total = 0.0
        for x in sorted(ws):
            total += x
        weight = 1.0 if weight_mode == "unit" else total
        rows[a].append((b, weight))
        rows[b].append((a, weight))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in rows])
    pairs = [p for row in rows for p in sorted(row)]
    indices = np.array([b for b, _ in pairs], dtype=np.int64)
    weights = np.array([x for _, x in pairs], dtype=np.float64)
    return indptr, indices, weights


def random_graph(rng, n, p) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return graph_from_edges(n, edges)


def random_connected_graph(rng, n, extra_edges=2) -> Graph:
    """Random attachment tree plus a few extra random edges."""
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(v)), v))
    for _ in range(extra_edges):
        i, j = rng.integers(n), rng.integers(n)
        if i != j:
            edges.add((min(int(i), int(j)), max(int(i), int(j))))
    return graph_from_edges(n, sorted(edges))


def hop_distances(adj: list[set[int]], sources, cap=None) -> dict[int, int]:
    """Hops from the nearest source to every node reached within cap hops."""
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        if cap is not None and dist[u] >= cap:
            continue
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def degree_order(g: Graph, descending: bool = True) -> list[int]:
    """The nodes by degree (ties by node id), decreasing or increasing."""
    deg = np.diff(g.indptr).tolist()
    sign = -1 if descending else 1
    return sorted(range(g.node_count), key=lambda u: (sign * deg[u], u))


def greedy_centers(g: Graph, r: int, descending: bool = True,
                   order=None) -> list[int]:
    """Greedy burning by degree order (ties by node id), or in the visit
    order given: every node no earlier circle reached becomes a center
    burning all nodes < r hops away."""
    adj = adjacency_sets(g)
    if order is None:
        order = degree_order(g, descending)
    burned: set[int] = set()
    centers = []
    for u in order:
        if u not in burned:
            centers.append(u)
            burned.update(hop_distances(adj, [u], r - 1))
    return centers


def ascending_order(g: Graph) -> np.ndarray:
    """The visit order by increasing degree, ties by node id: the order in
    which greedy_centers(g, r, descending=False) visits the nodes, to pass
    as greedy_cover_count's order."""
    return np.lexsort((np.arange(g.node_count), np.diff(g.indptr)))


def _closed_min(g: Graph, values: np.ndarray, hops: int) -> np.ndarray:
    """Each node's least value over the nodes within `hops` hops of it."""
    # reduceat cannot take an empty row, so isolated nodes are left out
    linked = np.diff(g.indptr) > 0
    for _ in range(hops if linked.any() else 0):
        values = values.copy()
        values[linked] = np.minimum(values[linked], np.minimum.reduceat(
            values[g.indices], g.indptr[:-1][linked]))
    return values


def lex_first_mis(g: Graph, hops: int, descending: bool = True,
                  order=None) -> list[int]:
    """The lexicographically-first maximal independent set of G^hops under
    the degree order (ties by node id), or under the order given, listed in
    that order. Computed in rounds (Blelloch, Fineman & Shun, SPAA 2012): an
    undecided node joins when its rank is the least over the undecided
    nodes within `hops` hops, and every node within `hops` hops of a joiner
    is decided."""
    n = g.node_count
    if order is None:
        order = degree_order(g, descending)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    undecided = np.ones(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    while undecided.any():
        least = _closed_min(g, np.where(undecided, rank, n), hops)
        joins = undecided & (least == rank)
        chosen |= joins
        undecided &= _closed_min(g, np.where(joins, 0, 1), hops) == 1
    return [u for u in order if chosen[u]]


def random_formula(rng, max_vars=8, max_clauses=8, min_clause=1, max_clause=3
                   ) -> CnfFormula:
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_clauses + 1))
    clauses = []
    for _ in range(m):
        size = int(rng.integers(min_clause, min(max_clause, n) + 1))
        vs = rng.choice(n, size=size, replace=False) + 1
        signs = rng.integers(0, 2, size=size) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(vs, signs)))
    return CnfFormula.from_clauses(n, clauses)


# ---------------------------------------------------------------------------
# Minimum circle and box covers by exhaustive search.


def min_circle_cover(g: Graph, r: int) -> int:
    """Fewest centers whose circles (the nodes fewer than r hops from a
    center) hold every node: center sets are tried by increasing size."""
    adj = adjacency_sets(g)
    n = g.node_count
    return next(k for k in range(n + 1)
                if any(len(hop_distances(adj, centers, r - 1)) == n
                       for centers in itertools.combinations(range(n), k)))


def min_box_cover(g: Graph, size: int) -> int:
    """Fewest boxes covering the graph. A box is a node set whose members
    are pairwise fewer than `size` hops apart, and any subset of a box is a
    box, so this is the fewest blocks of a node partition into boxes: for
    k = 0, 1, ... each node in turn joins a block it fits or opens one of
    at most k blocks."""
    adj = adjacency_sets(g)
    n = g.node_count
    near = [set(hop_distances(adj, [u], size - 1)) for u in range(n)]

    def fits(k: int) -> bool:
        blocks: list[list[int]] = []

        def place(v: int) -> bool:
            if v == n:
                return True
            for block in blocks:
                if all(u in near[v] for u in block):
                    block.append(v)
                    if place(v + 1):
                        return True
                    block.pop()
            if len(blocks) < k:
                blocks.append([v])
                if place(v + 1):
                    return True
                blocks.pop()
            return False
        return place(0)

    return next(k for k in range(n + 1) if fits(k))


# ---------------------------------------------------------------------------
# Instruments over graph.bfs_layers: a cover check, hop distances,
# eccentricities, and exact covers, the fewest circles or the fewest boxes
# that hold every node. Both exact covers are set cover over node bitmasks,
# solved by one branch and bound, _min_cover, and are checked against the
# exhaustive searches above.


def verify_cover(g: Graph, centers, r: int) -> bool:
    """True when every node lies within hop distance < r of some center."""
    if r < 1:
        raise ValueError("radius must be >= 1")
    centers = np.asarray(centers, dtype=np.int64)
    outside = (centers < 0) | (centers >= g.node_count)
    if outside.any():
        bad = centers.flat[int(outside.argmax())]
        raise ValueError(f"center {bad} out of range for {g.node_count} nodes")
    centers = np.unique(centers)
    if centers.size == 0:
        return g.node_count == 0
    covered = np.zeros(g.node_count, dtype=bool)
    bfs_layers(g, centers, covered, True, r - 1)
    return bool(covered.all())


def _ball_masks(g: Graph, r: int) -> list[int]:
    """Bitmask per node of the nodes within hop distance < r of it."""
    seen = np.zeros(g.node_count, dtype=np.int64)
    masks = []
    for c in range(g.node_count):
        mask = 0
        for layer in bfs_layers(g, [c], seen, c + 1, r - 1):
            for v in layer.tolist():
                mask |= 1 << v
        masks.append(mask)
    return masks


def _min_cover(sets: list[int], n: int) -> int:
    """Fewest of the node bitmasks in sets whose union holds all n nodes,
    each node lying in some set. Branch and bound: a set inside another is
    dropped, only the sets holding the lowest uncovered node branch, and the
    bound starts at n, one set per node."""
    full = (1 << n) - 1
    kept: list[int] = []
    for b in sorted(set(sets), key=lambda b: -bin(b).count("1")):
        if not any(b & ~k == 0 for k in kept):
            kept.append(b)
    sets_at = [[b for b in kept if b >> i & 1] for i in range(n)]
    best = n

    def search(covered: int, used: int):
        nonlocal best
        if covered == full:
            best = min(best, used)
            return
        if used + 1 >= best:
            return
        low = (~covered & full)
        low = (low & -low).bit_length() - 1
        for b in sets_at[low]:
            search(covered | b, used + 1)

    search(0, 0)
    return best


def exact_cover_count(g: Graph, r: int, max_nodes: int = 20) -> int:
    """Minimum number of radius-r circles covering the graph: _min_cover over
    every node's circle, guarded to small graphs (the problem is NP-hard)."""
    n = g.node_count
    if n > max_nodes:
        raise ValueError(f"graph too large for exact cover ({n} > {max_nodes} nodes)")
    if r < 1:
        raise ValueError("radius must be >= 1")
    if n == 0:
        return 0
    if r == 1:
        return n
    return _min_cover(_ball_masks(g, r), n)


def _maximal_cliques(adj: list[int], n: int) -> list[int]:
    """Bron-Kerbosch with pivoting on bitmask adjacency."""
    out: list[int] = []

    def bk(r: int, p: int, x: int):
        if p == 0 and x == 0:
            out.append(r)
            return
        pux = p | x
        pivot, best = -1, -1
        t = pux
        while t:
            u = (t & -t).bit_length() - 1
            t &= t - 1
            c = bin(p & adj[u]).count("1")
            if c > best:
                best, pivot = c, u
        cand = p & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            bit = 1 << v
            bk(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit
    bk(0, (1 << n) - 1, 0)
    return out


def exact_box_cover_count(g: Graph, size: int, max_nodes: int = 16) -> int:
    """Minimum number of boxes of the given size covering the graph.

    A box is a node set with all pairwise hop distances < size, i.e. a clique
    of the (size-1)-th power graph. Every box lies in a maximal one, so this
    is _min_cover over the maximal boxes, guarded to small graphs."""
    n = g.node_count
    if n > max_nodes:
        raise ValueError(f"graph too large for exact box cover ({n} > {max_nodes})")
    if size < 1:
        raise ValueError("box size must be >= 1")
    if n == 0:
        return 0
    if size == 1:
        return n
    # close[i] = bitmask of j != i with dist(i, j) < size
    close = [m & ~(1 << i) for i, m in enumerate(_ball_masks(g, size))]
    return _min_cover(_maximal_cliques(close, n), n)


def bfs_distances(g: Graph, source: int, radius_cap: int | None = None) -> np.ndarray:
    """Hop distances from source (np.inf when unreachable or beyond the cap)."""
    if source < 0 or source >= g.node_count:
        raise ValueError(f"source {source} out of range")
    dist = np.full(g.node_count, np.inf)
    seen = np.zeros(g.node_count, dtype=bool)
    for depth, layer in enumerate(bfs_layers(g, [source], seen, True, radius_cap)):
        dist[layer] = depth
    return dist


def eccentricities(g: Graph, max_nodes: int = 5000) -> np.ndarray:
    """Per-node eccentricity within its component (all-pairs BFS; guarded)."""
    if g.node_count > max_nodes:
        raise ValueError(f"graph too large for all-pairs BFS ({g.node_count} nodes)")
    # one seen array for every search: the BFS from u stamps it with u + 1
    seen = np.zeros(g.node_count, dtype=np.int64)
    ecc = np.zeros(g.node_count)
    for u in range(g.node_count):
        ecc[u] = len(bfs_layers(g, [u], seen, u + 1)) - 1
    return ecc


# ---------------------------------------------------------------------------
# Graph coloring (backtracking), for the clique-cover reduction check.


def chromatic_number(g: Graph) -> int:
    n = g.node_count
    if n == 0:
        return 0
    adj = adjacency_sets(g)

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def place(v: int, max_used: int) -> bool:
            if v == n:
                return True
            used = {colors[u] for u in adj[v] if colors[u] != -1}
            # fresh colors are interchangeable: only the first one is tried
            for c in range(min(k, max_used + 2)):
                if c in used:
                    continue
                colors[v] = c
                if place(v + 1, max(max_used, c)):
                    return True
                colors[v] = -1
            return False
        return place(0, -1)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    return n


# ---------------------------------------------------------------------------
# Set partitions and brute-force modularity.


def set_partitions(items):
    """All partitions of a list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def modularity_optimum(g: Graph) -> tuple[float, list[list[int]]]:
    best_q = -np.inf
    best_part = None
    for part in set_partitions(list(range(g.node_count))):
        labels = np.zeros(g.node_count, dtype=np.int64)
        for c, block in enumerate(part):
            for v in block:
                labels[v] = c
        q = modularity(g, Partition.from_labels(labels))
        if q > best_q:
            best_q, best_part = q, part
    return float(best_q), best_part


def best_move_gain(g: Graph, labels, groups=None) -> float:
    """Largest rise of modularity, recomputed from scratch, over moving one
    group of nodes (by default one node) into the community of a node next
    to the group; -inf when no such move exists."""
    labels = np.asarray(labels, dtype=np.int64)
    if groups is None:
        groups = [[u] for u in range(g.node_count)]
    adj = adjacency_sets(g)
    base = modularity(g, Partition.from_labels(labels))
    best = -np.inf
    for group in groups:
        own = int(labels[group[0]])
        targets = {int(labels[v]) for u in group for v in adj[u]} - {own}
        for c in targets:
            trial = labels.copy()
            trial[group] = c
            best = max(best, modularity(g, Partition.from_labels(trial)) - base)
    return best


def dict_local_moving(lg, rng: np.random.Generator, start=None, rows=None
                      ) -> tuple[np.ndarray, float, int]:
    """community._local_moving as it was before the flat accumulator: the
    same visits, gains, tie rule and queue, with each visit's weights per
    neighbour community summed into a dict. Its level ends only when the
    check flags nothing or a flagged round moves nothing, so where rounding
    makes moves cycle it never returns; wherever it returns, the seen
    partition rule of _local_moving ends the level in the same round. Given
    start, it begins at the check from that partition, with the community
    strengths summed from it. It reads lg.g's CSR arrays and ignores rows,
    which _local_moving takes, so it can stand in for it."""
    n = lg.g.node_count
    strength = lg.strength.tolist()
    if start is None:
        comm = list(range(n))
        sigma = lg.strength.tolist()
        todo = rng.permutation(n).tolist()
    else:
        comm = [int(c) for c in start]
        sigma = [0.0] * n
        for u, c in enumerate(comm):
            sigma[c] += strength[u]
        todo = []
    total_w = lg.total
    two_w2 = 2.0 * total_w * total_w
    indptr = lg.g.indptr.tolist()
    indices = lg.g.indices.tolist()
    weights = lg.g.weights.tolist()
    total_gain = 0.0
    rounds = 0
    checked = False
    queued = [start is None] * n
    while True:
        if todo:
            rounds += 1
            nxt: list[int] = []
            moved = False
            for u in todo:
                queued[u] = False
                a = comm[u]
                s_u = strength[u]
                lo, hi = indptr[u], indptr[u + 1]
                links: dict[int, float] = {}
                for v, w in zip(indices[lo:hi], weights[lo:hi]):
                    c = comm[v]
                    links[c] = links.get(c, 0.0) + w
                sigma[a] -= s_u
                stay = links.get(a, 0.0) / total_w - sigma[a] * s_u / two_w2
                best_c, best_gain = -1, -np.inf
                for c, w_c in links.items():
                    if c == a:
                        continue
                    gain = w_c / total_w - sigma[c] * s_u / two_w2
                    if gain > best_gain or (gain == best_gain and c < best_c):
                        best_gain, best_c = gain, c
                if best_c >= 0 and best_gain > stay:
                    sigma[best_c] += s_u
                    comm[u] = best_c
                    total_gain += best_gain - stay
                    moved = True
                    for v in indices[lo:hi]:
                        if not queued[v] and comm[v] != best_c:
                            queued[v] = True
                            nxt.append(v)
                else:
                    sigma[a] += s_u
            if nxt:
                todo, checked = nxt, False
                continue
            if checked and not moved:
                break
        flags = _flagged(lg, comm, sigma)
        if not flags.any():
            break
        order = rng.permutation(n)
        todo, checked = order[flags[order]].tolist(), True
        for u in todo:
            queued[u] = True
    return np.asarray(comm, dtype=np.int64), total_gain, rounds


# ---------------------------------------------------------------------------
# Discrete power-law sampling by exact inverse CDF.


def sample_discrete_powerlaw(rng, alpha: float, size: int, kmax: int = 10 ** 6
                             ) -> np.ndarray:
    ks = np.arange(1, kmax + 1, dtype=np.float64)
    pmf = ks ** (-alpha)
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="left") + 1


def histogram_from_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    ks, fs = np.unique(np.asarray(samples), return_counts=True)
    return ks.astype(np.int64), fs.astype(np.int64)


# ---------------------------------------------------------------------------
# Min-max scaling and inverse-distance-squared weights with per-row loops,
# no numpy.


def minmax_scaled(rows, held) -> list[list[float]]:
    """The rows (sequences of floats) min-max scaled per column on every row
    but `held`, which is clamped into [0, 1]; a column constant on those
    rows is 0.0 everywhere."""
    cols = []
    for j in range(len(rows[0])):
        train = [r[j] for i, r in enumerate(rows) if i != held]
        lo, hi = min(train), max(train)
        col = [0.0 if hi == lo else (r[j] - lo) / (hi - lo) for r in rows]
        col[held] = min(max(col[held], 0.0), 1.0)
        cols.append(col)
    return [list(r) for r in zip(*cols)]


def idw_weights(test, train) -> list[float]:
    """One weight per training row (a sequence of floats each): 1/d^2 for
    the squared Euclidean distance d^2 to `test`, or, when some rows equal
    `test` exactly, 1 for those rows and 0 for the rest."""
    dist2 = []
    for row in train:
        total = 0.0
        for a, b in zip(row, test):
            total += (float(a) - float(b)) ** 2
        dist2.append(total)
    if 0.0 in dist2:
        return [1.0 if d == 0.0 else 0.0 for d in dist2]
    return [1.0 / d for d in dist2]


# ---------------------------------------------------------------------------
# Formula transformations on clause lists.


def propagate_lists(clauses):
    """Unit propagation on clause lists: (remaining clauses, assignment), or
    PropagationConflict. Units are queued in clause order, then as clauses
    become unit; each visit of a clause through the occurrence list of the
    assigned variable drops it when it holds the true literal, or else
    removes the first copy of the false one."""
    clauses = [list(c) for c in clauses]
    alive = [True] * len(clauses)
    occ: dict[int, list[int]] = {}
    for ci, c in enumerate(clauses):
        for lit in c:
            occ.setdefault(abs(lit), []).append(ci)
    if any(not c for c in clauses):
        raise PropagationConflict(0)
    queue = deque(c[0] for c in clauses if len(c) == 1)
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
            c = clauses[ci]
            if not alive[ci]:
                continue
            if lit in c:
                alive[ci] = False
            elif -lit in c:
                c.remove(-lit)
                if not c:
                    raise PropagationConflict(var)
                if len(c) == 1:
                    queue.append(c[0])
    return tuple(tuple(c) for c, a in zip(clauses, alive) if a), assignment


def text_blocks(text: str, tag: str, what: str, error):
    """The (directive, lengths, literals) blocks of a DIMACS-style text, as
    cnf._read_blocks reads them, from the text's str.splitlines() lines."""
    text = "\n" + "\n".join(text.splitlines())
    pieces = [[]]                # data before the first directive, then per block
    heads = []
    pos = 0
    for mark in re.finditer(rf"\n[^\S\n]*(?:c.*|(%)|({tag}.*))", text):
        pieces[-1].append(text[pos:mark.start()])
        pos = mark.end()
        if mark[1]:
            break
        if mark[2]:
            heads.append(mark[2].strip())
            pieces.append([])
    else:
        pieces[-1].append(text[pos:])
    if "".join(pieces[0]).split():
        raise error(f"clause data before {what}")
    values = [_tokens("".join(p).split(), error) for p in pieces[1:]]
    out = []
    for i, (head, toks) in enumerate(zip(heads, values)):
        if toks.size and toks[-1]:
            raise error(f"clause not terminated by 0 before {what}"
                        if i + 1 < len(heads) else "last clause not terminated by 0")
        ends = np.flatnonzero(toks == 0)
        out.append((head, np.diff(ends, prepend=-1) - 1, toks[toks != 0]))
    return out


def ranked_twin(clauses):
    """(twin, ids): the clauses over the variables renumbered 1..k in
    increasing order, signs kept, and the sorted ids, so that ids[r - 1] is
    the variable renamed r. The twin is the same formula up to the names of
    its variables."""
    ids = sorted({abs(lit) for c in clauses for lit in c})
    rank = {v: r for r, v in enumerate(ids, 1)}
    return [tuple(rank[abs(lit)] * (1 if lit > 0 else -1) for lit in c)
            for c in clauses], ids


def canonical_clauses(clauses):
    """Clauses sorted by their literals sorted on (abs(l), l < 0), compared
    as tuples; sorted() is stable."""
    return sorted(clauses, key=lambda c: tuple(sorted(c, key=lambda l: (abs(l), l < 0))))


# ---------------------------------------------------------------------------
# Views and writers the tests read through.


def neighbors(g: Graph, u: int) -> np.ndarray:
    """The CSR row of node u: its sorted, distinct neighbours."""
    return g.indices[g.indptr[u]:g.indptr[u + 1]]


def communities(p: Partition) -> list[list[int]]:
    """The nodes of each community, by community id, each list ascending."""
    out: list[list[int]] = [[] for _ in range(p.community_count)]
    for node, c in enumerate(p.assignment.tolist()):
        out[c].append(node)
    return out


def matrix_to_json(matrix: FeatureMatrix) -> str:
    """A feature matrix as the JSON list of row objects that
    `cnfscope features --format json` prints."""
    return json.dumps([row_to_dict(r) for r in matrix.rows], indent=2)


def runtime_csv(m: RuntimeMatrix) -> str:
    """A runtime matrix as the CSV that RuntimeMatrix.from_csv reads, a
    timeout written as TIMEOUT."""
    return csv_text(["instance"] + m.solvers,
                    ([inst] + [TIMEOUT if math.isinf(t) else t for t in row]
                     for inst, row in zip(m.instances, m.times)))


def matrix_to_csv(matrix: FeatureMatrix) -> str:
    return csv_text(COLUMNS, ([d.get(c) for c in COLUMNS]
                              for d in map(row_to_dict, matrix.rows)))
