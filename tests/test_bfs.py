"""Every breadth-first search of the library against the deque oracle, on
seeded random graphs that include disconnected ones and isolated nodes, and
on bipartite CVIGs of small random formulas. Greedy centers also against the
round-based maximal independent set, there, on VIGs and CVIGs of random
3-CNF with 10^4 variables and on CVIGs shaped like the feature pipeline's
(canonical clause order, m/n = 10), and against the one-node-at-a-time
oracle on the graphs that stress the window engine: complete graphs, stars,
long paths, isolated nodes and disconnected unions, and on a graph where
a window accepts a source whose circle holds an earlier clashing source's
label, and against both oracles in random visit orders on graphs where one
hop of the labels reaches a node from several sources. Component ids are
checked against a sweep's numbering, also on graphs of mostly isolated
nodes. Also the CSR arrays the searches walk: each row must be sorted and
distinct, a Graph invariant that makes degree-tie iteration canonical.
Eccentricities are checked on the same graphs, against the farthest node
the deque search reaches."""

import numpy as np
import pytest

from cnfscope import fractal
from cnfscope import graph as graph_module
from cnfscope.cnf import CnfFormula, random_3cnf
from cnfscope.features import _canonical_clause_order
from cnfscope.fractal import cover_curve, greedy_cover_count
from cnfscope.graph import (
    Graph,
    bfs_layers,
    build_cvig,
    build_vig,
    connected_components,
    gather_neighbors,
)
from oracles import (
    adjacency_sets,
    ascending_order,
    bfs_distances,
    eccentricities,
    graph_from_edges,
    greedy_centers,
    hop_distances,
    lex_first_mis,
    random_connected_graph,
    random_formula,
    random_graph,
    reference_csr,
    verify_cover,
)


def _graphs():
    rng = np.random.default_rng(2024)
    graphs = [random_graph(rng, n, p) for n, p in
              ((1, 0.5), (12, 0.1), (25, 0.08), (30, 0.2), (40, 0.05))]
    graphs += [random_connected_graph(rng, n, extra) for n, extra in
               ((15, 0), (30, 4), (50, 10))]
    # clause-variable graphs: hubs of high degree next to long bipartite
    # paths, some with unit clauses and unused variables
    graphs += [build_cvig(random_formula(rng, max_vars=v, max_clauses=c,
                                         max_clause=k))
               for v, c, k in ((6, 4, 2), (12, 10, 3), (20, 14, 3),
                               (30, 40, 4), (40, 25, 2))]
    return graphs


GRAPHS = _graphs()
CAPS = (None, 0, 1, 2, 3)


@pytest.mark.parametrize("g", GRAPHS)
def test_bfs_distances(g):
    adj = adjacency_sets(g)
    for source in range(g.node_count):
        for cap in CAPS:
            want = np.full(g.node_count, np.inf)
            for v, d in hop_distances(adj, [source], cap).items():
                want[v] = d
            assert np.array_equal(bfs_distances(g, source, cap), want)


@pytest.mark.parametrize("g", GRAPHS)
def test_bfs_layers_multi_source(g):
    adj = adjacency_sets(g)
    rng = np.random.default_rng(g.node_count)
    for _ in range(10):
        k = int(rng.integers(1, min(g.node_count, 4) + 1))
        sources = np.sort(rng.choice(g.node_count, size=k, replace=False))
        cap = CAPS[int(rng.integers(len(CAPS)))]
        # stale marks from earlier searches must not count as visited
        seen = rng.integers(0, 7, size=g.node_count)
        layers = bfs_layers(g, sources, seen, 7, cap)
        dist = hop_distances(adj, sources.tolist(), cap)
        depth = max(dist.values())
        assert len(layers) == depth + 1
        for d, layer in enumerate(layers):
            assert layer.tolist() == sorted(v for v, h in dist.items() if h == d)
        assert sorted(np.nonzero(seen == 7)[0].tolist()) == sorted(dist)


def _reference_components(g):
    """(count, ids) by a plain sweep over the nodes in id order, so each
    component is numbered in the order of its smallest node."""
    adj = adjacency_sets(g)
    comp, count = [-1] * g.node_count, 0
    for u in range(g.node_count):
        if comp[u] == -1:
            for v in hop_distances(adj, [u]):
                comp[v] = count
            count += 1
    return count, comp


def _mostly_isolated_graphs():
    """Graphs whose nodes are mostly isolated: no edge at all, one edge, and
    a few random edges among many nodes, with isolated nodes before, after
    and between the components that have an edge."""
    rng = np.random.default_rng(31)
    graphs = [graph_from_edges(0, []), graph_from_edges(7, []),
              graph_from_edges(6, [(2, 4)])]
    for n, edges in ((40, 4), (300, 30), (3000, 120)):
        u = rng.integers(0, n, size=edges)
        v = (u + rng.integers(1, 6, size=edges)) % n
        graphs.append(graph_from_edges(n, list(zip(u.tolist(), v.tolist()))))
    return graphs


@pytest.mark.parametrize("g", GRAPHS + _mostly_isolated_graphs())
def test_connected_components(g, monkeypatch):
    """Components are numbered by their smallest node, as a sweep numbers
    them, and the isolated nodes are labelled without a search: one
    bfs_layers call per component that has an edge."""
    calls = []

    def counting(graph, sources, seen, token, max_depth=None):
        calls.append(token)
        return bfs_layers(graph, sources, seen, token, max_depth)

    monkeypatch.setattr(graph_module, "bfs_layers", counting)
    count, comp = connected_components(g)
    want_count, want = _reference_components(g)
    assert count == want_count
    assert comp.dtype == np.int64
    assert comp.tolist() == want
    linked = g.degrees > 0
    assert len(calls) == len(set(comp[linked].tolist()))


@pytest.mark.parametrize("g", GRAPHS)
def test_eccentricities(g):
    # GRAPHS hold isolated nodes (eccentricity 0) and several components
    adj = adjacency_sets(g)
    want = [max(hop_distances(adj, [u]).values()) for u in range(g.node_count)]
    ecc = eccentricities(g)
    assert ecc.dtype == np.float64
    assert ecc.tolist() == want


def test_eccentricities_guard():
    g = graph_from_edges(6, [(0, 1), (2, 3)])
    assert eccentricities(g, max_nodes=6).tolist() == [1, 1, 1, 1, 0, 0]
    with pytest.raises(ValueError,
                       match=r"^graph too large for all-pairs BFS \(6 nodes\)$"):
        eccentricities(g, max_nodes=5)


def _cover(g: Graph, r: int, ordering: str):
    """greedy_cover_count in its own order, by decreasing degree, or given
    the order by increasing degree."""
    if ordering == "desc_degree":
        return greedy_cover_count(g, r)
    return greedy_cover_count(g, r, order=ascending_order(g))


@pytest.mark.parametrize("g", GRAPHS)
@pytest.mark.parametrize("r", (2, 3, 4, 5, 6))
@pytest.mark.parametrize("ordering", ("desc_degree", "asc_degree"))
def test_greedy_balls(g, r, ordering):
    adj = adjacency_sets(g)
    count, centers = _cover(g, r, ordering)
    want = greedy_centers(g, r, descending=ordering == "desc_degree")
    assert centers.tolist() == want
    assert count == len(want)
    assert len(hop_distances(adj, want, r - 1)) == g.node_count
    assert lex_first_mis(g, r - 1, ordering == "desc_degree") == want


def _complete_bipartite(a, b) -> Graph:
    return graph_from_edges(a + b, [(i, a + j) for i in range(a)
                                    for j in range(b)])


def _grid(rows, cols) -> Graph:
    edges = [(i * cols + j, i * cols + j + 1)
             for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j)
              for i in range(rows - 1) for j in range(cols)]
    return graph_from_edges(rows * cols, edges)


def _hub_formula_cvig(rng, num_vars, num_clauses) -> Graph:
    """The CVIG of a formula whose clauses all hold variable 1: its node
    neighbours every clause node."""
    clauses = [[1] + [int(v) * int(rng.choice((-1, 1))) for v in
                      rng.choice(np.arange(2, num_vars + 1),
                                 size=int(rng.integers(0, 4)), replace=False)]
               for _ in range(num_clauses)]
    return build_cvig(CnfFormula.from_clauses(num_vars, clauses))


def _contention_graphs():
    """Graphs where one hop of the labels reaches a node from several layer
    nodes: complete bipartite graphs, whose nodes on one side each
    neighbour every source on the other (unequal labels); grids, where a
    node two hops from a source is reached along two paths (equal labels);
    and CVIGs of formulas whose clauses all share one variable."""
    rng = np.random.default_rng(47)
    graphs = [_complete_bipartite(a, b)
              for a, b in ((1, 6), (2, 2), (3, 5), (6, 4), (9, 9))]
    graphs += [_grid(rows, cols) for rows, cols in ((1, 7), (4, 4), (5, 9),
                                                    (8, 8))]
    graphs += [_hub_formula_cvig(rng, v, c)
               for v, c in ((4, 6), (10, 25), (30, 60))]
    return graphs


@pytest.mark.parametrize("g", _contention_graphs())
@pytest.mark.parametrize("r", (2, 3, 4, 5, 6))
def test_greedy_label_contention(g, r):
    """A node that several labels reach in one hop keeps the least of them:
    the centers, in the default order and in random visit orders, are the
    one-node-at-a-time oracle's and the lexicographically-first maximal
    independent set's."""
    rng = np.random.default_rng(g.node_count * 10 + r)
    for order in [None] + [rng.permutation(g.node_count) for _ in range(4)]:
        count, centers = greedy_cover_count(g, r, order=order)
        visit = None if order is None else order.tolist()
        want = greedy_centers(g, r, order=visit)
        assert centers.tolist() == want
        assert count == len(want)
        assert lex_first_mis(g, r - 1, order=visit) == want


def _union(parts) -> Graph:
    """Disjoint union of (node_count, edges) parts, numbered in turn."""
    edges, offset = [], 0
    for n, part in parts:
        edges += [(a + offset, b + offset) for a, b in part]
        offset += n
    return graph_from_edges(offset, edges)


def _complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def _star(n, hub):
    return n, [(hub, i) for i in range(n) if i != hub]


def _path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def _random_part(rng, n, p):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)
               if rng.random() < p]


def _window_graphs():
    """Graphs for the window engine of the greedy cover: complete graphs
    and stars, where every window after the first clashes; long paths,
    where the curve runs to large radii; isolated nodes, disconnected
    unions and the empty graph; and seeded random unions of all of them."""
    rng = np.random.default_rng(2026)
    graphs = [_union([]), _union([(1, [])]), _union([(6, [])])]
    graphs += [_union([_complete(n)]) for n in (2, 3, 8, 15)]
    graphs += [_union([_star(n, hub)]) for n, hub in ((3, 0), (9, 0), (12, 11))]
    graphs += [_union([_path(n)]) for n in (2, 11, 40)]
    makers = (
        lambda: _complete(int(rng.integers(1, 9))),
        lambda: _star(int(rng.integers(2, 12)), 0),
        lambda: _star(int(rng.integers(2, 12)), 1),
        lambda: _path(int(rng.integers(1, 25))),
        lambda: (1, []),
        lambda: _random_part(rng, int(rng.integers(2, 20)), 0.15),
        lambda: _random_part(rng, int(rng.integers(2, 12)), 0.5),
    )
    for _ in range(24):
        parts = [makers[int(rng.integers(len(makers)))]()
                 for _ in range(int(rng.integers(1, 5)))]
        graphs.append(_union([parts[i] for i in rng.permutation(len(parts))]))
    return graphs


def _oracle_curve(g, descending):
    """N(r) from the one-node-at-a-time oracle, under cover_curve's stop
    rule: one circle, a repeated count equal to the component count, or a
    radius past the node count."""
    adj = adjacency_sets(g)
    components = len({frozenset(hop_distances(adj, [u]))
                      for u in range(g.node_count)})
    counts, r = [], 1
    while True:
        counts.append(len(greedy_centers(g, r, descending)))
        if counts[-1] == 1 or r > g.node_count or (
                counts[-2:] == [components] * 2):
            return counts
        r += 1


@pytest.mark.parametrize("g", _window_graphs())
@pytest.mark.parametrize("ordering", ("desc_degree", "asc_degree"))
def test_greedy_windows(g, ordering, monkeypatch):
    """The centers decided a window at a time are the ones decided a node
    at a time, in the same order, at every radius; the curve in the order
    by increasing degree comes from cover_curve with that order in place of
    its own."""
    descending = ordering == "desc_degree"
    for r in range(1, 10):
        count, centers = _cover(g, r, ordering)
        want = greedy_centers(g, r, descending)
        assert centers.dtype == np.int64
        assert centers.tolist() == want
        assert count == len(want)
        assert lex_first_mis(g, r - 1, descending) == want
    if not descending:
        monkeypatch.setattr(fractal, "_node_order", ascending_order)
    if g.node_count:
        curve = cover_curve(g)
        assert curve.counts.tolist() == _oracle_curve(g, descending)


@pytest.fixture(scope="module")
def large_graphs():
    """VIG and CVIG of seeded random 3-CNF with n = 10^4 at m/n 1 and 4.25,
    and two CVIGs shaped like the ones extract_features covers: the m/n
    4.25 formula in the canonical clause order it sorts clauses into (where
    windows clash early), and n = 5000 at m/n 10 (where the last hop is
    largest)."""
    n = 10_000
    formulas = {ratio: random_3cnf(n, round(ratio * n), seed=1000)
                for ratio in (1.0, 4.25)}
    graphs = {(model, ratio): build(f) for ratio, f in formulas.items()
              for model, build in (("vig", build_vig), ("cvig", build_cvig))}
    graphs["cvig-canonical", 4.25] = build_cvig(
        _canonical_clause_order(formulas[4.25]))
    graphs["cvig", 10.0] = build_cvig(random_3cnf(5_000, 50_000, seed=1000))
    return graphs


@pytest.mark.parametrize("ratio, model", (
    (1.0, "vig"), (1.0, "cvig"), (4.25, "vig"), (4.25, "cvig"),
    (4.25, "cvig-canonical"), (10.0, "cvig")))
@pytest.mark.parametrize("r", (2, 3, 4, 5))
@pytest.mark.parametrize("ordering", ("desc_degree", "asc_degree"))
def test_greedy_balls_large(large_graphs, model, ratio, r, ordering):
    """The greedy centers are the lexicographically-first maximal
    independent set of G^(r-1) under the degree order."""
    g = large_graphs[model, ratio]
    count, centers = _cover(g, r, ordering)
    want = lex_first_mis(g, r - 1, ordering == "desc_degree")
    assert centers.tolist() == want
    assert count == len(want)


def test_greedy_last_hop_reads_rows_once(monkeypatch):
    """The last hop gathers only from nodes an accepted center reached and
    whose rows no earlier circle has read there, so one cover gathers fewer
    neighbour entries than the graph holds, counting the labelling hops and
    the searches from sources accepted past a clash (gathering the whole
    deepest layer of every window reads 3.2 times as many here at r = 4).
    Those searches start at the rings already gathered for the clash test,
    so no source's row is read twice (a search that reads them again takes
    73,438, 89,673 and 104,912 entries)."""
    g = build_cvig(random_3cnf(2000, 20000, seed=7))
    entries = []

    def counting(graph, frontier):
        nb, counts = gather_neighbors(graph, frontier)
        entries.append(nb.size)
        return nb, counts

    monkeypatch.setattr(fractal, "gather_neighbors", counting)
    monkeypatch.setattr(graph_module, "gather_neighbors", counting)
    for r, most in ((3, 69_374), (4, 87_088), (5, 104_885)):
        entries.clear()
        _, centers = greedy_cover_count(g, r)
        assert sum(entries) <= most < g.indices.size
        assert centers.tolist() == lex_first_mis(g, r - 1)


def test_greedy_accepts_past_first_clash(monkeypatch):
    """A window accepts every source that no earlier source reaches, not
    only those before its first clash, so the canonically ordered CVIG,
    whose windows clash after a few sources, is covered in few windows."""
    g = build_cvig(_canonical_clause_order(random_3cnf(2000, 8500, seed=1)))
    calls = []

    def counting(graph, frontier):
        calls.append(frontier.size)
        return gather_neighbors(graph, frontier)

    monkeypatch.setattr(fractal, "gather_neighbors", counting)
    _, centers = greedy_cover_count(g, 3)
    assert len(calls) < 100
    assert centers.tolist() == lex_first_mis(g, 2)


def _late_circle_graph(r):
    """Three stars whose hubs fill the first windows, so the third window
    holds four sources: c, b, a and a fourth hub, in that order. b lies
    r - 1 hops from c (it clashes), a and the hub are free, and x lies
    r - 2 hops from both b and a, so x keeps b's label although only a's
    circle burns it. x comes next in the order: a burn by labels alone
    leaves it unburned and makes it a center."""
    edges, count = [], 0

    def node():
        nonlocal count
        count += 1
        return count - 1

    def leaves(u, k):
        edges.extend((u, node()) for _ in range(k))

    def path(u, v, length):
        for _ in range(length - 1):
            w = node()
            edges.append((u, w))
            u = w
        edges.append((u, v))

    for k in (10, 9, 8):
        leaves(node(), k)
    c, b, a, hub, x = (node() for _ in range(5))
    for u, k in ((c, 6), (b, 4), (a, 4), (hub, 4), (x, 1)):
        leaves(u, k)
    path(c, b, r - 1)
    path(b, x, r - 2)
    path(x, a, r - 2)
    return graph_from_edges(count, edges), a, x


@pytest.mark.parametrize("r", (4, 5))
def test_greedy_late_circle_through_rejected_label(r):
    g, a, x = _late_circle_graph(r)
    _, centers = greedy_cover_count(g, r)
    want = greedy_centers(g, r)
    assert centers.tolist() == want
    assert lex_first_mis(g, r - 1) == want
    assert a in want and x not in want


@pytest.mark.parametrize("g", GRAPHS)
def test_verify_cover(g):
    adj = adjacency_sets(g)
    rng = np.random.default_rng(g.node_count + 1)
    for _ in range(20):
        r = int(rng.integers(1, 7))
        k = int(rng.integers(1, g.node_count + 1))
        centers = rng.choice(g.node_count, size=k, replace=True)
        want = len(hop_distances(adj, set(centers.tolist()), r - 1)) == g.node_count
        assert verify_cover(g, centers, r) == want


def _random_multigraph(rng, n, edges):
    """Edge arrays with many parallel edges given in both directions, and
    weights that are multiples of 1/16, so that their sums are exact in any
    order."""
    u = rng.integers(0, n, size=edges)
    v = (u + rng.integers(1, n, size=edges)) % n
    w = rng.integers(1, 64, size=edges) / 16.0
    return u, v, w


@pytest.mark.parametrize("weight_mode", ("sum", "unit"))
def test_from_edges_oracle(weight_mode):
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(2, 25))
        u, v, w = _random_multigraph(rng, n, int(rng.integers(0, 4 * n)))
        g = Graph.from_edges(n, u, v, w if weight_mode == "sum" else None)
        want = reference_csr(n, u.tolist(), v.tolist(), w.tolist(),
                              weight_mode)
        for got, ref in zip((g.indptr, g.indices, g.weights), want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


def _large_multigraph(n, edges):
    """About `edges` edges among the first 80 % of n nodes, so the rest are
    isolated, with a fifth of them repeated and every other repeat given in
    the opposite direction: arrays big enough for numpy's large-array sorts."""
    rng = np.random.default_rng(n)
    u, v, w = _random_multigraph(rng, int(0.8 * n), edges)
    dup = rng.choice(u.size, size=u.size // 5, replace=False)
    flip = np.arange(dup.size) % 2 == 1
    u, v = (np.concatenate((u, np.where(flip, v[dup], u[dup]))),
            np.concatenate((v, np.where(flip, u[dup], v[dup]))))
    return u, v, np.concatenate((w, w[dup]))


@pytest.mark.parametrize("weight_mode", ("sum", "unit"))
@pytest.mark.parametrize("edges", (50_000, 0))
@pytest.mark.parametrize("as_input", (
    lambda a: a,
    lambda a: a.astype(np.int32),
    lambda a: a.tolist(),
), ids=("int64", "int32", "list"))
def test_from_edges_oracle_large(weight_mode, edges, as_input):
    n = 5000
    u, v, w = _large_multigraph(n, edges)
    g = Graph.from_edges(n, as_input(u), as_input(v),
                         w.tolist() if weight_mode == "sum" else None)
    want = reference_csr(n, u.tolist(), v.tolist(), w.tolist(), weight_mode)
    for got, ref in zip((g.indptr, g.indices, g.weights), want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def test_from_edges_sum_order_canonical():
    """Weight sums do not depend on the order or direction the parallel
    edges arrive in, even where float addition is not associative."""
    rng = np.random.default_rng(78)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        u, v, _ = _random_multigraph(rng, n, 6 * n)
        w = 1.0 / rng.integers(1, 12, size=u.size) + rng.random(u.size)
        g = Graph.from_edges(n, u, v, w)
        perm = rng.permutation(u.size)
        flip = rng.random(u.size) < 0.5
        pu = np.where(flip, v, u)[perm]
        pv = np.where(flip, u, v)[perm]
        h = Graph.from_edges(n, pu, pv, w[perm])
        assert np.array_equal(g.indptr, h.indptr)
        assert np.array_equal(g.indices, h.indices)
        assert np.array_equal(g.weights, h.weights)
