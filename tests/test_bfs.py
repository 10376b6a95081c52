"""Every breadth-first search of the library against the deque oracle, on
seeded random graphs that include disconnected ones and isolated nodes."""

import numpy as np
import pytest

from cnfscope.fractal import greedy_cover_count, verify_cover
from cnfscope.graph import bfs_distances, bfs_layers, connected_components
from oracles import (
    adjacency_sets,
    greedy_centers,
    hop_distances,
    random_connected_graph,
    random_graph,
)


def _graphs():
    rng = np.random.default_rng(2024)
    graphs = [random_graph(rng, n, p) for n, p in
              ((1, 0.5), (12, 0.1), (25, 0.08), (30, 0.2), (40, 0.05))]
    graphs += [random_connected_graph(rng, n, extra) for n, extra in
               ((15, 0), (30, 4), (50, 10))]
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


@pytest.mark.parametrize("g", GRAPHS)
def test_connected_components(g):
    adj = adjacency_sets(g)
    count, comp = connected_components(g)
    blocks = {frozenset(hop_distances(adj, [u])) for u in range(g.node_count)}
    assert count == len(blocks)
    assert sorted(np.unique(comp).tolist()) == list(range(count))
    for block in blocks:
        assert len({int(comp[v]) for v in block}) == 1


@pytest.mark.parametrize("g", GRAPHS)
@pytest.mark.parametrize("r", (2, 3, 4))
@pytest.mark.parametrize("ordering", ("desc_degree", "asc_degree"))
def test_greedy_balls(g, r, ordering):
    adj = adjacency_sets(g)
    count, centers = greedy_cover_count(g, r, ordering)
    want = greedy_centers(g, r, descending=ordering == "desc_degree")
    assert centers.tolist() == want
    assert count == len(want)
    assert len(hop_distances(adj, want, r - 1)) == g.node_count


@pytest.mark.parametrize("g", GRAPHS)
def test_verify_cover(g):
    adj = adjacency_sets(g)
    rng = np.random.default_rng(g.node_count + 1)
    for _ in range(20):
        r = int(rng.integers(1, 5))
        k = int(rng.integers(1, g.node_count + 1))
        centers = rng.choice(g.node_count, size=k, replace=True)
        want = len(hop_distances(adj, set(centers.tolist()), r - 1)) == g.node_count
        assert verify_cover(g, centers, r) == want
