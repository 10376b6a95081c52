import numpy as np
import pytest

from cnfscope.cnf import random_3cnf
from cnfscope.community import (
    Partition,
    _LevelGraph,
    _local_moving,
    fold_communities,
    modularity,
)
from cnfscope.graph import Graph, build_vig
from oracles import (
    best_move_gain,
    graph_from_edges,
    modularity_optimum,
    random_graph,
)


def _clique_edges(nodes):
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]


def _two_cliques(k):
    left = list(range(k))
    right = list(range(k, 2 * k))
    return graph_from_edges(2 * k, _clique_edges(left) + _clique_edges(right))


class TestModularity:
    def test_single_community_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 10)), 0.5)
            if g.edge_count == 0:
                continue
            p = Partition(np.zeros(g.node_count, dtype=np.int64), 1)
            assert modularity(g, p) == pytest.approx(0.0, abs=1e-15)

    def test_two_disjoint_triangles(self):
        g = graph_from_edges(6, _clique_edges([0, 1, 2]) + _clique_edges([3, 4, 5]))
        p = Partition(np.array([0, 0, 0, 1, 1, 1]), 2)
        # direct formula: W=6, each community w_in=3, s=6
        assert modularity(g, p) == pytest.approx(0.5)

    def test_ring_of_cliques_closed_form(self):
        # c cliques of size k arranged in a ring, one bridging edge between
        # consecutive cliques; partition by clique
        c, k = 4, 4
        edges = []
        for i in range(c):
            block = list(range(i * k, (i + 1) * k))
            edges += _clique_edges(block)
            edges.append((block[-1], ((i + 1) % c) * k))
        g = graph_from_edges(c * k, edges)
        labels = np.repeat(np.arange(c), k)
        w_in = k * (k - 1) / 2
        total = c * (w_in + 1)
        s = 2 * w_in + 2
        expected = c * (w_in / total - (s / (2 * total)) ** 2)
        assert modularity(g, Partition(labels, c)) == pytest.approx(expected)

    def test_mismatch(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            modularity(g, Partition(np.array([0, 0]), 1))

    def test_weighted(self):
        g = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], [3.0, 1.0, 3.0])
        p = Partition(np.array([0, 0, 1, 1]), 2)
        total = 7.0
        expected = (3.0 / total - (7.0 / 14.0) ** 2) + \
                   (3.0 / total - (7.0 / 14.0) ** 2)
        assert modularity(g, p) == pytest.approx(expected)


class TestPartition:
    def test_from_labels_compacts(self):
        p = Partition.from_labels([5, 5, 2, 9, 2])
        assert p.assignment.tolist() == [0, 0, 1, 2, 1]
        assert p.community_count == 3

    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2]), 3)

    def test_communities(self):
        p = Partition(np.array([0, 1, 0]), 2)
        assert p.communities() == [[0, 2], [1]]


class TestFoldCommunities:
    def test_two_k5s_exact(self):
        g = _two_cliques(5)
        res = fold_communities(g, seed=0)
        assert res.q == 0.5
        blocks = {frozenset(b) for b in res.partition.communities()}
        assert blocks == {frozenset(range(5)), frozenset(range(5, 10))}

    def test_k6_single_community(self):
        g = graph_from_edges(6, _clique_edges(list(range(6))))
        res = fold_communities(g, seed=1)
        assert res.partition.community_count == 1
        assert res.q == pytest.approx(0.0, abs=1e-12)

    def test_quality_floor_vs_bruteforce(self):
        rng = np.random.default_rng(2)
        done = 0
        while done < 20:
            n = int(rng.integers(3, 8))
            g = random_graph(rng, n, 0.45)
            if g.edge_count == 0:
                continue
            opt, _ = modularity_optimum(g)
            res = fold_communities(g, seed=done)
            assert res.q >= 0.9 * opt - 1e-12
            done += 1

    def test_never_below_singletons(self):
        rng = np.random.default_rng(3)
        for seed in range(15):
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n, 0.3)
            res = fold_communities(g, seed=seed)
            singles = modularity(g, Partition.singletons(n)) if g.edge_count \
                else 0.0
            assert res.q >= singles - 1e-12
            assert -1.0 <= res.q <= 1.0

    def test_incremental_matches_recomputed(self):
        rng = np.random.default_rng(4)
        for seed in range(15):
            f = random_3cnf(40, 120, seed=seed)
            g = build_vig(f, weighted=True)
            res = fold_communities(g, seed=seed)
            assert res.q == pytest.approx(res.q_incremental, abs=1e-9)

    def test_deterministic_per_seed(self):
        f = random_3cnf(60, 150, seed=5)
        g = build_vig(f, weighted=True)
        a = fold_communities(g, seed=9)
        b = fold_communities(g, seed=9)
        assert a.q == b.q
        assert a.partition.assignment.tolist() == b.partition.assignment.tolist()

    def test_edgeless(self):
        g = Graph.from_edges(4, [], [])
        res = fold_communities(g, seed=0)
        assert res.q == 0.0
        assert res.partition.community_count == 4

    def test_random_phase_transition_low_q(self):
        # random formulas have weak community structure compared to ~0.8 for
        # modular industrial-like instances
        f = random_3cnf(300, 1275, seed=6)
        g = build_vig(f, weighted=True)
        res = fold_communities(g, seed=0)
        assert 0.0 < res.q < 0.6


def _random_weighted_graph(rng, integer_weights):
    n = int(rng.integers(4, 30))
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < rng.uniform(0.1, 0.5)
    size = int(keep.sum())
    w = rng.integers(1, 4, size).astype(float) if integer_weights \
        else rng.uniform(0.1, 3.0, size)
    return Graph.from_edges(n, iu[keep], iv[keep], w)


class TestLocalMoving:
    # half the graphs have small integer weights, which makes ties common
    CASES = [(seed, seed % 2 == 0) for seed in range(40)]

    @pytest.mark.parametrize("seed,integer_weights", CASES)
    def test_no_single_node_move_raises_q(self, seed, integer_weights):
        g = _random_weighted_graph(np.random.default_rng(seed), integer_weights)
        lg = _LevelGraph(g, np.zeros(g.node_count))
        labels, gain, _ = _local_moving(lg, np.random.default_rng(seed))
        assert best_move_gain(g, labels) <= 1e-12
        singles = modularity(g, Partition.singletons(g.node_count))
        q = modularity(g, Partition.from_labels(labels))
        assert q == pytest.approx(singles + gain, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_level_graph_no_block_move_raises_q(self, seed):
        # on the aggregated graph a node is a level-0 community and carries a
        # self-loop: moving it moves the whole block in the original graph
        g = _random_weighted_graph(np.random.default_rng(100 + seed), False)
        rng = np.random.default_rng(seed)
        lg = _LevelGraph(g, np.zeros(g.node_count))
        labels, _, _ = _local_moving(lg, rng)
        uniq, compact = np.unique(labels, return_inverse=True)
        upper, _, _ = _local_moving(lg.aggregate(compact, uniq.size), rng)
        blocks = [np.flatnonzero(compact == b) for b in range(uniq.size)]
        assert best_move_gain(g, upper[compact], blocks) <= 1e-12


class TestModularStructure:
    def test_planted_communities_high_q(self):
        # formula over 10 blocks of 30 variables, clauses stay inside blocks:
        # the weighted VIG has Q near the planted partition's value
        rng = np.random.default_rng(7)
        clauses = []
        for b in range(10):
            base = 30 * b
            for _ in range(120):
                vs = rng.choice(30, size=3, replace=False) + 1 + base
                signs = rng.integers(0, 2, size=3) * 2 - 1
                clauses.append(tuple(int(v * s) for v, s in zip(vs, signs)))
        from cnfscope.cnf import CnfFormula
        f = CnfFormula.from_clauses(300, clauses)
        g = build_vig(f, weighted=True)
        res = fold_communities(g, seed=0)
        assert res.q > 0.85

