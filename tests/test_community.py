import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from cnfscope import community
from cnfscope.cnf import random_3cnf
from cnfscope.community import (
    Partition,
    _flagged,
    _LevelGraph,
    _local_moving,
    fold_communities,
    modularity,
)
from cnfscope.features import _canonical_clause_order
from cnfscope.graph import Graph, build_vig
from oracles import (
    best_move_gain,
    communities,
    dict_local_moving,
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
        # more communities than nodes fails before any count per id is made
        with pytest.raises(ValueError, match="contiguous"):
            Partition(np.array([0, 1]), 10**12)

    def test_communities(self):
        p = Partition(np.array([0, 1, 0]), 2)
        assert communities(p) == [[0, 2], [1]]


class TestFoldCommunities:
    def test_two_k5s_exact(self):
        g = _two_cliques(5)
        res = fold_communities(g, seed=0)
        assert res.q == 0.5
        blocks = {frozenset(b) for b in communities(res.partition)}
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0],
                             ids=["nan", "inf", "-inf", "zero", "negative"])
    def test_weights_positive_and_finite(self, bad):
        g = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, bad, 2.0])
        with pytest.raises(ValueError,
                           match="edge weights must be positive and finite"):
            fold_communities(g, seed=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_small_graph_no_single_move_raises_q_vig(self, seed):
        # a small graph's folds end with a refinement pass over the input
        # graph; aggregation alone leaves moves that raise Q
        g = build_vig(random_3cnf(300, 1275, seed=1000 + seed), weighted=True)
        res = fold_communities(g, seed=seed)
        assert best_move_gain(g, res.partition.assignment) <= 1e-12

    @pytest.mark.parametrize("seed,integer_weights", [
        (seed, seed % 2 == 0) for seed in range(40)])
    def test_small_graph_no_single_move_raises_q(self, seed, integer_weights):
        g = _random_weighted_graph(np.random.default_rng(seed), integer_weights)
        res = fold_communities(g, seed=seed)
        assert best_move_gain(g, res.partition.assignment) <= 1e-12

    def test_large_graph_folds_once_unrefined(self):
        # above SMALL_GRAPH nodes: one restart and no refinement pass, so
        # the fold is the one recorded before refinement was added
        f = _canonical_clause_order(random_3cnf(2500, 10625, seed=1))
        g = build_vig(f, weighted=True)
        assert g.node_count > community.SMALL_GRAPH
        res = fold_communities(g, seed=42)
        assert (res.q, res.q_incremental, res.levels, res.passes) == \
            (0.16774478542099228, 0.1677447854209916, 3, 47)
        assert res.partition.community_count == 17
        digest = hashlib.sha256(
            res.partition.assignment.astype("<i8").tobytes()).hexdigest()
        assert digest == ("6e1198bb910d83b304160b82240a4746"
                          "7fda606c5311fef9f08c0fc3e357ab76")

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

    @pytest.mark.parametrize("seed,integer_weights", CASES)
    def test_locally_optimal_start_returns_unchanged(self, seed,
                                                     integer_weights):
        # one check finds nothing to move: no round, no gain, no draw
        g = _random_weighted_graph(np.random.default_rng(seed), integer_weights)
        lg = _LevelGraph(g, np.zeros(g.node_count))
        start, _, _ = _local_moving(lg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        state = rng.bit_generator.state
        labels, gain, rounds = _local_moving(lg, rng, start)
        np.testing.assert_array_equal(labels, start)
        assert (gain, rounds) == (0.0, 0)
        assert rng.bit_generator.state == state

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


def _loop_moves(lg, comm, sigma):
    """The nodes that one visit of _local_moving would move from the state
    (comm, sigma), in the loop's own arithmetic: weights summed left to right
    in CSR neighbour order per neighbour community (here into a dict, in the
    loop into its flat accumulator), then the stay and move gains."""
    g = lg.g
    total_w = lg.total
    two_w2 = 2.0 * total_w * total_w
    moves = np.zeros(g.node_count, dtype=bool)
    for u in range(g.node_count):
        a, s_u = comm[u], float(lg.strength[u])
        lo, hi = g.indptr[u], g.indptr[u + 1]
        links = {}
        for v, w in zip(g.indices[lo:hi].tolist(), g.weights[lo:hi].tolist()):
            links[comm[v]] = links.get(comm[v], 0.0) + w
        stay = links.get(a, 0.0) / total_w - (sigma[a] - s_u) * s_u / two_w2
        moves[u] = any(w_c / total_w - sigma[c] * s_u / two_w2 > stay
                       for c, w_c in links.items() if c != a)
    return moves


def _check_state(lg, rng):
    """A random partition of the level graph into a few communities, with
    the community strengths summed from it."""
    n = lg.g.node_count
    comm = rng.integers(0, max(1, n // 4), n).tolist()
    sigma = np.bincount(comm, weights=lg.strength, minlength=n).tolist()
    return comm, sigma


class TestFlagged:
    """The check of a drained queue flags exactly the nodes a visit moves."""

    @pytest.fixture(params=[community.CHECK_EDGES, 16], ids=["one", "chunks"])
    def check_edges(self, request, monkeypatch):
        monkeypatch.setattr(community, "CHECK_EDGES", request.param)
        return request.param

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graph_random_partition(self, seed, check_edges):
        rng = np.random.default_rng(seed)
        g = _random_weighted_graph(rng, seed % 3 == 0)
        lg = _LevelGraph(g, np.zeros(g.node_count))
        comm, sigma = _check_state(lg, rng)
        np.testing.assert_array_equal(_flagged(lg, comm, sigma),
                                      _loop_moves(lg, comm, sigma))

    @pytest.mark.parametrize("seed", range(8))
    def test_aggregated_level_graph(self, seed, check_edges):
        # level graphs carry self-loop weight in strength but not in links
        rng = np.random.default_rng(50 + seed)
        g = _random_weighted_graph(rng, False)
        labels = rng.integers(0, max(2, g.node_count // 3), g.node_count)
        uniq, compact = np.unique(labels, return_inverse=True)
        lg = _LevelGraph(g, np.zeros(g.node_count)).aggregate(compact, uniq.size)
        assert lg.selfw.any()
        comm, sigma = _check_state(lg, rng)
        np.testing.assert_array_equal(_flagged(lg, comm, sigma),
                                      _loop_moves(lg, comm, sigma))

    def test_state_of_a_running_loop(self, check_edges):
        # sigma as the loop leaves it after moves, on a formula's VIG
        g = build_vig(random_3cnf(200, 850, seed=3), weighted=True)
        lg = _LevelGraph(g, np.zeros(g.node_count))
        labels, _, _ = _local_moving(lg, np.random.default_rng(0))
        comm = labels.tolist()
        rng = np.random.default_rng(1)
        for u in rng.choice(g.node_count, 40, replace=False).tolist():
            comm[u] = int(rng.integers(0, g.node_count))
        sigma = np.bincount(comm, weights=lg.strength,
                            minlength=g.node_count).tolist()
        np.testing.assert_array_equal(_flagged(lg, comm, sigma),
                                      _loop_moves(lg, comm, sigma))

    def test_sums_left_to_right(self, check_edges):
        # node 0 has weights 0.1, 0.2, 0.3 into its own community and 0.2,
        # 0.1, 0.3 into community 1: left to right both sum to
        # 0.6000000000000001 and the strengths tie, so the loop stays put.
        # Summed as 0.1 + (0.2 + 0.3) = 0.6, staying would look worse.
        g = Graph.from_edges(7, [0] * 6, [1, 2, 3, 4, 5, 6],
                             [0.1, 0.2, 0.3, 0.2, 0.1, 0.3])
        lg = _LevelGraph(g, np.zeros(7))
        comm = [0, 0, 0, 0, 1, 1, 1]
        sigma = np.bincount(comm, weights=lg.strength).tolist()
        assert sigma[0] - lg.strength[0] == sigma[1]
        expected = _loop_moves(lg, comm, sigma)
        assert not expected[0]
        np.testing.assert_array_equal(_flagged(lg, comm, sigma), expected)

    def test_isolated_nodes(self, check_edges):
        g = Graph.from_edges(6, [1, 1, 4], [2, 3, 2], [0.5, 1.5, 2.0])
        lg = _LevelGraph(g, np.zeros(6))
        comm = list(range(6))
        sigma = lg.strength.tolist()
        np.testing.assert_array_equal(_flagged(lg, comm, sigma),
                                      _loop_moves(lg, comm, sigma))

    def test_memory_bounded_by_chunk(self):
        # a dense graph of 2**18 directed edges: the check's temporaries
        # must scale with CHECK_EDGES, not with the edge count
        rng = np.random.default_rng(5)
        n = 2000
        u = rng.integers(0, n, 2 ** 17)
        v = (u + rng.integers(1, n, u.size)) % n
        g = Graph.from_edges(n, u, v, rng.uniform(0.1, 2.0, u.size))
        lg = _LevelGraph(g, np.zeros(n))
        comm = rng.integers(0, 50, n).tolist()
        sigma = np.bincount(comm, weights=lg.strength, minlength=n).tolist()
        assert g.indices.size > 6 * community.CHECK_EDGES
        tracemalloc.start()
        try:
            _flagged(lg, comm, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * community.CHECK_EDGES + 64 * n


class TestStopRule:
    @pytest.mark.parametrize("seed", range(4))
    def test_flagged_round_without_move_ends_level(self, seed, monkeypatch):
        # a check that flags a node with no better community, once the real
        # check flags nothing: the flagged round moves nothing and the level
        # ends after it, with the same labels and gain
        g = _random_weighted_graph(np.random.default_rng(seed), False)
        lg = _LevelGraph(g, np.zeros(g.node_count))
        labels, gain, rounds = _local_moving(lg, np.random.default_rng(seed))
        real, faked = community._flagged, []

        def flag_a_settled_node(lg, comm, sigma):
            flags = real(lg, comm, sigma)
            if not flags.any():
                faked.append(True)
                flags[0] = True
            return flags

        monkeypatch.setattr(community, "_flagged", flag_a_settled_node)
        labels2, gain2, rounds2 = _local_moving(lg, np.random.default_rng(seed))
        assert faked == [True]
        assert rounds2 == rounds + 1
        assert gain2 == gain
        np.testing.assert_array_equal(labels2, labels)

    def test_rounding_cycle_ends_level(self, monkeypatch):
        # on this VIG, in the second restart, a node lies between two
        # communities of equal strength whose sigmas differ in the last bit;
        # each looks one ulp better than staying, and a level that ended only
        # on a flagged round without moves sent it back and forth forever
        g = build_vig(random_3cnf(300, 1275, seed=741004), weighted=True)
        lg = _LevelGraph(g, np.zeros(g.node_count))
        real, checks = community._flagged, []

        def counted(lg, comm, sigma):
            checks.append(True)
            if len(checks) > 1000:
                raise AssertionError("local moving cycles")
            return real(lg, comm, sigma)

        monkeypatch.setattr(community, "_flagged", counted)
        rng = np.random.default_rng(np.random.SeedSequence(42).spawn(10)[1])
        labels, gain, _ = _local_moving(lg, rng)
        assert best_move_gain(g, labels) <= 1e-12
        singles = modularity(g, Partition.singletons(g.node_count))
        q = modularity(g, Partition.from_labels(labels))
        assert q == pytest.approx(singles + gain, abs=1e-12)
        res = fold_communities(g, seed=42)
        assert res.q == pytest.approx(res.q_incremental, abs=1e-12)


def _aggregated_level_graph(seed):
    """The level graph above one local moving of a random formula's
    weighted VIG: nodes carry self-loops and the weights are sums."""
    g = build_vig(random_3cnf(150, 640, seed=200 + seed), weighted=True)
    lg = _LevelGraph(g, np.zeros(g.node_count))
    labels, _, _ = _local_moving(lg, np.random.default_rng(seed))
    uniq, compact = np.unique(labels, return_inverse=True)
    return lg.aggregate(compact, uniq.size)


class TestDictOracle:
    """The flat accumulator is a change of data structure only: the same
    labels, bit for bit the same gain, and the same rounds as the loop that
    summed each visit into a fresh dict."""

    @staticmethod
    def _assert_same(lg, seed, start=None):
        labels, gain, rounds = _local_moving(lg, np.random.default_rng(seed),
                                             start)
        want = dict_local_moving(lg, np.random.default_rng(seed), start)
        np.testing.assert_array_equal(labels, want[0])
        assert gain == want[1]
        assert rounds == want[2]

    @pytest.mark.parametrize("seed,integer_weights", TestLocalMoving.CASES)
    def test_random_graphs(self, seed, integer_weights):
        g = _random_weighted_graph(np.random.default_rng(seed), integer_weights)
        self._assert_same(_LevelGraph(g, np.zeros(g.node_count)), seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_aggregated_level_graphs(self, seed):
        lg = _aggregated_level_graph(seed)
        assert lg.selfw.any()
        self._assert_same(lg, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_3cnf_vigs(self, seed):
        g = build_vig(random_3cnf(300, 1275, seed=seed), weighted=True)
        self._assert_same(_LevelGraph(g, np.zeros(g.node_count)), seed)

    @pytest.mark.parametrize("seed,integer_weights", TestLocalMoving.CASES)
    def test_random_start(self, seed, integer_weights):
        rng = np.random.default_rng(seed)
        g = _random_weighted_graph(rng, integer_weights)
        lg = _LevelGraph(g, np.zeros(g.node_count))
        start = rng.integers(0, g.node_count, g.node_count)
        assert _flagged(lg, start, np.bincount(
            start, weights=lg.strength, minlength=g.node_count)).any()
        self._assert_same(lg, seed, start)

    @pytest.mark.parametrize("seed", range(6))
    def test_start_from_a_fold(self, seed):
        # the refinement pass of fold_communities: the input graph, started
        # from the flat partition of one fold
        g = build_vig(random_3cnf(300, 1275, seed=seed), weighted=True)
        lg = _LevelGraph(g, np.zeros(g.node_count))
        flat = community._fold_once(lg, 0.0, np.random.default_rng(seed))[0]
        assert _flagged(lg, flat, np.bincount(flat, weights=lg.strength)).any()
        self._assert_same(lg, seed, flat)

    @pytest.mark.parametrize("seed", range(6))
    def test_fold_communities(self, seed, monkeypatch):
        g = build_vig(random_3cnf(300, 1275, seed=seed), weighted=True)
        got = fold_communities(g, seed=seed)
        monkeypatch.setattr(community, "_local_moving", dict_local_moving)
        want = fold_communities(g, seed=seed)
        assert (got.q, got.q_incremental, got.levels, got.passes) == \
            (want.q, want.q_incremental, want.levels, want.passes)
        assert got.partition.community_count == want.partition.community_count
        np.testing.assert_array_equal(got.partition.assignment,
                                      want.partition.assignment)


class TestLevelGraphRows:
    def test_rows_are_csr_rows(self):
        g = _aggregated_level_graph(0).g
        nbrs, ws, gets = community._rows(g)
        assert len(nbrs) == len(ws) == len(gets) == g.node_count
        for u in range(g.node_count):
            lo, hi = g.indptr[u], g.indptr[u + 1]
            assert list(nbrs[u]) == g.indices[lo:hi].tolist()
            assert ws[u] == tuple(g.weights[lo:hi].tolist())

    @staticmethod
    def _mixed_degrees():
        # nodes 0-2 form a triangle and node 2 also links node 3, which
        # has degree 1 as nodes 5 and 6 do; node 4 is isolated (with a
        # self-loop)
        g = graph_from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (5, 6)],
                             [2.0, 1.0, 1.5, 0.5, 1.0])
        lg = _LevelGraph(g, np.array([0.0, 0.25, 0.0, 0.0, 1.0, 0.0, 0.5]))
        assert sorted(set(g.degrees.tolist())) == [0, 1, 2, 3]
        return lg

    def test_getters_read_communities_in_csr_order(self):
        g = self._mixed_degrees().g
        gets = community._rows(g)[2]
        comm = [10 * u + 7 for u in range(g.node_count)]
        for u in range(g.node_count):
            row = g.indices[g.indptr[u]:g.indptr[u + 1]].tolist()
            want = [comm[v] for v in row]
            if len(row) == 1:
                want *= 2
            assert gets[u](comm) == tuple(want)

    @pytest.mark.parametrize("seed", range(4))
    def test_local_moving_on_mixed_degrees_matches_dict_oracle(self, seed):
        lg = self._mixed_degrees()
        TestDictOracle._assert_same(lg, seed)
        TestDictOracle._assert_same(lg, seed, np.array([0, 0, 1, 1, 2, 3, 3]))

    def test_rows_memory(self):
        # the rows point at one int per node id and one float per distinct
        # weight: a pointer per directed edge in each of the two rows, a
        # row header per node and row, and a getter per node that shares
        # the id row rather than copying it. One int and one float object per
        # edge would cost at least 68 bytes per edge.
        g = build_vig(random_3cnf(2000, 8500, seed=1), weighted=True)
        n, edges = g.node_count, g.indices.size
        assert edges > 20 * n
        community._rows(_two_cliques(3))  # numpy's lazy imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = community._rows(g)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rows[0]) == n
        assert held < 20 * edges + 256 * n


class TestRowLifetime:
    """A level's rows belong to its local moving pass: they are freed
    before the level aggregates, and a fold builds them once per level,
    the input graph's once for all its restarts."""

    @staticmethod
    def _large_vig():
        g = build_vig(random_3cnf(2500, 10625, seed=1), weighted=True)
        assert g.node_count > community.SMALL_GRAPH
        return g

    def test_rows_freed_before_level_aggregates(self, monkeypatch):
        class Rows(list):  # a plain list takes no weak reference
            pass

        built, alive = [], []
        rows, aggregate = community._rows, _LevelGraph.aggregate

        def tracked_rows(g):
            nbrs, ws, gets = rows(g)
            nbrs = Rows(nbrs)
            built.append(weakref.ref(nbrs))
            return nbrs, ws, gets

        def checked_aggregate(lg, labels, n_comm):
            gc.collect()
            alive.append(sum(r() is not None for r in built))
            return aggregate(lg, labels, n_comm)

        monkeypatch.setattr(community, "_rows", tracked_rows)
        monkeypatch.setattr(_LevelGraph, "aggregate", checked_aggregate)
        res = fold_communities(self._large_vig(), seed=42)
        assert res.levels == len(alive) >= 1
        assert alive == [0] * len(alive)

    def test_aggregate_peak_memory(self):
        # the level's rows are dead and the new level builds none, and only
        # the kept edges reach Graph.from_edges: 1.29 times level 0's bytes,
        # against 1.94 when each level graph built its rows
        g = self._large_vig()
        lg = _LevelGraph(g, np.zeros(g.node_count))
        labels, _, _ = _local_moving(lg, np.random.default_rng(42))
        uniq, compact = np.unique(labels, return_inverse=True)
        lg.aggregate(compact, uniq.size)  # numpy's lazy imports
        tracemalloc.start()
        try:
            lg.aggregate(compact, uniq.size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (g.indptr.nbytes + g.indices.nbytes
                              + g.weights.nbytes)

    @pytest.mark.parametrize("n,m", [(300, 1275), (2500, 10625)],
                             ids=["small", "large"])
    def test_rows_built_once_per_level(self, n, m, monkeypatch):
        calls = {"_rows": 0, "aggregate": 0}
        rows, aggregate = community._rows, _LevelGraph.aggregate

        def counted_rows(g):
            calls["_rows"] += 1
            return rows(g)

        def counted_aggregate(lg, labels, n_comm):
            calls["aggregate"] += 1
            return aggregate(lg, labels, n_comm)

        monkeypatch.setattr(community, "_rows", counted_rows)
        monkeypatch.setattr(_LevelGraph, "aggregate", counted_aggregate)
        fold_communities(build_vig(random_3cnf(n, m, seed=1), weighted=True),
                         seed=42)
        assert calls["aggregate"] >= 1
        assert calls["_rows"] == 1 + calls["aggregate"]


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

