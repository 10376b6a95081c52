import re
import tracemalloc

import numpy as np
import pytest

from cnfscope.cnf import CnfFormula, random_3cnf
from cnfscope.graph import (
    Graph,
    _csr,
    build_cig,
    build_cvig,
    build_vig,
    connected_components,
    gather_neighbors,
    row_ranges,
    run_starts,
)
from oracles import (bfs_distances, eccentricities, graph_from_edges,
                     neighbors, random_formula, ranked_twin, reference_csr)


def _clause_pair_csr(clauses):
    """The CIG's CSR arrays, every clause pair checked by brute force."""
    pairs = [(i, j) for i, a in enumerate(clauses)
             for j, b in enumerate(clauses)
             if i < j and any(-lit in b for lit in a)]
    return reference_csr(len(clauses), [i for i, _ in pairs],
                         [j for _, j in pairs], [1.0] * len(pairs), "unit")


def _assert_csr(g, want):
    for got, ref in zip((g.indptr, g.indices, g.weights), want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def _path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestBuildVig:
    def test_triangle_weights(self):
        f = CnfFormula.from_clauses(3, [[1, 2, -3]])
        g = build_vig(f, weighted=True)
        assert g.edge_count == 3
        assert np.allclose(g.weights, 1 / 3)

    def test_parallel_clauses_sum(self):
        f = CnfFormula.from_clauses(2, [[1, 2], [1, 2]])
        g = build_vig(f, weighted=True)
        assert g.edge_count == 1
        assert g.weights[g.indptr[0]:g.indptr[1]].tolist() == [2.0]

    def test_unit_clause_isolated(self):
        f = CnfFormula.from_clauses(1, [[1]])
        g = build_vig(f)
        assert g.node_count == 1
        assert g.edge_count == 0

    def test_unused_variable_isolated(self):
        f = CnfFormula.from_clauses(4, [[1, 2]])
        g = build_vig(f)
        assert g.node_count == 4
        assert g.degrees[3] == 0

    def test_unweighted_unit_weights(self):
        f = CnfFormula.from_clauses(3, [[1, 2], [1, 2], [2, 3]])
        g = build_vig(f, weighted=False)
        assert g.edge_count == 2
        assert set(g.weights.tolist()) == {1.0}

    def test_total_weight_equals_wide_clause_count(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            f = random_formula(rng)
            g = build_vig(f, weighted=True)
            wide = sum(1 for c in f.clauses if len({abs(l) for l in c}) >= 2)
            assert g.total_weight == pytest.approx(wide)

    def test_adjacency_sorted(self):
        f = random_3cnf(30, 80, seed=1)
        g = build_vig(f)
        for u in range(g.node_count):
            nb = neighbors(g, u)
            assert (np.diff(nb) > 0).all()

    @pytest.mark.parametrize("weighted", (False, True))
    def test_long_clause_peak_memory(self, weighted):
        """The pairs of a clause are built as whole arrays, not one array
        per pair position: one clause of 1000 variables peaks within 4 times
        the bytes of the graph it returns."""
        f = CnfFormula.from_clauses(1000, [list(range(1, 1001))])
        f.clause_vars
        tracemalloc.start()
        try:
            g = build_vig(f, weighted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count == 1000 * 999 // 2
        graph_bytes = g.indptr.nbytes + g.indices.nbytes
        if weighted:
            graph_bytes += g.weights.nbytes
        assert peak <= 4 * graph_bytes


def _raw_formulas():
    """Seeded formulas built directly, so that duplicate literals and
    tautologies stay, with clause lengths 0..40; the last has no pair of
    distinct variables in any clause."""
    rng = np.random.default_rng(31)
    out = []
    for _ in range(40):
        n = int(rng.integers(1, 60))
        sizes = rng.integers(0, 41, size=int(rng.integers(0, 10)))
        out.append(CnfFormula(n, tuple(
            tuple((rng.integers(1, n + 1, size=k)
                   * rng.choice((-1, 1), size=k)).tolist()) for k in sizes)))
    out.append(CnfFormula(3, ((1,), (), (-2, -2), (3, 3, -3))))
    return out


class TestBuilderOracles:
    """VIG and CVIG arrays against the edge-by-edge reference CSR. The
    reference adds parallel weights left to right, np.add.reduceat as
    w0 + (w1 + w2 + ...), so weight sums of three or more non-dyadic
    weights agree to rounding; everything else agrees exactly."""

    @staticmethod
    def _check(g, want):
        for got, ref in zip((g.indptr, g.indices, g.weights), want):
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert np.array_equal(g.indptr, want[0])
        assert np.array_equal(g.indices, want[1])
        np.testing.assert_allclose(g.weights, want[2], rtol=1e-14, atol=0)

    def test_formulas_have_defects(self):
        formulas = _raw_formulas()
        assert any(len(set(c)) < len(c) for f in formulas for c in f.clauses)
        assert any(f.tautological for f in formulas)
        assert max(len(c) for f in formulas for c in f.clauses) >= 35

    @pytest.mark.parametrize("weighted", (False, True))
    def test_vig(self, weighted):
        for f in _raw_formulas():
            u, v, w = [], [], []
            for c in f.clauses:
                vs = sorted({abs(lit) - 1 for lit in c})
                pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
                u += [a for a, _ in pairs]
                v += [b for _, b in pairs]
                w += [1.0 / len(pairs) for _ in pairs]
            want = reference_csr(f.num_vars, u, v, w,
                                 "sum" if weighted else "unit")
            self._check(build_vig(f, weighted), want)

    # build_cvig(f, False) is the call shape build_cvig shares with
    # build_vig; True is an error (TestBuildCvig.test_weighted_rejected)
    @pytest.mark.parametrize("weighted", (False,))
    def test_cvig(self, weighted):
        for f in _raw_formulas():
            u, v = [], []
            for ci, c in enumerate(f.clauses):
                vs = sorted({abs(lit) - 1 for lit in c})
                u += vs
                v += [f.num_vars + ci] * len(vs)
            want = reference_csr(f.num_vars + f.num_clauses, u, v,
                                 [1.0] * len(u), "unit")
            self._check(build_cvig(f, weighted), want)


def _degenerate_formulas():
    """No clause, an empty clause, unused variables, duplicate and
    complementary literals, and clauses over one variable only."""
    return [CnfFormula(4, ()), CnfFormula(3, ((),)),
            CnfFormula(6, ((2, 5), (), (5,))),
            CnfFormula(5, ((1, 1, 3), (-3, 3, 4), (4, -4), (2, 2, -2))),
            CnfFormula(0, ((),)), CnfFormula(0, ())]


def _and_gate_formulas():
    """Tseitin AND gates g = a & b over earlier variables, clauses (-g a),
    (-g b) and (g -a -b): each gate's three edges come from five pairs, so
    most edges are built from parallel pairs of clauses of two sizes."""
    rng = np.random.default_rng(3)
    inputs, gates = 40, 300
    clauses = []
    for g in range(inputs + 1, inputs + gates + 1):
        a, b = (rng.choice(g - 1, 2, replace=False) + 1).tolist()
        clauses += [(-g, a), (-g, b), (g, -a, -b)]
    return [CnfFormula(inputs + gates, tuple(clauses))]


class TestBuildVigCsr:
    @staticmethod
    def _pairs(f):
        """Each clause's variable pairs and their weights 1 / C(k, 2), in
        the order build_vig enumerates them."""
        indptr, vars_ = f.clause_vars
        u, v, w = [], [], []
        for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
            row = vars_[a:b].tolist()
            pairs = len(row) * (len(row) - 1) // 2
            for i, x in enumerate(row):
                u += [x] * (len(row) - 1 - i)
                v += row[i + 1:]
            w += [1.0 / pairs for _ in range(pairs)]
        return (np.array(u, dtype=np.int64), np.array(v, dtype=np.int64),
                np.array(w))

    @pytest.mark.parametrize("formulas", (_raw_formulas, _degenerate_formulas,
                                          _and_gate_formulas))
    @pytest.mark.parametrize("weighted", (False, True))
    def test_equals_from_edges(self, formulas, weighted):
        """The CSR build_vig assembles from one key sort is the one
        Graph.from_edges builds from the same pairs, array for array:
        values, dtypes, shapes and strides, the weights bit for bit and
        the zero-stride read-only unit weights."""
        for f in formulas():
            u, v, w = self._pairs(f)
            want = Graph.from_edges(f.num_vars, u, v, w if weighted else None)
            got = build_vig(f, weighted)
            assert ((got.node_count, got.variable_count)
                    == (want.node_count, want.variable_count)
                    == (f.num_vars, f.num_vars))
            for name in ("indptr", "indices", "weights"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
                assert np.array_equal(a, b)
            assert got.weights.flags.writeable == weighted

    def test_and_gates_repeat_pairs(self):
        f = _and_gate_formulas()[0]
        assert len(self._pairs(f)[0]) > 1.6 * build_vig(f).edge_count

    @pytest.mark.parametrize("weighted, most", ((False, 2.75), (True, 2.3)))
    def test_build_peak_memory(self, weighted, most):
        """Both directions of every pair are sorted in one buffer and the
        scratch arrays are dropped once spent: the build peaks within 2.75
        times the bytes of the graph, weights included, unweighted and 2.3
        times weighted (Graph.from_edges took 3.1 times both ways)."""
        f = random_3cnf(10000, 100000, seed=1)
        f.clause_vars
        tracemalloc.start()
        try:
            g = build_vig(f, weighted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        graph_bytes = g.indptr.nbytes + g.indices.nbytes
        if weighted:
            graph_bytes += g.weights.nbytes
        assert peak <= most * graph_bytes

    @pytest.mark.parametrize("weighted", (False, True))
    def test_keys_past_int64(self, weighted):
        # the keys u * n + v would pass int64: a MemoryError, before any
        # array of 2**62 rows is asked for
        f = CnfFormula(2**62, ((1, 2),))
        with pytest.raises(MemoryError, match=f"^a VIG of {2**62} variables "
                           "is too large$"):
            build_vig(f, weighted)

    def test_weight_ranks_past_int64(self):
        # n * n fits int64, but not times the 2 ranks of clause sizes 2 and 3
        f = CnfFormula(2**31, ((1, 2), (1, 2, 3)))
        with pytest.raises(MemoryError, match="too large"):
            build_vig(f, True)


class TestBuildCvig:
    @pytest.mark.parametrize("formulas", (_raw_formulas, _degenerate_formulas))
    def test_equals_from_edges(self, formulas):
        """The CSR build_cvig assembles from the clause rows is the one
        Graph.from_edges builds from the occurrence edges, array for array:
        values, dtypes, shapes and the zero-stride weights. Its variable
        nodes are the first n."""
        for f in formulas():
            n, m = f.num_vars, f.num_clauses
            indptr, vars_ = f.clause_vars
            want = Graph.from_edges(n + m, vars_,
                                    n + np.repeat(np.arange(m), np.diff(indptr)))
            got = build_cvig(f, False)
            assert got.node_count == want.node_count == n + m
            assert got.variable_count == n
            for name in ("indptr", "indices", "weights"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
                assert np.array_equal(a, b)
            assert not got.weights.flags.writeable

    def test_build_peak_memory(self):
        """The variable rows are sorted inside the indices array the graph
        returns, and its second half holds the sort's scratch: the build
        peaks within 1.75 times the bytes of the graph."""
        f = random_3cnf(10000, 100000, seed=1)
        f.clause_vars
        tracemalloc.start()
        try:
            g = build_cvig(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * (g.indptr.nbytes + g.indices.nbytes)

    def test_keys_past_int64(self):
        # the keys variable * m + clause would pass int64: a MemoryError,
        # before any array of 2**62 rows is asked for
        f = CnfFormula(2**62, ((1,), (2,)))
        with pytest.raises(MemoryError, match="too large"):
            build_cvig(f)

    def test_weighted_rejected(self):
        f = CnfFormula.from_clauses(3, [[1, 2, -3]])
        with pytest.raises(ValueError, match="^the CVIG is built unweighted$"):
            build_cvig(f, weighted=True)

    def test_edge_count_is_occurrences(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = random_formula(rng)
            g = build_cvig(f)
            occurrences = sum(len({abs(l) for l in c}) for c in f.clauses)
            assert g.edge_count == occurrences

    def test_bipartite_two_coloring(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = random_formula(rng)
            g = build_cvig(f)
            color = np.full(g.node_count, -1)
            for start in range(g.node_count):
                if color[start] >= 0:
                    continue
                color[start] = 0
                stack = [start]
                while stack:
                    u = stack.pop()
                    for v in neighbors(g, u).tolist():
                        if color[v] == -1:
                            color[v] = 1 - color[u]
                            stack.append(v)
                        else:
                            assert color[v] != color[u]
            # sides coincide with the variable/clause split
            for u in range(g.node_count):
                for v in neighbors(g, u).tolist():
                    assert (u < g.variable_count) != (v < g.variable_count)

    def test_kind_tags(self):
        f = CnfFormula.from_clauses(2, [[1, 2]])
        g = build_cvig(f)
        # nodes below variable_count are variables, the rest clauses
        assert (g.node_count, g.variable_count) == (3, 2)


class TestCsr:
    """_csr, the one step from sorted keys to CSR arrays that every builder
    ends in, against the edge-by-edge reference CSR."""

    @staticmethod
    def _edges(case, rng):
        """(n, u, v, w) of undirected edges: none on 0 or 1 nodes, distinct
        pairs, or distinct pairs repeated 2 to 5 times with their own
        weights."""
        if case in ("n=0", "n=1"):
            return int(case[2]), [], [], []
        n = int(rng.integers(2, 30))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        pick = rng.permutation(len(pairs))[:int(rng.integers(1, 60))]
        times = rng.integers(2, 6, pick.size) if case == "parallel" else 1
        u, v = np.array([pairs[k] for k in pick]).repeat(times, axis=0).T
        # each edge in either direction
        flip = rng.random(u.size) < 0.5
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        return n, u.tolist(), v.tolist(), rng.uniform(0.1, 2.0, u.size).tolist()

    @pytest.mark.parametrize("case", ("n=0", "n=1", "singletons", "parallel"))
    @pytest.mark.parametrize("weight_mode", ("unit", "sum"))
    def test_reference(self, case, weight_mode):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n, u, v, w = self._edges(case, rng)
            key = np.array(u + v, dtype=np.int64) * n + np.array(v + u, dtype=np.int64)
            wts = np.array(w + w, dtype=np.float64)
            order = np.lexsort((wts, key))
            key, wts = key[order], wts[order]
            given = (key, wts if weight_mode == "sum" else None)
            indptr, indices, weights = _csr(n, *given)
            want = reference_csr(n, u, v, w, weight_mode)
            for got, ref in zip((indptr, indices, weights), want):
                assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert np.array_equal(indptr, want[0])
            assert np.array_equal(indices, want[1])
            np.testing.assert_allclose(weights, want[2], rtol=1e-14, atol=0)
            if weight_mode == "unit":
                assert weights.strides == (0,)
                assert not weights.flags.writeable
            if case != "parallel":
                # without repeats the keys are the columns, in place, and
                # the weights the ones given
                assert indices is given[0]
                assert weight_mode == "unit" or weights is given[1]
            else:
                assert indices.size < key.size


class TestBuildCig:
    def test_complementary_pair(self):
        f = CnfFormula.from_clauses(3, [[1, 2], [-1, 3]])
        g = build_cig(f)
        assert g.edge_count == 1

    def test_same_polarity_no_edge(self):
        f = CnfFormula.from_clauses(3, [[1, 2], [1, 3]])
        g = build_cig(f)
        assert g.edge_count == 0

    def test_units(self):
        f = CnfFormula.from_clauses(2, [[1], [-1], [2]])
        g = build_cig(f)
        assert g.edge_count == 1
        assert neighbors(g, 0).tolist() == [1]

    def test_oracle_clause_pairs(self):
        """Against every clause pair checked by brute force, on formulas
        built directly, so that duplicate literals and tautologies stay."""
        rng = np.random.default_rng(21)
        seen_dup = seen_taut = False
        for _ in range(80):
            n = int(rng.integers(1, 8))
            sizes = rng.integers(0, 6, size=int(rng.integers(0, 15)))
            clauses = [tuple((rng.integers(1, n + 1, size=k)
                              * rng.choice((-1, 1), size=k)).tolist())
                       for k in sizes]
            f = CnfFormula(n, tuple(clauses))
            seen_dup |= any(len(set(c)) < len(c) for c in clauses)
            seen_taut |= bool(f.tautological)
            g = build_cig(f)
            assert g.node_count == len(clauses)
            _assert_csr(g, _clause_pair_csr(clauses))
        assert seen_dup and seen_taut

    def test_never_from_edges(self, monkeypatch):
        """The CIG goes from its clause-pair keys to _csr directly."""
        def refuse(*args, **kwargs):
            raise AssertionError("build_cig called Graph.from_edges")
        monkeypatch.setattr(Graph, "from_edges", refuse)
        clauses = [(1, -2, 3), (-1, 2), (2, -2, 3), (-3, 1, 1), (-3,), ()]
        f = CnfFormula(3, tuple(clauses))
        _assert_csr(build_cig(f), _clause_pair_csr(clauses))
        assert build_cig(random_3cnf(200, 850, seed=3)).edge_count > 0

    def test_huge_ids_match_ranked_twin(self):
        """Variable ids near 2**62 and 2**63 put 2 * m * span past int64, so
        the literal keys rank them: the CIG is the brute-force one, and the
        one of the same formula over the ids 1..k."""
        rng = np.random.default_rng(25)
        for trial in range(80):
            n = int(rng.integers(1, 8))
            top = 2**62 if trial % 2 else 2**63 - 1
            off = top - n - int(rng.integers(0, 16))
            sizes = rng.integers(0, 6, size=int(rng.integers(2, 15)))
            clauses = [tuple(int((v + off) * s) for v, s in zip(
                           rng.integers(1, n + 1, size=k),
                           rng.choice((-1, 1), size=k)))
                       for k in sizes]
            twin, ids = ranked_twin(clauses)
            for f, ranked in ((CnfFormula(off + n, clauses),
                               CnfFormula(len(ids), twin)),
                              (CnfFormula.from_clauses(off + n, clauses),
                               CnfFormula.from_clauses(len(ids), twin))):
                want = _clause_pair_csr(f.clauses)
                _assert_csr(build_cig(f), want)
                _assert_csr(build_cig(ranked), want)

    def test_build_peak_memory(self):
        """Each occurrence array is dropped once spent, and both directions
        of the clause pairs are sorted in one buffer: the build peaks within
        2.25 times the bytes of the graph it returns (through
        Graph.from_edges it peaked at 2.45 times)."""
        f = random_3cnf(10000, 100000, seed=1)
        f.literal_arrays()
        tracemalloc.start()
        try:
            g = build_cig(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * (g.indptr.nbytes + g.indices.nbytes)

    def test_tautological_no_self_loop(self):
        f = CnfFormula.from_clauses(2, [[1, -1, 2]])
        g = build_cig(f)
        assert g.edge_count == 0
        # the direct constructor keeps the complementary pair as given; no
        # builder may turn it into a self-loop
        f = CnfFormula(3, ((1, -1, 2), (2, 3)))
        assert build_cig(f).edge_count == 0
        assert build_vig(f).edge_arrays()[0].tolist() == [0, 1]
        assert build_vig(f).edge_arrays()[1].tolist() == [1, 2]
        assert build_cvig(f).degrees.tolist() == [1, 2, 1, 2, 2]


class TestRowHelpers:
    def test_row_ranges(self):
        ends = np.array([3, 3, 9, 5], dtype=np.int64)
        counts = np.array([2, 0, 3, 1], dtype=np.int64)
        assert row_ranges(ends, counts).tolist() == [1, 2, 6, 7, 8, 4]
        assert ends.tolist() == [3, 3, 9, 5]

    def test_row_ranges_zero_and_empty(self):
        zero = np.zeros(3, dtype=np.int64)
        for ends, counts in ((np.array([4, 7, 7]), zero),
                             (np.empty(0, np.int64), np.empty(0, np.int64))):
            got = row_ranges(ends, counts)
            assert (got.dtype, got.shape) == (np.int64, (0,))

    def test_run_starts(self):
        keys = np.array([1, 1, 2, 5, 5, 5, 7])
        assert run_starts(keys).tolist() == [True, False, True, True,
                                             False, False, True]
        assert run_starts(np.array([4])).tolist() == [True]
        got = run_starts(np.empty(0, dtype=np.int64))
        assert (got.dtype, got.shape) == (np.bool_, (0,))

    @pytest.mark.parametrize("frontier", ([], [0], [2], [1], [0, 2, 1], [3]))
    def test_gather_never_a_view(self, frontier):
        """The gathered lists are a new array for every frontier size, one
        node included, so writing to them leaves the graph as it was."""
        g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])
        before = g.indices.copy()
        nb, counts = gather_neighbors(g, np.array(frontier, dtype=np.int64))
        assert not np.shares_memory(nb, g.indices)
        assert counts.tolist() == [g.degrees[x] for x in frontier]
        assert nb.tolist() == [y for x in frontier
                               for y in neighbors(g, x).tolist()]
        nb[:] = -1
        assert np.array_equal(g.indices, before)


class TestBfs:
    def test_path(self):
        g = _path(3)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2]

    def test_isolated(self):
        g = graph_from_edges(3, [(0, 1)])
        d = bfs_distances(g, 2)
        assert d[2] == 0 and np.isinf(d[0]) and np.isinf(d[1])

    def test_radius_cap(self):
        g = _path(4)
        d = bfs_distances(g, 0, radius_cap=1)
        assert d.tolist()[:2] == [0, 1]
        assert np.isinf(d[2]) and np.isinf(d[3])

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_distances(_path(3), 5)


class TestVigCvigDistances:
    def test_cvig_distance_is_twice_at_most_vig(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = random_formula(rng, max_vars=6, max_clauses=6)
            vig = build_vig(f)
            cvig = build_cvig(f)
            for u in range(f.num_vars):
                dv = bfs_distances(vig, u)
                db = bfs_distances(cvig, u)
                for v in range(f.num_vars):
                    if u == v or np.isinf(dv[v]):
                        continue
                    assert np.isfinite(db[v])
                    assert db[v] % 2 == 0
                    assert db[v] // 2 <= dv[v]


class TestComponentsAndEcc:
    def test_components(self):
        g = graph_from_edges(5, [(0, 1), (2, 3)])
        count, comp = connected_components(g)
        assert count == 3
        assert comp[0] == comp[1] and comp[2] == comp[3]
        assert comp[4] not in (comp[0], comp[2])

    def test_eccentricities_path(self):
        assert eccentricities(_path(5)).tolist() == [4, 3, 2, 3, 4]


class TestFromEdges:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [0], [0])

    def test_empty(self):
        g = Graph.from_edges(3, [], [])
        assert g.edge_count == 0
        assert g.total_weight == 0.0

    @pytest.mark.parametrize("u,v,bad", (
        ([0], [5], 5),      # key 0 * 3 + 5 == 1 * 3 + 2 reads as edge 1-2
        ([0], [3], 3),      # key 0 * 3 + 3 == 1 * 3 + 0 reads as edge 0-1
        ([-1], [1], -1),
        ([0, 1, 2], [1, 7, -4], 7),
    ))
    @pytest.mark.parametrize("weighted", (False, True))
    def test_node_id_out_of_range(self, u, v, bad, weighted):
        w = [1.0] * len(u) if weighted else None
        with pytest.raises(ValueError, match=rf"^node id {bad} out of range"):
            Graph.from_edges(3, u, v, w)

    @pytest.mark.parametrize("args,shapes", [
        ((3, [0, 2], [1]), "u (2,), v (1,)"),
        ((4, [0, 2, 3], [1], [1.0, 2.0, 3.0]), "u (3,), v (1,), w (3,)"),
        ((3, [0, 1], [1]), "u (2,), v (1,)"),
        ((3, [0, 1], [1, 2], [1.0]), "u (2,), v (2,), w (1,)"),
        ((3, [[0, 1]], [[1, 2]]), "u (1, 2), v (1, 2)"),
    ], ids=["short-v", "short-v-weighted", "short-v-self-loop", "short-w",
            "2-d"])
    def test_mismatched_edge_arrays(self, args, shapes):
        # they used to broadcast: the first two built edges 0-1 and 2-1 and
        # a star, and the third reported a self-loop
        with pytest.raises(ValueError, match=rf"^edge arrays must be 1-D of "
                           rf"one length, got {re.escape(shapes)}$"):
            Graph.from_edges(*args)

    @pytest.mark.parametrize("build", (build_vig, build_cvig, build_cig))
    def test_unit_weights_read_only_view(self, build):
        g = build(random_3cnf(200, 850, seed=3))
        assert g.weights.strides == (0,)
        assert (g.weights.dtype, g.weights.shape) == (np.float64,
                                                       g.indices.shape)
        with pytest.raises(ValueError):
            g.weights[0] = 2.0
        assert g.weights.sum() == 2 * g.edge_count

    def test_unit_build_peak_memory(self):
        """A unit graph holds no weight array and the build no second copy
        of its edges: the peak stays within 6 input arrays' bytes (the
        graph itself takes 2 of them)."""
        rng = np.random.default_rng(3)
        u = rng.integers(0, 20000, 300_000)
        v = (u + rng.integers(1, 20000, u.size)) % 20000
        tracemalloc.start()
        try:
            g = Graph.from_edges(20000, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count > 0.99 * u.size
        assert peak <= 6 * u.nbytes
