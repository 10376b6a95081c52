import tracemalloc

import numpy as np
import pytest

from cnfscope import fractal
from cnfscope.cnf import CnfFormula, random_3cnf
from cnfscope.fractal import (
    CoverCurve,
    cover_curve,
    fit_dimension,
    greedy_cover_count,
)
from cnfscope.graph import build_cvig, build_vig, connected_components
from oracles import (
    ascending_order,
    chromatic_number,
    degree_order,
    eccentricities,
    exact_box_cover_count,
    exact_cover_count,
    graph_from_edges,
    min_box_cover,
    min_circle_cover,
    neighbors,
    random_connected_graph,
    random_formula,
    random_graph,
    verify_cover,
)


def _path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _complete(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complement(g):
    present = {(min(u, v), max(u, v))
               for u in range(g.node_count) for v in neighbors(g, u).tolist()}
    n = g.node_count
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (i, j) not in present]
    return graph_from_edges(n, edges)


class TestNodeOrder:
    def test_degree_ties_by_node_id(self):
        """Degree descending, ties by ascending node id, on graphs where
        most degrees tie: every clause node of a 3-CNF's CVIG has degree 3,
        and a sparse random graph holds many nodes of degree 0 to 2."""
        rng = np.random.default_rng(12)
        graphs = [graph_from_edges(0, []), graph_from_edges(9, []),
                  _complete(6), _path(12), random_graph(rng, 60, 0.03),
                  build_cvig(random_3cnf(2000, 8500, seed=2)),
                  build_vig(random_3cnf(3000, 3000, seed=2))]
        for g in graphs:
            order = fractal._node_order(g)
            assert order.dtype == np.int64
            assert order.tolist() == degree_order(g)


class TestGreedyCover:
    def test_radius_one_is_node_count(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(1, 15)), 0.3)
            count, centers = greedy_cover_count(g, 1)
            assert count == g.node_count
            assert len(centers) == g.node_count

    def test_path5_radius2(self):
        g = _path(5)
        assert exact_cover_count(g, 2) == 2  # oracle
        count, centers = greedy_cover_count(g, 2)
        assert count == 2
        assert sorted(centers.tolist()) == [1, 3]

    def test_star_radius2(self):
        g = graph_from_edges(5, [(0, i) for i in range(1, 5)])
        count, centers = greedy_cover_count(g, 2)
        assert count == 1
        assert centers.tolist() == [0]

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            greedy_cover_count(_path(3), 0)

    @pytest.mark.parametrize("r", (0, -3))
    def test_verify_cover_bad_radius(self, r):
        # a circle of radius < 1 holds no node; rejected as in greedy
        with pytest.raises(ValueError, match="radius must be >= 1"):
            verify_cover(_path(3), [0, 1, 2], r)

    @pytest.mark.parametrize("centers, bad", (
        ([-1], -1), ([9], 9), ([0, 4, -2], 4), (np.array([[1], [5]]), 5)))
    def test_verify_cover_center_out_of_range(self, centers, bad):
        # -1 used to wrap to node 3 and 9 to raise a bare IndexError
        with pytest.raises(ValueError,
                           match=rf"^center {bad} out of range for 4 nodes$"):
            verify_cover(_path(4), centers, 4)

    @pytest.mark.parametrize("order", (
        np.zeros(50, dtype=np.int64), np.arange(10), np.arange(51),
        np.arange(-1, 49), np.arange(1, 51), np.arange(50.0),
        np.arange(50).reshape(5, 10)),
        ids=("zeros", "short", "long", "negative", "past_n", "float", "2d"))
    def test_order_not_a_permutation(self, order):
        # zeros used to give N(2) = 1 where the cover needs 7, and the short
        # order 6 centers with 40 nodes never visited
        g = build_vig(random_3cnf(50, 150, seed=1))
        assert greedy_cover_count(g, 2)[0] == 7
        for r in (1, 2, 3):
            with pytest.raises(ValueError, match="^order must be a "
                               "permutation of the 50 node ids$"):
                greedy_cover_count(g, r, order=order)

    def test_order_any_permutation(self):
        # a permutation of any integer dtype is a visit order
        g = build_vig(random_3cnf(50, 150, seed=1))
        order = np.random.default_rng(4).permutation(50)
        want = greedy_cover_count(g, 3, order=order)
        for dtype in (np.int32, np.uint16):
            got = greedy_cover_count(g, 3, order=order.astype(dtype))
            assert got[0] == want[0]
            np.testing.assert_array_equal(got[1], want[1])
            assert got[1].dtype == np.int64

    def test_asc_degree_ordering_runs(self):
        g = graph_from_edges(5, [(0, i) for i in range(1, 5)])
        count, centers = greedy_cover_count(g, 2, order=ascending_order(g))
        # leaves go first, so the hub never becomes a center
        assert count == 4
        assert verify_cover(g, centers, 2)

    def test_cover_always_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 14)), 0.25)
            for r in range(1, 5):
                count, centers = greedy_cover_count(g, r)
                assert verify_cover(g, centers, r)
                assert count == len(centers)

    def test_greedy_at_least_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 12)), 0.3)
            for r in range(1, 5):
                greedy, _ = greedy_cover_count(g, r)
                assert greedy >= exact_cover_count(g, r)


class TestExactCover:
    def test_path5(self):
        assert exact_cover_count(_path(5), 2) == 2

    def test_whole_graph_one_circle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            diam = int(eccentricities(g).max())
            assert exact_cover_count(g, diam + 1) == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            exact_cover_count(_path(25), 2)

    def test_nonincreasing_in_r(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 10)), 0.3)
            counts = [exact_cover_count(g, r) for r in range(1, 6)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))


def _oracle_graphs():
    """Seeded graphs of at most 9 nodes: edgeless ones, random ones (many
    disconnected, some with isolated nodes) and connected ones."""
    rng = np.random.default_rng(20)
    graphs = [graph_from_edges(n, []) for n in range(10)]
    graphs += [random_graph(rng, int(rng.integers(2, 10)), p)
               for p in np.linspace(0.1, 0.8, 8) for _ in range(20)]
    graphs += [random_connected_graph(rng, int(rng.integers(2, 10)),
                                      int(rng.integers(0, 5)))
               for _ in range(30)]
    return graphs


class TestExactOracles:
    """Both exact covers against exhaustive searches that share nothing with
    their branch and bound: circles by center sets of increasing size, boxes
    by node partitions."""

    GRAPHS = _oracle_graphs()

    def test_graph_mix(self):
        comps = [connected_components(g)[0] for g in self.GRAPHS]
        assert len(self.GRAPHS) >= 100
        assert sum(c == 1 for c in comps) >= 30
        assert sum(c > 1 and g.edge_count > 0
                   for c, g in zip(comps, self.GRAPHS)) >= 30
        assert sum(g.edge_count == 0 for g in self.GRAPHS) >= 10
        assert max(g.node_count for g in self.GRAPHS) <= 9

    @pytest.mark.parametrize("r", (1, 2, 3, 4))
    def test_circles(self, r):
        for g in self.GRAPHS:
            assert exact_cover_count(g, r) == min_circle_cover(g, r)

    @pytest.mark.parametrize("size", (1, 2, 3, 4))
    def test_boxes(self, size):
        for g in self.GRAPHS:
            assert exact_box_cover_count(g, size) == min_box_cover(g, size)


class TestBoxCoverColoring:
    def test_complement_box2_is_chromatic_number(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 8)), 0.4)
            assert exact_box_cover_count(_complement(g), 2) == chromatic_number(g)

    def test_k4_complement(self):
        # complement of K4 is edgeless: boxes of size 2 are single nodes
        assert exact_box_cover_count(_complement(_complete(4)), 2) == 4

    def test_box_size_one(self):
        assert exact_box_cover_count(_path(4), 1) == 4

    def test_guard(self):
        with pytest.raises(ValueError):
            exact_box_cover_count(_path(20), 2)


class TestSandwich:
    def test_cvig_counts_bracket_vig_counts(self):
        # N_b(2r) <= N(r) <= N_b(2r-2) on exact covers of small formulas
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(25):
            f = random_formula(rng, max_vars=6, max_clauses=6)
            vig = build_vig(f)
            cvig = build_cvig(f)
            if cvig.node_count > 12:
                continue
            rmax = int(eccentricities(vig).max()) + 1
            for r in range(1, rmax + 1):
                n_r = exact_cover_count(vig, r)
                assert exact_cover_count(cvig, 2 * r) <= n_r
                if r >= 2:
                    assert n_r <= exact_cover_count(cvig, 2 * r - 2)
                checked += 1
        assert checked > 10


class TestCoverCurve:
    def test_k4(self):
        curve = cover_curve(_complete(4))
        assert curve.counts.tolist() == [4, 1]
        assert curve.r_max == 2

    def test_path5(self):
        # brute force per radius: N(1)=5, N(2)=2, N(3)=1
        g = _path(5)
        assert [exact_cover_count(g, r) for r in (1, 2, 3)] == [5, 2, 1]
        # the degree-ordered greedy picks node 1 before the true center at
        # r=3, so its curve stays an upper bound of the exact profile
        curve = cover_curve(g)
        assert curve.counts.tolist() == [5, 2, 2, 1]
        assert curve.r_max == 4

    def test_r_stop_truncates(self):
        curve = cover_curve(_path(9), r_stop=3)
        assert len(curve) == 3
        assert curve.r_max is None

    @pytest.mark.parametrize("r_stop", [0, -1])
    def test_r_stop_below_one(self, r_stop):
        # it used to return the one-point curve [N(1)]
        with pytest.raises(ValueError, match="^r_stop must be >= 1$"):
            cover_curve(_path(9), r_stop=r_stop)

    def test_disconnected_plateau_stops(self):
        g = graph_from_edges(6, [(0, 1), (2, 3), (4, 5)])
        curve = cover_curve(g)
        assert curve.counts[-1] == 3
        assert len(curve) <= 4
        assert curve.r_max is None

    def test_normalized_starts_at_one(self):
        curve = cover_curve(_path(7))
        assert curve.normalized[0] == 1.0
        assert curve.counts[0] == 7

    @pytest.mark.parametrize("ordering", ("desc_degree", "asc_degree"))
    def test_graph_without_nodes(self, ordering, monkeypatch):
        # it used to fail on its own empty curve: "cover counts must be >= 1";
        # it raises before any visit order is made, whichever order is used
        node_order = (ascending_order if ordering == "asc_degree"
                      else fractal._node_order)
        sorts = []
        monkeypatch.setattr(fractal, "_node_order",
                            lambda g: sorts.append(g) or node_order(g))
        with pytest.raises(ValueError, match="^graph has no nodes$"):
            cover_curve(graph_from_edges(0, []))
        assert sorts == []

    @pytest.mark.parametrize("ordering", ("desc_degree", "asc_degree"))
    def test_one_order_per_curve(self, ordering, monkeypatch):
        # the visit order is sorted once per curve and handed to every
        # radius; counts and centers equal per-radius calls that sort it,
        # in the order by decreasing degree and in one that replaces it
        g = build_cvig(random_formula(np.random.default_rng(3), 40, 120, 3))
        node_order = (ascending_order if ordering == "asc_degree"
                      else fractal._node_order)
        sorts = []
        monkeypatch.setattr(fractal, "_node_order",
                            lambda g: sorts.append(g) or node_order(g))
        curve = cover_curve(g)
        assert len(sorts) == 1
        assert len(curve) > 2
        order = node_order(g)
        for r, count in enumerate(curve.counts.tolist(), start=1):
            sorted_here = greedy_cover_count(g, r)
            given = greedy_cover_count(g, r, order=order)
            assert given[0] == sorted_here[0] == count
            np.testing.assert_array_equal(given[1], sorted_here[1])

    def test_curve_peak_memory(self):
        """The labelling hops stamp one position per node in an int64
        array, made only at r >= 3, whose covers peak below r = 2's. The
        r <= 5 curve of the Table-1 CVIG at m/n = 10 peaks within 1.0362
        times the bytes of the graph (its peak at r = 2) plus one int64 per
        node."""
        g = build_cvig(random_3cnf(10000, 100000, seed=1))
        tracemalloc.start()
        try:
            cover_curve(g, r_stop=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        graph_bytes = g.indptr.nbytes + g.indices.nbytes
        assert peak <= 1.0362 * graph_bytes + 8 * g.node_count

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            CoverCurve(np.array([4.0, 0.5]))
        with pytest.raises(ValueError):
            CoverCurve(np.array([4.0, 2.0]), r_max=2)

    @pytest.mark.parametrize("r_max", [0, -1, 3])
    def test_r_max_outside_the_curve(self, r_max):
        # r_max=0 read counts[-1] and r_max=3 raised IndexError
        with pytest.raises(ValueError, match="^r_max inconsistent with counts$"):
            CoverCurve(np.array([3.0, 1.0]), r_max=r_max)


class TestFitDimension:
    def test_exact_power_law(self):
        rs = np.arange(1, 6, dtype=float)
        curve = CoverCurve(1000.0 * rs ** -2.0)
        fit = fit_dimension(curve)
        assert fit.d == pytest.approx(2.0, abs=1e-9)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)
        assert fit.intercept_loglog == pytest.approx(1000.0, rel=1e-9)

    def test_exact_exponential(self):
        rs = np.arange(1, 6, dtype=float)
        curve = CoverCurve(1.0e6 * np.exp(-2.3 * rs))
        fit = fit_dimension(curve)
        assert fit.beta == pytest.approx(2.3, abs=1e-9)
        assert fit.intercept_semilog == pytest.approx(1.0e6, rel=1e-9)

    def test_window_truncates_at_curve_end(self):
        curve = cover_curve(_complete(4))  # two points
        fit = fit_dimension(curve, 1, 5)
        assert fit.r_range == (1, 2)
        assert fit.d == pytest.approx(2.0, abs=1e-12)  # 4 -> 1 over log 2

    def test_too_few_points(self):
        curve = CoverCurve(np.array([5.0]))
        with pytest.raises(ValueError):
            fit_dimension(curve)

    @pytest.mark.parametrize("counts, r_lo, r_hi", (
        ([5.0, 5.0], 1, 5),             # no edges: every radius keeps N(1)
        ([7.0, 7.0, 7.0, 7.0, 7.0], 1, 5),
        ([12.0, 6.0, 3.0, 3.0, 3.0], 3, 5),  # a plateau at the component count
    ))
    def test_flat_window_fits_exactly(self, counts, r_lo, r_hi):
        """Where N(r) never changes the fit is exactly flat, not the
        rounding noise of a least-squares slope."""
        fit = fit_dimension(CoverCurve(np.array(counts)), r_lo, r_hi)
        flat = counts[r_lo - 1]
        assert (fit.d, fit.beta, fit.residual) == (0.0, 0.0, 0.0)
        assert (fit.intercept_loglog, fit.intercept_semilog) == (flat, flat)
        assert fit.r_range == (r_lo, min(r_hi, len(counts)))

    @pytest.mark.parametrize("r_lo", (0, -2))
    def test_window_below_radius_one(self, r_lo):
        curve = CoverCurve(np.array([8.0, 4.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="r_lo"):
            fit_dimension(curve, r_lo, 4)


class TestFormulaDimensions:
    def test_triangle_formula_curve(self):
        f = CnfFormula.from_clauses(4, [[1, 2, 3], [2, 3, 4]])
        vig = build_vig(f)
        curve = cover_curve(vig)
        assert curve.counts.tolist() == [4, 1]
