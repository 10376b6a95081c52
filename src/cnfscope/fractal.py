"""Box/circle covering of graphs: greedy burning N(r), and the log-log /
semilog regressions giving the pseudo-dimension d and the exponential decay
beta.

A circle of radius r around center c is the set of nodes at hop distance
strictly below r, so r=1 covers just the center and N(1) equals the node
count. The greedy pass visits nodes by decreasing degree and selects every
still-unburned node as a center, burning its circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, bfs_layers, connected_components, gather_neighbors


def _node_order(g: Graph) -> np.ndarray:
    """The greedy visit order: degree descending, then node id."""
    return np.argsort(-g.degrees, kind="stable")


def _checked_order(order, n: int) -> np.ndarray:
    """order as int64 node ids, or a ValueError unless it is a permutation
    of 0..n-1."""
    order = np.asarray(order)
    if (order.shape == (n,) and order.dtype.kind in "iu"
            and (n == 0 or 0 <= order.min() and order.max() < n)):
        seen = np.zeros(n, dtype=bool)
        seen[order] = True
        if seen.all():
            return order.astype(np.int64, copy=False)
    raise ValueError(f"order must be a permutation of the {n} node ids")


def greedy_cover_count(g: Graph, r: int, *, order: np.ndarray | None = None
                       ) -> tuple[int, np.ndarray]:
    """Greedy burning estimate of N(r); returns (count, selected centers).

    Nodes are visited by decreasing degree (ascending node id breaks ties);
    an unburned node is selected as a center and its radius-r circle burned.
    The selected circles always cover the whole graph. order, when given, is
    the visit order instead, a permutation of the node ids: a caller that
    covers one graph at several radii passes _node_order(g) to sort it once.

    The centers are decided a window at a time, with the same result as one
    node at a time. A window is the next unburned nodes of the order, each
    labelled by its position in the order. The labels grow r - 2 hops
    together, each node keeping the smallest label that reaches it, so a
    node's label is the earliest source within those hops. A hop keeps the
    least label of each node with np.minimum.at, and its layer holds the
    nodes whose label it lowered, distinct but, unlike a layer of
    bfs_layers, not sorted: nothing reads a layer's order, since the clash
    test reads near and the burns, inner, reached and the last hop are set
    operations. A source clashes when a neighbour holds an earlier label: an
    earlier source lies within r - 1 hops of it. A source that does not
    clash is a center wherever it sits in the window, since no earlier
    center can reach it (Blelloch, Fineman & Shun, SPAA 2012, decide a node
    of a greedy independent set the same way). The sources before the first
    clash burn every node their labels reached. Past the first clash a node
    of an accepted circle may hold the label of an earlier source that
    clashed (at r >= 4), so those circles are searched afresh with
    bfs_layers, from the rings gathered for the clash test. The scan resumes
    after the first clashing source, which is burned by then; the sources
    after it that clashed are decided in a later window, and the next window
    holds twice as many sources as this one accepted.

    The last hop, the neighbours at r - 1 hops, is gathered only once the
    centers are known, and only from the deepest layer of accepted circles
    and from nodes that are not inner. inner marks every node within r - 2
    hops of a center whose last hop was gathered: all of its neighbours are
    burned already. A node gathered here becomes inner right after, so the
    last hop reads each node's row at most once per cover. At r = 2 the last
    hop is the sources' own neighbours, gathered for the clash test.
    """
    if r < 1:
        raise ValueError("radius must be >= 1")
    n = g.node_count
    order = _node_order(g) if order is None else _checked_order(order, n)
    if r == 1:
        return n, order.copy()
    burned = np.zeros(n, dtype=bool)
    inner = np.zeros(n, dtype=bool)
    # label[x] is the order position of the earliest source of the current
    # window within the hops grown so far; n when none reached x
    label = np.full(n, n, dtype=np.int64)
    # stamp[x] is a position of x in the pairs of the current hop; r = 2
    # has no hops
    stamp = np.empty(n if r > 2 else 0, dtype=np.int64)
    chosen = []
    p, want, span = 0, 1, 1
    while p < n:
        # scan the order in doubling spans until the window is full; start
        # from half the last span, which fit the share of burned nodes there
        span = max(want, span // 2)
        while True:
            pos = (~burned[order[p:p + span]]).nonzero()[0]
            if pos.size >= want or p + span >= n:
                break
            span *= 2
        if pos.size == 0:
            break
        pos = pos[:want] + p
        src = order[pos]
        label[src] = pos
        near, near_counts = gather_neighbors(g, src)
        layer, layer_label, reached = src, pos, [src]
        for hop in range(r - 2):
            nb, counts = gather_neighbors(g, layer) if hop else (near, near_counts)
            # the pairs (neighbour, label) that lower the neighbour's label,
            # taken by index: a boolean index of so scattered a mask is
            # slower
            lab = layer_label.repeat(counts)
            better = (label[nb] > lab).nonzero()[0]
            nb, lab = nb[better], lab[better]
            # several layer nodes may reach one node: keep its least label,
            # and of its positions in nb the one whose stamp write lasted;
            # whichever write that is, exactly one position matches it
            np.minimum.at(label, nb, lab)
            at = np.arange(nb.size)
            stamp[nb] = at
            layer = nb[stamp[nb] == at]
            layer_label = label[layer]
            reached.append(layer)
            if layer.size == 0:
                break
        # a source labelled earlier than itself has a clashing neighbour
        # too, the next node on its path
        clash = (label[near] < pos.repeat(near_counts)).nonzero()[0]
        free = np.ones(pos.size, dtype=bool)
        free[near_counts.cumsum().searchsorted(clash, "right")] = False
        if clash.size:
            k = int(free.argmin())
            cut = pos[k]
        else:
            k, cut = pos.size, n
        chosen.append(pos[free])
        if r == 2:
            burned[src[free]] = True
            burned[near[free.repeat(near_counts)]] = True
            label[src] = n
        else:
            reached = np.concatenate(reached)
            burn = reached[label[reached] < cut]
            burned[burn] = True
            # the last hop: burned, never labelled or deduped
            last = layer[(layer_label < cut) & ~inner[layer]]
            burned[gather_neighbors(g, last)[0]] = True
            inner[burn] = True
            label[reached] = n
            free[:k + 1] = False
            if free.any():
                # their circles may hold earlier labels; label, all n again,
                # stamps a fresh search with -1. It starts at their rings,
                # the neighbours in near, which are distinct (the sources lie
                # r >= 3 hops apart), with the sources stamped already, so no
                # row of near is read again
                late = src[free]
                label[late] = -1
                circle = bfs_layers(g, near[free.repeat(near_counts)], label,
                                    -1, r - 3)
                burn = np.concatenate([late, *circle])
                burned[burn] = True
                last = circle[-1][~inner[circle[-1]]]
                burned[gather_neighbors(g, last)[0]] = True
                inner[burn] = True
                label[burn] = n
        p = int(cut) + 1 if k < pos.size else int(pos[-1]) + 1
        want = 2 * len(chosen[-1])
    chosen = np.sort(np.concatenate(chosen)) if chosen else np.empty(0, np.int64)
    return chosen.size, order[chosen]


# ---------------------------------------------------------------------------
# Cover curves and dimension fits


@dataclass(frozen=True)
class CoverCurve:
    """The sequence N(r) for r = 1..len(counts).

    r_max is the smallest radius with N(r) = 1 when the curve reached it.
    counts are floats so synthetic curves can be fitted too.
    """

    counts: np.ndarray
    r_max: int | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.float64)
        object.__setattr__(self, "counts", counts)
        if counts.size == 0:
            raise ValueError("empty cover curve")
        if (counts < 1).any():
            raise ValueError("cover counts must be >= 1")
        if (r := self.r_max) is not None:
            if (not 1 <= r <= counts.size or counts[r - 1] != 1
                    or (counts[:r - 1] == 1).any()):
                raise ValueError("r_max inconsistent with counts")

    @property
    def rs(self) -> np.ndarray:
        return np.arange(1, self.counts.size + 1)

    @property
    def normalized(self) -> np.ndarray:
        """N(r) / N(1)."""
        return self.counts / self.counts[0]

    def __len__(self) -> int:
        return self.counts.size


def cover_curve(g: Graph, r_stop: int | None = None) -> CoverCurve:
    """Greedy N(r) for r = 1, 2, ... until a single circle suffices, the
    curve bottoms out at the component count, or r_stop is reached."""
    if g.node_count == 0:
        raise ValueError("graph has no nodes")
    if r_stop is not None and r_stop < 1:
        raise ValueError("r_stop must be >= 1")
    order = _node_order(g)
    counts: list[int] = []
    r_max = None
    ncomp = None
    r = 1
    while True:
        count, _ = greedy_cover_count(g, r, order=order)
        counts.append(count)
        if count == 1:
            r_max = r
            break
        if r_stop is not None and r >= r_stop:
            break
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            if ncomp is None:
                ncomp = connected_components(g)[0]
            if counts[-1] == ncomp:
                break
        if r > g.node_count:
            break
        r += 1
    return CoverCurve(np.asarray(counts, dtype=np.float64), r_max)


@dataclass(frozen=True)
class DimensionFit:
    """Least-squares fits of a cover curve over a radius window.

    d is the magnitude of the log N vs log r slope (pseudo-dimension), beta
    the magnitude of the log N vs r slope (exponential decay). The intercepts
    are the constants C in N(r) = C * r**-d and N(r) = C * exp(-beta * r).
    residual is the largest absolute log-residual of the power-law fit.
    """

    d: float
    beta: float
    r_range: tuple[int, int]
    residual: float
    intercept_loglog: float
    intercept_semilog: float


def fit_dimension(curve: CoverCurve, r_lo: int = 1, r_hi: int = 5) -> DimensionFit:
    """Fit d and beta on the window r = r_lo..r_hi, truncated at the end of
    the curve. Requires r_lo >= 1 and at least two points. On a flat window,
    where N(r) never changes, d, beta and the residual are exactly 0 and
    both intercepts are that N, not the rounding noise of a fit."""
    if r_lo < 1:
        raise ValueError(f"r_lo must be >= 1, got {r_lo}")
    hi = min(r_hi, len(curve))
    if hi - r_lo + 1 < 2:
        raise ValueError(
            f"need >= 2 curve points in [{r_lo}, {r_hi}], have {max(hi - r_lo + 1, 0)}")
    window = curve.counts[r_lo - 1:hi]
    if (window == window[0]).all():
        flat = float(window[0])
        return DimensionFit(d=0.0, beta=0.0, r_range=(r_lo, hi), residual=0.0,
                            intercept_loglog=flat, intercept_semilog=flat)
    rs = np.arange(r_lo, hi + 1, dtype=np.float64)
    ys = np.log(window)
    xs = np.log(rs)
    slope_ll, icpt_ll = np.polyfit(xs, ys, 1)
    slope_sl, icpt_sl = np.polyfit(rs, ys, 1)
    residual = float(np.abs(ys - (icpt_ll + slope_ll * xs)).max())
    return DimensionFit(
        d=float(-slope_ll),
        beta=float(-slope_sl),
        r_range=(r_lo, hi),
        residual=residual,
        intercept_loglog=float(np.exp(icpt_ll)),
        intercept_semilog=float(np.exp(icpt_sl)),
    )


# ---------------------------------------------------------------------------
# Export helpers


def fit_to_dict(fit: DimensionFit) -> dict:
    return {
        "d": fit.d,
        "beta": fit.beta,
        "r_lo": fit.r_range[0],
        "r_hi": fit.r_range[1],
        "residual": fit.residual,
        "intercept_loglog": fit.intercept_loglog,
        "intercept_semilog": fit.intercept_semilog,
    }

