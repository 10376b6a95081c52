"""Where the spans go, and how a traced round becomes per-layer metrics.

Layers are the modules of cnfscope: cnf, scalefree, graph, fractal,
community, features and cli (portfolio is not measured). Each probe wraps a
name where its caller looks it up: `features` imported its own bindings of
the builders, covers and folding; `cover_curve` calls `greedy_cover_count`
and `connected_components` through fractal's globals; `fold_communities`
calls `modularity` through community's; the builders call
`Graph.from_edges`; the CLI reaches everything as `<module>.<name>`.
"""

from __future__ import annotations

import math
import statistics

from cnfscope import cnf, community, features, fractal, graph, scalefree

from spans import Tracer, self_times, subtree

# The unwrapped function, for checks that must not add spans.
connected_components = graph.connected_components


def _kind(g) -> str:
    return "cvig" if g.variable_count < g.node_count else "vig"


def _build_vig_name(args, kwargs) -> str:
    weighted = args[1] if len(args) > 1 else kwargs.get("weighted", False)
    return "graph.build_vig_weighted" if weighted else "graph.build_vig"


def _edges(key):
    return lambda args, kwargs, g: {key: g.edge_count}


def _after_propagation(args, kwargs, f):
    return {"cnf.clauses_after_propagation": f.num_clauses}


def _folded(args, kwargs, res):
    return {"community.passes": res.passes, "community.levels": res.levels,
            "community.q_drift": abs(res.q - res.q_incremental),
            "community.q": res.q}


class Probes:
    """Installs the layer spans on a Tracer and keeps what the cover checks
    need: every (graph, r, N(r)) the greedy cover returned."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.covers: list[tuple[object, int, int]] = []

    def _greedy_name(self, args, kwargs) -> str:
        r = args[1] if len(args) > 1 else kwargs["r"]
        return f"fractal.{_kind(args[0])}.greedy_r{r}"

    def _greedy_counts(self, args, kwargs, result):
        g = args[0]
        r = args[1] if len(args) > 1 else kwargs["r"]
        self.covers.append((g, r, result[0]))
        return {f"fractal.{_kind(g)}.N_r{r}": result[0]}

    def install(self) -> None:
        w = self.tracer.wrap
        cover_name = lambda args, kwargs: f"fractal.cover_curve_{_kind(args[0])}"
        vig_edges, cvig_edges = _edges("graph.vig_edges"), _edges("graph.cvig_edges")
        for name in ("parse_dimacs", "parse_trace", "unit_propagate",
                     "random_3cnf", "write_dimacs"):
            w(cnf, name, f"cnf.{name}")
        for name in ("augment_with_learnt", "random_replacement"):
            w(cnf, name, f"cnf.{name}", _after_propagation)
        for mod in (graph, features):
            w(mod, "build_vig", _build_vig_name,
              lambda a, k, g: {} if _build_vig_name(a, k).endswith("weighted")
              else vig_edges(a, k, g))
            w(mod, "build_cvig", "graph.build_cvig", cvig_edges)
        w(graph.Graph, "from_edges", "graph.from_edges")
        for mod in (graph, fractal):
            w(mod, "connected_components", "graph.connected_components")
        w(fractal, "greedy_cover_count", self._greedy_name, self._greedy_counts)
        for mod in (fractal, features):
            w(mod, "cover_curve", cover_name)
            w(mod, "fit_dimension", "fractal.fit_dimension")
        for mod in (community, features):
            w(mod, "fold_communities", "community.fold_communities", _folded)
        w(community, "modularity", "community.modularity")
        for mod in (scalefree, features):
            w(mod, "occurrence_histogram", "scalefree.occurrence_histogram")
            w(mod, "fit_alpha", "scalefree.fit_alpha")
        w(features, "extract_features", "features.extract_features")

    def curve_errors(self) -> list[str]:
        """N(1) must equal the node count and no N(r) may fall below the
        number of connected components."""
        errors = []
        comps: dict[int, int] = {}
        for g, r, count in self.covers:
            if r == 1 and count != g.node_count:
                errors.append(f"N(1)={count} on a graph of {g.node_count} nodes")
            if id(g) not in comps:
                comps[id(g)] = connected_components(g)[0]
            if count < comps[id(g)]:
                errors.append(f"N({r})={count} below {comps[id(g)]} components")
        self.covers.clear()
        return errors


# Per-layer metrics: name -> (unit, span or counter, how).
#   self  : summed self time of spans with that name
#   total : summed duration of spans with that name (children included)
#   lead  : summed time from each such span's start to its first child's start
#   sum / max / mean : of a counter over the spans that carry it
# Times are shares of the root span (the traced round, or the set-up), in
# percent: they add up to 100 without the harness's own share, they stay
# comparable when the machine slows everything down, and seconds are the
# share times trace.wall_s. A metric reads 0 on a workload that never
# reaches its layer.
def _span_metrics():
    out = {
        "cnf.parse_dimacs_pct": ("%", "cnf.parse_dimacs", "self"),
        "cnf.parse_trace_pct": ("%", "cnf.parse_trace", "self"),
        "cnf.augment_with_learnt_pct": ("%", "cnf.augment_with_learnt", "self"),
        "cnf.random_replacement_pct": ("%", "cnf.random_replacement", "self"),
        "cnf.unit_propagate_pct": ("%", "cnf.unit_propagate", "self"),
        "cnf.clauses_after_propagation": ("count", "cnf.clauses_after_propagation", "sum"),
        "scalefree.occurrence_histogram_pct": ("%", "scalefree.occurrence_histogram", "self"),
        "scalefree.fit_alpha_pct": ("%", "scalefree.fit_alpha", "self"),
        "graph.build_vig_pct": ("%", "graph.build_vig", "self"),
        "graph.build_vig_weighted_pct": ("%", "graph.build_vig_weighted", "self"),
        "graph.build_cvig_pct": ("%", "graph.build_cvig", "self"),
        "graph.from_edges_pct": ("%", "graph.from_edges", "self"),
        "graph.connected_components_pct": ("%", "graph.connected_components", "self"),
        "graph.vig_edges": ("count", "graph.vig_edges", "sum"),
        "graph.cvig_edges": ("count", "graph.cvig_edges", "sum"),
        "fractal.cover_curve_vig_pct": ("%", "fractal.cover_curve_vig", "total"),
        "fractal.cover_curve_cvig_pct": ("%", "fractal.cover_curve_cvig", "total"),
    }
    for kind in ("vig", "cvig"):
        for r in range(2, 6):
            out[f"fractal.{kind}.greedy_r{r}_pct"] = ("%", f"fractal.{kind}.greedy_r{r}", "self")
        for r in range(2, 6):
            out[f"fractal.{kind}.N_r{r}"] = ("count", f"fractal.{kind}.N_r{r}", "sum")
    out.update({
        "fractal.fit_dimension_pct": ("%", "fractal.fit_dimension", "self"),
        "community.fold_communities_pct": ("%", "community.fold_communities", "total"),
        "community.modularity_pct": ("%", "community.modularity", "self"),
        "community.passes": ("count", "community.passes", "sum"),
        "community.levels": ("count", "community.levels", "sum"),
        "community.q_drift": ("Q", "community.q_drift", "max"),
        "community.q_mean": ("Q", "community.q", "mean"),
        "features.extract_features_pct": ("%", "features.extract_features", "total"),
        "features.self_pct": ("%", "features.extract_features", "self"),
        "cli.process_pct": ("%", "cli.process", "total"),
        "cli.main_pct": ("%", "cli.main", "total"),
        "cli.startup_pct": ("%", "cli.process", "lead"),
        "bench.check_pct": ("%", "bench.check", "total"),
    })
    return out


SPAN_METRICS = _span_metrics()
SETUP_METRICS = {
    "cnf.random_3cnf_pct": ("%", "cnf.random_3cnf", "self"),
    "cnf.write_dimacs_pct": ("%", "cnf.write_dimacs", "self"),
}
TRACE_METRICS = {
    "trace.wall_s": "s",            # fastest traced round
    "trace.self_sum_s": "s",        # sum of every span's self time in that round
    "trace.untraced_wall_s": "s",   # fastest untraced round, same process
    "trace.overhead_s": "s",        # trace.wall_s - bench.check - trace.untraced_wall_s
}
Q_DRIFT_LIMIT = 1e-9


def aggregate(spans: list[list], root: int, table: dict) -> dict[str, float]:
    """Metrics of `table` over the subtree of `root`, plus the subtree's
    summed self time (`_self_sum`) and the harness's own checks inside it
    (`_check_s`), in seconds."""
    idx = subtree(spans, root)
    selfs = self_times(spans)
    self_by: dict[str, float] = {}
    total_by: dict[str, float] = {}
    lead_by: dict[str, float] = {}
    first_child: dict[int, float] = {}
    counters: dict[str, list[float]] = {}
    for i in idx:
        name, start, end, parent, counts = spans[i]
        self_by[name] = self_by.get(name, 0.0) + selfs[i]
        total_by[name] = total_by.get(name, 0.0) + (end - start)
        if i != root:
            first_child[parent] = min(first_child.get(parent, start), start)
        for key, value in (counts or {}).items():
            counters.setdefault(key, []).append(float(value))
    for i in idx:
        name, start = spans[i][:2]
        lead_by[name] = lead_by.get(name, 0.0) + first_child.get(i, start) - start
    percent = 100.0 / (spans[root][2] - spans[root][1])
    out = {}
    for metric, (_, source, how) in table.items():
        if how == "self":
            out[metric] = percent * self_by.get(source, 0.0)
        elif how == "total":
            out[metric] = percent * total_by.get(source, 0.0)
        elif how == "lead":
            out[metric] = percent * lead_by.get(source, 0.0)
        else:
            vals = counters.get(source, [])
            reduce = {"sum": sum, "max": max, "mean": statistics.fmean}[how]
            out[metric] = reduce(vals) if vals else 0.0
    out["_self_sum"] = math.fsum(selfs[i] for i in idx)
    out["_check_s"] = total_by.get("bench.check", 0.0)
    out["_q_drift_over"] = sum(v > Q_DRIFT_LIMIT
                               for v in counters.get("community.q_drift", []))
    return out
