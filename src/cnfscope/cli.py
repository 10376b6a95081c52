"""Command line front end.

Subcommands: features, ndr, evolution, gen, classify, portfolio. Per-file
failures in batch runs are reported as warnings and marked rows; the run
still exits 0. All subcommands are deterministic given inputs and seed, and
--workers never changes the output bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import cnf, features, fractal, graph, portfolio

DEFAULT_SEED = 42
MODELS = ("vig", "cvig", "cig")


def _int_from(low: int, kind: str):
    """An argparse type: an integer of at least low, else a usage error
    that says it expected a `kind` integer."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected a {kind} integer, got {text!r}")
        return value
    return parse


# a seed is a non-negative integer; a count (files, workers, radii, leaf
# rows) a positive one
_seed = _int_from(0, "non-negative")
_count = _int_from(1, "positive")


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("CNFSCOPE_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"CNFSCOPE_SEED: {exc}") from None


def _check_readable(paths):
    """A missing path or a directory is an error; anything else (a file, a
    pipe such as /dev/stdin) is read as it comes."""
    for p in paths:
        if not os.path.exists(p) or os.path.isdir(p):
            raise FileNotFoundError(f"input not readable: {p}")


def _parsed(parse, path):
    """parse(read_input(path)): a malformed file is an error that names it
    once, as read_input's own errors do."""
    data = cnf.read_input(path)
    try:
        return parse(data)
    except ValueError as exc:  # DimacsError, TraceError
        raise ValueError(f"{path}: {exc}") from None


def _emit(text: str, args) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, args) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", args)


def _emit_table(args, columns, records) -> None:
    """Records (dicts) as a JSON list, or as CSV rows of `columns` with the
    missing keys empty. A record holding an "error" is a CSV row with family
    ERROR."""
    if args.format == "json":
        _emit_json(records, args)
        return
    marked = ({**r, "family": "ERROR"} if "error" in r else r for r in records)
    _emit(features.csv_text(columns, ([r.get(c) for c in columns]
                                      for r in marked)), args)


# ---------------------------------------------------------------------------
# features


def _feature_config(args) -> features.FeatureConfig:
    return features.FeatureConfig(seed=_resolve_seed(args.seed),
                                  fit_lo=args.fit_lo, fit_hi=args.fit_hi)


def _job_labels(job) -> tuple[str, str | None]:
    path, family_from_dir, _ = job
    return Path(path).name, Path(path).parent.name if family_from_dir else None


def _features_one(job) -> tuple[str, str | None, object]:
    """Worker: returns (instance, family, FeatureVector | error string)."""
    path, _, cfg = job
    instance, family = _job_labels(job)
    try:
        formula = cnf.parse_dimacs(cnf.read_input(path))
        vec = features.extract_features(formula, cfg)
        return instance, family, vec
    except Exception as exc:  # batch-continue contract
        return instance, family, f"{type(exc).__name__}: {exc}"


def _features_pool(jobs, workers: int) -> list:
    """_features_one over a process pool, results in job order.

    A worker killed from outside (say by the out-of-memory killer) breaks
    the pool, and every job not finished by then fails with it. Each such
    job is re-run alone in a fresh process, so only a job that kills its
    process again becomes an error, whichever jobs shared the pool with it.
    """
    # imported here: the pool machinery adds ~20 ms to start-up, which
    # single-process runs do not need
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # spawned, not forked: the executor runs a thread in this process
    spawn = multiprocessing.get_context("spawn")

    def run(batch, n):
        """One result per job, None where the pool broke before it ended."""
        with ProcessPoolExecutor(n, mp_context=spawn) as pool:
            futures = [pool.submit(_features_one, job) for job in batch]
            return [None if isinstance(f.exception(), BrokenProcessPool)
                    else f.result() for f in futures]

    results = run(jobs, min(workers, len(jobs)))
    for i, res in enumerate(results):
        if res is None:
            res = run([jobs[i]], 1)[0]
        if res is None:
            res = (*_job_labels(jobs[i]),
                   "BrokenProcessPool: the worker process died")
        results[i] = res
    return results


def cmd_features(args) -> int:
    cfg = _feature_config(args)
    _check_readable(args.inputs)
    jobs = [(p, args.family_from_dir, cfg) for p in args.inputs]
    if args.workers > 1:
        results = _features_pool(jobs, args.workers)
    else:
        results = [_features_one(j) for j in jobs]
    records = []
    for instance, family, res in results:
        if isinstance(res, str):
            print(f"warning: {instance}: {res}", file=sys.stderr)
            records.append({"instance": instance, "error": res})
        else:
            records.append(features.row_to_dict(
                features.FeatureRow(instance, family, res)))
    _emit_table(args, features.COLUMNS, records)
    return 0


# ---------------------------------------------------------------------------
# ndr


def cmd_ndr(args) -> int:
    _check_readable((args.input,))
    formula = _parsed(cnf.parse_dimacs, args.input)
    g = getattr(graph, f"build_{args.model}")(formula)
    curve = fractal.cover_curve(g, r_stop=args.r_stop)
    try:
        fit = fractal.fit_dimension(curve, args.fit_lo, args.fit_hi)
    except ValueError:
        fit = None
    if args.format == "json":
        _emit_json({
            "r": curve.rs.tolist(),
            "N": curve.counts.tolist(),
            "N_norm": curve.normalized.tolist(),
            "r_max": curve.r_max,
            "fit": fractal.fit_to_dict(fit) if fit else None,
        }, args)
        return 0
    # greedy counts are whole numbers, written without a fraction
    rows = list(zip(curve.rs.tolist(), map(int, curve.counts.tolist()),
                    curve.normalized.tolist()))
    if fit:
        rows += [("d", fit.d), ("beta", fit.beta)]
    _emit(features.csv_text(("r", "N", "N_norm"), rows), args)
    return 0


# ---------------------------------------------------------------------------
# evolution


def cmd_evolution(args) -> int:
    cfg = _feature_config(args)
    _check_readable((args.input, args.trace))
    formula = _parsed(cnf.parse_dimacs, args.input)
    trace = _parsed(cnf.parse_trace, args.trace)
    # a checkpoint's random stand-in is seeded by its place in the trace,
    # so its row does not depend on which other checkpoints were asked for
    index = {ck: i for i, ck in enumerate(trace.decision_counts)}
    checkpoints = args.checkpoints or list(index)
    missing = [c for c in checkpoints if c not in index]
    if missing:
        raise ValueError(f"checkpoints not in trace: {missing}")

    def dims(f: cnf.CnfFormula) -> tuple[float, float]:
        # unlike extract_features, no canonical clause order: the augmented
        # formulas are measured as built
        return tuple(features.cover_and_fit(build(f), cfg)[1].d
                     for build in (graph.build_vig, graph.build_cvig))

    columns = ("checkpoint", "d_learnt", "d_b_learnt", "d_random",
               "d_b_random", "status")
    records = []
    for ck in checkpoints:
        status = []
        d_l = db_l = d_r = db_r = None
        try:
            d_l, db_l = dims(cnf.augment_with_learnt(formula, trace, ck))
        except cnf.PropagationConflict:
            status.append("conflict_learnt")
        try:
            d_r, db_r = dims(cnf.random_replacement(formula, trace, ck,
                                                    cfg.seed + index[ck]))
        except cnf.PropagationConflict:
            status.append("conflict_random")
        records.append(dict(zip(columns, (ck, d_l, db_l, d_r, db_r,
                                          "+".join(status) or "ok"))))
    _emit_table(args, columns, records)
    return 0


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    # random_3cnf checks --n and --m, so the first formula is made before
    # OUT is created
    formula = cnf.random_3cnf(args.n, args.m, seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        if k:
            formula = cnf.random_3cnf(args.n, args.m, seed + k)
        path = outdir / f"rand_n{args.n}_m{args.m}_s{k}.cnf"
        with open(path, "w") as fh:
            fh.writelines(cnf.iter_dimacs(formula))
        print(path, file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# classify / portfolio


def _load_matrix(path: str) -> features.FeatureMatrix:
    return features.matrix_from_csv(Path(path).read_text(), skip_errors=True)


def cmd_classify(args) -> int:
    _check_readable((args.features,))
    matrix = _load_matrix(args.features)
    if args.mode == "tree-loo":
        report = portfolio.loo_classify(matrix, min_leaf=args.min_leaf,
                                        features=args.features_used)
    else:
        report = portfolio.knn_loo_classify(matrix, features=args.features_used)
    _emit_json(report.to_dict(), args)
    return 0


def cmd_portfolio(args) -> int:
    _check_readable((args.features, args.runtimes))
    matrix = _load_matrix(args.features)
    times = portfolio.RuntimeMatrix.from_csv(Path(args.runtimes).read_text(),
                                             timeout_value=args.timeout)
    only_f = sorted(set(matrix.instance_ids) - set(times.instances))
    only_t = sorted(set(times.instances) - set(matrix.instance_ids))
    if only_f or only_t:
        raise ValueError(f"instance id mismatch: only in features {only_f}, "
                         f"only in runtimes {only_t}")
    _emit_json(portfolio.loo_portfolio_sim(matrix, times).to_dict(), args)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _unique(kind: str, values: tuple) -> tuple:
    """values, or a usage error naming those given more than once."""
    try:
        portfolio._check_unique(kind, values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return values


def _feature_names(text: str) -> tuple[str, ...]:
    """A comma-separated subset of FEATURE_NAMES, each named once; empty
    means all five."""
    names = tuple(text.split(",")) if text else features.FEATURE_NAMES
    unknown = [n for n in names if n not in features.FEATURE_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown feature(s) {', '.join(map(repr, unknown))}; choose "
            f"from {', '.join(features.FEATURE_NAMES)}")
    return _unique("feature", names)


def _checkpoints(text: str) -> tuple[int, ...]:
    """Comma-separated decision counts, each given once; empty means every
    checkpoint."""
    try:
        counts = tuple(int(c) for c in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated decision counts, got {text!r}"
        ) from None
    return _unique("checkpoint", counts)


def _add_seed(p):
    p.add_argument("--seed", type=_seed, default=None,
                   help="random seed (default: $CNFSCOPE_SEED or 42)")


def _add_output(p):
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")


def _add_curve_options(p):
    """--format, -o and the cover and fit options of features, ndr and
    evolution."""
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output(p)
    p.add_argument("--fit-lo", type=int, default=1, dest="fit_lo")
    p.add_argument("--fit-hi", type=int, default=5, dest="fit_hi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnfscope",
        description="Structural features of CNF formulas: fractal dimension, "
                    "power-law exponent, modularity, and portfolio tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract feature rows for CNF files")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--workers", type=_count, default=1)
    p.add_argument("--family-from-dir", action="store_true",
                   help="use each file's parent directory name as its family")
    _add_seed(p)
    _add_curve_options(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("ndr", help="dump the N(r) cover curve of one formula")
    p.add_argument("input")
    p.add_argument("--model", choices=MODELS, default="vig")
    p.add_argument("--r-stop", type=_count, default=None, dest="r_stop")
    _add_curve_options(p)
    p.set_defaults(func=cmd_ndr)

    p = sub.add_parser("evolution",
                       help="dimension after augmenting with trace clauses")
    p.add_argument("input")
    p.add_argument("--trace", required=True)
    p.add_argument("--checkpoints", type=_checkpoints, default=(),
                   help="comma-separated decision counts (default: all)")
    _add_seed(p)
    _add_curve_options(p)
    p.set_defaults(func=cmd_evolution)

    p = sub.add_parser("gen", help="generate random 3-CNF files")
    p.add_argument("outdir")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=_count, default=1)
    _add_seed(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("classify", help="leave-one-out family classification")
    p.add_argument("features")
    p.add_argument("--mode", choices=("tree-loo", "knn-loo"), default="tree-loo")
    p.add_argument("--min-leaf", type=_count, default=1, dest="min_leaf")
    p.add_argument("--features-used", type=_feature_names,
                   default=features.FEATURE_NAMES,
                   help="comma-separated feature subset (default: all five)")
    _add_output(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("portfolio", help="leave-one-out portfolio simulation")
    p.add_argument("features")
    p.add_argument("runtimes")
    p.add_argument("--timeout", type=float, default=None,
                   help="timeout seconds (default: max finite runtime)")
    _add_output(p)
    p.set_defaults(func=cmd_portfolio)
    return parser


def _check_fit_window(parser, args) -> None:
    """A fit needs radii 1 <= --fit-lo < --fit-hi; anything else is a usage
    error (exit 2), not a failure of every file."""
    if not hasattr(args, "fit_lo"):
        return
    if args.fit_lo < 1:
        parser.error(f"argument --fit-lo: must be >= 1, got {args.fit_lo}")
    if args.fit_hi <= args.fit_lo:
        parser.error(f"argument --fit-hi: must be greater than --fit-lo "
                     f"({args.fit_lo}), got {args.fit_hi}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_fit_window(parser, args)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # DimacsError/TraceError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # say, a header declaring billions of variables
        print(f"error: out of memory: {exc}" if str(exc) else
              "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
