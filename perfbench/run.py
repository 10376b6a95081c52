"""cnfscope benchmark: four seeded workloads, end-to-end metrics with tracing
off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one table

Run from the repository root (or anywhere: paths are resolved from this
file). The program is imported from ../src. A run repeats rounds of the
workload until --seconds are used; each round sets the inputs up afresh and
then runs the workload's steps once. setup_s is the median set-up, wall_s the
sum of each step's fastest repetition, both scaled by the machine's speed
(see CALIBRATION_S). Every output of every round is
checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the exit code is nonzero
when any check failed. See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170
# The CLI's own default seed, passed explicitly so that $CNFSCOPE_SEED on the
# host cannot change what the CLI workloads compute.
CLI_SEED = "42"

if not (SRC / "cnfscope" / "__init__.py").is_file():
    sys.exit(f"perfbench: no cnfscope sources under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cnfscope import cnf, features, fractal, graph  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

# ---------------------------------------------------------------------------
# Sizes. Each keeps the shape of its paper-scale workload, scaled so a run
# repeats every step several times (see README.md, "Why these sizes").

RANDOM_N, RANDOM_RATIO, RANDOM_COUNT = 300, 4.25, 6
TABLE_N, TABLE_RATIOS = 10000, (1.0, 4.25, 10.0)
MODULAR_N, MODULAR_M, MODULAR_COUNT = 2500, 10000, 4
EVOLUTION_N, EVOLUTION_RATIO = 2000, 4.25
EVOLUTION_SIZES = (100, 200, 400, 800)


def _digest(values) -> str:
    text = "|".join(v if isinstance(v, str) else repr(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _lits(clauses) -> int:
    return sum(map(len, clauses))


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class Op:
    """Outcome of one operation of one round: its outputs for the reference
    digest (`ref`, excluding q), its full outputs for the determinism and
    traced-vs-untraced comparisons (`full`), and any broken invariant."""

    def __init__(self, ref=(), full=(), error=None, q=None):
        self.ref = _digest(ref)
        self.full = _digest(full)
        self.error = error
        self.q = q


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: one failed operation must not
    stop the others."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


# ---------------------------------------------------------------------------
# In-process workloads


class FeaturesRandom:
    """extract_features on random 3-CNF at the phase transition."""

    name = "features_random"
    cli = False

    def setup(self, seed, workdir):
        m = round(RANDOM_RATIO * RANDOM_N)
        self.formulas = [cnf.random_3cnf(RANDOM_N, m, seed * 1000 + i)
                         for i in range(RANDOM_COUNT)]
        self.lits = sum(_lits(f.clauses) for f in self.formulas)

    def steps(self, tracer=None):
        return [partial(_attempt, self._features, f) for f in self.formulas]

    @staticmethod
    def _features(f):
        # looked up at call time, so traced rounds go through the probe
        return features.extract_features(f)

    def ops(self, raws):
        return [self._one(f, v) for f, v in zip(self.formulas, raws)]

    @staticmethod
    def _one(f, v):
        if isinstance(v, Exception):
            return Op(error=f"{type(v).__name__}: {v}")
        ref = [v.alpha, v.d, v.d_b, v.ratio] + [v.extras.get(k) for k in
                                                ("beta", "beta_b", "n", "m", "r_max")]
        values = [v.alpha, v.q, v.d, v.d_b, v.ratio, *v.extras.values()]
        error = None
        if not _finite(values):
            error = f"non-finite features {values}"
        elif v.ratio != f.num_clauses / f.num_vars or \
                v.extras["n"] != float(f.num_vars) or v.extras["m"] != float(f.num_clauses):
            error = f"ratio/n/m wrong: {v.ratio}, {v.extras}"
        return Op(ref, ref + [v.q], error, q=v.q)


class CoverTable1:
    """The Table-1 shape: VIG and CVIG builds, greedy covers to r=5 and the
    dimension fit, for one random 3-CNF per density."""

    name = "cover_table1"
    cli = False

    def __init__(self):
        # component counts per step, for the N(r) check; every round
        # rebuilds the same graphs, so they are counted once
        self.components: dict[int, int] = {}

    def setup(self, seed, workdir):
        self.formulas = [cnf.random_3cnf(TABLE_N, round(ratio * TABLE_N), seed * 1000 + i)
                         for i, ratio in enumerate(TABLE_RATIOS)]
        self.lits = sum(_lits(f.clauses) for f in self.formulas)

    def steps(self, tracer=None):
        # builders are looked up at call time, so traced rounds see the probes
        return [partial(_attempt, self._cover, kind, f)
                for f in self.formulas for kind in ("build_vig", "build_cvig")]

    @staticmethod
    def _cover(kind, f):
        g = getattr(graph, kind)(f, False)
        curve = fractal.cover_curve(g, r_stop=5)
        return g, curve, fractal.fit_dimension(curve)

    def ops(self, raws):
        return [self._one(k, res) for k, res in enumerate(raws)]

    def _one(self, k, res):
        if isinstance(res, Exception):
            return Op(error=f"{type(res).__name__}: {res}")
        g, curve, fit = res
        counts = curve.counts.tolist()
        ref = counts + [curve.r_max, fit.d, fit.beta]
        if k not in self.components:
            self.components[k] = layers.connected_components(g)[0]
        error = None
        if counts[0] != g.node_count:
            error = f"N(1)={counts[0]} on {g.node_count} nodes"
        elif min(counts) < self.components[k]:
            error = f"N(r) {counts} below {self.components[k]} components"
        elif not _finite([fit.d, fit.beta]):
            error = f"non-finite fit {fit}"
        return Op(ref, ref, error)


# ---------------------------------------------------------------------------
# CLI workloads: a round is one `cnfscope` process with --workers 1.


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class CliWorkload:
    cli = True
    op_count = 0

    def command(self) -> list[str]:
        raise NotImplementedError

    def rows(self, lines) -> list[Op]:
        raise NotImplementedError

    def steps(self, tracer=None):
        return [partial(_attempt, self._process, tracer is not None)]

    def _process(self, traced):
        """One CLI process. Traced, the child is traced_cli.py, which installs
        the same probes and writes its spans to child_spans.json."""
        if not traced:
            argv = [sys.executable, "-m", "cnfscope"]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), "child_spans.json"]
        return subprocess.run(argv + self.command(), capture_output=True,
                              env=_child_env(), cwd=self.workdir,
                              timeout=CHILD_TIMEOUT_S)

    def ops(self, raws) -> list[Op]:
        proc, = raws
        if isinstance(proc, Exception):
            return [Op(error=f"{type(proc).__name__}: {proc}")] * self.op_count
        if proc.returncode != 0:
            err = f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
            return [Op(error=err)] * self.op_count
        lines = proc.stdout.decode().splitlines()
        if len(lines) != 1 + self.op_count:
            return [Op(error=f"bad CSV: {lines[:3]!r}")] * self.op_count
        return self.rows(lines)


def _write_dimacs(path: Path, num_vars: int, clauses) -> None:
    path.write_text(cnf.write_dimacs(cnf.CnfFormula(num_vars, tuple(clauses))))


class CliModular(CliWorkload):
    """`cnfscope features` on community-structured DIMACS files."""

    name = "cli_modular"
    op_count = MODULAR_COUNT

    def setup(self, seed, workdir):
        self.workdir = workdir
        self.files = []
        self.lits = 0
        for i in range(MODULAR_COUNT):
            clauses = gen.community_clauses(MODULAR_N, MODULAR_M, seed * 1000 + i)
            path = workdir / f"modular_{i}.cnf"
            _write_dimacs(path, MODULAR_N, clauses)
            self.files.append(path.name)
            self.lits += _lits(clauses)

    def command(self):
        return ["features", *self.files, "--workers", "1", "--seed", CLI_SEED]

    def rows(self, lines):
        if lines[0] != features.CSV_HEADER:
            return [Op(error=f"bad header {lines[0]!r}") for _ in self.files]
        ops = []
        for name, line in zip(self.files, lines[1:]):
            cells = line.split(",")
            if cells[0] != name or cells[1] == "ERROR":
                ops.append(Op(error=f"row {line!r}"))
                continue
            values = [float(c) for c in cells[2:] if c]   # r_max, last, may be empty
            error = None
            if not _finite(values):
                error = f"non-finite features {line!r}"
            elif values[4] != MODULAR_M / MODULAR_N or values[7] != MODULAR_N \
                    or values[8] != MODULAR_M:
                error = f"ratio/n/m wrong: {line!r}"
            # q (column 3) is reported, not digested
            ops.append(Op(cells[:3] + cells[4:], cells, error, q=values[1]))
        return ops


class CliEvolution(CliWorkload):
    """`cnfscope evolution` on a random formula and a learnt-clause trace."""

    name = "cli_evolution"
    op_count = len(EVOLUTION_SIZES)

    def setup(self, seed, workdir):
        self.workdir = workdir
        m = round(EVOLUTION_RATIO * EVOLUTION_N)
        f = cnf.random_3cnf(EVOLUTION_N, m, seed * 1000)
        trace = cnf.ClauseTrace(gen.learnt_checkpoints(
            f.clauses, EVOLUTION_N, EVOLUTION_SIZES, seed * 1000 + 1))
        (workdir / "evolution.cnf").write_text(cnf.write_dimacs(f))
        (workdir / "evolution.trace").write_text(cnf.write_trace(trace))
        self.checkpoints = trace.decision_counts
        # each checkpoint analyses the formula plus its clauses twice:
        # once as recorded, once replaced by random clauses of the same sizes
        base = _lits(f.clauses)
        self.lits = sum(2 * (base + _lits(c)) for _, c in trace.checkpoints)

    def command(self):
        return ["evolution", "evolution.cnf", "--trace", "evolution.trace",
                "--seed", CLI_SEED]

    def rows(self, lines):
        # The random replacement turns the trace's units into random units,
        # which on some seeds propagate to a conflict. The CLI reports that as
        # status conflict_random with the random cells empty: a valid result.
        ops = []
        for ck, line in zip(self.checkpoints, lines[1:]):
            cells = line.split(",")
            filled = cells[1:3] if cells[5] == "conflict_random" else cells[1:5]
            error = None
            if cells[0] != str(ck) or cells[5] not in ("ok", "conflict_random") \
                    or "" in filled:
                error = f"row {line!r}"
            elif not _finite(float(c) for c in filled):
                error = f"non-finite dimensions {line!r}"
            ops.append(Op(cells, cells, error))
        return ops


WORKLOADS = {w.name: w for w in (FeaturesRandom, CoverTable1, CliModular, CliEvolution)}

# ---------------------------------------------------------------------------
# Measurement


class Checker:
    """Counts attempted and failed operations over all rounds of a run.

    An operation fails on an exception, a nonzero exit, an ERROR row, a
    broken invariant, output that differs from the first round, or (at the
    default seed) a digest that differs from perfbench/reference.json.
    `extra` errors are round-level findings of the traced run; each fails
    one more operation of that round.
    """

    def __init__(self, reference):
        self.reference = reference
        self.first: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ops, extra=()):
        self.attempted += len(ops)
        if self.first is None:
            self.first = [op.full for op in ops]
        errors = []
        for k, op in enumerate(ops):
            error = op.error
            if error is None and self.reference is not None and op.ref != self.reference[k]:
                error = f"digest {op.ref} != reference {self.reference[k]}"
            if error is None and op.full != self.first[k]:
                error = "output differs from the first round"
            if error is not None:
                errors.append(f"op {k}: {error}")
        errors += extra
        self.messages += errors
        self.failed += min(len(ops), len(errors))


def _reference(workload: str, seed: int):
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def _timed_rounds(seconds, one_round):
    """Call one_round (which returns its own wall time) until the budget
    would be overrun, and at least MIN_ROUNDS times.

    Rounds take turns on the CPUs this process may use, pinned to one at a
    time (CLI children inherit the pin), so the work stays single-process
    but a CPU slowed for a while by other load is not the only one sampled.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    walls = []
    start = time.perf_counter()
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(walls) % len(cpus)]})
            walls.append(one_round())
            used = time.perf_counter() - start
            if len(walls) >= MIN_ROUNDS and used + statistics.median(walls) > seconds:
                return walls
    finally:
        os.sched_setaffinity(0, allowed)


# Machine speed. The host's CPUs slow down by up to 1.5x for seconds to
# minutes under other load. Before every step the harness times a fixed
# calibration computation; its fastest time in the run says how fast the
# machine was, and time metrics are scaled to a machine on which it takes
# CALIBRATION_S (a round figure; the baseline machine took 11-12 ms).
# Program changes do not touch the calibration, so they move the scaled
# times as they move the raw ones.
CALIBRATION_S = 0.010
_CALIBRATION_ARRAY = np.random.default_rng(0).random(200_000)


def _calibration_kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    np.sort(_CALIBRATION_ARRAY)
    return time.perf_counter() - t0


def _timed_steps(steps, calibration=None):
    """Run each step once; return their outputs and wall times. With a
    `calibration` list, time the calibration computation before each step."""
    raws, times = [], []
    for step in steps:
        if calibration is not None:
            calibration.append(_calibration_kernel())
        t0 = time.perf_counter()
        raws.append(step())
        times.append(time.perf_counter() - t0)
    return raws, times


def measure(workload: str, seed: int, seconds: float, trace: bool):
    w = WORKLOADS[workload]()
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return _measure_traced(w, workdir, seed, seconds)
        return _measure(w, workdir, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(w, workdir, seed, seconds):
    checker = Checker(_reference(w.name, seed))
    setups, calibration, fastest, qs = [], [], None, []

    def one_round():
        # A fresh set-up before every round spreads the set-up samples over
        # the run, like the steps; the inputs are the same each time.
        nonlocal fastest
        t0 = time.perf_counter()
        w.setup(seed, workdir)
        setups.append(time.perf_counter() - t0)
        raws, times = _timed_steps(w.steps(), calibration)
        fastest = times if fastest is None else list(map(min, fastest, times))
        ops = w.ops(raws)
        checker.check(ops)
        qs.extend(op.q for op in ops if op.q is not None)
        return sum(times)

    rounds = _timed_rounds(seconds, one_round)
    # Every repetition of a step does the same work, so anything above its
    # fastest run is interference from the machine, not cost of the program.
    raw_wall = math.fsum(fastest)
    speed = CALIBRATION_S / min(calibration)
    wall = raw_wall * speed
    who = resource.RUSAGE_CHILDREN if w.cli else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups) * speed, "s"),
        "wall_s": (wall, "s"),
        "lits_per_s": (w.lits / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"rounds": len(rounds), "unscaled_wall_s": raw_wall,
             "unscaled_setup_s": statistics.median(setups),
             "calibration_s": min(calibration),
             "q_mean": statistics.fmean(qs) if qs else None}
    return checker, metrics, notes


def _measure_traced(w, workdir, seed, seconds):
    checker = Checker(_reference(w.name, seed))
    tracer = Tracer()
    probes = layers.Probes(tracer)
    probes.install()
    try:
        with tracer.span("setup") as setup_root:
            w.setup(seed, workdir)
    finally:
        tracer.uninstall()
    setup_metrics = layers.aggregate(tracer.spans, setup_root, layers.SETUP_METRICS)
    plain_steps, traced_steps = w.steps(), w.steps(tracer)

    # Untraced and traced rounds alternate, so the overhead is measured on
    # the same inputs in the same process; their outputs must be identical.
    untraced, traced = [], []

    def pair():
        raws, times = _timed_steps(plain_steps)
        untraced.append(sum(times))
        ops = w.ops(raws)
        checker.check(ops)
        plain = [op.full for op in ops]

        probes.install()
        try:
            with tracer.span("round") as root:
                if w.cli:
                    with tracer.span("cli.process") as proc_span:
                        raws, _ = _timed_steps(traced_steps)
                else:
                    raws, _ = _timed_steps(traced_steps)
        finally:
            tracer.uninstall()
        start, end = tracer.spans[root][1:3]
        extra = _adopt_child(w, tracer, proc_span) if w.cli else probes.curve_errors()
        got = layers.aggregate(tracer.spans, root, layers.SPAN_METRICS)
        if got["_q_drift_over"]:
            extra.append(f"|q - q_incremental| above {layers.Q_DRIFT_LIMIT}")
        if not math.isclose(got["_self_sum"], end - start, rel_tol=1e-9):
            extra.append(f"self times sum to {got['_self_sum']}, round took {end - start}")
        ops = w.ops(raws)
        if [op.full for op in ops] != plain:
            extra.append("traced outputs differ from untraced ones")
        checker.check(ops, extra)
        traced.append((end - start, got))
        return untraced[-1] + end - start

    _timed_rounds(seconds, pair)
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{w.name}-seed{seed}.json")
    # Per-layer figures come from the fastest traced round, so they add up to
    # the trace.wall_s reported next to them.
    wall, got = min(traced, key=lambda t: t[0])
    plain = min(untraced)
    metrics = {m: (got[m], unit) for m, (unit, _, _) in layers.SPAN_METRICS.items()}
    metrics.update({m: (setup_metrics[m], unit)
                    for m, (unit, _, _) in layers.SETUP_METRICS.items()})
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.self_sum_s": (got["_self_sum"], "s"),
        "trace.untraced_wall_s": (plain, "s"),
        "trace.overhead_s": (wall - got["_check_s"] - plain, "s"),
    })
    return checker, metrics, {"rounds": len(traced)}


def _adopt_child(w, tracer, proc_span) -> list[str]:
    """Hang the traced child's spans under its cli.process span and return
    the cover-check errors it found."""
    path = w.workdir / "child_spans.json"
    if not path.exists():
        return ["traced child wrote no spans"]
    child = json.loads(path.read_text())
    path.unlink()
    tracer.adopt(child["spans"], proc_span)
    return child["errors"]


def result_line(checker, metrics) -> dict:
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in a fresh process, one table, nonzero exit on failure."""
    ok = True
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        if not lines:
            ok = False
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    merged["correct"] = ok
    print(json.dumps(merged))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help=f"store this run's digests as the seed-{DEFAULT_SEED} reference")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.record_reference:
        if args.seed != DEFAULT_SEED:
            p.error(f"references are kept for --seed {DEFAULT_SEED} only")
        return record_reference(args.workload)
    checker, metrics, notes = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    for k, v in notes.items():
        print(f"{k} = {v}")
    print(f"fail_ratio = {checker.failed / checker.attempted:.6g} "
          f"({checker.failed}/{checker.attempted})")
    for msg in checker.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result_line(checker, metrics)))
    return 0 if checker.failed == 0 else 1


def record_reference(workload: str) -> int:
    w = WORKLOADS[workload]()
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w.setup(DEFAULT_SEED, workdir)
        ops = w.ops(_timed_steps(w.steps())[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [op.error for op in ops if op.error]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs[workload] = [op.ref for op in ops]
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
