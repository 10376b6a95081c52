"""How added clauses change the fractal dimension during solving.

A trace file records clauses at decision checkpoints (`t <decisions>` lines,
DIMACS-style clause bodies). Augmenting the formula with the checkpoint's
clauses and unit-propagating mirrors a CDCL run; replacing them with random
clauses of the same sizes quantifies how "local" the originals were. Here the
trace is synthetic, so both variants climb together; on real solver traces
the random replacement climbs faster.

Run:  python demos/demo_learnt_clauses.py
"""

import numpy as np

from cnfscope import (
    ClauseTrace,
    augment_with_learnt,
    build_cvig,
    cover_curve,
    fit_dimension,
    random_3cnf,
    random_replacement,
    write_trace,
)

n, m = 5000, 21250
f = random_3cnf(n, m, seed=3)
rng = np.random.default_rng(4)

checkpoints = []
for decisions in (100, 1000, 10000):
    clauses = []
    for _ in range(decisions // 4):
        size = int(rng.integers(2, 9))
        vs = rng.choice(n, size=size, replace=False) + 1
        signs = rng.integers(0, 2, size=size) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(vs, signs)))
    checkpoints.append((decisions, tuple(clauses)))
trace = ClauseTrace(tuple(checkpoints))
print("trace head:")
print("\n".join(write_trace(trace).splitlines()[:3]))


def d_b(formula):
    return fit_dimension(cover_curve(build_cvig(formula), r_stop=5)).d


print(f"\noriginal: d_b = {d_b(f):.2f}")
print(f"{'decisions':>10} {'d_b (trace clauses)':>20} {'d_b (random subst.)':>20}")
for k in trace.decision_counts:
    with_trace = d_b(augment_with_learnt(f, trace, k))
    with_random = d_b(random_replacement(f, trace, k, seed=k))
    print(f"{k:>10} {with_trace:>20.2f} {with_random:>20.2f}")

print("\nDimension grows as clauses accumulate: new clauses shorten typical "
      "distances, so fewer circles cover the graph at each radius.")
