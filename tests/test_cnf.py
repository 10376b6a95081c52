import hashlib
import random
import re
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from cnfscope import cnf
from cnfscope.cnf import (
    ClauseTrace,
    CnfFormula,
    DimacsError,
    PropagationConflict,
    TraceError,
    _distinct_rows,
    _literal_keys,
    _random_clause,
    _read_blocks,
    augment_with_learnt,
    parse_dimacs,
    parse_trace,
    random_3cnf,
    read_input,
    random_replacement,
    unit_propagate,
    write_dimacs,
    write_trace,
)
from cnfscope.features import _canonical_clause_order
from cnfscope.graph import build_cvig, build_vig
from oracles import propagate_lists, ranked_twin, text_blocks


class TestParseDimacs:
    def test_basic(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
        assert f.num_vars == 3
        assert f.clauses == ((1, -2), (2, 3))
        assert f.warnings == ()

    def test_comment_and_smallest(self):
        f = parse_dimacs("c comment\np cnf 1 1\n1 0")
        assert f.num_vars == 1
        assert f.clauses == ((1,),)

    def test_duplicate_and_tautology_warnings(self):
        f = parse_dimacs("p cnf 2 1\n1 1 -1 0")
        assert f.clauses == ((1, -1),)
        assert f.tautological == (0,)
        assert any("duplicate" in w for w in f.warnings)
        assert any("tautological" in w for w in f.warnings)

    def test_bytes_and_crlf(self):
        f = parse_dimacs(b"p cnf 2 1\r\n1 2 0\r\n")
        assert f.clauses == ((1, 2),)

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_satlib_percent_trailer(self):
        f = parse_dimacs("p cnf 3 1\n1 -2 3 0\n%\n0\n")
        assert f.clauses == ((1, -2, 3),)
        assert f.warnings == ()

    def test_count_mismatch_actual_wins(self):
        f = parse_dimacs("p cnf 2 5\n1 0\n2 0\n")
        assert f.num_clauses == 2
        assert any("actual count wins" in w for w in f.warnings)

    def test_missing_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("1 2 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf x y\n")

    def test_malformed_header_quoted_short(self):
        with pytest.raises(DimacsError, match="malformed header") as err:
            parse_dimacs("p cnf " + "1" * 5000 + " 1\n1 0\n")
        assert len(str(err.value)) < 60

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 1\n1 3 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    @pytest.mark.parametrize("lit", ("-9223372036854775808",
                                     "99999999999999999999",
                                     "9223372036854775808", "+9223372036854775808",
                                     "-9223372036854775809"))
    def test_literal_beyond_int64(self, lit):
        # past the int64 range, or whose absolute value wraps in int64
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs(f"p cnf 3 1\n1 {lit} 0\n")

    def test_huge_variable_ids(self):
        # clause * variable keys would pass int64 here; the ids are ranked
        big = 2**62
        f = parse_dimacs(f"p cnf {big} 2\n{big} -{big} 1 1 0\n-1 {big - 1} 0\n")
        assert f.clauses == ((big, -big, 1), (-1, big - 1))
        assert f.warnings == ("clause 0: duplicate literal collapsed",
                              "clause 0: tautological (kept)")
        assert f.tautological == (0,)
        indptr, vars_ = f.clause_vars
        assert indptr.tolist() == [0, 2, 4]
        assert vars_.tolist() == [0, big - 1, 0, big - 2]
        # two clauses: the literal keys rank the ids from the largest id
        # 2**61 on, where 2 * m * span first passes int64; on both sides of
        # that bound every view is the one of the ranked twin, ids renamed
        for top in (2**61 - 2, 2**61 - 1, 2**61):
            raw = [(top, -top, 1, 1), (top, -1, top - 1)]
            f = parse_dimacs(write_dimacs(CnfFormula(top, raw)))
            assert (_literal_keys(*f.literal_arrays())[2] is None) == (top < 2**61)
            twin, ids = ranked_twin(raw)
            t = parse_dimacs(write_dimacs(CnfFormula(3, twin)))
            assert f.warnings == t.warnings
            assert f.tautological == t.tautological == (0,)
            indptr, vars_ = f.clause_vars
            assert np.array_equal(indptr, t.clause_vars[0])
            assert vars_.tolist() == [ids[v] - 1 for v in t.clause_vars[1]]
            named = [tuple(ids[abs(lit) - 1] * (1 if lit > 0 else -1) for lit in c)
                     for c in _canonical_clause_order(t).clauses]
            assert list(_canonical_clause_order(f).clauses) == named == [
                (top, -1, top - 1), (top, -top, 1)]

    def test_matches_from_clauses(self):
        """Parsing raw clauses gives the formula and the warnings, text and
        order, that from_clauses gives them."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            raw = [(rng.integers(1, n + 1, size=k)
                    * rng.choice((-1, 1), size=k)).tolist()
                   for k in rng.integers(0, 6, size=int(rng.integers(0, 12)))]
            tokens = [str(lit) for c in raw for lit in c + [0]]
            seps = rng.choice([" ", "\n", "  \n c x\n"], size=len(tokens))
            text = f"p cnf {n} {len(raw)}\n" + "".join(
                tok + sep for tok, sep in zip(tokens, seps))
            parsed, built = parse_dimacs(text), CnfFormula.from_clauses(n, raw)
            assert parsed == built
            assert parsed.warnings == built.warnings


class TestTokens:
    """A literal token is whatever int() reads, within int64."""

    @pytest.mark.parametrize("tok, lit", (("+3", 3), ("1_0", 10), ("\u0663", 3),
                                          ("-2", -2)))
    def test_accepted(self, tok, lit):
        assert parse_dimacs(f"p cnf 10 1\n{tok} 0\n").clauses == ((lit,),)
        assert parse_trace(f"t 1\n{tok} 0\n").learnt_at(1) == ((lit,),)

    def test_minus_zero_ends_clause(self):
        assert parse_dimacs("p cnf 3 2\n1 2 -0 3 0\n").clauses == ((1, 2), (3,))

    @pytest.mark.parametrize("tok", ("0x1", "3.0", "--1", "1-", "_1"))
    def test_bad_token(self, tok):
        with pytest.raises(DimacsError, match="bad token"):
            parse_dimacs(f"p cnf 3 1\n1 {tok} 0\n")
        with pytest.raises(TraceError, match="bad token"):
            parse_trace(f"t 1\n1 {tok} 0\n")

    def test_trace_beyond_int64(self):
        with pytest.raises(TraceError, match="out of range"):
            parse_trace("t 1\n1 9223372036854775808 0\n")
        # -2**63 fits int64; the learnt-clause range check rejects it
        trace = parse_trace("t 1\n1 -9223372036854775808 0\n")
        f = CnfFormula.from_clauses(3, [[1, 2]])
        with pytest.raises(ValueError, match="out of range in learnt clause 0"):
            augment_with_learnt(f, trace, 1)

    @pytest.mark.parametrize("lit", (2**63, -2**63, 2**70))
    def test_from_clauses_beyond_int64(self, lit):
        with pytest.raises(ValueError, match="out of range"):
            CnfFormula.from_clauses(3, [[1], [2, lit]])

    @pytest.mark.parametrize("tok", ("1" * 5000, "-" + "9" * 4000, "1_2" * 2000),
                             ids=("5000_digits", "4000_digits", "underscores"))
    def test_long_literal_out_of_range(self, tok):
        # past int()'s digit limit (4300) or not, a long decimal is out of
        # range, and the message quotes only the first 30 characters
        want = f"^literal {re.escape(tok[:30])}\\.\\.\\. out of range$"
        with pytest.raises(DimacsError, match=want):
            parse_dimacs(f"p cnf 3 1\n1 {tok} 0\n")
        with pytest.raises(TraceError, match=want):
            parse_trace(f"t 1\n1 {tok} 0\n")

    def test_long_bad_token_cut(self):
        tok = "0x" + "1" * 5000
        want = f"^bad token {re.escape(repr(tok)[:30])}\\.\\.\\.$"
        with pytest.raises(DimacsError, match=want):
            parse_dimacs(f"p cnf 3 1\n{tok} 0\n")
        with pytest.raises(TraceError, match=want):
            parse_trace(f"t 1\n{tok} 0\n")

    @pytest.mark.parametrize("sign, exp", ((1, 5000), (-1, 5000), (1, 40)))
    def test_from_clauses_long_literal(self, sign, exp):
        # 10**5000 is past str()'s digit limit; its leading digits are quoted
        lit = sign * 10**exp
        digits = "-" * (sign < 0) + "1" + "0" * 29
        with pytest.raises(ValueError,
                           match=f"^literal {digits[:30]}\\.\\.\\. out of range$"):
            CnfFormula.from_clauses(3, [[1], [2, lit]])


class TestFormulaValue:
    """A formula is its num_vars and its arrays, whichever way it was built."""

    def test_equal_and_hash_across_builders(self):
        text = "c x\np cnf 4 3\n1 1 -2 0\n3 -3 0\n-4 0\n"
        parsed = parse_dimacs(text)
        built = CnfFormula.from_clauses(4, [[1, 1, -2], [3, -3], [-4]])
        direct = CnfFormula(4, ((1, -2), (3, -3), (-4,)))
        assert parsed.warnings and not direct.warnings
        assert parsed == built == direct
        assert len({hash(parsed), hash(built), hash(direct)}) == 1
        assert len({parsed, built, direct}) == 1
        g = random_3cnf(40, 90, seed=3)
        again = parse_dimacs(write_dimacs(g))
        assert again == g and hash(again) == hash(g)
        assert CnfFormula(g.num_vars, g.clauses) == g

    def test_unequal(self):
        f = CnfFormula(3, ((1, 2), (3,)))
        assert f != CnfFormula(3, ((1,), (2, 3)))   # same literals, split apart
        assert f != CnfFormula(4, ((1, 2), (3,)))
        assert f != CnfFormula(3, ((2, 1), (3,)))
        assert f != ((1, 2), (3,))

    def test_arrays_read_only(self):
        for f in (parse_dimacs("p cnf 3 2\n1 -2 0\n3 0\n"), random_3cnf(5, 4, seed=1),
                  CnfFormula(3, ((1, -2), (3,)))):
            lengths, lits = f.literal_arrays()
            assert lengths.dtype == lits.dtype == np.int64
            with pytest.raises(ValueError):
                lengths[0] = 9
            with pytest.raises(ValueError):
                lits[0] = 9
            with pytest.raises(FrozenInstanceError):
                f.num_vars = 9

    def test_clauses_view_not_kept(self):
        f = CnfFormula(3, ((1, -2), (), (3,)))
        assert f.clauses == ((1, -2), (), (3,))
        assert f.clauses is not f.clauses
        assert "clauses" not in vars(f)


class TestWriteDimacs:
    def test_smallest(self):
        f = CnfFormula.from_clauses(1, [[1]])
        assert write_dimacs(f) == "p cnf 1 1\n1 0\n"

    def test_empty(self):
        f = CnfFormula.from_clauses(0, [])
        assert write_dimacs(f) == "p cnf 0 0\n"

    def test_empty_clause_and_int64_extremes(self):
        f = CnfFormula(9, ((), (-9223372036854775808, 9223372036854775807), (5, -10)))
        assert write_dimacs(f) == ("p cnf 9 3\n 0\n"
                                   "-9223372036854775808 9223372036854775807 0\n"
                                   "5 -10 0\n")

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            f = random_3cnf(int(rng.integers(3, 30)), int(rng.integers(1, 60)),
                            seed)
            assert parse_dimacs(write_dimacs(f)) == f

    def test_write_parse_idempotent(self):
        text = "c hi\np cnf 4 3\n1 1 -2 0 3 -4 0\n2 0\n"
        once = write_dimacs(parse_dimacs(text))
        assert write_dimacs(parse_dimacs(once)) == once


class TestDerivedViews:
    """clause_vars and tautological come from the clauses alone, whichever
    constructor built the formula."""

    def test_direct_constructor_tautology(self):
        f = CnfFormula(3, ((1, -1, 2), (2, 3)))
        parsed = parse_dimacs(write_dimacs(f))
        assert parsed == f
        assert f.tautological == parsed.tautological == (0,)
        builders = (lambda h: build_vig(h), lambda h: build_vig(h, weighted=True),
                    lambda h: build_cvig(h))
        for build in builders:
            a, b = build(f), build(parsed)
            for name in ("indptr", "indices", "weights"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_clause_vars_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            clauses = []
            for _ in range(int(rng.integers(0, 60))):
                size = int(rng.integers(0, min(n, 6) + 1))
                vs = rng.choice(n, size=size, replace=False) + 1
                c = [int(v) * int(s) for v, s in
                     zip(vs, rng.integers(0, 2, size=size) * 2 - 1)]
                if c and rng.random() < 0.2:
                    c.insert(int(rng.integers(len(c) + 1)), c[0])   # duplicate
                if c and rng.random() < 0.2:
                    c.insert(int(rng.integers(len(c) + 1)), -c[-1])  # tautology
                clauses.append(tuple(c))
            for f in (CnfFormula(n, tuple(clauses)),
                      CnfFormula.from_clauses(n, [c for c in clauses if c])):
                indptr, vars_ = f.clause_vars
                assert f.clause_vars[1] is vars_  # cached, built once
                assert indptr.size == f.num_clauses + 1
                for i, c in enumerate(f.clauses):
                    got = vars_[indptr[i]:indptr[i + 1]].tolist()
                    assert got == sorted({abs(l) - 1 for l in c})
                assert f.tautological == tuple(
                    i for i, c in enumerate(f.clauses)
                    if any(-l in c for l in c))


class TestRandom3Cnf:
    def test_n3_uses_all_three(self):
        f = random_3cnf(3, 1, seed=0)
        assert sorted(abs(l) for l in f.clauses[0]) == [1, 2, 3]

    def test_deterministic(self):
        assert random_3cnf(50, 200, seed=9) == random_3cnf(50, 200, seed=9)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            random_3cnf(2, 1, seed=0)

    def test_ratio_at_phase_transition(self):
        f = random_3cnf(100000, 425000, seed=5)
        assert f.ratio == pytest.approx(4.25)

    def test_occurrence_mean(self):
        # 3m/n occurrences per variable on average, within 5 percent
        n, m = 100, 10000
        f = random_3cnf(n, m, seed=2)
        counts = np.zeros(n + 1)
        for c in f.clauses:
            for lit in c:
                counts[abs(lit)] += 1
        mean = counts[1:].mean()
        assert abs(mean - 3 * m / n) / (3 * m / n) <= 0.05

    def test_distinct_vars_per_clause(self):
        f = random_3cnf(5, 500, seed=4)
        for c in f.clauses:
            assert len({abs(l) for l in c}) == 3


class TestUnitPropagate:
    def test_two_step(self):
        f = CnfFormula.from_clauses(2, [[1], [-1, 2]])
        out, assign = unit_propagate(f)
        assert out.clauses == ()
        assert assign == {1: True, 2: True}

    def test_conflict(self):
        f = CnfFormula.from_clauses(1, [[1], [-1]])
        with pytest.raises(PropagationConflict) as exc:
            unit_propagate(f)
        assert exc.value.variable == 1

    def test_keys_past_int64(self):
        # the keys variable * literals + position would pass int64: a
        # MemoryError, before any array of 2**62 counts is asked for
        big = 2**62
        f = CnfFormula(big, ((big, 1), (2, 3)))
        with pytest.raises(MemoryError, match="too many to propagate"):
            unit_propagate(f)

    def test_no_units_unchanged(self):
        f = CnfFormula.from_clauses(2, [[1, 2], [-1, 2]])
        out, assign = unit_propagate(f)
        assert out.clauses == f.clauses
        assert assign == {}

    def test_falsified_literal_removed(self):
        f = CnfFormula.from_clauses(3, [[1], [-1, 2, 3]])
        out, assign = unit_propagate(f)
        assert out.clauses == ((2, 3),)
        assert assign == {1: True}

    def test_fixpoint(self):
        rng = np.random.default_rng(8)
        for seed in range(20):
            base = random_3cnf(10, 20, seed)
            # splice in some unit clauses to force propagation
            units = [(int(rng.integers(1, 11)) * (1 if rng.random() < 0.5 else -1),)]
            f = CnfFormula.from_clauses(10, list(base.clauses) + units)
            try:
                once, a1 = unit_propagate(f)
            except PropagationConflict:
                continue
            twice, a2 = unit_propagate(once)
            assert once == twice
            assert a2 == {}


class TestPropagateOracle:
    def test_matches_list_propagator(self):
        """Against oracles.propagate_lists on formulas from the trusted
        constructor with repeated and complementary literals, planted units
        (some contradicting) and now and then an empty clause."""
        rng = np.random.default_rng(44)
        seen = {"conflict": 0, "empty": 0, "propagated": 0, "repeated": 0}
        for _ in range(600):
            n = int(rng.integers(1, 12))
            clauses = [tuple((rng.integers(1, n + 1, size=k)
                              * rng.choice((-1, 1), size=k)).tolist())
                       for k in rng.integers(1, 5, size=int(rng.integers(0, 20)))]
            for _ in range(int(rng.integers(0, 4))):
                v = int(rng.integers(1, n + 1)) * int(rng.choice((-1, 1)))
                clauses.insert(int(rng.integers(len(clauses) + 1)), (v,))
            if rng.random() < 0.03:
                clauses.insert(int(rng.integers(len(clauses) + 1)), ())
            seen["repeated"] += any(len(set(c)) < len(c) for c in clauses)
            f = CnfFormula(n, tuple(clauses))
            try:
                want = propagate_lists(clauses)
            except PropagationConflict as exc:
                with pytest.raises(PropagationConflict) as got:
                    unit_propagate(f)
                assert got.value.variable == exc.variable
                seen["empty" if exc.variable == 0 else "conflict"] += 1
                continue
            out, assignment = unit_propagate(f)
            assert (out.clauses, assignment) == want
            assert out.num_vars == n and out.warnings == ()
            seen["propagated"] += bool(assignment)
        assert min(seen.values()) >= 5, seen


def _trace(*checkpoints):
    return ClauseTrace(tuple((k, tuple(tuple(c) for c in cls))
                             for k, cls in checkpoints))


class TestAugment:
    def test_empty_learnt_identity(self):
        f = CnfFormula.from_clauses(3, [[1, 2], [-2, 3]])
        t = _trace((100, []))
        assert augment_with_learnt(f, t, 100) == f

    def test_unit_learnt_propagates(self):
        f = CnfFormula.from_clauses(2, [[1, 2]])
        t = _trace((10, [[1]]))
        out = augment_with_learnt(f, t, 10)
        assert out.clauses == ()

    def test_plain_union(self):
        f = CnfFormula.from_clauses(2, [[1, 2]])
        t = _trace((10, [[-1, -2]]))
        out = augment_with_learnt(f, t, 10)
        assert out.clauses == ((1, 2), (-1, -2))

    def test_unknown_checkpoint(self):
        f = CnfFormula.from_clauses(2, [[1, 2]])
        with pytest.raises(ValueError):
            augment_with_learnt(f, _trace((10, [])), 99)

    def test_conflict_reported(self):
        f = CnfFormula.from_clauses(2, [[1, 2]])
        t = _trace((10, [[1], [-1]]))
        with pytest.raises(PropagationConflict):
            augment_with_learnt(f, t, 10)

    def test_clause_count_bound(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            f = random_3cnf(12, 30, seed)
            learnt = [[int(v) * (1 if rng.random() < 0.5 else -1)
                       for v in rng.choice(12, size=2, replace=False) + 1]
                      for _ in range(5)]
            t = _trace((10, learnt))
            try:
                out = augment_with_learnt(f, t, 10)
            except PropagationConflict:
                continue
            assert out.num_clauses <= f.num_clauses + len(learnt)

    def test_learnt_literal_bounds(self):
        f = CnfFormula.from_clauses(2, [[1, 2]])
        with pytest.raises(ValueError):
            augment_with_learnt(f, _trace((10, [[3]])), 10)


class TestRandomReplacement:
    def test_empty_identity(self):
        f = CnfFormula.from_clauses(3, [[1, 2], [-2, 3]])
        assert random_replacement(f, _trace((5, [])), 5, seed=1) == f

    def test_sizes_preserved(self):
        f = CnfFormula.from_clauses(6, [[1, 2], [3, -4]])
        learnt = [[1, 2, 3], [-2, 4, 5], [1, -2, 3, -4, 5]]
        out = random_replacement(f, _trace((5, learnt)), 5, seed=3)
        added = out.clauses[f.num_clauses:]
        assert sorted(len(c) for c in added) == [3, 3, 5]
        for c in added:
            assert all(1 <= abs(l) <= 6 for l in c)
            assert len({abs(l) for l in c}) == len(c)

    def test_deterministic(self):
        f = CnfFormula.from_clauses(6, [[1, 2]])
        t = _trace((5, [[1, 2, 3]]))
        assert random_replacement(f, t, 5, seed=7) == \
            random_replacement(f, t, 5, seed=7)

    def test_unit_replacement_propagates(self):
        f = CnfFormula.from_clauses(3, [[1, 2], [2, 3]])
        out = random_replacement(f, _trace((5, [[3]])), 5, seed=0)
        # one random unit clause was added and propagated away
        assert all(len(c) >= 2 for c in out.clauses)

    def test_tautological_stand_in_distinct_variables(self):
        """A tautological learnt clause is replaced by one over as many
        distinct variables as it holds, so n=2 takes the clause 1 -1 2."""
        f = CnfFormula.from_clauses(2, [[1, 2]])
        learnt = [[1, 2, -1], [-2, 1]]
        out = random_replacement(f, _trace((5, learnt)), 5, seed=0)
        added = out.clauses[f.num_clauses:]
        assert [len({abs(l) for l in c}) for c in added] == [2, 2]
        assert all(len(c) == 2 for c in added)
        # the draws are those of the clause without its repeated variable
        assert out == random_replacement(f, _trace((5, [[1, 2], [-2, 1]])), 5,
                                         seed=0)


class TestRandomClause:
    @pytest.mark.parametrize("n, sizes", (
        (2, range(3)), (3, range(4)), (6, range(7)), (8, range(9)),
        (50, (1, 3, 8, 12, 14))))
    def test_draws_of_distinct_rows(self, n, sizes):
        """A stand-in is the row _distinct_rows(rng, n, 1, size) draws and
        its signs, from twin-seeded generators, redraws included: sizes
        near n redraw most rows several times."""
        class Counting:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        old, new = np.random.default_rng(11), Counting(np.random.default_rng(11))
        for size in list(sizes) * 20:
            row = _distinct_rows(old, n, 1, size)[0]
            want = row * (old.integers(0, 2, size=size, dtype=np.int64) * 2 - 1)
            got = _random_clause(new, n, size)
            assert (got.dtype, got.tolist()) == (want.dtype, want.tolist())
        # one row and one sign draw per clause, the rest redraws
        assert new.calls > 2 * 20 * len(sizes)

    def test_more_than_n_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^cannot draw 4 distinct variables from 1\.\.3$"):
            _random_clause(np.random.default_rng(0), 3, 4)


class TestTrace:
    def test_round_trip(self):
        t = _trace((100, [[1, -2], [3]]), (1000, [[-1, 2, 3]]))
        assert parse_trace(write_trace(t)) == t

    def test_strictly_increasing(self):
        with pytest.raises(TraceError):
            _trace((100, []), (100, []))

    def test_parse_format(self):
        t = parse_trace("c x\nt 100\n1 -2 0\nt 1000\n3 0\n")
        assert t.decision_counts == (100, 1000)
        assert t.learnt_at(100) == ((1, -2),)

    def test_clause_before_checkpoint(self):
        with pytest.raises(TraceError):
            parse_trace("1 2 0\nt 100\n")

    def test_unterminated(self):
        with pytest.raises(TraceError):
            parse_trace("t 10\n1 2\n")

    def test_comments_and_percent_trailer(self):
        t = parse_trace("c solver log\nt 5\nc learnt\n1 -2 0\n%\n0\nt 3\n")
        assert t.checkpoints == ((5, ((1, -2),)),)

    @pytest.mark.parametrize("line", ("t", "t 1 2", "t x", "tx 5", "tally 5"))
    def test_malformed_checkpoint_line(self, line):
        with pytest.raises(TraceError, match="malformed checkpoint line"):
            parse_trace(f"{line}\n1 0\n")

    def test_malformed_checkpoint_line_quoted_short(self):
        with pytest.raises(TraceError, match="malformed checkpoint line") as err:
            parse_trace("t " + "1" * 5000 + "\n1 0\n")
        assert len(str(err.value)) < 70


class TestReadInput:
    @pytest.mark.parametrize("name", ("g.gz", "g.bz2", "g.xz", "g.GZ", "g.BZ2"))
    def test_garbage_names_path_once(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"garbage data here\n")
        with pytest.raises(OSError) as err:
            read_input(path)
        assert str(err.value).count(str(path)) == 1

    @pytest.mark.parametrize("name", ("missing.cnf", "missing.gz", "missing.bz2"))
    def test_missing_names_path_once(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(FileNotFoundError) as err:
            read_input(path)
        assert str(err.value).count(str(path)) == 1


def _text(rng: random.Random) -> str:
    """A random DIMACS-style text: directive, comment, `%` and clause lines
    of plain and odd tokens, between every kind of blank and line break;
    half of the texts are ASCII only."""
    ascii_only = rng.random() < 0.5

    def pick(items):
        return rng.choice([x for x in items if x.isascii() or not ascii_only])

    blanks = [" ", " ", " ", "  ", "\t", "\x1f", "\xa0", "\u3000"]
    breaks = ["\n"] * 6 + ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                         "\x85", "\u2028", "\u2029"]
    odd = ["+3", "1_0", "\u0663", "-0", "00", "-007", "0x1", "--1", "-", "1-",
           "9" * 16, "-" + "9" * 18, "9" * 19, "9223372036854775808",
           "1" * 4301, "x", "c", "p", "t", "%"]
    n = rng.randint(1, 9)
    lines = []
    for _ in range(rng.randint(0, 12)):
        r = rng.random()
        if r < 0.12:
            body = "c" + "".join(pick(["", " ", "x", "\xfc", "\v", "1"])
                                 for _ in range(rng.randint(0, 5)))
        elif r < 0.16:
            body = rng.choice([f"p cnf {n} {rng.randint(0, 6)}", "p cnf x 1",
                               "pcnf 3 1", "p", f"t {rng.randint(0, 20)}", "t x",
                               "tx 5"])
        elif r < 0.18:
            body = rng.choice(["%", "%x"])
        else:
            body = pick(blanks).join(
                "0" if rng.random() < 0.25 else pick(odd)
                if rng.random() < 0.05 else str(rng.choice((-1, 1)) * rng.randint(1, n))
                for _ in range(rng.randint(0, 6)))
        lines.append(pick(["", "", "", " ", "\t", "\xa0"]) + body)
    if rng.random() < 0.9:
        lines.insert(0 if rng.random() < 0.8 else rng.randint(0, min(2, len(lines))),
                     rng.choice([f"p cnf {n} {rng.randint(0, 6)}", f"t {rng.randint(0, 9)}"]))
    text = "".join(line + pick(breaks) for line in lines)
    return text.rstrip() if rng.random() < 0.3 else text


def _blocks(read, source, tag):
    """The blocks as lists, or the error's type and message."""
    what, error = ("'p cnf' header", DimacsError) if tag == "p" else \
        ("'t <decisions>' line", TraceError)
    try:
        return [(head, lengths.tolist(), lits.tolist())
                for head, lengths, lits in read(source, tag, what, error)]
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestReader:
    """The reader gives the blocks, and the errors, that str.splitlines()
    and int() give on the decoded text, in chunks of any size."""

    EDGE = ("p cnf 3 2\r\n1 -2 0\r\n2 3 0\r\n", "p cnf 3 2\r1 -2 0\r2 3 0\r",
            "p cnf 3 1\v1 2 0\n", "c x\v1 0\np cnf 1 1\n1 0\n",
            "p cnf 1 1\n1 0\x85c x\n", "p cnf 2 1\n1\t2\t0\n%\n0\n", "1 2 0\n", "",
            "%\n1 2 0\n", "p cnf 2 1\n1 2", "p cnf 3 2\n1 2 -0 3 0\n",
            "t 1\n1 2\nt 2\n1 x 0\n", "p cnf x y\n1 z 0\n", "\ufeffp cnf 1 1\n1 0\n",
            "  p cnf 2 1  \n 1 2 0 \n", "p cnf 2 1\n1 2 0 c 1 0\n",
            "t 5\nc learnt\n1 -2 0\n%\n0\nt 3\n", "p cnf 3 1\n1 -2 3 0\n%")

    @pytest.mark.parametrize("chunk", (cnf.CHUNK_BYTES, 1, 7, 64))
    def test_matches_text_reader(self, monkeypatch, chunk):
        monkeypatch.setattr(cnf, "CHUNK_BYTES", chunk)
        rng = random.Random(5)
        for text in [*self.EDGE, *(_text(rng) for _ in range(1500))]:
            for tag in "pt":
                want = _blocks(text_blocks, text, tag)
                assert _blocks(_read_blocks, text, tag) == want, text
                assert _blocks(_read_blocks, text.encode(), tag) == want, text

    def test_long_plain_input_in_chunks(self, monkeypatch):
        """A trace of 16-digit literals, its blocks spanning chunks of 50
        bytes, reads as in one chunk."""
        rng = np.random.default_rng(3)
        lits = rng.integers(-10**16 + 1, 10**16, size=3000)
        lits[lits == 0] = 1
        text = "".join(f"t {k}\n" + "".join(f"{a} {b} 0\n" for a, b in
                                            lits[100 * k:100 * k + 100].reshape(-1, 2))
                       for k in range(30))
        want = parse_trace(text)
        monkeypatch.setattr(cnf, "CHUNK_BYTES", 50)
        assert parse_trace(text.encode()) == want
        assert [c for _, cs in want.checkpoints for c in cs] == \
            [tuple(p) for p in lits.reshape(-1, 2).tolist()]

    @pytest.mark.parametrize("chunk", (7, 64))
    def test_one_line_in_chunks(self, monkeypatch, chunk):
        """Clauses all on one line read as with one clause a line: the line
        is cut just past a blank, in chunks read as arrays and (around the
        +3 tokens) by int(), while a comment line longer than a chunk runs
        to its end, whatever it holds."""
        f = random_3cnf(30, 120, seed=4)
        head, body = write_dimacs(f).split("\n", 1)
        body = body.replace("\n", " ").replace(" 3 ", " +3 ")
        comment = "c " + " ".join(map(str, range(1, 90))) + " -1 x 0"
        ends = []
        chunk_end = cnf._chunk_end
        monkeypatch.setattr(cnf, "_chunk_end",
                            lambda *a: ends.append(chunk_end(*a)) or ends[-1])
        monkeypatch.setattr(cnf, "CHUNK_BYTES", chunk)
        for text in (f"{comment}\n{head}\n{body}", f"{head}\n{comment}\n{body}\n"):
            ends.clear()
            assert parse_dimacs(text.encode()) == f
            assert sum(mid for _, mid in ends) > len(body) // (2 * chunk)

    @pytest.mark.parametrize("comment", (b"c caf\xe9", b"c \xff\xfe\x80",
                                         b"c \xe9\x85"))
    @pytest.mark.parametrize("eol", (b"\n", b"\r\n", b"\r"))
    def test_comment_bytes_not_decoded(self, comment, eol):
        """A comment line is skipped as bytes, whatever it holds."""
        text = comment + eol + b"p cnf 2 1" + eol + comment + eol + b"1 -2 0" + eol
        assert parse_dimacs(text).clauses == ((1, -2),)
        trace = comment + eol + b"t 4" + eol + comment + eol + b"1 -2 0" + eol
        assert parse_trace(trace).checkpoints == ((4, ((1, -2),)),)

    def test_bytes_after_percent_not_decoded(self):
        assert parse_dimacs(b"p cnf 1 1\n1 0\n%\n\xff\n").clauses == ((1,),)

    @pytest.mark.parametrize("text", (b"p cnf 1 1\n1 0\xe9\n",
                                      b"p cnf 1 1\nc ok\n1 \xe2\x82 0\n",
                                      b"p cnf 1 1\xe9\n1 0\n",
                                      b"p cnf 1 1\n1 0 \xf0\x90\x80"))
    def test_undecodable_data(self, text):
        """A byte that is not UTF-8 in clause data or a directive line is
        the codec's error at its place in the input."""
        with pytest.raises(UnicodeDecodeError) as want:
            text.decode("utf-8")
        with pytest.raises(UnicodeDecodeError) as got:
            parse_dimacs(text)
        assert str(got.value) == str(want.value)
        # past a comment that does not decode, at its place in the input
        text = b"c caf\xe9\n" + text
        with pytest.raises(UnicodeDecodeError) as got:
            parse_dimacs(text)
        assert got.value.start == want.value.start + 7

    def test_plain_tokens_extremes(self):
        big = "9" * 18
        f = parse_dimacs(f"p cnf {big} 2\n-{big} 0\n{big} -000001 -0\n")
        assert f.clauses == ((-int(big),), (int(big), -1))


class TestBitIdentity:
    """The first 16 hex digits of the sha256 of formulas and texts made by
    the generator and the writers before their clause checks and clause
    ranges changed: the bytes must not."""

    @pytest.mark.parametrize("n, m, seed, digest", (
        (3, 10, 0, "f59e85ab5ad3b68e"), (3, 10, 1, "78e757c72b09d4dc"),
        (3, 10, 42, "61eaa7cd04ae2827"), (4, 2000, 0, "99e281764485b052"),
        (4, 2000, 1, "a0ecb0bc59c4461d"), (4, 2000, 42, "0fce3049ed92a387"),
        (300, 1275, 0, "46a308262b36285f"), (300, 1275, 1, "bf81659591f34270"),
        (300, 1275, 42, "91c65d61880629d1"), (10000, 100000, 0, "4c9dd6d559f8d635"),
        (10000, 100000, 1, "4f320e7703d8cb0e"), (10000, 100000, 42, "50b263be52d453ff"),
    ))
    def test_random_3cnf(self, n, m, seed, digest):
        lengths, lits = random_3cnf(n, m, seed).literal_arrays()
        assert hashlib.sha256(lengths.tobytes() + lits.tobytes()).hexdigest()[:16] == digest

    BIG = 2**63 - 1

    @pytest.mark.parametrize("make, size, digest", (
        (lambda: write_dimacs(CnfFormula(TestBitIdentity.BIG, [
            (1, -2), (), (TestBitIdentity.BIG, -TestBitIdentity.BIG), (-2**63,), (),
            (7, 10**18, -10**17)])), 151, "10cb30fd139a34b8"),
        (lambda: write_dimacs(CnfFormula(5, [])), 10, "a27e9ed2d8e9f801"),
        (lambda: write_dimacs(random_3cnf(300, 1275, 1)), 18484, "676a178e6026ce51"),
        # 300,000 literals: several clause ranges
        (lambda: write_dimacs(random_3cnf(10000, 100000, 1)), 1817140, "05bee11afaa19ef7"),
        (lambda: write_trace(ClauseTrace((
            (1, ((1, -2), (), (TestBitIdentity.BIG, -TestBitIdentity.BIG), (-2**63,))),
            (5, ()), (2**63 - 1, ((3,),))))), 110, "e6c84dcc7aa886b9"),
    ), ids=("extremes", "no_clauses", "n300", "n10000", "trace"))
    def test_writers(self, make, size, digest):
        text = make()
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()[:16]) == (size, digest)


def _peak(fn, *args):
    """fn(*args) and its tracemalloc peak above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """The formula layer holds a few times its input or output at most, at
    n=1e5, m=425,000 (a 9 MB text)."""

    @pytest.fixture(scope="class")
    def big(self):
        f = random_3cnf(100000, 425000, seed=1)
        return f, write_dimacs(f).encode()

    def test_parse(self, big):
        """The text is read in chunks into one literal array, and normalised
        a range of clauses at a time: at most 4 times the text (the reader of
        whole lines and int() tokens took 12 times)."""
        f, data = big
        parse_dimacs(data[:10000].rsplit(b"\n", 1)[0] + b"\n")   # warm caches
        got, peak = _peak(parse_dimacs, data)
        assert got == f
        assert peak <= 4 * len(data)

    def test_parse_one_line(self, big):
        """Every clause on one line: the line is cut at blanks into chunks,
        so it is read within the same 4 times the text (as one chunk it took
        14 times)."""
        f, data = big
        head, body = data.split(b"\n", 1)
        data = head + b"\n" + body.replace(b"\n", b" ")
        parse_dimacs(data[:10000].rsplit(b" ", 1)[0] + b" 0\n")   # warm caches
        got, peak = _peak(parse_dimacs, data)
        assert got == f
        assert peak <= 4 * len(data)

    def test_parse_one_line_plus_lead(self, big):
        """A line led by "+", which int() reads, is clause data too: written
        "+47319", the first literal leaves the one line cut at blanks, within
        4 times the text (read as one chunk it took 15 times)."""
        f, data = big
        head, body = data.split(b"\n", 1)
        assert body.startswith(b"47319 ")
        data = head + b"\n+" + body.replace(b"\n", b" ")
        parse_dimacs(data[:10000].rsplit(b" ", 1)[0] + b" 0\n")   # warm caches
        got, peak = _peak(parse_dimacs, data)
        assert got == f
        assert peak <= 4 * len(data)

    def test_write(self, big):
        """One range of clauses is made at a time: the pieces and the joined
        text peak within 2.5 times the text (the byte matrix of every clause
        at once took 10 times)."""
        f, data = big
        text, peak = _peak(write_dimacs, f)
        assert text.encode() == data
        assert peak <= 2.5 * len(data)

    def test_random_3cnf(self):
        """The draws are checked column pair by column pair, not in a sorted
        copy: within 1.6 times the formula's arrays (2.3 times with it)."""
        random_3cnf(100, 425, seed=1)       # warm caches
        f, peak = _peak(random_3cnf, 100000, 425000, 2)
        assert peak <= 1.6 * sum(a.nbytes for a in f.literal_arrays())
