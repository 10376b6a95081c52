import warnings

import numpy as np
import pytest

from cnfscope.cnf import CnfFormula, random_3cnf
from cnfscope.features import (
    COLUMNS,
    FEATURE_NAMES,
    _ORDER_COLUMNS,
    _canonical_clause_order,
    FeatureConfig,
    FeatureMatrix,
    FeatureRow,
    FeatureVector,
    extract_features,
    matrix_from_csv,
    normalize,
)
from oracles import canonical_clauses, matrix_to_csv, matrix_to_json


def _vec(**kw):
    base = dict(alpha=2.0, q=0.5, d=2.5, d_b=2.0, ratio=4.0)
    base.update(kw)
    return FeatureVector(**base)


def _matrix(values, family=None):
    rows = [FeatureRow(f"i{k}", family, _vec(alpha=v)) for k, v in enumerate(values)]
    return FeatureMatrix(rows)


class TestExtractFeatures:
    def test_ratio(self):
        f = CnfFormula.from_clauses(2, [[1, 2], [-1, 2]])
        assert f.ratio == pytest.approx(1.0)
        # every variable occurs twice here, so the alpha fit degenerates and
        # extract_features propagates that error; a third clause fixes it
        with pytest.raises(ValueError):
            extract_features(f)
        g = CnfFormula.from_clauses(2, [[1, 2], [-1, 2], [1]])
        assert extract_features(g).ratio == pytest.approx(1.5)

    def test_deterministic(self):
        f = random_3cnf(120, 500, seed=3)
        a = extract_features(f, FeatureConfig(seed=11))
        b = extract_features(f, FeatureConfig(seed=11))
        assert a == b

    def test_extras_populated(self):
        f = random_3cnf(100, 420, seed=1)
        vec = extract_features(f)
        assert vec.extras["n"] == 100
        assert vec.extras["m"] == 420
        assert "beta" in vec.extras and "beta_b" in vec.extras
        assert vec.d >= 0 and vec.d_b >= 0

    def test_clause_permutation_invariance(self):
        f = random_3cnf(80, 300, seed=5)
        rng = np.random.default_rng(0)
        perm = rng.permutation(f.num_clauses)
        g = CnfFormula(f.num_vars, tuple(f.clauses[i] for i in perm))
        cfg = FeatureConfig(seed=7)
        assert extract_features(f, cfg) == extract_features(g, cfg)

    def test_canonical_order_oracle(self):
        """The lexsort order equals sorted() on tuple keys, on mixed lengths
        (empty clauses, and rows past one lexsort chunk) with repeated
        clauses whose literals are permuted, so stability shows."""
        rng = np.random.default_rng(17)
        lengths = (0, 1, 2, 3, 3, 4, _ORDER_COLUMNS, _ORDER_COLUMNS + 1,
                   2 * _ORDER_COLUMNS + 3)
        for _ in range(150):
            n = int(rng.integers(1, 6))
            base = [(rng.integers(1, n + 1, size=k) * rng.choice((-1, 1), size=k)).tolist()
                    for k in rng.choice(lengths, size=int(rng.integers(0, 25)))]
            clauses = base + [rng.permutation(c).tolist()
                              for c in base[:int(rng.integers(len(base) + 1))]]
            clauses = [tuple(clauses[i]) for i in rng.permutation(len(clauses))]
            got = _canonical_clause_order(CnfFormula(n, tuple(clauses)))
            assert list(got.clauses) == canonical_clauses(clauses)

    def test_empty_formula_rejected(self):
        with pytest.raises(ValueError):
            extract_features(CnfFormula.from_clauses(3, []))

    def test_errors_propagate(self):
        # every variable occurs exactly once: degenerate alpha tail
        f = CnfFormula.from_clauses(4, [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            extract_features(f)


class TestNormalize:
    def test_affine_map(self):
        m = _matrix([0.0, 10.0, 5.0])
        out = normalize(m, ["i0", "i1"])
        assert out.rows[2].vector.alpha == pytest.approx(0.5)
        assert out.rows[0].vector.alpha == 0.0
        assert out.rows[1].vector.alpha == 1.0

    def test_constant_feature_excluded(self):
        # a constant training column maps to 0.0 in every row, the held-out
        # one too, so it adds nothing to any distance
        m = FeatureMatrix([FeatureRow(f"i{k}", None, FeatureVector(a, k, k, k, k))
                           for k, a in enumerate([1.0, 1.0, 7.0])])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = normalize(m, ["i0", "i1"])
        assert [r.vector.alpha for r in out.rows] == [0.0, 0.0, 0.0]
        assert [str(w.message) for w in caught] == [
            "feature 'alpha' constant on training set; excluded from distances"]

    def test_single_row_all_constant(self):
        m = _matrix([2.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = normalize(m, ["i0"])
        assert out.rows[0].vector.as_array().tolist() == [0.0] * 5
        assert [str(w.message) for w in caught] == [
            f"feature {n!r} constant on training set; excluded from distances"
            for n in FEATURE_NAMES]

    def test_signed_zero_minimum(self):
        # the minimum is the first minimal training value, as min() takes
        # it: with 0.0 first, -0.0 maps to -0.0 - 0.0 = -0.0
        m = _matrix([0.0, -0.0, 2.0])
        out = normalize(m, ["i0", "i1", "i2"])
        assert [repr(r.vector.alpha) for r in out.rows] == ["0.0", "-0.0", "1.0"]
        out = normalize(_matrix([-0.0, 0.0, 2.0]), ["i0", "i1", "i2"])
        assert [repr(r.vector.alpha) for r in out.rows] == ["0.0", "0.0", "1.0"]

    def test_test_rows_clamped(self):
        m = _matrix([0.0, 10.0, 50.0, -3.0])
        out = normalize(m, ["i0", "i1"])
        assert out.rows[2].vector.alpha == 1.0
        assert out.rows[3].vector.alpha == 0.0

    def test_idempotent_on_training(self):
        m = _matrix([1.0, 3.0, 2.0])
        once = normalize(m, ["i0", "i1", "i2"])
        twice = normalize(once, ["i0", "i1", "i2"])
        for a, b in zip(once.rows, twice.rows):
            assert a.vector == b.vector

    def test_order_preserved(self):
        vals = [3.0, 1.0, 4.0, 1.5, 9.0]
        out = normalize(_matrix(vals), [f"i{k}" for k in range(5)])
        mapped = [r.vector.alpha for r in out.rows]
        assert np.argsort(mapped).tolist() == np.argsort(vals).tolist()

    def test_no_training_rows(self):
        with pytest.raises(ValueError):
            normalize(_matrix([1.0]), ["missing"])


class TestInterchange:
    def test_csv_round_trip(self):
        rows = [
            FeatureRow("a.cnf", "fam1",
                       FeatureVector(2.1, 0.8, 2.5, 2.2, 4.25,
                                     {"beta": 1.0, "beta_b": 0.5, "n": 10.0,
                                      "m": 42.0, "r_max": 4.0})),
            FeatureRow("b.cnf", None, FeatureVector(2.9, 0.3, 5.0, 3.0, 1.0)),
            FeatureRow("a,b.cnf", "fam", FeatureVector(1.5, 0.1, 2.0, 1.0, 3.0)),
        ]
        m = FeatureMatrix(rows)
        text = matrix_to_csv(m)
        back = matrix_from_csv(text)
        assert back.rows[0].instance == "a.cnf"
        assert back.rows[0].family == "fam1"
        assert back.rows[0].vector == rows[0].vector
        assert back.rows[1].family is None
        assert back.rows[1].vector.extras == {}
        assert back.instance_ids == ["a.cnf", "b.cnf", "a,b.cnf"]
        assert back.rows[2].family == "fam"
        assert back.rows[2].vector == rows[2].vector
        assert text.splitlines()[1].startswith("a.cnf,fam1,2.1,")

    def test_header(self):
        text = matrix_to_csv(_matrix([1.0]))
        assert text.splitlines()[0] == \
            "instance,family,alpha,q,d,d_b,ratio,beta,beta_b,n,m,r_max"

    def test_error_row_handling(self):
        text = ("instance,family,alpha,q,d,d_b,ratio,beta,beta_b,n,m,r_max\n"
                "good.cnf,,2.0,0.5,2.5,2.0,4.0,,,,,\n"
                "bad.cnf,ERROR,,,,,,,,,,\n")
        with pytest.raises(ValueError):
            matrix_from_csv(text)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            m = matrix_from_csv(text, skip_errors=True)
        assert m.instance_ids == ["good.cnf"]

    @pytest.mark.parametrize("column,cell", (
        ("alpha", "nan"), ("d", "inf"), ("ratio", "-inf"), ("r_max", "NaN")))
    def test_non_finite_cell(self, column, cell):
        cells = dict(zip(COLUMNS, ["a", "", "2.0", "0.5", "2.5", "2.0", "4.0",
                                   "", "", "", "", ""]))
        cells[column] = cell
        text = ",".join(COLUMNS) + "\n" + ",".join(cells.values()) + "\n"
        with pytest.raises(ValueError,
                           match=f"^non-finite {column} for a: '{cell}'$"):
            matrix_from_csv(text)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            matrix_from_csv("foo,bar\n1,2\n")

    def test_json(self):
        text = matrix_to_json(_matrix([1.0], family="x"))
        assert '"instance": "i0"' in text
        assert '"family": "x"' in text


class TestFeatureVector:
    def test_as_array_order(self):
        v = _vec()
        assert v.as_array().tolist() == [2.0, 0.5, 2.5, 2.0, 4.0]

    def test_value_from_extras(self):
        v = FeatureVector(2.0, 0.5, 2.5, 2.0, 4.0, {"beta": 9.0})
        assert v.value("beta") == 9.0
