import numpy as np
import pytest

from cnfscope.cnf import CnfFormula
from cnfscope.scalefree import (
    OccurrenceHistogram,
    fit_alpha,
    occurrence_histogram,
)
from oracles import histogram_from_samples, sample_discrete_powerlaw


class TestOccurrenceHistogram:
    def test_basic(self):
        f = CnfFormula.from_clauses(3, [[1, 2], [1, 3]])
        h = occurrence_histogram(f)
        assert h.ks.tolist() == [1, 2] and h.fs.tolist() == [2, 1]

    def test_repeated_unit(self):
        f = CnfFormula.from_clauses(1, [[1], [1], [1]])
        h = occurrence_histogram(f)
        assert h.ks.tolist() == [3] and h.fs.tolist() == [1]

    def test_unused_variable_excluded(self):
        f = CnfFormula.from_clauses(5, [[1, 2], [2, 3]])
        h = occurrence_histogram(f)
        assert int(h.fs.sum()) == 3
        assert h.total_vars == 5

    def test_tautological_counts_once(self):
        f = CnfFormula.from_clauses(2, [[1, -1, 2]])
        h = occurrence_histogram(f)
        assert h.ks.tolist() == [1] and h.fs.tolist() == [2]
        # the direct constructor keeps the complementary pair as given
        f = CnfFormula(3, ((1, -1, 2), (2, 3)))
        h = occurrence_histogram(f)
        assert h.ks.tolist() == [1, 2] and h.fs.tolist() == [2, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            OccurrenceHistogram(np.array([2, 1]), np.array([1, 1]), 5)
        with pytest.raises(ValueError):
            OccurrenceHistogram(np.array([1]), np.array([9]), 5)


class TestFitAlpha:
    def test_recovers_synthetic_alpha(self):
        rng = np.random.default_rng(42)
        samples = sample_discrete_powerlaw(rng, 2.5, 30000)
        ks, fs = histogram_from_samples(samples)
        fit = fit_alpha(OccurrenceHistogram(ks, fs, int(fs.sum())))
        assert 2.35 <= fit.alpha <= 2.65
        assert 2.0 < fit.alpha < 3.0  # the scale-free band

    def test_degenerate_single_k(self):
        h = OccurrenceHistogram(np.array([3]), np.array([50]), 50)
        with pytest.raises(ValueError):
            fit_alpha(h)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        samples = sample_discrete_powerlaw(rng, 2.2, 5000)
        ks, fs = histogram_from_samples(samples)
        a = fit_alpha(OccurrenceHistogram(ks, fs, int(fs.sum())))
        b = fit_alpha(OccurrenceHistogram(ks, fs * 7, int(fs.sum()) * 7))
        assert a.alpha == pytest.approx(b.alpha, rel=1e-12)
        assert a.k_min == b.k_min
        assert a.discarded == b.discarded

    def test_ks_error_bounds(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            samples = sample_discrete_powerlaw(
                np.random.default_rng(seed), 2.5, 2000)
            ks, fs = histogram_from_samples(samples)
            fit = fit_alpha(OccurrenceHistogram(ks, fs, int(fs.sum())))
            assert 0.0 <= fit.ks_error <= 1.0
            assert fit.alpha > 1.0
            assert 0 <= fit.discarded <= 5
        del rng

    def test_budget_monotone(self):
        # a larger discard budget can only lower the selected error
        rng = np.random.default_rng(3)
        samples = sample_discrete_powerlaw(rng, 2.8, 20000)
        ks, fs = histogram_from_samples(samples)
        h = OccurrenceHistogram(ks, fs, int(fs.sum()))
        errors = [fit_alpha(h, max_discard=t).ks_error for t in range(6)]
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_discard_picks_min_error(self):
        h = OccurrenceHistogram(np.array([1, 2, 3]), np.array([100, 25, 11]), 200)
        fit = fit_alpha(h)
        assert fit.k_min == h.ks[fit.discarded]

    def test_exact_tail_zero_error_two_points(self):
        # alpha=2: f(k) ~ k^-2 tail of two points fitted exactly is impossible
        # in general, but the selected error is tiny for clean data
        ks = np.array([1, 2, 4, 8, 16])
        fs = np.array([4096, 1024, 256, 64, 16])
        fit = fit_alpha(OccurrenceHistogram(ks, fs, int(fs.sum())))
        assert fit.ks_error < 0.2

