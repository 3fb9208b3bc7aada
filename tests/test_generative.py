import math
from collections import Counter

import pytest
from scipy.integrate import quad

from nbibp import generative
from nbibp.distributions import bnb_mean, BnbParams, digamma_mean, DigammaParams
from nbibp.generative import (
    _draw_weight,
    _weight_integrals,
    bnbp_sample_finitary,
    nbibp_simulate,
    predictive_step,
    truncated_oracle_simulate,
    truncated_weight_mass,
)
from nbibp.numerics import RngStream, harmonic_gap
from nbibp.structures import FeatureArray, Hyperparams, from_array
from nbibp.validation import gof_chi_square, tail_aggregated_tv


def poisson_pmf(k, lam):
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


class TestPredictiveLaw:
    """predictive_step's laws, read off the parameters it hands the samplers."""

    @staticmethod
    def laws(monkeypatch, arr, hp):
        seen = {"bnb": [], "digamma": [], "poisson": []}
        monkeypatch.setattr(
            generative, "bnb_sample", lambda p, rng: seen["bnb"].append(p) or 0
        )
        monkeypatch.setattr(
            generative, "digamma_sample", lambda p, rng: seen["digamma"].append(p) or 1
        )

        class TwoFresh:
            def poisson(self, lam):
                seen["poisson"].append(lam)
                return 2

        grown = predictive_step(arr, hp, TwoFresh())
        assert grown.n == arr.n + 1 and grown.kappa == arr.kappa + 2
        return seen

    def test_old_dish_bnb_shapes(self, monkeypatch):
        # m = 2 rows with serving totals S = (3, 1): BNB(r, S_k, c + m r)
        hp = Hyperparams(1.5, 2.0, 0.5)
        seen = self.laws(monkeypatch, FeatureArray(2, ((2, 1), (0, 1))), hp)
        assert seen["bnb"] == [BnbParams(1.5, 3.0, 5.0), BnbParams(1.5, 1.0, 5.0)]
        assert seen["digamma"] == [DigammaParams(1.5, 5.0)] * 2
        assert seen["poisson"] == [pytest.approx(2.0 * 0.5 * harmonic_gap(1.5, 5.0))]

    def test_first_row_uses_prior_rate(self, monkeypatch):
        hp = Hyperparams(2.0, 3.0, 1.5)
        seen = self.laws(monkeypatch, FeatureArray(0, ()), hp)
        assert seen["bnb"] == []
        assert seen["digamma"] == [DigammaParams(2.0, 3.0)] * 2
        assert seen["poisson"] == [pytest.approx(3.0 * 1.5 * harmonic_gap(2.0, 3.0))]


class TestBuffet:
    def test_empty_and_zero_rows(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(21, 0)
        assert nbibp_simulate(0, hp, rng) == FeatureArray(0, ())
        with pytest.raises(ValueError):
            nbibp_simulate(-1, hp, rng)

    def test_step_keeps_existing_columns(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(22, 0)
        arr = FeatureArray(2, ((1, 0), (0, 2)))
        grown = predictive_step(arr, hp, rng)
        assert grown.n == 3
        assert grown.kappa >= 2
        for old, new in zip(arr.columns, grown.columns):
            assert new[:2] == old

    def test_feature_total_matches_harmonic_rate(self):
        # E[kappa after n rows] = c T (psi(c + n r) - psi(c))
        hp = Hyperparams(1.0, 1.0, 1.0)
        n, reps = 3, 4000
        rng = RngStream(23, 0)
        want = hp.c * hp.T * harmonic_gap(n * hp.r, hp.c)
        kappas = [nbibp_simulate(n, hp, rng).kappa for _ in range(reps)]
        mean = sum(kappas) / reps
        var = sum((k - mean) ** 2 for k in kappas) / (reps - 1)
        assert abs(mean - want) < 3.0 * math.sqrt(var / reps)

    def test_row_feature_count_is_poisson(self):
        # each single row expresses Poisson(c T (psi(c+r) - psi(c))) features
        hp = Hyperparams(1.5, 2.0, 1.0)
        n, reps = 3, 4000
        rng = RngStream(24, 0)
        lam = hp.c * hp.T * harmonic_gap(hp.r, hp.c)
        first, last = Counter(), Counter()
        for _ in range(reps):
            arr = nbibp_simulate(n, hp, rng)
            first[sum(1 for col in arr.columns if col[0])] += 1
            last[sum(1 for col in arr.columns if col[-1])] += 1
        for counts in (first, last):
            p, cells, _ = gof_chi_square(counts, lambda k: poisson_pmf(k, lam), reps)
            assert cells >= 3
            assert p > 1e-3


class TestFinitary:
    def test_shapes(self):
        hp = Hyperparams(2.0, 3.0, 0.5)
        fixed, diffuse = bnbp_sample_finitary(hp, RngStream(25, 0), fixed_atoms=(0.25,))
        assert len(fixed) == 1
        assert all(z >= 0 for z in fixed)
        assert all(z >= 1 for z in diffuse)

    def test_fixed_atom_weights_checked(self):
        # weights 0 and 1 are refused before any draw is taken
        hp = Hyperparams(2.0, 3.0, 0.5)
        for b in (0.0, 1.0):
            rng = RngStream(27, 0)
            with pytest.raises(ValueError, match="fixed atom weights"):
                bnbp_sample_finitary(hp, rng, fixed_atoms=(0.5, b))
            assert rng.uniform() == RngStream(27, 0).uniform()
        assert bnbp_sample_finitary(hp, RngStream(27, 0))[0] == []

    def test_atom_count_and_means(self):
        hp = Hyperparams(2.0, 3.0, 0.5)
        reps = 10_000
        rng = RngStream(26, 0)
        kappas, fixed_draws = [], []
        for _ in range(reps):
            fixed, diffuse = bnbp_sample_finitary(hp, rng, fixed_atoms=(0.25,))
            kappas.append(len(diffuse))
            fixed_draws.append(fixed[0])
        lam = hp.c * hp.T * harmonic_gap(hp.r, hp.c)
        mean_k = sum(kappas) / reps
        assert abs(mean_k - lam) < 3.0 * math.sqrt(lam / reps)
        # fixed atom count is BNB(r, c b, c (1 - b))
        want = bnb_mean(BnbParams(hp.r, hp.c * 0.25, hp.c * 0.75))
        mean_f = sum(fixed_draws) / reps
        var_f = sum((z - mean_f) ** 2 for z in fixed_draws) / (reps - 1)
        assert abs(mean_f - want) < 3.0 * math.sqrt(var_f / reps)

    def test_diffuse_count_law(self):
        hp = Hyperparams(1.0, 3.0, 2.0)
        reps = 6000
        rng = RngStream(27, 0)
        draws = Counter()
        total = 0
        for _ in range(reps):
            _, diffuse = bnbp_sample_finitary(hp, rng)
            for z in diffuse:
                draws[z] += 1
                total += 1
        # each diffuse count is digamma(r, c); mean r/((c-1) xi)
        law = DigammaParams(hp.r, hp.c)
        mean = sum(z * m for z, m in draws.items()) / total
        want = digamma_mean(law)
        assert abs(mean - want) < 0.1


class TestWeightMeasure:
    def test_unit_concentration_log_tail(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        assert truncated_weight_mass(hp, 0.5) == pytest.approx(math.log(2.0), rel=1e-10)
        assert truncated_weight_mass(hp, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-10)

    def test_concentration_two_closed_form(self):
        # c = 2: c T int p^{-1} (1-p) dp = 2 T (log(1/eps) - (1 - eps))
        for T in (1.0, 0.7):
            hp = Hyperparams(1.0, 2.0, T)
            for eps in (0.1, 0.01, 0.6):
                want = 2.0 * T * (math.log(1.0 / eps) - (1.0 - eps))
                assert truncated_weight_mass(hp, eps) == pytest.approx(want, rel=1e-10)

    def test_epsilon_range(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                truncated_weight_mass(hp, bad)

    def test_weight_sampler_law(self):
        c, eps = 2.5, 0.05
        i_low, i_high = _weight_integrals(c, eps)
        norm = i_low + i_high
        rng = RngStream(28, 0)
        reps = 20_000
        draws = [_draw_weight(c, eps, i_low, i_high, rng) for _ in range(reps)]
        assert min(draws) > eps
        assert max(draws) < 1.0
        # empirical CDF against exact quadrature at interior points
        for x in (0.1, 0.3, 0.5, 0.8):
            want = quad(lambda p: (1.0 - p) ** (c - 1.0) / p, eps, x)[0] / norm
            got = sum(d <= x for d in draws) / reps
            se = math.sqrt(want * (1.0 - want) / reps)
            assert abs(got - want) < 4.0 * se, x


class TestTruncatedOracle:
    def test_validation(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(29, 0)
        with pytest.raises(ValueError):
            truncated_oracle_simulate(0, hp, 0.1, rng)
        with pytest.raises(ValueError):
            truncated_oracle_simulate(2, hp, 0.0, rng)

    def test_shape_and_support(self):
        hp = Hyperparams(1.0, 1.0, 0.5)
        rng = RngStream(30, 0)
        for _ in range(50):
            arr = truncated_oracle_simulate(2, hp, 1e-3, rng)
            assert arr.n == 2
            assert all(any(col) for col in arr.columns)

    def test_agrees_with_buffet(self):
        # the two constructions share no sampling code; a tail-aggregated
        # total variation between their structure laws flags any divergence
        hp = Hyperparams(1.0, 1.0, 0.5)
        reps = 15_000
        rng_a = RngStream(31, 0)
        rng_b = RngStream(31, 1)
        ca, cb = Counter(), Counter()
        for _ in range(reps):
            a = nbibp_simulate(2, hp, rng_a)
            b = truncated_oracle_simulate(2, hp, 1e-4, rng_b)
            ca[tuple(sorted(from_array(a).counts.items()))] += 1
            cb[tuple(sorted(from_array(b).counts.items()))] += 1
        tv, cells = tail_aggregated_tv(ca, cb)
        assert cells >= 10
        assert tv < 0.05
