import math
import sys
from collections import Counter

import mpmath
import pytest
from scipy.integrate import quad

from nbibp import generative
from nbibp.distributions import (
    BnbParams,
    DigammaParams,
    bnb_log_pmf,
    digamma_log_pmf,
    digamma_sample_rounds,
)
from nbibp.generative import (
    _dish_law,
    _draw_weight,
    _new_dishes,
    _weight_integrals,
    bnbp_sample_finitary,
    nbibp_simulate,
    predictive_step,
    truncated_oracle_simulate,
)
from nbibp.numerics import RngStream, harmonic_gap
from nbibp.structures import FeatureArray, Hyperparams, from_array
from nbibp.validation import gof_chi_square, tail_aggregated_tv


def poisson_pmf(k, lam):
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


class TestPredictiveLaw:
    """predictive_step's laws, read off the parameters it hands the stream and
    the digamma sampler."""

    @staticmethod
    def laws(monkeypatch, columns, m, hp):
        seen = {"beta": [], "gamma": [], "digamma": [], "poisson": []}
        monkeypatch.setattr(
            generative, "digamma_sample_rounds",
            lambda p, rng: seen["digamma"].append(p) or (1, 1),
        )

        class TwoFresh:
            def beta(self, a, b):
                seen["beta"].append((a, b))
                return 0.5

            def gamma(self, shape):
                seen["gamma"].append(shape)
                return 0.0  # a zero NB rate, so the old dish draws count 0

            def poisson(self, lam):
                if lam == 0.0:
                    return 0
                seen["poisson"].append(lam)
                return 2

        kappa = len(columns)
        sums = [sum(col) for col in columns]
        predictive_step(columns, sums, m, hp, TwoFresh())
        assert len(columns) == kappa + 2 and all(len(col) == m + 1 for col in columns)
        assert sums == [sum(col) for col in columns]
        return seen

    def test_old_dish_bnb_shapes(self, monkeypatch):
        # m = 2 rows with serving totals S = (3, 1): BNB(r, S_k, c + m r), a
        # NB(r, p) count with p ~ Beta(S_k, c + m r)
        hp = Hyperparams(1.5, 2.0, 0.5)
        seen = self.laws(monkeypatch, [[2, 1], [0, 1]], 2, hp)
        assert seen["beta"] == [(3, 5.0), (1, 5.0)]
        assert seen["gamma"] == [1.5, 1.5]
        assert seen["digamma"] == [DigammaParams(1.5, 5.0)] * 2
        assert seen["poisson"] == [2.0 * 0.5 * harmonic_gap(1.5, 5.0)]

    def test_first_row_uses_prior_rate(self, monkeypatch):
        hp = Hyperparams(2.0, 3.0, 1.5)
        seen = self.laws(monkeypatch, [], 0, hp)
        assert seen["beta"] == [] and seen["gamma"] == []
        assert seen["digamma"] == [DigammaParams(2.0, 3.0)] * 2
        assert seen["poisson"] == [3.0 * 1.5 * harmonic_gap(2.0, 3.0)]


class TestBuffet:
    def test_fewer_than_one_row_refused(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(21, 0)
        for n in (0, -1, 1.5):
            with pytest.raises(ValueError, match="n >= 1"):
                nbibp_simulate(n, hp, rng)

    def test_step_keeps_existing_columns(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(22, 0)
        columns, sums = [[1, 0], [0, 2]], [1, 2]
        predictive_step(columns, sums, 2, hp, rng)
        assert len(columns) >= 2 and all(len(col) == 3 for col in columns)
        assert [col[:2] for col in columns[:2]] == [[1, 0], [0, 2]]
        assert all(col[:2] == [0, 0] for col in columns[2:])
        assert sums == [sum(col) for col in columns]
        FeatureArray(3, tuple(map(tuple, columns)))  # a valid 3-row array

    def test_draws_run_no_array_check(self, monkeypatch):
        # the simulators build their arrays from columns they drew, so no
        # FeatureArray.__post_init__ runs; the check stays on the public path
        checks = []
        post_init = FeatureArray.__post_init__
        monkeypatch.setattr(
            FeatureArray, "__post_init__", lambda self: checks.append(1) or post_init(self)
        )
        hp = Hyperparams(1.0, 1.0, 2.0)
        rng = RngStream(5, 0)
        drawn = [nbibp_simulate(3, hp, rng), truncated_oracle_simulate(3, hp, 1e-3, rng)]
        assert all(arr.kappa for arr in drawn) and checks == []
        FeatureArray(1, ((1,),))
        assert checks == [1]

    def test_new_dishes_run_no_digamma_check(self, monkeypatch):
        # _new_dishes derives (r, c + m r) from a checked Hyperparams, so no
        # DigammaParams.__post_init__ runs per opened dish; the check stays
        # on the public constructor
        checks = []
        post_init = DigammaParams.__post_init__
        monkeypatch.setattr(
            DigammaParams, "__post_init__", lambda self: checks.append(1) or post_init(self)
        )
        drawn = nbibp_simulate(4, Hyperparams(1.0, 1.0, 3.0), RngStream(5, 0))
        assert drawn.kappa and checks == []
        with pytest.raises(ValueError):
            DigammaParams(1.0, 0.0)
        assert checks == [1]

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


class TestSharedRowStep:
    """n rows simulated at once equal predictive_step folded n times from no
    columns, and leave the stream at the same place."""

    @pytest.mark.parametrize("r, c, T", [(1.0, 1.0, 1.0), (1.5, 2.0, 0.5), (0.3, 0.7, 3.0)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_simulate_is_the_folded_step(self, r, c, T, seed):
        hp = Hyperparams(r, c, T)
        for n in range(1, 7):
            rng_a, rng_b = RngStream(seed, 0), RngStream(seed, 0)
            columns, sums = [], []
            for m in range(n):
                predictive_step(columns, sums, m, hp, rng_b)
            folded = FeatureArray(n, tuple(map(tuple, columns)))
            assert nbibp_simulate(n, hp, rng_a) == folded
            assert rng_a.random() == rng_b.random()


class TestDishLawCache:
    """_new_dishes takes its law from _dish_law's bounded cache, which changes
    no draw: a cold cache, a warm one and the law computed afresh give the
    same counts.  The hp sequence is shaped like a chain's births: r and c
    fixed, T moving at every call, each T visited twice."""

    @staticmethod
    def chain_hps(count):
        rng = RngStream(41, 0)
        Ts = [rng.gamma(4.0, 0.25) for _ in range(count)]
        return [Hyperparams(1.5, 2.0, T) for T in Ts + Ts[::-1]]

    @staticmethod
    def fresh(hp, m, rng):
        # the law of the customer after m others, computed for this call
        tail = hp.c + m * hp.r
        fresh = rng.poisson(hp.c * hp.T * harmonic_gap(hp.r, tail))
        law = DigammaParams(hp.r, tail)
        return [digamma_sample_rounds(law, rng)[0] for _ in range(fresh)]

    def test_cold_and_warm_caches_draw_alike(self):
        calls = [(hp, m) for hp in self.chain_hps(40) for m in (0, 1, 4)]

        def drawn(clear):
            out = []
            for k, (hp, m) in enumerate(calls):
                if clear:
                    _dish_law.cache_clear()
                out.append(_new_dishes(hp, m, RngStream(9, k)))
            return out

        want = [self.fresh(hp, m, RngStream(9, k)) for k, (hp, m) in enumerate(calls)]
        assert any(want) and not all(want)
        assert drawn(clear=True) == want
        _dish_law.cache_clear()
        assert drawn(clear=False) == want  # each law computed once, then read
        info = _dish_law.cache_info()
        assert (info.misses, info.hits) == (len(calls) // 2, len(calls) // 2)
        assert drawn(clear=False) == want  # every law read from the cache
        assert _dish_law.cache_info().hits == info.hits + len(calls)

    def test_cache_is_bounded(self):
        # a long chain visits a new T every sweep; the cache keeps at most
        # maxsize laws, the most recent ones
        maxsize = _dish_law.cache_info().maxsize
        assert isinstance(maxsize, int)
        _dish_law.cache_clear()
        hps = self.chain_hps(maxsize + 20)[: maxsize + 20]
        assert len(set(hps)) == len(hps)
        rng = RngStream(10, 0)
        for hp in hps:
            _new_dishes(hp, 2, rng)
        assert _dish_law.cache_info().currsize == maxsize
        _dish_law(hps[-1].r, hps[-1].c, hps[-1].T, 2)
        assert _dish_law.cache_info().hits == 1
        _dish_law.cache_clear()


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
            assert rng.random() == RngStream(27, 0).random()
        assert bnbp_sample_finitary(hp, RngStream(27, 0))[0] == []

    def test_atom_count_and_means(self):
        hp = Hyperparams(2.0, 3.0, 0.5)
        reps = 10_000
        rng = RngStream(26, 0)
        kappas, fixed_draws = [], Counter()
        for _ in range(reps):
            fixed, diffuse = bnbp_sample_finitary(hp, rng, fixed_atoms=(0.25,))
            kappas.append(len(diffuse))
            fixed_draws[fixed[0]] += 1
        lam = hp.c * hp.T * harmonic_gap(hp.r, hp.c)
        mean_k = sum(kappas) / reps
        assert abs(mean_k - lam) < 3.0 * math.sqrt(lam / reps)
        # fixed atom count is BNB(r, c b, c (1 - b))
        law = BnbParams(hp.r, hp.c * 0.25, hp.c * 0.75)
        p, cells, _ = gof_chi_square(
            fixed_draws, lambda z: math.exp(bnb_log_pmf(law, z)), reps
        )
        assert cells >= 5
        assert p > 1e-3

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
        # each diffuse count is digamma(r, c)
        law = DigammaParams(hp.r, hp.c)
        p, cells, _ = gof_chi_square(
            draws, lambda z: math.exp(digamma_log_pmf(law, z)), total
        )
        assert cells >= 5
        assert p > 1e-3


class TestWeightMeasure:
    @staticmethod
    def mass(hp, epsilon):
        # expected atom count above epsilon, as truncated_oracle_simulate draws it
        i_low, i_high = _weight_integrals(hp.c, epsilon)
        return hp.c * hp.T * (i_low + i_high)

    def test_unit_concentration_log_tail(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        assert self.mass(hp, 0.5) == pytest.approx(math.log(2.0), rel=1e-10)
        assert self.mass(hp, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-10)

    def test_concentration_two_closed_form(self):
        # c = 2: c T int p^{-1} (1-p) dp = 2 T (log(1/eps) - (1 - eps))
        for T in (1.0, 0.7):
            hp = Hyperparams(1.0, 2.0, T)
            for eps in (0.1, 0.01, 0.6):
                want = 2.0 * T * (math.log(1.0 / eps) - (1.0 - eps))
                assert self.mass(hp, eps) == pytest.approx(want, rel=1e-10)

    def test_epsilon_range(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                truncated_oracle_simulate(2, hp, bad, RngStream(29, 0))

    def test_pieces_match_mpmath_over_grid(self):
        # the upper piece against the incomplete beta B_w(c, 0), w = 1 -
        # max(eps, 1/2); the lower against a 40-digit quadrature in t = log p,
        # scaled by its integrand at t = log eps and split around t = -log c,
        # where the integrand falls.  The incomplete-beta difference
        # B_{1-eps}(c, 0) - B_{1/2}(c, 0) is no reference here: it needs
        # 1 - eps held exactly at eps = 1e-300, cancels at c = 1e-300, and
        # at 60 digits reads e^-1 for E1(1) at c = 1e300.  Relative 1e-12
        # where the reference is a normal double, within 1e-320 where not
        def lower(C, eps):
            a, b = mpmath.log(eps), mpmath.log(mpmath.mpf(0.5))
            knots = [a, *(k for k in (-mpmath.log(C) + d for d in (-2, 0, 2, 4)) if a < k < b), b]
            top = (C - 1) * mpmath.log1p(-eps)
            return mpmath.exp(top) * mpmath.quad(
                lambda t: mpmath.exp((C - 1) * mpmath.log1p(-mpmath.exp(t)) - top), knots
            )

        for c in (1e-300, 1e-10, 0.3, 1.0, 2.5, 100.0, 1e3, 1041.0, 1e4, 1e300):
            for eps in (1e-300, 1e-3, 0.1, 0.3, 0.6, 0.999):
                C, E = mpmath.mpf(c), mpmath.mpf(eps)
                with mpmath.workdps(60):
                    want_high = float(mpmath.betainc(C, 0, 0, 1 - max(E, mpmath.mpf(0.5))))
                with mpmath.workdps(40):
                    want_low = float(lower(C, E)) if eps < 0.5 else 0.0
                got_low, got_high = _weight_integrals(c, eps)
                for got, want in ((got_low, want_low), (got_high, want_high)):
                    if want >= sys.float_info.min:
                        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (c, eps)
                    else:
                        assert got == pytest.approx(want, rel=0.0, abs=1e-320), (c, eps)
        # where c eps is a few hundred and c is large, the lower integrand
        # is 0.0 over most of (log eps, log 1/2), which left quad's error
        # estimate past the gate (7e-5 of the value at the second pair)
        for c, eps in ((1e80, 5e-78), (5.6e251, 3.6e-250)):
            with mpmath.workdps(40):
                want = float(lower(mpmath.mpf(c), mpmath.mpf(eps)))
            assert _weight_integrals(c, eps)[0] == pytest.approx(want, rel=1e-10, abs=0.0)
        # the algebraic-weight quadrature read this one 32% low, 1.2612e-304
        high = _weight_integrals(1e3, 1e-3)[1]
        assert high == pytest.approx(1.8646662852252767e-304, rel=1e-12, abs=0.0)

    def test_small_concentration_upper_piece(self):
        # the series against a second form of the piece, w^c / c plus the
        # integral of u^c / (1 - u) over (0, w), at 40 digits.  An algebraic
        # weight in c - 1, which rounds below c = 1/2, failed its error gate
        # at c = 1e-10 and was refused by quad from about 1e-16 down
        for c in (1e-300, 1e-17, 1e-10, 0.3):
            for eps in (1e-3, 0.6):
                with mpmath.workdps(40):
                    C, w = mpmath.mpf(c), 1 - mpmath.mpf(max(eps, 0.5))
                    want = w**C / C + mpmath.quad(lambda u: u**C / (1 - u), [0, w])
                got = _weight_integrals(c, eps)[1]
                assert got == pytest.approx(float(want), rel=1e-13), (c, eps)
        # below c of about 5.6e-309, 1/c and so the piece overflow
        for c in (5e-309, 5e-324):
            with pytest.raises(RuntimeError, match="upper weight piece overflows"):
                _weight_integrals(c, 0.6)

    def test_error_estimate_gated_relative_to_the_value(self):
        # at c = 1e4 and epsilon 1e-300 the lower piece is about 681 with an
        # error estimate of 3.75e-10, 5.5e-13 of the value, which the
        # absolute 1e-10 gate refused
        with mpmath.workdps(30):
            C = mpmath.mpf(1e4)
            want = mpmath.quad(
                lambda t: mpmath.exp((C - 1) * mpmath.log1p(-mpmath.exp(t))),
                [mpmath.log(mpmath.mpf(1e-300)), -20, -9, -5, mpmath.log(0.5)],
            )
        assert _weight_integrals(1e4, 1e-300) == (pytest.approx(float(want), rel=1e-12), 0.0)
        assert generative._quad_result((681.0, 3.75e-10, {}), 0) == 681.0
        for out in ((0.5, 2e-10, {}), (681.0, 1e-7, {})):  # 1e-10 absolute up to 1
            with pytest.raises(RuntimeError, match="quadrature failed near 0"):
                generative._quad_result(out, 0)

    def test_failed_quadrature_refused(self, monkeypatch):
        # a NaN value or error estimate fails the check, as a large one does;
        # only the lower piece integrates
        import scipy.integrate

        for out in ((math.nan, math.nan, {}), (1.0, math.nan, {}), (math.nan, 0.0, {})):
            monkeypatch.setattr(scipy.integrate, "quad", lambda *a, out=out, **k: out)
            with pytest.raises(RuntimeError, match="quadrature failed near 0"):
                _weight_integrals.__wrapped__(2.5, 0.1)

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
