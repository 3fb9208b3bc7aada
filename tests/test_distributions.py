import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbibp.distributions import (
    BnbParams,
    DigammaParams,
    NbParams,
    _nb_draw,
    _nb_fill,
    bnb_log_pmf,
    bnb_sample,
    bnb_total_mass,
    digamma_log_pmf,
    digamma_sample,
    digamma_sample_rounds,
    digamma_total_mass,
    nb_log_pmf,
    nb_sample,
)
from nbibp.numerics import RngStream
from nbibp.validation import gof_chi_square


class TestClosedFormPmfs:
    def test_unit_digamma_is_one_over_z_zplus1(self):
        params = DigammaParams(1.0, 1.0)
        for z in (1, 2, 3, 10, 100):
            want = 1.0 / (z * (z + 1))
            assert math.exp(digamma_log_pmf(params, z)) == pytest.approx(want, rel=1e-12)

    def test_digamma_theta_two(self):
        params = DigammaParams(1.0, 2.0)
        for z in (1, 2, 7, 50):
            want = 4.0 / (z * (z + 1) * (z + 2))
            assert math.exp(digamma_log_pmf(params, z)) == pytest.approx(want, rel=1e-12)

    def test_uniform_bnb(self):
        params = BnbParams(1.0, 1.0, 1.0)
        for z in (0, 1, 5, 30):
            want = 1.0 / ((z + 1) * (z + 2))
            assert math.exp(bnb_log_pmf(params, z)) == pytest.approx(want, rel=1e-12)

    def test_geometric_special_case(self):
        # r = 1 reduces NB to geometric: pmf(z) = p^z (1 - p)
        params = NbParams(1.0, 0.5)
        assert math.exp(nb_log_pmf(params, 2)) == pytest.approx(0.125, rel=1e-13)
        assert math.exp(nb_log_pmf(params, 0)) == pytest.approx(0.5, rel=1e-13)


class TestDomains:
    def test_digamma_needs_z_at_least_one(self):
        with pytest.raises(ValueError):
            digamma_log_pmf(DigammaParams(1.0, 1.0), 0)

    def test_counts_must_be_integral(self):
        with pytest.raises(ValueError):
            bnb_log_pmf(BnbParams(1.0, 1.0, 1.0), -1)
        with pytest.raises(ValueError):
            nb_log_pmf(NbParams(1.0, 0.5), 1.5)

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            DigammaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            BnbParams(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            NbParams(1.0, 0.0)
        for bad in (math.inf, math.nan):
            for make in (
                lambda: DigammaParams(bad, 1.0),
                lambda: DigammaParams(1.0, bad),
                lambda: BnbParams(bad, 1.0, 1.0),
                lambda: BnbParams(1.0, bad, 1.0),
                lambda: BnbParams(1.0, 1.0, bad),
                lambda: NbParams(bad, 0.5),
            ):
                with pytest.raises(ValueError):
                    make()

    def test_degenerate_success_probability(self):
        # at p = 1 all mass sits at infinity: no law on the integers exists
        with pytest.raises(ValueError):
            NbParams(1.0, 1.0)


class TestNormalization:
    GRID = (0.5, 1.0, 1.5, 2.0, 5.0)

    def test_digamma_mass_grid(self):
        for r in self.GRID:
            for theta in self.GRID:
                mass = digamma_total_mass(DigammaParams(r, theta))
                assert abs(mass - 1.0) < 1e-10, (r, theta, mass)

    def test_bnb_mass_grid(self):
        for r in self.GRID:
            for beta in self.GRID:
                for alpha in (1.0, 2.5):
                    mass = bnb_total_mass(BnbParams(r, alpha, beta))
                    assert abs(mass - 1.0) < 1e-10, (r, alpha, beta, mass)

    # slow tails, where much of the mass lies past the head: a tail integral
    # in x once failed to converge at these points
    @pytest.mark.parametrize("r", (0.3, 0.5, 1.0, 2.0))
    @pytest.mark.parametrize("theta", (0.05, 0.1, 0.2, 0.3, 0.5, 1.0))
    def test_digamma_heavy_tail(self, r, theta):
        assert abs(digamma_total_mass(DigammaParams(r, theta)) - 1.0) < 1e-10

    @pytest.mark.parametrize("beta", (0.1, 0.2))
    def test_bnb_heavy_tail(self, beta):
        assert abs(bnb_total_mass(BnbParams(0.3, 1.0, beta)) - 1.0) < 1e-10

    # QAWS reports roundoff at the examples, and at r = alpha = beta = 10 its
    # estimate read 5e-8 while its moments carried the whole exponents
    @given(*[st.floats(min_value=0.05, max_value=10.0)] * 4)
    @example(10.0, 10.0, 0.05, 0.2)
    @example(0.05, 10.0, 7.0, 0.1)
    @example(10.0, 10.0, 10.0, 10.0)
    @settings(max_examples=40, deadline=None)
    def test_total_masses_are_one(self, r, theta, alpha, beta):
        assert abs(digamma_total_mass(DigammaParams(r, theta)) - 1.0) < 1e-10
        assert abs(bnb_total_mass(BnbParams(r, alpha, beta)) - 1.0) < 1e-10

    def test_failed_quadrature_refused(self, monkeypatch):
        # a NaN error estimate, one past the 1e-9 gate and a NaN value are
        # each refused
        import scipy.integrate

        for out in ((0.5, math.nan, {}), (0.5, 1e-6, {}), (math.nan, 0.0, {})):
            monkeypatch.setattr(scipy.integrate, "quad", lambda *a, out=out, **k: out)
            with pytest.raises(RuntimeError, match="converge for the tail of DigammaParams"):
                digamma_total_mass(DigammaParams(1.0, 1.0))
            with pytest.raises(RuntimeError, match="converge for the tail of BnbParams"):
                bnb_total_mass(BnbParams(1.0, 1.0, 1.0))


class TestPmfRecurrences:
    @given(
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.2, max_value=8.0),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=80, deadline=None)
    def test_digamma_ratio(self, r, theta, z):
        params = DigammaParams(r, theta)
        step = digamma_log_pmf(params, z + 1) - digamma_log_pmf(params, z)
        want = (
            math.log(r + z) - math.log(r + theta + z) + math.log(z) - math.log(z + 1)
        )
        assert step == pytest.approx(want, abs=1e-10)

    @given(
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.2, max_value=8.0),
        st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=80, deadline=None)
    def test_bnb_ratio(self, r, alpha, beta, z):
        params = BnbParams(r, alpha, beta)
        step = bnb_log_pmf(params, z + 1) - bnb_log_pmf(params, z)
        want = (
            math.log(r + z)
            - math.log(z + 1)
            + math.log(z + alpha)
            - math.log(z + alpha + r + beta)
        )
        assert step == pytest.approx(want, abs=1e-10)

    @given(
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=80, deadline=None)
    def test_nb_ratio(self, r, p, z):
        params = NbParams(r, p)
        step = nb_log_pmf(params, z + 1) - nb_log_pmf(params, z)
        want = math.log(p) + math.log(r + z) - math.log(z + 1)
        assert step == pytest.approx(want, abs=1e-10)


class TestHugeCounts:
    # heavy-tailed count laws draw counts like these; a float difference of
    # log-gammas at 10**12 is already wrong in the fourth decimal
    HUGE = (10**6, 10**12, 2**70)

    @staticmethod
    def log_rising_over_factorial(r, z):
        return mpmath.loggamma(r + z) - mpmath.loggamma(r) - mpmath.loggamma(z + 1)

    @pytest.mark.parametrize("z", HUGE)
    def test_digamma(self, z):
        r, theta = 0.7, 1.3
        with mpmath.workdps(50):
            r_, th_ = mpmath.mpf(r), mpmath.mpf(theta)
            want = (
                mpmath.loggamma(r_ + z) - mpmath.loggamma(r_)
                - mpmath.loggamma(r_ + th_ + z) + mpmath.loggamma(r_ + th_)
                - mpmath.log(z) - mpmath.log(mpmath.digamma(th_ + r_) - mpmath.digamma(th_))
            )
        assert digamma_log_pmf(DigammaParams(r, theta), z) == pytest.approx(float(want), rel=1e-10)

    @pytest.mark.parametrize("z", HUGE)
    def test_bnb(self, z):
        r, a, b = 0.7, 2.0, 0.5
        with mpmath.workdps(50):
            r_, a_, b_ = mpmath.mpf(r), mpmath.mpf(a), mpmath.mpf(b)
            want = (
                self.log_rising_over_factorial(r_, z)
                + mpmath.log(mpmath.beta(z + a_, r_ + b_)) - mpmath.log(mpmath.beta(a_, b_))
            )
        assert bnb_log_pmf(BnbParams(r, a, b), z) == pytest.approx(float(want), rel=1e-10)

    @pytest.mark.parametrize("z", HUGE)
    def test_nb_near_one(self, z):
        # at p = 1 - 1e-6 the rising-factorial term dominates the log p.m.f.
        r, p = 0.7, 1.0 - 1e-6
        with mpmath.workdps(50):
            r_, p_ = mpmath.mpf(r), mpmath.mpf(p)
            want = (
                self.log_rising_over_factorial(r_, z)
                + z * mpmath.log(p_) + r_ * mpmath.log(1 - p_)
            )
        assert nb_log_pmf(NbParams(r, p), z) == pytest.approx(float(want), rel=1e-10)


def nb_draw_reference(r, p, rng, gamma=None):
    """_nb_draw with its guards written as max and min, kept as its oracle;
    given gamma, a Gamma(r) variate drawn ahead, it draws the Poisson alone."""
    if p <= 0.0:
        return 0
    q = 1.0 - p
    lam = (rng.gamma(r) if gamma is None else gamma) * (p / max(q, 1e-300))
    return rng.poisson(min(lam, 1e18))


class TestNbDrawGuards:
    """_nb_draw's comparison guards give the count and the stream position of
    max/min guards at each edge, with its own gamma draw and with a variate
    drawn ahead (update_entry's path): no draw at p <= 0, 1 - p floored at
    1e-300 when a beta draw rounds to 1, and the rate capped at 1e18.  The
    array fill _nb_fill, the entry bank's path, gives the same at each edge,
    with the edge case between ordinary draws."""

    @staticmethod
    def agree(r, p, seeds=range(40)):
        for seed in seeds:
            rng, twin = RngStream(seed, 0), RngStream(seed, 0)
            z = _nb_draw(r, p, rng)
            assert type(z) is int and z == nb_draw_reference(r, p, twin)
            assert rng.random() == twin.random()  # same stream position
            gamma = RngStream(seed, 1).gamma(r)
            z = _nb_draw(r, p, rng, gamma)
            assert type(z) is int and z == nb_draw_reference(r, p, twin, gamma)
            assert rng.random() == twin.random()
            ps = [0.5, p, 0.25, p]
            gammas = RngStream(seed, 2).standard_gamma(r, len(ps))
            z = _nb_fill(np.array(ps), gammas, rng)
            want = [nb_draw_reference(r, q, twin, g) for q, g in zip(ps, gammas.tolist())]
            assert z.dtype == np.int64 and z.tolist() == want
            assert rng.random() == twin.random()

    def test_no_draw_at_p_zero_or_below(self):
        for p in (0.0, -0.0, -0.5):
            self.agree(1.0, p)
            for gamma in (None, 2.5):
                rng = RngStream(0, 0)
                assert _nb_draw(1.0, p, rng, gamma) == 0
                assert rng.random() == RngStream(0, 0).random()
            rng = RngStream(0, 0)
            assert _nb_fill(np.array([p, p]), np.array([2.5, 1.0]), rng).tolist() == [0, 0]
            assert rng.random() == RngStream(0, 0).random()

    def test_q_floored_when_p_rounds_to_one(self):
        # at r = 1e-3 about half the gamma draws keep gamma * 1e300 under the
        # cap, so the floor sets the rate on its own there
        self.agree(1e-3, 1.0)
        for stream in (0, 1, 2):  # the gammas of each path
            under = [RngStream(s, stream).gamma(1e-3) * 1e300 < 1e18 for s in range(40)]
            assert 0 < sum(under) < 40
        assert 0 < _nb_draw(1.0, 1.0, RngStream(0, 0), 1e-290) < 10**12
        assert 0 < _nb_fill(np.array([1.0]), np.array([1e-290]), RngStream(0, 0))[0] < 10**12

    def test_rate_capped_past_1e18(self):
        self.agree(1000.0, 1.0 - 2.0**-53)  # rate about 9e18, q unfloored
        self.agree(1e19, 0.5)
        assert _nb_draw(1e19, 0.5, RngStream(0, 0)) > 9 * 10**17
        assert 9 * 10**17 < _nb_draw(1.0, 0.5, RngStream(0, 0), 1e19) < 11 * 10**17
        capped = _nb_fill(np.array([0.5]), np.array([1e19]), RngStream(0, 0))
        assert 9 * 10**17 < capped[0] < 11 * 10**17


class TestSamplers:
    REPS = 20_000

    def test_digamma_sampler_matches_pmf(self):
        rng = RngStream(11, 0)
        params = DigammaParams(2.0, 1.0)
        counts = Counter(digamma_sample(params, rng) for _ in range(self.REPS))
        p, cells, _ = gof_chi_square(
            counts, lambda z: math.exp(digamma_log_pmf(params, z)), self.REPS
        )
        assert cells >= 5
        assert p > 1e-3

    def test_bnb_sampler_matches_pmf(self):
        rng = RngStream(12, 0)
        params = BnbParams(1.0, 2.0, 2.0)
        counts = Counter(bnb_sample(params, rng) for _ in range(self.REPS))
        p, cells, _ = gof_chi_square(
            counts, lambda z: math.exp(bnb_log_pmf(params, z)), self.REPS
        )
        assert cells >= 5
        assert p > 1e-3

    def test_nb_sampler_matches_pmf(self):
        rng = RngStream(13, 0)
        params = NbParams(1.5, 0.4)
        counts = Counter(nb_sample(params, rng) for _ in range(self.REPS))
        p, cells, _ = gof_chi_square(
            counts, lambda z: math.exp(nb_log_pmf(params, z)), self.REPS
        )
        assert cells >= 4
        assert p > 1e-3

    def test_certain_acceptance_region(self):
        # at r = 1, theta = 1 the acceptance test always passes
        rng = RngStream(14, 0)
        params = DigammaParams(1.0, 1.0)
        rounds = [digamma_sample_rounds(params, rng)[1] for _ in range(500)]
        assert set(rounds) == {1}

    def test_support_starts_at_one(self):
        rng = RngStream(15, 0)
        params = DigammaParams(0.5, 3.0)
        assert min(digamma_sample(params, rng) for _ in range(300)) >= 1
