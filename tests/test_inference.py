import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist
from scipy.stats import lognorm

import nbibp.inference as inference
from nbibp.distributions import BnbParams, bnb_log_pmf, bnb_sample
from nbibp.inference import (
    ChainConfig,
    ChainState,
    HyperPrior,
    PoissonFactorModel,
    _accept,
    _entry_row,
    _slice_update,
    chain_record,
    log_joint,
    prior_state,
    resample_counts,
    run_chain,
    sweep_once,
    update_c_r,
    update_entry,
    update_mass_T,
    update_singletons,
    update_theta,
)
from nbibp.numerics import RngStream, harmonic_gap
from nbibp.structures import FeatureArray, Hyperparams, log_pmf_array
from nbibp.validation import gof_chi_square


def flat_state(W, hp, seed, V=1):
    theta = np.full((W.kappa, V), 1.0)
    return ChainState(W, theta, hp, (1.0, 1.0), RngStream(seed, 0))


def poisson_pmf(k, lam):
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


def theta_reference(state, model):
    """The per-cell allocation loop that update_theta vectorises, kept as its
    oracle: one multinomial call per positive count on a positive rate, in
    row-major order."""
    w_mat = state.W.to_matrix().astype(np.float64)
    alloc = np.zeros((state.W.kappa, model.V))
    for i in range(model.n):
        for v in range(model.V):
            yiv = int(model.y[i, v])
            if yiv == 0:
                continue
            weights = w_mat[i] * state.Theta[:, v]
            total = weights.sum()
            if total <= 0.0:
                continue
            alloc[:, v] += state.rng.multinomial(yiv, weights / total)
    shape = model.a_theta + alloc
    rate = model.b_theta + w_mat.sum(axis=0)[:, None]
    return state.rng.gamma_array(shape, 1.0 / rate)


def entry_reference(state, model, M, sums, i, j):
    """The per-entry move that _entry_row replaces, kept as its oracle: both
    row log-likelihoods come from a fresh mat-vec at every proposal that
    differs from its entry.  True on accept."""
    hp = state.hp
    old = M[i, j]
    prop = bnb_sample(
        BnbParams(hp.r, float(sums[j] - old), hp.c + (M.shape[0] - 1) * hp.r), state.rng
    )
    if prop == old:
        return False
    w_old = M[i].astype(np.float64)
    w_new = w_old.copy()
    w_new[j] = prop
    if not _accept(
        model.row_loglik(i, w_new @ state.Theta),
        model.row_loglik(i, w_old @ state.Theta),
        state.rng,
    ):
        return False
    M[i, j] = prop
    sums[j] += prop - old
    return True


def entry_pass(state, model, reference=False):
    """One entry pass in sweep order, by _entry_row per row or, as the
    oracle, by entry_reference per entry; the final (M, column sums)."""
    M = state.W.to_matrix()
    sums = M.sum(axis=0)
    for i in range(model.n):
        if not reference:
            _entry_row(state, model, M, sums, i, np.flatnonzero(sums > M[i]))
            continue
        for j in range(M.shape[1]):
            if sums[j] > M[i, j]:
                entry_reference(state, model, M, sums, i, j)
    return M, sums


def planted_state(n, V, K, seed, hp=Hyperparams(1.0, 1.0, 2.0)):
    """A state at planted truth and its data: W has every column used,
    Theta ~ Gamma(1, 1) and y ~ Poisson(W Theta)."""
    g = np.random.default_rng(seed)
    W = np.where(g.random((n, K)) < 0.3, 1 + g.poisson(1.0, (n, K)), 0)
    for j in np.flatnonzero(W.sum(axis=0) == 0):
        W[g.integers(n), j] = 1
    theta = g.gamma(1.0, 1.0, (K, V))
    state = ChainState(FeatureArray.from_matrix(W), theta, hp, (1.0, 1.0), RngStream(seed, 0))
    return state, PoissonFactorModel(g.poisson(W @ theta))


def emptying_state():
    """A planted n=40 state whose row 0 holds one count and expresses two
    shared columns, the first with a small factor row.  On this seed the
    entry pass drops the first column and then proposes to empty the row,
    after an accept has left rounding residue in the row's cached rates."""
    state, model = planted_state(40, 15, 8, 11)
    M, y, theta = state.W.to_matrix(), model.y.copy(), state.Theta.copy()
    M[0] = 0
    M[0, :2] = 1
    y[0] = 0
    y[0, 0] = 1
    theta[0] *= 0.01
    W = FeatureArray.from_matrix(M)
    return ChainState(W, theta, state.hp, (1.0, 1.0), RngStream(11, 0)), PoissonFactorModel(y)


def dead_cell_state():
    """A planted n=40 state whose row 0 holds one count, at v=0, and expresses
    three shared columns; the third has Theta_{2,0} = 0, as a gamma draw
    that underflows leaves it.  On this seed the entry pass drops the first
    column and proposes to drop the second while the third keeps the row
    nonempty, so the rate under the count must read exactly zero."""
    state, model = planted_state(40, 15, 8, 6)
    M, y = state.W.to_matrix(), model.y.copy()
    M[0] = 0
    M[0, :3] = 1
    y[0] = 0
    y[0, 0] = 1
    W = FeatureArray.from_matrix(M)
    state = ChainState(W, state.Theta.copy(), state.hp, (1.0, 1.0), RngStream(6, 0))
    state.Theta[2:, 0] = 0.0
    return state, PoissonFactorModel(y)


class TestModel:
    def test_flat_needs_shape(self):
        with pytest.raises(ValueError):
            PoissonFactorModel()
        m = PoissonFactorModel(n=2, V=3)
        assert m.loglik(None, None) == 0.0
        assert m.row_loglik(0, np.ones(3)) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            PoissonFactorModel([[1, -1]])
        with pytest.raises(ValueError):
            PoissonFactorModel([[0.5, 1.0]])
        with pytest.raises(ValueError):
            PoissonFactorModel([[1]], a_theta=0.0)

    def test_impossible_data(self):
        m = PoissonFactorModel([[2]])
        assert m.row_loglik(0, np.zeros(1)) == -math.inf
        assert m.loglik(np.zeros((1, 0)), np.zeros((0, 1))) == -math.inf
        m0 = PoissonFactorModel([[0]])
        assert m0.row_loglik(0, np.zeros(1)) == 0.0

    def test_poisson_row(self):
        m = PoissonFactorModel([[3]])
        got = m.row_loglik(0, np.array([2.0]))
        want = 3 * math.log(2.0) - 2.0 - math.log(6.0)
        assert got == pytest.approx(want, rel=1e-13)


class TestLogJoint:
    def test_hand_value(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel([[3]])
        state = ChainState(
            FeatureArray(1, ((1,),)), np.array([[2.0]]), hp, (1.0, 1.0), RngStream(0, 0)
        )
        # array p.m.f. -1 - log 2, factor prior -2, likelihood 3 log 2 - 2 - log 6
        want = (-1.0 - math.log(2.0)) + (-2.0) + (3 * math.log(2.0) - 2.0 - math.log(6.0))
        assert log_joint(state, model) == pytest.approx(want, rel=1e-12)

    def test_empty_array_edges(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        empty = FeatureArray(1, ())
        rng = RngStream(0, 0)
        blocked = ChainState(empty, np.zeros((0, 1)), hp, (1.0, 1.0), rng)
        assert log_joint(blocked, PoissonFactorModel([[2]])) == -math.inf
        fine = log_joint(blocked, PoissonFactorModel([[0]]))
        assert fine == pytest.approx(log_pmf_array(empty, hp), rel=1e-12)


class TestEntryKernel:
    def test_singleton_entry_refused(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        state = flat_state(FeatureArray(2, ((0, 2),)), hp, 1)
        model = PoissonFactorModel(n=2, V=1)
        with pytest.raises(ValueError):
            update_entry(state, model, 1, 0)

    def test_flat_marginal_is_conditional_prior(self):
        # with a flat likelihood every proposal is accepted, so the entry's
        # law after one update is its exact conditional: BNB(r, 1, c + r)
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel(n=2, V=1)
        rng = RngStream(101, 0)
        reps = 20_000
        law = BnbParams(1.0, 1.0, 2.0)
        seen = Counter()
        for _ in range(reps):
            state = ChainState(
                FeatureArray(2, ((1, 3),)), np.full((1, 1), 1.0), hp, (1.0, 1.0), rng
            )
            update_entry(state, model, 1, 0)
            seen[state.W.columns[0][1]] += 1
        p, cells, _ = gof_chi_square(seen, lambda z: math.exp(bnb_log_pmf(law, z)), reps)
        assert cells >= 4
        assert p > 1e-3

    def test_detailed_balance_with_data(self):
        # empirical flux balance pi(z) P(z, z') = pi(z') P(z', z) on the
        # chain restricted to one entry, under real count data
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel([[2], [1]])
        theta = np.array([[1.5]])
        law = BnbParams(1.0, 1.0, 2.0)

        def target(z):
            if z == 0:
                return 0.0  # zero rate cannot produce the observed count
            return math.exp(bnb_log_pmf(law, z)) * poisson_pmf(1, 1.5 * z)

        norm = sum(target(z) for z in range(0, 200))
        rng = RngStream(102, 0)
        reps = 20_000
        zs = (1, 2, 3, 4)
        trans = {z: Counter() for z in zs}
        for z in zs:
            for _ in range(reps):
                state = ChainState(
                    FeatureArray(2, ((1, z),)), theta.copy(), hp, (1.0, 1.0), rng
                )
                update_entry(state, model, 1, 0)
                trans[z][state.W.columns[0][1]] += 1
        for z in zs:
            assert trans[z][0] == 0  # impossible states never accepted
            for zp in zs:
                if zp <= z:
                    continue
                pa, pb = target(z) / norm, target(zp) / norm
                qa = trans[z][zp] / reps
                qb = trans[zp][z] / reps
                flux_a = pa * qa
                flux_b = pb * qb
                se = math.sqrt(
                    pa**2 * qa * (1 - qa) / reps + pb**2 * qb * (1 - qb) / reps
                )
                assert abs(flux_a - flux_b) < 4.0 * se + 1e-12, (z, zp)

    @pytest.mark.parametrize("seed", [134, 135, 136])
    def test_row_pass_matches_reference(self, seed):
        state, model = planted_state(40, 15, 8, seed)
        twin, _ = planted_state(40, 15, 8, seed)
        got = entry_pass(state, model)
        want = entry_pass(twin, model, reference=True)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert state.rng.uniform() == twin.rng.uniform()  # same stream position

    def test_emptied_row_scores_on_zero_rates(self):
        # scored from cached rates, a proposal that leaves row 0 no positive
        # rate under its count (by emptying the row, or by dropping the last
        # feature with a positive factor there) would see rounding residue,
        # read a finite log-likelihood and draw a uniform the reference
        # never draws
        for make in (emptying_state, dead_cell_state):
            state, model = make()
            twin, _ = make()
            row_loglik = model.row_loglik
            dead = []

            def watched(i, rates):
                out = row_loglik(i, rates)
                if i == 0 and rates[0] == 0.0:
                    dead.append(out)
                return out

            model.row_loglik = watched
            got = entry_pass(state, model)
            assert dead == [-math.inf], make.__name__
            want = entry_pass(twin, model, reference=True)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert state.rng.uniform() == twin.rng.uniform()


class TestSingletonKernel:
    def test_flat_birth_count_is_poisson(self):
        # flat likelihood accepts every proposal, so after one move row i's
        # private feature count is Poisson(c T [psi(c+nr) - psi(c+(n-1)r)])
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel(n=3, V=1)
        lam = hp.c * hp.T * harmonic_gap(hp.r, hp.c + 2 * hp.r)
        rng = RngStream(103, 0)
        reps = 15_000
        seen = Counter()
        base = ((1, 1, 0), (0, 2, 1))
        for _ in range(reps):
            state = ChainState(
                FeatureArray(3, base), np.full((2, 1), 1.0), hp, (1.0, 1.0), rng
            )
            update_singletons(state, model, 1)
            J = sum(1 for col in state.W.columns if col[1] and sum(col) == col[1])
            seen[J] += 1
        p, cells, _ = gof_chi_square(seen, lambda k: poisson_pmf(k, lam), reps)
        assert cells >= 2
        assert p > 1e-3

    def test_shared_columns_survive(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel(n=3, V=1)
        rng = RngStream(104, 0)
        base = ((1, 1, 0), (0, 2, 1), (0, 3, 0))  # third column private to row 1
        for _ in range(40):
            state = ChainState(
                FeatureArray(3, base), np.full((3, 1), 1.0), hp, (1.0, 1.0), rng
            )
            update_singletons(state, model, 1)
            kept = [col for col in state.W.columns if sum(col) != col[1] or col[1] == 0]
            for col in base[:2]:
                assert col in kept

    def test_rejections_leave_state_alone(self):
        # row 1's count is large and only its private feature carries rate,
        # so dropping it is almost always rejected
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel([[0], [50]])
        rng = RngStream(105, 0)
        rejected = 0
        for _ in range(60):
            W = FeatureArray(2, ((1, 0), (0, 5)))
            theta = np.array([[0.1], [10.0]])
            state = ChainState(W, theta, hp, (1.0, 1.0), rng)
            update_singletons(state, model, 1)
            if state.W is W:
                rejected += 1
                assert state.Theta is theta
        assert rejected > 30


class TestThetaKernel:
    def test_needs_a_column(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        state = ChainState(
            FeatureArray(1, ()), np.zeros((0, 1)), hp, (1.0, 1.0), RngStream(0, 0)
        )
        with pytest.raises(ValueError):
            update_theta(state, PoissonFactorModel([[0]]))

    def test_single_feature_conjugate_posterior(self):
        # one feature, one cell: Theta | y ~ Gamma(a + y, b + W)
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel([[4]])
        rng = RngStream(106, 0)
        reps = 20_000
        draws = []
        for _ in range(reps):
            state = ChainState(
                FeatureArray(1, ((2,),)), np.array([[1.0]]), hp, (1.0, 1.0), rng
            )
            update_theta(state, model)
            draws.append(state.Theta[0, 0])
        want_mean, want_var = 5.0 / 3.0, 5.0 / 9.0
        mean = sum(draws) / reps
        assert abs(mean - want_mean) < 3.0 * math.sqrt(want_var / reps)
        var = sum((d - mean) ** 2 for d in draws) / (reps - 1)
        assert abs(var - want_var) / want_var < 0.1

    def test_flat_model_draws_prior(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel(n=2, V=2, a_theta=3.0, b_theta=2.0)
        rng = RngStream(107, 0)
        state = ChainState(
            FeatureArray(2, ((1, 0), (0, 2))), np.full((2, 2), 1.0), hp, (1.0, 1.0), rng
        )
        draws = []
        for _ in range(4000):
            update_theta(state, model)
            draws.extend(state.Theta.ravel().tolist())
        mean = sum(draws) / len(draws)
        want = 3.0 / 2.0  # prior mean a/b
        se = math.sqrt((3.0 / 4.0) / len(draws))
        assert abs(mean - want) < 3.5 * se

    def test_allocation_respects_zero_weight(self):
        # a feature the row does not express can never absorb its counts
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel([[6, 0], [0, 3]])
        rng = RngStream(108, 0)
        state = ChainState(
            FeatureArray(2, ((2, 0), (0, 1))),
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            hp,
            (1.0, 1.0),
            rng,
        )
        for _ in range(50):
            update_theta(state, model)
            assert (state.Theta > 0.0).all()

    def test_matches_scalar_loop(self):
        state, model = planted_state(12, 7, 5, 131)
        twin = state.snapshot()
        twin.rng = RngStream(131, 0)
        update_theta(state, model)
        want = theta_reference(twin, model)
        assert np.array_equal(state.Theta, want)
        assert state.rng.uniform() == twin.rng.uniform()  # same stream position

    def test_zero_row_with_zero_counts_draws_nothing(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        W = FeatureArray(3, ((2, 0, 1), (1, 0, 0)))  # row 1 expresses nothing
        model = PoissonFactorModel([[3, 1], [0, 0], [0, 2]])
        theta = np.array([[0.5, 2.0], [1.5, 0.3]])
        state = ChainState(W, theta, hp, (1.0, 1.0), RngStream(132, 0))
        twin = ChainState(W, theta.copy(), hp, (1.0, 1.0), RngStream(132, 0))
        update_theta(state, model)
        assert np.array_equal(state.Theta, theta_reference(twin, model))
        assert state.rng.uniform() == twin.rng.uniform()

    def test_zero_rate_counts_stay_unsplit(self):
        # an impossible state: rows 1 and 2 express nothing but hold counts
        hp = Hyperparams(1.0, 1.0, 1.0)
        W = FeatureArray(3, ((2, 0, 0), (1, 0, 0)))
        model = PoissonFactorModel([[3, 1], [0, 4], [5, 2]])
        theta = np.array([[0.5, 2.0], [1.5, 0.3]])
        state = ChainState(W, theta, hp, (1.0, 1.0), RngStream(133, 0))
        twin = ChainState(W, theta.copy(), hp, (1.0, 1.0), RngStream(133, 0))
        update_theta(state, model)
        assert np.array_equal(state.Theta, theta_reference(twin, model))
        assert state.rng.uniform() == twin.rng.uniform()


class TestSweepStructure:
    def test_one_array_build_and_one_multinomial_per_sweep(self, monkeypatch):
        # every kernel of the default configuration, c/r slice moves included
        state, model = planted_state(40, 15, 8, 134)
        calls = Counter()
        post_init = FeatureArray.__post_init__
        multinomial = RngStream.multinomial

        def counted_post_init(self):
            calls["array"] += 1
            post_init(self)

        def counted_multinomial(self, n, pvals):
            calls["multinomial"] += 1
            return multinomial(self, n, pvals)

        monkeypatch.setattr(FeatureArray, "__post_init__", counted_post_init)
        monkeypatch.setattr(RngStream, "multinomial", counted_multinomial)
        W = state.W
        sweep_once(state, model, ChainConfig())
        assert state.W is not W  # some move was accepted, so W was rebuilt
        assert calls["array"] == 1
        assert calls["multinomial"] == 1

    def test_entry_pass_scores_each_differing_proposal_once(self, monkeypatch):
        # the reference scores a differing proposal with two row_loglik
        # calls; the row kernel needs one, plus one for the row's own rates
        state, model = planted_state(40, 15, 8, 134)
        twin, _ = planted_state(40, 15, 8, 134)
        calls = Counter()
        where = ["reference"]
        row_loglik = model.row_loglik
        entry_row = inference._entry_row

        def counted_row_loglik(i, rates):
            calls[where[0]] += 1
            return row_loglik(i, rates)

        def counted_entry_row(*args):
            calls["rows"] += 1
            where[0] = "entry"
            try:
                return entry_row(*args)
            finally:
                where[0] = "other"

        monkeypatch.setattr(model, "row_loglik", counted_row_loglik)
        entry_pass(twin, model, reference=True)
        differing = calls["reference"] // 2
        monkeypatch.setattr(inference, "_entry_row", counted_entry_row)
        sweep_once(state, model, ChainConfig())
        assert calls["rows"] == model.n
        assert differing > model.n  # two calls per proposal would break the bound
        assert calls["entry"] <= model.n + differing


class TestMassKernel:
    def test_gamma_moments(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(109, 0)
        reps = 20_000
        shape = 2.0 + 2  # alpha + kappa
        rate = 3.0 + harmonic_gap(2.0, 1.0)  # beta + c (psi(c+nr) - psi(c))
        draws = []
        for _ in range(reps):
            state = ChainState(
                FeatureArray(2, ((1, 0), (0, 2))),
                np.full((2, 1), 1.0),
                hp,
                (2.0, 3.0),
                rng,
            )
            update_mass_T(state)
            assert state.hp.r == hp.r and state.hp.c == hp.c
            draws.append(state.hp.T)
        mean = sum(draws) / reps
        want = shape / rate
        assert abs(mean - want) < 3.0 * math.sqrt(shape / rate**2 / reps)


class TestSliceUpdates:
    def test_gamma_target_invariance(self):
        # start from the target, one move, still the target
        a, b = 3.0, 2.0
        rng = RngStream(110, 0)
        reps = 8000
        outs = []
        for _ in range(reps):
            x0 = rng.gamma(a, 1.0 / b)
            outs.append(
                _slice_update(x0, lambda x: (a - 1.0) * math.log(x) - b * x, rng)
            )
        edges = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, math.inf]
        seen = Counter()
        for x in outs:
            for k in range(len(edges) - 1):
                if edges[k] <= x < edges[k + 1]:
                    seen[k] += 1
                    break
        probs = {
            k: gamma_dist.cdf(edges[k + 1], a, scale=1.0 / b)
            - gamma_dist.cdf(edges[k], a, scale=1.0 / b)
            for k in range(len(edges) - 1)
        }
        p, cells, _ = gof_chi_square(seen, lambda k: probs[k], reps)
        assert cells >= 5
        assert p > 1e-3

    def test_flat_target_exhausts_bracket(self):
        with pytest.raises(RuntimeError):
            _slice_update(1.0, lambda x: 0.0, RngStream(111, 0))

    def test_zero_density_start_rejected(self):
        with pytest.raises(ValueError):
            _slice_update(1.0, lambda x: -math.inf, RngStream(112, 0))

    def test_point_priors_pin_values(self):
        hp = Hyperparams(1.3, 0.7, 1.1)
        state = flat_state(FeatureArray(2, ((1, 1),)), hp, 113)
        update_c_r(state, None, None)  # None pins; there is no point-prior kind
        assert state.hp.c == 0.7 and state.hp.r == 1.3
        with pytest.raises(ValueError):
            HyperPrior("point", 0.7)

    def test_free_priors_move_values(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        state = flat_state(FeatureArray(2, ((1, 1), (2, 0))), hp, 114)
        moved_c = moved_r = False
        for _ in range(10):
            before = state.hp
            update_c_r(state)
            assert state.hp.c > 0.0 and state.hp.r > 0.0
            moved_c = moved_c or state.hp.c != before.c
            moved_r = moved_r or state.hp.r != before.r
        assert moved_c and moved_r


class TestHyperPrior:
    def test_log_density_matches_scipy(self):
        # log_density drops the normalising constant, so compare differences
        cases = [
            (HyperPrior("gamma", 2.5, 1.5), lambda x: gamma_dist.logpdf(x, 2.5, scale=1.0 / 1.5)),
            (HyperPrior("lognormal", 0.4, 0.8), lambda x: lognorm.logpdf(x, 0.8, scale=math.exp(0.4))),
        ]
        for prior, ref in cases:
            for x, y in [(0.3, 1.0), (1.0, 2.7), (0.05, 6.0)]:
                got = prior.log_density(x) - prior.log_density(y)
                assert got == pytest.approx(float(ref(x) - ref(y)), rel=1e-12, abs=1e-12)

    def test_support_and_parameter_checks(self):
        for prior in (HyperPrior(), HyperPrior("lognormal", 0.0, 1.0)):
            assert prior.log_density(0.0) == -math.inf
            assert prior.log_density(-2.0) == -math.inf
        for kind, a, b in [
            ("gamma", 0.0, 1.0),
            ("gamma", 1.0, -1.0),
            ("lognormal", 0.0, 0.0),
            ("lognormal", 1.0, -0.5),
            ("weibull", 1.0, 1.0),
        ]:
            with pytest.raises(ValueError):
                HyperPrior(kind, a, b)
        assert HyperPrior("lognormal", -3.0, 0.5).a == -3.0  # mu may be negative


class TestChainDriver:
    def test_determinism(self):
        model = PoissonFactorModel([[2, 0], [1, 3]])
        hp = Hyperparams(1.0, 1.0, 1.0)

        def records(seed):
            rng = RngStream(seed, 0)
            init = prior_state(model, hp, (1.0, 1.0), rng)
            return [
                chain_record(s, k, model, full=True)
                for k, s in enumerate(run_chain(model, init, 15, rng))
            ]

        assert records(7) == records(7)
        assert records(7) != records(8)

    def test_zero_sweeps_returns_init(self):
        model = PoissonFactorModel(n=2, V=1)
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(115, 0)
        init = prior_state(model, hp, (1.0, 1.0), rng)
        out = list(run_chain(model, init, 0, rng))
        assert len(out) == 1
        assert out[0].W == init.W

    def test_thinning_count(self):
        model = PoissonFactorModel(n=2, V=1)
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(116, 0)
        init = prior_state(model, hp, (1.0, 1.0), rng)
        cfg = ChainConfig(thin=2, conc=False, shape=False)
        out = list(run_chain(model, init, 20, rng, cfg))
        assert len(out) == 11

    def test_shape_mismatch_rejected(self):
        model = PoissonFactorModel(n=3, V=1)
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(117, 0)
        init = prior_state(PoissonFactorModel(n=2, V=1), hp, (1.0, 1.0), rng)
        with pytest.raises(ValueError):
            list(run_chain(model, init, 1, rng))

    def test_states_stay_consistent(self):
        model = PoissonFactorModel([[1, 2], [0, 1], [3, 0]])
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(118, 0)
        init = prior_state(model, hp, (1.0, 1.0), rng)
        for state in run_chain(model, init, 10, rng):
            state.check()  # kappa/Theta agreement and positivity
            assert state.W.n == 3


class TestSupportPieces:
    def test_prior_state_shapes(self):
        model = PoissonFactorModel(n=3, V=2)
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(119, 0)
        st = prior_state(model, hp, (2.0, 2.0), rng, draw_T=True)
        assert st.W.n == 3
        assert st.Theta.shape == (st.W.kappa, 2)
        assert st.hp.T != hp.T  # drawn from Gamma(2, 2)

    def test_resample_counts_matches_rates(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel(n=1, V=1)
        rng = RngStream(120, 0)
        state = ChainState(FeatureArray(1, ((2,),)), np.array([[1.5]]), hp, (1.0, 1.0), rng)
        reps = 5000
        total = 0
        for _ in range(reps):
            total += int(resample_counts(state, model).y[0, 0])
        mean = total / reps
        assert abs(mean - 3.0) < 3.0 * math.sqrt(3.0 / reps)

    def test_chain_record_fields(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(121, 0)
        state = ChainState(FeatureArray(1, ((2,),)), np.array([[1.5]]), hp, (1.0, 1.0), rng)
        model = PoissonFactorModel([[3]])
        rec = chain_record(state, 5, model)
        assert rec["sweep"] == 5 and rec["kappa"] == 1 and rec["total_count"] == 2
        assert rec["log_joint"] is not None and "W" not in rec
        full = chain_record(state, 5, model, full=True)
        assert full["W"] == [[2]] and full["Theta"] == [[1.5]]

    def test_chain_record_null_on_impossible(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(122, 0)
        state = ChainState(FeatureArray(1, ()), np.zeros((0, 1)), hp, (1.0, 1.0), rng)
        rec = chain_record(state, 0, PoissonFactorModel([[2]]))
        assert rec["log_joint"] is None
