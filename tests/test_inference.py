import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, xlogy
from scipy.stats import gamma as gamma_dist
from scipy.stats import lognorm, poisson

import nbibp.inference as inference
from nbibp.distributions import (
    BnbParams,
    DigammaParams,
    bnb_log_pmf,
    digamma_sample,
)
from nbibp.generative import _new_dishes, nbibp_simulate, truncated_oracle_simulate
from nbibp.inference import (
    ChainConfig,
    ChainState,
    HyperPrior,
    PoissonFactorModel,
    _accept,
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


def nb_poisson_reference(g, p, rng):
    """The Poisson half of an NB(r, p) draw given its Gamma(r) variate g, with
    _nb_draw's guards written as max and min: no draw at p <= 0, 1 - p
    floored at 1e-300 and the rate capped at 1e18."""
    if p <= 0.0:
        return 0
    return int(rng.poisson(min(g * (p / max(1.0 - p, 1e-300)), 1e18)))


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
    return state.rng.gamma(shape, 1.0 / rate)


def move(kernel, state, model, *args):
    """Run update_entry or update_singletons on a copy of state.counts, as
    sweep_once does, and make the moved matrix the state's counts: the copy
    moved in place (True) or the M of the (M, sums) returned."""
    M = state.counts.copy()
    out = kernel(state, model, M, M.sum(axis=0), *args)
    if out:
        state.counts = M if out is True else out[0]


def entry_reference(state, model, M, sums, i):
    """The per-entry moves that update_entry's row pass replaces, kept as its
    oracle.  It draws in the kernel's order, one scalar call per draw: a
    Gamma(r) variate for each column another row expresses, then, for each
    such entry in column order, its proposal as beta then Poisson and, if the
    proposal differs from its entry and the model has data, its uniform.
    Both row log-likelihoods come from a fresh mat-vec at every such
    proposal, and the move is decided at once.  True if any was accepted."""
    hp, rng = state.hp, state.rng
    cols = [j for j in range(M.shape[1]) if sums[j] > M[i, j]]
    gammas = [rng.gamma(hp.r) for _ in cols]
    moved = False
    for j, g in zip(cols, gammas):
        old = M[i, j]
        p = rng.beta(float(sums[j] - old), hp.c + (M.shape[0] - 1) * hp.r)
        prop = nb_poisson_reference(g, p, rng)
        if prop == old:
            continue
        u = rng.random() if model.y is not None else None
        w_old = M[i].astype(np.float64)
        w_new = w_old.copy()
        w_new[j] = prop
        if _accept(
            model.row_loglik(i, w_new @ state.Theta),
            model.row_loglik(i, w_old @ state.Theta),
            lambda: u,
        ):
            M[i, j] = prop
            sums[j] += prop - old
            moved = True
    return moved


def bank_reference(state, model, M, sums):
    """The banked entry pass that update_entry makes given an _EntryBank,
    kept as its oracle, with one scalar call per draw in the bank's order.
    At the first row that proposes anything: a Gamma(r) variate for every
    entry, row-major, then a uniform for every entry.  Then, at that row and
    at each later row that proposes anything after an accept, for the
    columns not yet drawn or moved since: the beta of every entry from that
    row on that another row expresses, row-major over rows and sorted
    columns, then each one's Poisson count.  Scoring as entry_reference.
    True if any proposal was accepted."""
    hp, rng = state.hp, state.rng
    n, kappa = M.shape
    tail = hp.c + (n - 1) * hp.r
    gammas = uniforms = None
    props, stale, moved = {}, set(range(kappa)), False
    for i in range(n):
        cols = [j for j in range(kappa) if sums[j] > M[i, j]]
        if not cols:
            continue
        if gammas is None:
            gammas = [[rng.standard_gamma(hp.r) for _ in range(kappa)] for _ in range(n)]
            uniforms = [[rng.random() for _ in range(kappa)] for _ in range(n)]
        pairs = [(k, j) for k in range(i, n) for j in sorted(stale) if sums[j] > M[k, j]]
        stale.clear()
        ps = [rng.beta(int(sums[j] - M[k, j]), tail) for k, j in pairs]
        for (k, j), p in zip(pairs, ps):
            props[k, j] = nb_poisson_reference(gammas[k][j], p, rng)
        for j in cols:
            old, prop, rest = int(M[i, j]), props[i, j], int(sums[j] - M[i, j])
            if prop == old or (prop > old and rest + prop >= 2**63):
                continue
            w_old = M[i].astype(np.float64)
            w_new = w_old.copy()
            w_new[j] = prop
            if _accept(
                model.row_loglik(i, w_new @ state.Theta),
                model.row_loglik(i, w_old @ state.Theta),
                lambda: uniforms[i][j],
            ):
                M[i, j] = prop
                sums[j] += prop - old
                stale.add(j)
                moved = True
    return moved


def entry_pass(state, model, reference=False, bank=False):
    """One entry pass in sweep order, by update_entry or, as the oracle, by
    entry_reference once per row; with bank, by update_entry reading one
    _EntryBank or, as the oracle, by bank_reference.  The final (M, column
    sums)."""
    M = state.W.to_matrix()
    sums = M.sum(axis=0)
    if reference and bank:
        bank_reference(state, model, M, sums)
        return M, sums
    source = inference._EntryBank(state.hp, M) if bank else None
    for i in range(model.n):
        if reference:
            entry_reference(state, model, M, sums, i)
        else:
            update_entry(state, model, M, sums, i, source)
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


def emptying_state(seed):
    """Row 0 holds one count, at v=0, and expresses two columns that row 1
    shares, the first with a small factor at v=0.  r = 1e-300 makes every
    Gamma(r) mixing variate 0.0, so every proposal is 0 on any stream: the
    entry pass drops the first column, which raises row 0's likelihood, and
    then proposes to empty the row, a candidate of the block rebuilt after
    that accept."""
    W = FeatureArray(2, ((1, 1), (1, 1)))
    theta = np.array([[1e-3, 1.0], [1.0, 1.0]])
    state = ChainState(W, theta, Hyperparams(1e-300, 1.0, 1.0), (1.0, 1.0), RngStream(seed, 0))
    return state, PoissonFactorModel([[1, 0], [1, 1]])


def dead_cell_state(seed):
    """Row 0 holds one count, at v=0, and expresses three columns that row 1
    shares; the third has Theta_{2,0} = 0, set by hand after construction,
    since ChainState refuses a zero factor and _gamma_factors floors a draw
    that underflows.  As in emptying_state every proposal is 0: the entry
    pass drops the first column and proposes to drop the second while the
    third keeps the row nonempty, so the rate under the count must read
    exactly zero."""
    W = FeatureArray(2, ((1, 1), (1, 1), (1, 1)))
    theta = np.array([[1e-3, 1.0], [1.0, 1.0], [1.0, 1.0]])
    state = ChainState(W, theta, Hyperparams(1e-300, 1.0, 1.0), (1.0, 1.0), RngStream(seed, 0))
    state.Theta[2, 0] = 0.0
    return state, PoissonFactorModel([[1, 0], [1, 1]])


def sparse_state():
    """A planted n=30 state whose y keeps about one count in ten: row 0 holds
    none, and Theta_{.,1} = 0, set by hand after construction, leaves one
    positive count, y_{2,1}, on a zero rate."""
    state, model = planted_state(30, 20, 6, 138)
    y = np.where(np.random.default_rng(138).random(model.y.shape) < 0.1, model.y, 0)
    y[0] = 0
    y[:, 1] = 0
    y[2, 1] = 3
    state.Theta[:, 1] = 0.0
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
        for big in ([[2**63]], [[1e300]]):
            with pytest.raises(ValueError, match=r"< 2\*\*63"):
                PoissonFactorModel(big)
        with pytest.raises(ValueError):
            PoissonFactorModel([[1]], a_theta=0.0)
        W, hp = FeatureArray(1, ((1,),)), Hyperparams(1.0, 1.0, 1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                PoissonFactorModel([[1]], a_theta=bad)
            with pytest.raises(ValueError):
                PoissonFactorModel([[1]], b_theta=bad)
            for t_prior in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(ValueError):
                    ChainState(W, np.ones((1, 1)), hp, t_prior)

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
        # live cells mixed with zero-rate cells, against scipy's Poisson law
        g = np.random.default_rng(12)
        y = g.poisson(3.0, (8, 9))
        rates = g.gamma(2.0, 2.0, (8, 9))
        y[:, ::4], rates[:, ::4] = 0, 0.0
        y[:, 1] += 1
        m = PoissonFactorModel(y)
        for i in range(8):
            want = poisson.logpmf(y[i], rates[i]).sum()
            assert m.row_loglik(i, rates[i]) == pytest.approx(want, rel=1e-13)
            # one zero rate under a positive count rules the row out
            dead = rates[i].copy()
            dead[1] = 0.0
            assert m.row_loglik(i, dead) == -math.inf

    @pytest.mark.parametrize("V", [5, 300])
    def test_block_rows_match_one_row_calls(self, V):
        # each row of a (k, V) block of rates scores bit for bit as its own
        # call, with a zero rate under a positive count reading -inf and a
        # zero rate under a zero count adding nothing
        g = np.random.default_rng(V)
        y = g.poisson(2.0, (2, V))
        y[0, :2] = 3, 0
        y[1] = 0
        rates = g.gamma(1.0, 1.0, (6, V))
        rates[1, 0] = 0.0
        rates[2, 1] = 0.0
        rates[3] = 0.0
        m = PoissonFactorModel(y)
        for i in range(2):
            block = m.row_loglik(i, rates)
            assert block == [m.row_loglik(i, row) for row in rates]
            assert all(type(v) is float for v in block)
        assert m.row_loglik(0, rates)[1] == -math.inf
        without = rates[2].copy()
        without[1] = 1.0
        assert m.row_loglik(0, rates)[2] - m.row_loglik(0, without) == pytest.approx(1.0)
        assert m.row_loglik(1, rates)[3] == 0.0
        assert PoissonFactorModel(n=2, V=V).row_loglik(0, rates) == [0.0] * 6

    def test_loglik_sums_rows(self):
        g = np.random.default_rng(13)
        W = g.poisson(1.0, (6, 3)) + 1
        W[2] = 0
        theta = g.gamma(1.0, 1.0, (3, 4))
        m = PoissonFactorModel(g.poisson(W @ theta))
        want = sum(m.row_loglik(i, W[i] @ theta) for i in range(6))
        assert math.isfinite(want)
        assert m.loglik(W, theta) == pytest.approx(want, rel=1e-12)

    def test_float_counts_score_as_the_int_counts(self):
        # the model scores its float64 copy of y, the doubles xlogy casts the
        # int64 counts to, so every score is the int64 form's bit for bit,
        # at counts exact in a double and at counts past 2**53 that round
        top = [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**62 + 12345, 2**63 - 1]
        y = np.array([[0, 1, 7, *top], [3, 0, 0, *top[::-1]]], dtype=np.int64)
        g = np.random.default_rng(14)
        rates = g.gamma(1.0, 1.0, (5, y.shape[1]))
        rates[0, :2] = 0.0
        rates[1, 3] = 1e300
        m = PoissonFactorModel(y)
        for i in range(2):
            want = xlogy(y[i], rates)
            got = xlogy(m._yf[i], rates)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            want -= rates
            want -= gammaln(y[i] + 1.0)
            assert m.row_loglik(i, rates) == np.add.reduce(want, -1).tolist()
        want = (xlogy(y, rates[:2]) - rates[:2] - gammaln(y + 1.0)).sum()
        assert m.loglik(np.eye(2), rates[:2]) == float(want)


class TestChainState:
    def test_w_is_built_from_counts_once(self):
        state, model = planted_state(40, 15, 8, 137)
        before = state.counts
        sweep_once(state, model, ChainConfig())
        assert not np.array_equal(state.counts, before)  # this sweep moved W
        W = state.W
        assert W == FeatureArray.from_matrix(state.counts)
        assert state.W is W

    def test_counts_are_read_only(self):
        state, model = planted_state(12, 5, 3, 138)
        for _ in range(2):
            with pytest.raises(ValueError):
                state.counts[0, 0] = 1
            sweep_once(state, model, ChainConfig())

    def test_snapshot_is_unmoved_by_later_sweeps(self):
        state, model = planted_state(12, 5, 3, 139)
        snap = state.snapshot()
        W, counts, theta = snap.W, snap.counts.copy(), snap.Theta.copy()
        for _ in range(3):
            sweep_once(state, model, ChainConfig())
        assert not np.array_equal(state.Theta, theta)
        assert snap.W is W and W == FeatureArray.from_matrix(counts)
        assert np.array_equal(snap.counts, counts)
        assert np.array_equal(snap.Theta, theta)


    def test_column_sums_past_int64_refused(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        top = ChainState(FeatureArray(2, ((2**62, 2**62 - 1),)), np.ones((1, 1)), hp)
        assert top.counts.sum(axis=0).tolist() == [2**63 - 1]
        for cols in (((2**62, 2**62),), ((1, 0), (2**63, 0))):
            with pytest.raises(ValueError, match=r"^W column sums must be < 2\*\*63$"):
                ChainState(FeatureArray(2, cols), np.ones((len(cols), 1)), hp)


class TestUncheckedArrays:
    """The simulators' draws and the chain's W are built without
    FeatureArray's check.  Each must equal the checked array of its n and
    columns, with Python int entries: a numpy integer compares equal but
    changes the repr that the stream pins hash."""

    @staticmethod
    def assert_valid(arr):
        assert arr == FeatureArray(arr.n, arr.columns)
        assert type(arr.n) is int and type(arr.columns) is tuple
        assert all(type(col) is tuple for col in arr.columns)
        assert all(type(w) is int for col in arr.columns for w in col)

    @given(
        r=st.floats(0.05, 5.0),
        c=st.floats(0.05, 5.0),
        T=st.floats(0.05, 20.0),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_package_arrays_pass_the_check(self, r, c, T, n, seed):
        hp = Hyperparams(r, c, T)
        rng = RngStream(seed, 0)
        for _ in range(4):
            self.assert_valid(nbibp_simulate(n, hp, rng))
            self.assert_valid(truncated_oracle_simulate(n, hp, 1e-3, rng))
        state, model = planted_state(n, 3, 4, seed, hp)
        for _ in range(3):
            sweep_once(state, model, ChainConfig())
            self.assert_valid(state.W)


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

    def test_state_that_does_not_fit_the_model_refused(self):
        # each of these once read a finite score: a Theta narrower or wider
        # than V, or a W with fewer rows than y, broadcast against the data
        hp = Hyperparams(1.0, 1.0, 1.0)
        cases = [
            (ChainState(FeatureArray(2, ()), np.zeros((0, 0)), hp),
             PoissonFactorModel([[1], [0]])),
            (ChainState(FeatureArray(1, ((2,),)), np.ones((1, 3)), hp),
             PoissonFactorModel([[2]])),
            (ChainState(FeatureArray(1, ((2,),)), np.ones((1, 2)), hp),
             PoissonFactorModel([[1, 0], [0, 2], [3, 1]])),
        ]
        for state, model in cases:
            with pytest.raises(ValueError, match="^state "):
                log_joint(state, model)
            with pytest.raises(ValueError, match="^state "):
                chain_record(state, 0, model)

    def test_empty_array_edges(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        empty = FeatureArray(1, ())
        rng = RngStream(0, 0)
        blocked = ChainState(empty, np.zeros((0, 1)), hp, (1.0, 1.0), rng)
        assert log_joint(blocked, PoissonFactorModel([[2]])) == -math.inf
        fine = log_joint(blocked, PoissonFactorModel([[0]]))
        assert fine == pytest.approx(log_pmf_array(empty, hp), rel=1e-12)


class TestEntryKernel:
    def test_private_entries_left_to_singletons(self):
        # row 1 expresses one private and one shared column: the kernel draws
        # one proposal, for the shared entry, from BNB(r, 1, c + r) as a
        # Gamma(r) variate, then beta, then Poisson, and a flat model accepts
        # it with no further draw; the private entry is update_singletons'
        # to move
        hp = Hyperparams(1.0, 1.0, 1.0)
        model = PoissonFactorModel(n=2, V=1)
        moved = 0
        for seed in range(10):
            state = flat_state(FeatureArray(2, ((0, 2), (1, 3))), hp, seed)
            twin = RngStream(seed, 0)
            g = twin.gamma(1.0)
            want = nb_poisson_reference(g, twin.beta(1.0, 2.0), twin)
            M = state.W.to_matrix()
            update_entry(state, model, M, M.sum(axis=0), 1)
            assert M.tolist() == [[0, 1], [2, want]]
            assert state.rng.random() == twin.random()  # same stream position
            moved += want != 3
        assert moved > 0

    @pytest.mark.parametrize(
        "model",
        [PoissonFactorModel(n=2, V=1), PoissonFactorModel([[0], [0]])],
        ids=["flat", "data"],
    )
    def test_proposal_past_int64_rejected_without_draw(self, model):
        # the other row holds 2**63 - 10, so the beta draw rounds to 1 and the
        # proposal lands near the 1e18 rate cap: its column sum would pass
        # int64, so it is rejected before scoring, and with no proposal
        # scored the row draws no uniform
        hp = Hyperparams(1.0, 1.0, 1.0)
        state = flat_state(FeatureArray(2, ((0, 2**63 - 10),)), hp, 7)
        twin = RngStream(7, 0)
        g = twin.gamma(1.0)
        want = nb_poisson_reference(g, twin.beta(2**63 - 10, 2.0), twin)
        assert want >= 10
        M = state.counts.copy()
        sums = M.sum(axis=0)
        assert not update_entry(state, model, M, sums, 0)
        assert M.tolist() == [[0], [2**63 - 10]] and sums.tolist() == [2**63 - 10]
        assert state.rng.random() == twin.random()  # same stream position

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
            move(update_entry, state, model, 1)
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
                move(update_entry, state, model, 1)
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

    def test_accept_mid_row_keeps_the_two_entry_law(self):
        # row 1 expresses two shared entries under one count of 4 with unit
        # factors; their exact target is pi(z1, z2), proportional to
        # BNB(z1; 1, 2, 4) BNB(z2; 1, 1, 4) Poisson(4 | z1 + z2), enumerated
        # on [0, 60]^2.  Starts drawn from pi end one row pass in pi.  About a
        # fifth of the passes accept the first proposal, so a kernel that
        # scored the second against the row from before that accept fails
        hp = Hyperparams(1.0, 3.0, 1.0)
        model = PoissonFactorModel([[3], [4]])
        Z, reps = 60, 10_000
        z = np.arange(Z + 1)
        log_prior = [
            np.array([bnb_log_pmf(BnbParams(1.0, rest, 4.0), k) for k in z.tolist()])
            for rest in (2.0, 1.0)
        ]
        lam = (z[:, None] + z[None, :]).astype(np.float64)
        log_target = log_prior[0][:, None] + log_prior[1][None, :] + xlogy(4, lam) - lam
        top = log_target.max()
        pi = np.exp(log_target - top)
        # off the grid z1 + z2 > 60, where the likelihood term is at most its
        # value at 61 and the prior mass at most 1: the truncated share is
        # below that over the enumerated mass
        assert math.exp(4 * math.log(Z + 1) - (Z + 1) - top) / pi.sum() < 1e-12
        pi /= pi.sum()
        starts = np.random.default_rng(303).choice(pi.size, size=reps, p=pi.ravel())
        state = ChainState(
            FeatureArray(2, ((2, 1), (1, 1))), np.ones((2, 1)), hp, (1.0, 1.0), RngStream(303, 0)
        )
        seen = Counter()
        for start in starts.tolist():
            M = np.array([[2, 1], divmod(start, Z + 1)], dtype=np.int64)
            update_entry(state, model, M, M.sum(axis=0), 1)
            seen[tuple(M[1].tolist())] += 1
        p, cells, _ = gof_chi_square(seen, lambda k: pi[k] if max(k) <= Z else 0.0, reps)
        assert cells >= 20
        assert p > 1e-3

    @staticmethod
    def next_rows_law(bank):
        # two rows share one column (z1, z2) under one positive count each and
        # a fixed factor; the exact target pi(z1, z2), proportional to the
        # array p.m.f. times the Poisson likelihood, is enumerated on
        # [1, 200]^2 (a zero entry cannot meet its count).  Starts drawn from
        # pi end a pass over both rows in pi.  Row 1's proposal law reads
        # z1, so when row 0 accepts, row 1 must draw against the new column
        # sum; a kernel that kept the sum from before that accept fails.  The
        # cells are the binary magnitudes of (z1, z2), so each holds enough
        # starts to resolve a shift in row 1's law
        hp = Hyperparams(5.0, 0.3, 1.0)
        theta, Z, reps = 0.2, 200, 10_000
        model = PoissonFactorModel([[1], [1]])
        z = np.arange(1, Z + 1)
        log_lik = xlogy(1, theta * z) - theta * z  # Poisson(1 | theta z), at most 1
        log_pmf = [
            [log_pmf_array(FeatureArray(2, ((a, b),)), hp) for b in z.tolist()] for a in z.tolist()
        ]
        log_target = log_lik[:, None] + log_lik[None, :] + np.array(log_pmf)
        pi = np.exp(log_target)
        # the array p.m.f. sums to at most 1 off the grid, where each
        # likelihood is at most its value at 201, past the mode at 5
        edge = xlogy(1, theta * (Z + 1)) - theta * (Z + 1)
        assert math.exp(edge) / pi.sum() < 1e-12
        pi /= pi.sum()
        mag = np.floor(np.log2(z)).astype(int).tolist()
        cell_mass = Counter()
        for (a, b), mass in np.ndenumerate(pi):
            cell_mass[mag[a], mag[b]] += mass
        starts = np.random.default_rng(304).choice(pi.size, size=reps, p=pi.ravel())
        state = ChainState(
            FeatureArray(2, ((1, 1),)), np.full((1, 1), theta), hp, (1.0, 1.0), RngStream(304, 0)
        )
        seen, moved = Counter(), Counter()
        for start in starts.tolist():
            M = np.array(divmod(start, Z), dtype=np.int64)[:, None] + 1
            sums = M.sum(axis=0)
            source = inference._EntryBank(hp, M) if bank else None
            for i in (0, 1):
                moved[i] += update_entry(state, model, M, sums, i, source)
            assert sums.tolist() == [M.sum()]
            z1, z2 = M[:, 0].tolist()
            seen[z1.bit_length() - 1, z2.bit_length() - 1] += 1
        assert min(moved.values()) > reps // 3  # both rows move often
        p, cells, _ = gof_chi_square(seen, lambda k: cell_mass[k], reps)
        assert cells >= 20
        assert p > 1e-3

    def test_accept_in_one_row_moves_the_next_rows_law(self):
        self.next_rows_law(bank=False)

    def test_bank_accept_in_one_row_moves_the_next_rows_law(self):
        # the same law from the bank, which must redraw row 1's proposal
        # after row 0's accept: a bank that kept the proposal drawn against
        # the old column sum fails
        self.next_rows_law(bank=True)

    @pytest.mark.parametrize(
        "size, seed",
        [((40, 15, 8), 134), ((40, 15, 8), 135), ((40, 15, 8), 136), ((100, 50, 16), 137)],
        ids=["134", "135", "136", "100x50x16"],
    )
    def test_row_pass_matches_reference(self, size, seed):
        state, model = planted_state(*size, seed)
        twin, _ = planted_state(*size, seed)
        got = entry_pass(state, model)
        want = entry_pass(twin, model, reference=True)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert state.rng.random() == twin.rng.random()  # same stream position

    @pytest.mark.parametrize("size, seed", [((40, 15, 8), 134), ((100, 50, 16), 137)],
                             ids=["40x15x8", "100x50x16"])
    def test_bank_pass_matches_reference(self, size, seed):
        # the bank's reads equal scalar calls made in its declared order, bit
        # for bit, and leave the stream where those calls do
        state, model = planted_state(*size, seed)
        twin, _ = planted_state(*size, seed)
        got = entry_pass(state, model, bank=True)
        want = entry_pass(twin, model, reference=True, bank=True)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert state.rng.random() == twin.rng.random()  # same stream position

    class CheckedBank(inference._EntryBank):
        """An _EntryBank that checks each read against the mask computed
        afresh from the state: live, differing from the entry and within the
        int64 guard.  It counts the reads at which that fresh mask is empty
        while a redraw is pending, and the entries the guard alone stops."""

        def __init__(self, hp, M):
            super().__init__(hp, M)
            self.idle_pending = self.guarded = 0

        def proposals(self, rng, M, sums, i):
            pending = bool(self.stale)
            out = super().proposals(rng, M, sums, i)
            row, props = M[i], self.props[i]
            live = sums > row
            differs = live & (props != row)
            guard = props - row <= inference._INT64_MAX - sums
            js = (differs & guard).nonzero()[0]
            us = self.uniforms[i, js].tolist() if js.size else []
            assert out == (js.tolist(), props[js].tolist(), us), i
            self.idle_pending += pending and not live.any()
            self.guarded += int((differs & ~guard).sum())
            return out

    @staticmethod
    def checked_pass(state, model):
        M = state.counts.copy()
        sums = M.sum(axis=0)
        bank = TestEntryKernel.CheckedBank(state.hp, M)
        moved = [update_entry(state, model, M, sums, i, bank) for i in range(M.shape[0])]
        assert np.array_equal(sums, M.sum(axis=0))
        state.counts = M
        return bank, moved

    @pytest.mark.parametrize("seed", [141, 142, 143])
    def test_bank_mask_matches_a_fresh_mask_at_every_read(self, seed):
        # planted states above BANK_MIN, several entry passes each, so the
        # reads follow both first draws and redraws after accepts
        state, model = planted_state(100, 50, 16, seed)
        assert state.counts.size >= inference.BANK_MIN
        for _ in range(3):
            _, moved = self.checked_pass(state, model)
            assert sum(moved) > 10

    def test_bank_mask_after_an_accept_before_a_row_with_no_live_column(self):
        # r = 1e-300 makes every Gamma(r) variate 0.0, so every proposal is
        # 0.  Row 50 shares column 0 with row 51 alone, and row 51 holds
        # every other column alone; dropping row 50's entry raises its
        # likelihood, so it is accepted, and row 51 then expresses nothing
        # another row does.  Its kept mask still scores column 0, drawn
        # against the sum from before the accept, so the read must not use
        # it; the redraw comes at row 52
        n, kappa = 100, 10
        M = np.zeros((n, kappa), dtype=np.int64)
        M[50, 0] = 1
        M[51] = 1
        W = FeatureArray.from_matrix(M)
        hp = Hyperparams(1e-300, 1.0, 1.0)
        state = ChainState(W, np.ones((kappa, 2)), hp, (1.0, 1.0), RngStream(144, 0))
        y = np.zeros((n, 2), dtype=np.int64)
        y[51] = 3
        bank, moved = self.checked_pass(state, PoissonFactorModel(y))
        assert moved == [i == 50 for i in range(n)]
        assert bank.scored[51, 0]  # the kept, stale mask entry
        assert bank.idle_pending == 1
        assert not bank.stale  # row 52 redrew the column

    def test_bank_mask_keeps_the_int64_guard(self):
        # row 0 holds 2**63 - 10 in column 0, so the other rows' proposals
        # there land near the 1e18 rate cap and would carry the column sum
        # past int64: the mask leaves them out though they differ from the
        # entry
        state, model = planted_state(100, 50, 16, 145)
        M = state.counts.copy()
        M[:, 0] = 0
        M[0, 0] = 2**63 - 10
        state = ChainState(FeatureArray.from_matrix(M), state.Theta, state.hp, (1.0, 1.0),
                           state.rng)
        bank, _ = self.checked_pass(state, model)
        assert bank.guarded == 99  # every other row's proposal in column 0
        assert state.counts[0, 0] == 2**63 - 10

    def test_emptied_row_scores_on_zero_rates(self):
        # the candidate row that leaves row 0 no positive rate under its
        # count (by emptying the row, or by dropping the last feature with a
        # positive factor there) must read exactly 0 there in its block and
        # score -inf; rounding residue would read a finite log-likelihood.
        # Every proposal is 0 on these states, so every stream reaches this
        for make, seed, bank in itertools.product(
            (emptying_state, dead_cell_state), (0, 1, 2), (False, True)
        ):
            state, model = make(seed)
            twin, _ = make(seed)
            row_loglik = model.row_loglik
            dead = []

            def watched(i, rates):
                out = row_loglik(i, rates)
                if i == 0:
                    dead.extend(ll for cand, ll in zip(rates, out) if cand[0] == 0.0)
                return out

            model.row_loglik = watched
            got = entry_pass(state, model, bank=bank)
            assert dead == [-math.inf], (make.__name__, seed, bank)
            assert got[0][0, 0] == 0  # the first column was dropped
            del model.row_loglik
            want = entry_pass(twin, model, reference=True, bank=bank)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert state.rng.random() == twin.rng.random()


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
            move(update_singletons, state, model, 1)
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
            move(update_singletons, state, model, 1)
            kept = [col for col in state.W.columns if sum(col) != col[1] or col[1] == 0]
            for col in base[:2]:
                assert col in kept

    def test_births_are_the_buffet_new_dishes(self):
        # a flat likelihood accepts every proposal, so row 1 keeps exactly the
        # births as its private columns: the new dishes of the last of n = 3
        # buffet customers, masses in draw order at increasing slots
        hp = Hyperparams(1.0, 1.0, 6.0)
        model = PoissonFactorModel(n=3, V=1)
        base = ((1, 1, 0), (0, 2, 1), (0, 3, 0))  # third column private to row 1
        several = 0
        for seed in range(30):
            state = flat_state(FeatureArray(3, base), hp, seed)
            want = _new_dishes(hp, 2, RngStream(seed, 0))
            move(update_singletons, state, model, 1)
            got = [col[1] for col in state.W.columns if col[1] and sum(col) == col[1]]
            assert got == want
            several += len(set(want)) > 1
        assert several > 0

    def test_death_only_proposal_draws_no_more(self):
        # with no birth the move draws the birth count and the accept uniform
        # alone: the empty slot choice and the empty factor block take no draw
        hp = Hyperparams(1.0, 1.0, 1e-12)
        model = PoissonFactorModel([[1], [2]])
        accepted = 0
        for seed in range(20):
            W = FeatureArray(2, ((1, 1), (0, 1)))  # second column private to row 1
            state = ChainState(W, np.ones((2, 1)), hp, (1.0, 1.0), RngStream(seed, 0))
            twin = RngStream(seed, 0)
            assert _new_dishes(hp, 1, twin) == []
            twin.random()  # dropping the column lowers row 1's likelihood
            move(update_singletons, state, model, 1)
            assert state.rng.random() == twin.random()
            accepted += state.W.kappa == 1
        assert 0 < accepted < 20

    def test_birth_proposal_draws_in_order(self):
        # the birth count, the masses, the slots, the factor rows, then the
        # accept uniform on row 1's proposed rates; a rejected proposal
        # leaves the state's objects as they were
        hp = Hyperparams(1.0, 1.0, 3.0)
        model = PoissonFactorModel([[1], [0]])  # every birth lowers row 1's likelihood
        tail = hp.c + hp.r
        seen = Counter()
        for seed in range(40):
            W, theta = FeatureArray(2, ((1, 1),)), np.array([[0.5]])
            state = ChainState(W, theta, hp, (1.0, 1.0), RngStream(seed, 0))
            counts = state.counts
            twin = RngStream(seed, 0)
            born = twin.poisson(hp.c * hp.T * harmonic_gap(hp.r, tail))
            masses = [digamma_sample(DigammaParams(hp.r, tail), twin) for _ in range(born)]
            if born:
                slots = twin.choice(1 + born, size=born, replace=False)
                rows = twin.gamma(1.0, 1.0, (born, 1))
                new_ll = model.row_loglik(1, np.array(masses, dtype=np.float64) @ rows + 0.5)
                accept = twin.random() < math.exp(new_ll - model.row_loglik(1, np.array([0.5])))
            move(update_singletons, state, model, 1)
            assert state.rng.random() == twin.random()  # same stream position
            if not born:
                assert state.counts is counts
            elif accept:
                fresh = np.zeros(1 + born, dtype=bool)
                fresh[slots] = True
                assert state.counts[:, ~fresh].tolist() == [[1], [1]]
                assert state.counts[0, fresh].tolist() == [0] * born
                assert state.counts[1, fresh].tolist() == masses
                assert np.array_equal(state.Theta[fresh], rows)
                assert state.Theta[~fresh].tolist() == [[0.5]]
            else:
                assert state.counts is counts and state.W is W and state.Theta is theta
            seen[accept if born else None] += 1
        assert seen[True] > 0 and seen[False] > 0

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
            counts = state.counts
            move(update_singletons, state, model, 1)
            if state.counts is counts:
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

    @pytest.mark.parametrize(
        "make",
        [lambda: planted_state(12, 7, 5, 131), lambda: planted_state(100, 50, 16, 137), sparse_state],
        ids=["12x7", "100x50x16", "sparse"],
    )
    def test_matches_scalar_loop(self, make):
        # a zero count, or a count on a zero rate, takes no draw in either form
        state, model = make()
        twin, _ = make()
        update_theta(state, model)
        want = theta_reference(twin, model)
        assert np.array_equal(state.Theta, want)
        assert state.rng.random() == twin.rng.random()  # same stream position

    def test_workspace_follows_kappa(self):
        # the kept weights grow at kappa 12 and are reused at 3 and 12
        state, model = planted_state(30, 20, 8, 139)
        twin, _ = planted_state(30, 20, 8, 139)
        kept = []
        for kappa in (8, 12, 3, 12):
            other, _ = planted_state(30, 20, kappa, 140 + kappa)
            for s in (state, twin):
                s.counts, s.Theta = other.counts, other.Theta.copy()
            update_theta(state, model)
            assert np.array_equal(state.Theta, theta_reference(twin, model)), kappa
            assert state.rng.random() == twin.rng.random()
            kept.append(state._weights)
        assert [w.size for w in kept] == [30 * 20 * 8] + [30 * 20 * 12] * 3
        assert kept[1] is kept[2] is kept[3]

    def test_snapshot_shares_no_workspace(self):
        # a snapshot swept on its own stream between two sweeps of its parent
        # leaves the parent's draws those of an untouched twin
        state, model = planted_state(40, 15, 8, 141)
        twin, _ = planted_state(40, 15, 8, 141)
        sweep_once(state, model)
        sweep_once(twin, model)
        snap = state.snapshot()
        snap.rng = RngStream(142, 0)
        sweep_once(snap, model)
        assert not np.shares_memory(snap._weights, state._weights)
        sweep_once(state, model)
        sweep_once(twin, model)
        assert np.array_equal(state.counts, twin.counts)
        assert np.array_equal(state.Theta, twin.Theta) and state.hp == twin.hp
        assert state.rng.random() == twin.rng.random()

    def test_zero_row_with_zero_counts_draws_nothing(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        W = FeatureArray(3, ((2, 0, 1), (1, 0, 0)))  # row 1 expresses nothing
        model = PoissonFactorModel([[3, 1], [0, 0], [0, 2]])
        theta = np.array([[0.5, 2.0], [1.5, 0.3]])
        state = ChainState(W, theta, hp, (1.0, 1.0), RngStream(132, 0))
        twin = ChainState(W, theta.copy(), hp, (1.0, 1.0), RngStream(132, 0))
        update_theta(state, model)
        assert np.array_equal(state.Theta, theta_reference(twin, model))
        assert state.rng.random() == twin.rng.random()

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
        assert state.rng.random() == twin.rng.random()


class TestSweepStructure:
    def test_no_array_build_and_one_multinomial_per_sweep(self, monkeypatch):
        # every kernel of the default configuration, c/r slice moves included;
        # W is built from the new counts on its first read after the sweep.
        # Builds are counted through the checked and the unchecked constructor
        state, model = planted_state(40, 15, 8, 134)
        calls = Counter()
        post_init = FeatureArray.__post_init__
        unchecked = FeatureArray._unchecked.__func__
        multinomial = RngStream.multinomial

        def counted_post_init(self):
            calls["array"] += 1
            post_init(self)

        def counted_unchecked(cls, n, columns):
            calls["array"] += 1
            return unchecked(cls, n, columns)

        def counted_multinomial(self, n, pvals):
            calls["multinomial"] += 1
            return multinomial(self, n, pvals)

        monkeypatch.setattr(FeatureArray, "__post_init__", counted_post_init)
        monkeypatch.setattr(FeatureArray, "_unchecked", classmethod(counted_unchecked))
        monkeypatch.setattr(RngStream, "multinomial", counted_multinomial)
        sweep_once(state, model, ChainConfig())
        assert calls["array"] == 0
        assert calls["multinomial"] == 1
        W = state.W
        assert state.W is W
        assert calls["array"] == 1

    def test_entry_pass_scores_once_per_row_and_accept(self, monkeypatch):
        # the reference scores a differing proposal with two row_loglik
        # calls; the row kernel makes one per row that scores anything, plus
        # at most one per accept, which rebuilds the block for the proposals
        # that follow it
        state, model = planted_state(40, 15, 8, 134)
        twin, _ = planted_state(40, 15, 8, 134)
        calls = Counter()
        where = ["reference"]
        row_loglik = model.row_loglik
        update = inference.update_entry

        def counted_row_loglik(i, rates):
            calls[where[0]] += 1
            return row_loglik(i, rates)

        def counted_update(*args):
            calls["rows"] += 1
            where[0] = "entry"
            try:
                return update(*args)
            finally:
                where[0] = "other"

        monkeypatch.setattr(model, "row_loglik", counted_row_loglik)
        entry_pass(twin, model, reference=True)
        differing = calls["reference"] // 2
        monkeypatch.setattr(inference, "update_entry", counted_update)
        sweep_once(state, model, ChainConfig())
        assert calls["rows"] == model.n
        assert differing > model.n  # two calls per proposal would break the bound
        assert calls["entry"] <= model.n + differing

    def test_singleton_move_scores_one_block(self, monkeypatch):
        # a move past the early return (a birth drawn, or a private column to
        # drop) scores the proposed and the current row with one row_loglik
        # call on a (2, V) block; on this seed births and deaths are both
        # proposed and accepted
        state, model = planted_state(12, 5, 4, 139, Hyperparams(1.0, 1.0, 6.0))
        shapes, born, seen = [], [], Counter()
        row_loglik, new_dishes, update = model.row_loglik, inference._new_dishes, update_singletons

        def drawn_new_dishes(hp, m, rng):
            masses = new_dishes(hp, m, rng)
            born.append(len(masses))
            return masses

        def counted_update(st, mdl, M, sums, i):
            private = bool(((M[i] > 0) & (sums == M[i])).any())
            shapes.clear()  # the entry pass scores through row_loglik too
            out = update(st, mdl, M, sums, i)
            scored = born[-1] > 0 or private
            assert shapes == ([(2, model.V)] if scored else []), (born[-1], private)
            seen["birth", out is not None] += born[-1] > 0
            seen["death", out is not None] += private
            return out

        def counted_row_loglik(i, rates):
            shapes.append(np.shape(rates))
            return row_loglik(i, rates)

        monkeypatch.setattr(model, "row_loglik", counted_row_loglik)
        monkeypatch.setattr(inference, "_new_dishes", drawn_new_dishes)
        monkeypatch.setattr(inference, "update_singletons", counted_update)
        for _ in range(10):
            sweep_once(state, model, ChainConfig())
        assert len(born) == 10 * model.n
        assert all(seen[kind, True] > 0 for kind in ("birth", "death")), seen

    def test_log_joint_and_full_record_build_no_array(self, monkeypatch):
        # both read the count matrix of a state fresh from a sweep, and the
        # states run_chain emits carry no array either; W is built on its
        # first read after them, and equals the record's W
        state, model = planted_state(40, 15, 8, 134)
        sweep_once(state, model, ChainConfig())
        init, _ = planted_state(40, 15, 8, 135)
        builds = Counter()
        post_init, unchecked = FeatureArray.__post_init__, FeatureArray._unchecked.__func__

        def counted_post_init(self):
            builds["array"] += 1
            post_init(self)

        def counted_unchecked(cls, n, columns):
            builds["array"] += 1
            return unchecked(cls, n, columns)

        monkeypatch.setattr(FeatureArray, "__post_init__", counted_post_init)
        monkeypatch.setattr(FeatureArray, "_unchecked", classmethod(counted_unchecked))
        lj = log_joint(state, model)
        rec = chain_record(state, 1, model, full=True)
        assert builds["array"] == 0
        assert math.isfinite(lj) and rec["log_joint"] == lj
        assert rec["W"] == [list(col) for col in state.W.columns]
        assert rec["Theta"] == state.Theta.tolist()
        assert builds["array"] == 1
        emitted = list(run_chain(model, init, 3, init.rng))
        assert builds["array"] == 1
        assert emitted[0].W is init.W  # the init's array, built before the chain
        swept = [snap.W for snap in emitted[1:]]
        assert builds["array"] == 4
        for snap, W in zip(emitted[1:], swept):
            assert W == FeatureArray.from_matrix(snap.counts)


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

    def test_draw_that_underflows_stays_positive(self):
        # Gamma(alpha << 1) rounds to 0.0 on most draws here; T is lifted to
        # the least positive double, and stays a Python float
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(110, 0)
        lifted = 0
        for _ in range(200):
            state = ChainState(FeatureArray(2, ()), np.zeros((0, 1)), hp, (0.001, 1000.0), rng)
            update_mass_T(state)
            assert type(state.hp.T) is float and state.hp.T > 0.0
            lifted += state.hp.T == math.ulp(0.0)
        assert lifted > 0


class TestGammaFactors:
    """_gamma_factors draws the values of numpy's gamma at scale 1 / rate, at
    the same stream position, for each shape the kernels call it with; a
    draw that underflows is lifted to the least positive double."""

    @staticmethod
    def reference(rng, shape, rate, size=None):
        return np.maximum(rng.gamma(shape, 1.0 / rate, size), math.ulp(0.0))

    @pytest.mark.parametrize(
        "shape, rate, size",
        [
            (4.0, 3.7, None),  # T | W
            (1e-3, 1000.0, None),  # T | W, most draws lifted
            (1.0, 1.0, (2, 3)),  # (born, V) births, and a flat Theta
            (1e-3, 1.0, (4, 5)),
            (
                1.0 + np.arange(12.0).reshape(3, 4) % 5,
                np.array([[1.0], [2.5], [4.0]]),
                None,
            ),  # the (kappa, V) Theta conditional against (kappa, 1) rates
        ],
        ids=["T", "T-lifted", "births", "births-lifted", "theta"],
    )
    def test_twin_stream(self, shape, rate, size):
        lifted = 0
        for seed in range(20):
            rng, twin = RngStream(seed, 0), RngStream(seed, 0)
            got = inference._gamma_factors(rng, shape, rate, size)
            want = self.reference(twin, shape, rate, size)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
            assert rng.random() == twin.random()  # same stream position
            lifted += int((np.asarray(got) == math.ulp(0.0)).sum())
        assert (lifted > 0) == (np.min(shape) < 0.01)


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
            ("gamma", math.inf, 1.0),
            ("gamma", 1.0, math.inf),
            ("lognormal", math.inf, 1.0),
            ("lognormal", -math.inf, 1.0),
            ("lognormal", math.nan, 1.0),
            ("lognormal", 0.0, math.inf),
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
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(117, 0)
        short = prior_state(PoissonFactorModel(n=2, V=1), hp, (1.0, 1.0), rng)
        # a featureless init still needs a V-wide Theta
        narrow = ChainState(FeatureArray(2, ()), np.zeros((0, 0)), hp)
        cases = [
            (PoissonFactorModel(n=3, V=1), short),
            (PoissonFactorModel([[1, 0], [0, 0]]), narrow),
        ]
        for model, init in cases:
            with pytest.raises(ValueError, match="^state "):
                next(run_chain(model, init, 1, rng))

    def test_featureless_init_runs(self):
        model = PoissonFactorModel([[1, 0], [0, 0]])
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(117, 1)
        init = ChainState(FeatureArray(2, ()), np.zeros((0, 2)), hp, (1.0, 1.0), rng)
        assert log_joint(init, model) == -math.inf
        for state in run_chain(model, init, 5, rng):
            assert state.Theta.shape == (state.W.kappa, 2)
            assert (state.Theta > 0.0).all()

    def test_states_stay_consistent(self):
        model = PoissonFactorModel([[1, 2], [0, 1], [3, 0]])
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(118, 0)
        init = prior_state(model, hp, (1.0, 1.0), rng)
        for state in run_chain(model, init, 10, rng):
            assert state.Theta.shape == (state.W.kappa, model.V)
            assert (state.Theta > 0.0).all()
            assert state.W.n == 3

    def test_misfit_states_refused_on_entry(self):
        # each once got past its entry point: resample_counts returned a
        # model of the state's shape, not the model's, and sweep_once stopped
        # in numpy on too few rows (IndexError) or too wide a Theta
        # (broadcast).  A Theta reassigned with a row too many reached
        # numpy's matmul check in all four, sweep_once after drawing
        hp = Hyperparams(1.0, 1.0, 1.0)
        fits = PoissonFactorModel([[2, 1]])
        cases = [
            (resample_counts, 4, 1, PoissonFactorModel(None, n=3, V=2)),
            (sweep_once, 2, 1, PoissonFactorModel([[1, 0], [0, 2], [3, 1]])),
            (sweep_once, 3, 1, fits),
            *((kernel, 2, 2, fits) for kernel in (sweep_once, log_joint, resample_counts)),
            (lambda state, model: next(run_chain(model, state, 1, state.rng)), 2, 2, fits),
        ]
        for seed, (kernel, width, rows, model) in enumerate(cases):
            state = ChainState(FeatureArray(1, ((2,),)), np.ones((1, width)), hp, (1.0, 1.0),
                               RngStream(seed, 0))
            state.Theta = np.ones((rows, width))
            with pytest.raises(ValueError, match=f"^state has n=1, width {width}, {rows} factor "):
                kernel(state, model)
            assert state.rng.random() == RngStream(seed, 0).random()  # no draw taken


class TestSupportPieces:
    def test_prior_state_shapes(self):
        model = PoissonFactorModel(n=3, V=2)
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(119, 0)
        st = prior_state(model, hp, (2.0, 2.0), rng, draw_T=True)
        assert st.W.n == 3
        assert st.Theta.shape == (st.W.kappa, 2)
        assert st.hp.T != hp.T  # drawn from Gamma(2, 2)

    def test_prior_mass_draw_that_underflows(self):
        # T ~ Gamma(0.001, 1000) underflows to 0.0 on 84 of these 200 seeds,
        # and one more draw is the least positive double itself
        model = PoissonFactorModel(None, n=3, V=2)
        lifted = 0
        for seed in range(200):
            st = prior_state(model, Hyperparams(1.0, 1.0, 1.0), (0.001, 1000.0),
                             RngStream(seed, 0), draw_T=True)
            assert type(st.hp.T) is float and st.hp.T > 0.0
            lifted += st.hp.T == math.ulp(0.0)
        assert lifted == 85

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

    def test_resampled_model_matches_a_checked_one(self):
        # resample_counts builds its model without the constructor's checks
        hp = Hyperparams(1.0, 1.0, 1.0)
        W = FeatureArray(3, ((2, 0, 1), (1, 3, 0)))
        state = ChainState(W, np.array([[1.5, 0.2], [0.4, 2.0]]), hp, (1.0, 1.0),
                           RngStream(123, 0))
        model = resample_counts(state, PoissonFactorModel(None, 0.7, 1.3, n=3, V=2))
        checked = PoissonFactorModel(model.y, 0.7, 1.3)
        got, want = vars(model), vars(checked)
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert type(got[name]) is type(value), name
            if isinstance(value, np.ndarray):
                assert got[name].dtype == value.dtype and np.array_equal(got[name], value), name
            else:
                assert got[name] == value, name

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

    def test_chain_record_total_count_is_exact(self):
        # each column fits int64, but their total does not
        hp = Hyperparams(1.0, 1.0, 1.0)
        big = 6 * 10**18
        state = ChainState(FeatureArray(1, ((big,), (big,))), np.ones((2, 1)), hp)
        rec = chain_record(state, 0, PoissonFactorModel([[0]]))
        assert rec["total_count"] == 2 * big

    def test_chain_record_null_on_impossible(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(122, 0)
        state = ChainState(FeatureArray(1, ()), np.zeros((0, 1)), hp, (1.0, 1.0), rng)
        rec = chain_record(state, 0, PoissonFactorModel([[2]]))
        assert rec["log_joint"] is None
