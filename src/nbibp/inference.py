"""MCMC over the latent count matrix and its companions.

The target is p(W, Theta, T, c, r | y) under a Poisson factorization
likelihood: y_{iv} ~ Poisson(sum_j W_{ij} Theta_{jv}), with the buffet-process
prior on W, i.i.d. Gamma(a, b) entries of Theta, a Gamma(alpha, beta) prior on
the base mass T, and configurable priors on c and r.  No weight measure is
ever instantiated; every kernel works through the marginal array p.m.f.

Kernels, in sweep order: per-entry MH with the exact prior-conditional
proposal (so prior terms cancel and only the likelihood ratio remains), a
per-row birth/death move for that row's singleton features, a conjugate
Theta draw via multinomial allocation, an exact gamma draw for T, and slice
updates for c and r on the array's sufficient statistics, built once per
update.  Rejected proposals leave everything but the stream position untouched.

A state the data rule out (a positive count on a zero rate) has log-likelihood
-inf, which xlogy(y, rate) gives with no special case.  The MH moves accept
any possible proposal from it, and the Theta draw leaves such counts unsplit,
so a chain started there moves on instead of failing.

The chain holds W as one read-only int64 n-by-kappa count matrix,
ChainState.counts; a sweep replaces it rather than changing it in place.
Every reader in this module goes through the counts: the kernels, log_joint
(whose array term takes the c/r moves' route, _log_pmf_of on the columns),
chain_record, and run_chain, which starts from a snapshot of its init.
ChainState.W, the FeatureArray built from the counts on first read and kept
until the next replacement, is built only for a caller that reads it; no
code here does.  The entry and singleton passes run on a writable copy
of the matrix with its column sums, which becomes the state's matrix after
both passes.  The two kernels work on that copy: update_entry refreshes one
row's shared entries, taking all of the row's proposals first and scoring
them as one block of candidate rows, one product with Theta for the block.
The proposals have two sources.  On a model with data whose n * kappa at
the start of the sweep is at least BANK_MIN, sweep_once hands every row one
_EntryBank: its Gamma(r) mixing variates and MH uniforms for all n * kappa
entries in one call each, then every proposal's beta and then its Poisson
count in one call each, with a moved column redrawn for the later rows
after an accept.  The bank keeps which entries each (re)draw scores, so a
row reads its proposals with one lookup.  Otherwise each row draws its own:
its Gamma(r) variates in one call, then each proposal's beta and Poisson
draws and, with data, its uniform.  update_singletons runs one row's
birth/death move on the rest, with the buffet's new dishes
(generative._new_dishes) as its births, and scores the proposed and the
current row as a block of two before it builds the proposed matrix.  Both
kernels score through row_loglik's one block form.  sweep_once calls each
once per row.
update_theta writes its (n, V, kappa) weights into a workspace the state
keeps and splits every cell in one multinomial call, in which a zero count
takes no draw.

A model built with y=None has a constant likelihood: every acceptance ratio
is one and Theta reverts to its prior.  The chain then targets the prior
itself, which is how the prior-invariance harnesses drive these kernels.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .distributions import RATE_CAP, _nb_draw, _nb_fill
from .generative import _new_dishes, nbibp_simulate
from .numerics import harmonic_gap
from .structures import FeatureArray, Hyperparams, _log_pmf_of

__all__ = [
    "PoissonFactorModel",
    "ChainState",
    "HyperPrior",
    "ChainConfig",
    "log_joint",
    "update_entry",
    "update_singletons",
    "update_theta",
    "update_mass_T",
    "update_c_r",
    "sweep_once",
    "run_chain",
    "prior_state",
    "resample_counts",
    "chain_record",
]


class PoissonFactorModel:
    """Count observations y (n rows by V columns) with Gamma(a, b) factor prior.

    y=None gives the flat-likelihood variant over an explicit (n, V) shape.
    """

    def __init__(self, y=None, a_theta=1.0, b_theta=1.0, n=None, V=None):
        if y is None:
            if n is None or V is None:
                raise ValueError("a flat model needs explicit n and V")
            self.y = None
            self.n, self.V = int(n), int(V)
        else:
            y = np.asarray(y)
            if y.ndim != 2:
                raise ValueError(f"y must be a 2-d count matrix, got ndim={y.ndim}")
            if y.dtype.kind not in "iu":  # bools, floats, Python ints past 64 bits
                y = y.astype(object)  # Python numbers, which meet the bounds below exactly
                if not all(isinstance(v, int) or isinstance(v, float) and v.is_integer()
                           for v in y.flat):
                    raise ValueError("y entries must be integers")
            if (y < 0).any():
                raise ValueError("y entries must be >= 0")
            if (y >= 2**63).any():
                raise ValueError("y entries must be < 2**63")
            self._observe(y.astype(np.int64))
        if self.n < 1 or self.V < 1:
            raise ValueError(f"model needs n, V >= 1, got n={self.n}, V={self.V}")
        if not (0.0 < a_theta < math.inf and 0.0 < b_theta < math.inf):
            raise ValueError(f"factor prior needs finite a, b > 0, got ({a_theta!r}, {b_theta!r})")
        self.a_theta = float(a_theta)
        self.b_theta = float(b_theta)

    def _observe(self, y):
        """Hold the int64 count matrix y with its float64 copy, the doubles
        xlogy casts y to, its log-factorials and its shape."""
        self.y, self._yf, (self.n, self.V) = y, y.astype(np.float64), y.shape
        self._log_fact = gammaln(self._yf + 1.0)

    def row_loglik(self, i, rates):
        """log p(y_i | rates) for each row of a (k, V) block of candidate
        rows, as a list of floats (one row of rates gives one float).  xlogy
        makes it -inf where a zero rate meets a positive count."""
        if self.y is None:
            return np.zeros(np.shape(rates)[:-1]).tolist()
        out = xlogy(self._yf[i], rates)
        out -= rates
        out -= self._log_fact[i]
        return np.add.reduce(out, -1).tolist()

    def loglik(self, w_mat, theta):
        """log p(y | W Theta): row_loglik's expression over every row at once."""
        if self.y is None:
            return 0.0
        rates = np.asarray(w_mat, dtype=np.float64) @ theta
        return float((xlogy(self._yf, rates) - rates - self._log_fact).sum())


class ChainState:
    """Mutable chain position: the count matrix of W, its factor matrix (row j
    of Theta pairs with column j of W), the hyperparameters, the (alpha, beta)
    gamma prior on T, and the owning random stream.

    It is built from a FeatureArray W whose column sums are below 2**63.
    counts, the n-by-kappa int64 matrix of W, is read-only, and a sweep that
    moves W assigns a new one.  W is the FeatureArray of counts, built on its
    first read after each assignment.
    The state also keeps update_theta's weight workspace, which no snapshot
    shares.
    """

    def __init__(self, W, Theta, hp, t_prior=(1.0, 1.0), rng=None):
        self.Theta = np.asarray(Theta, dtype=np.float64)
        if self.Theta.ndim != 2:
            raise ValueError(f"Theta must be 2-d, got ndim={self.Theta.ndim}")
        a, b = t_prior
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(f"T prior needs finite alpha, beta > 0, got {t_prior!r}")
        if self.Theta.shape[0] != W.kappa:
            raise ValueError(f"Theta has {self.Theta.shape[0]} rows but W has {W.kappa} columns")
        if not (self.Theta > 0.0).all():
            raise ValueError("Theta entries must be positive")
        if any(sum(col) >= 2**63 for col in W.columns):
            raise ValueError("W column sums must be < 2**63")
        self.hp, self.t_prior, self.rng = hp, (float(a), float(b)), rng
        self.counts = W.to_matrix()
        self._W, self._weights = W, np.empty(0)

    @property
    def counts(self):
        return self._counts

    @counts.setter
    def counts(self, M):
        M.flags.writeable = False
        self._counts, self._W = M, None

    @property
    def W(self):
        if self._W is None:  # counts hold n >= 1 rows and no all-zero column
            M = self._counts
            self._W = FeatureArray._unchecked(M.shape[0], tuple(map(tuple, M.T.tolist())))
        return self._W

    def snapshot(self):
        """A copy that later moves of this state leave alone: it shares the
        read-only counts, and their FeatureArray once that has been read, and
        owns a copy of Theta and an empty workspace."""
        twin = copy.copy(self)
        twin.Theta, twin._weights = self.Theta.copy(), np.empty(0)
        return twin


@dataclass(frozen=True)
class HyperPrior:
    """Prior for a positive scalar: kind 'gamma' with finite (shape a > 0,
    rate b > 0) or 'lognormal' with finite (mu a, sigma b > 0)."""

    kind: str = "gamma"
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gamma", "lognormal"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "gamma" and not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError(f"gamma prior needs finite a, b > 0, got ({self.a!r}, {self.b!r})")
        if self.kind == "lognormal" and not (math.isfinite(self.a) and 0.0 < self.b < math.inf):
            raise ValueError(f"lognormal prior needs finite mu and sigma > 0, got {self!r}")

    def log_density(self, x):
        if x <= 0.0:
            return -math.inf
        if self.kind == "gamma":
            return (self.a - 1.0) * math.log(x) - self.b * x
        lx = math.log(x)
        z = (lx - self.a) / self.b
        if abs(z) > 1e154:  # z ** 2 would overflow; the density is 0 here
            return -math.inf
        return -lx - 0.5 * z ** 2


@dataclass(frozen=True)
class ChainConfig:
    """Which optional kernels a sweep runs, thinning, and the c/r priors.

    The entry, singleton and Theta kernels always run; conc=False or
    shape=False pins c or r at its current value.
    """

    mass: bool = True
    conc: bool = True
    shape: bool = True
    thin: int = 1
    c_prior: HyperPrior = HyperPrior()
    r_prior: HyperPrior = HyperPrior()

    def __post_init__(self):
        if self.thin != int(self.thin) or self.thin < 1:
            raise ValueError(f"thin must be a positive integer, got {self.thin!r}")


def _check_fit(state, model):
    """ValueError unless W has the model's n rows and Theta its V columns and
    one row per column of W."""
    (n, kappa), (rows, width) = state.counts.shape, state.Theta.shape
    if (n, width, rows) != (model.n, model.V, kappa):
        raise ValueError(f"state has n={n}, width {width}, {rows} factor rows for kappa={kappa}; "
                         f"the model has n={model.n}, V={model.V}")


def log_joint(state, model):
    """log p(y, W, Theta | T, c, r), read from the count matrix: its array
    p.m.f. through the route update_c_r takes, the factor prior and the
    likelihood.  -inf when the data is impossible, and ValueError for a
    state that does not fit the model."""
    _check_fit(state, model)
    counts, hp = state.counts, state.hp
    lp = _log_pmf_of(counts.shape[0], ((col, 1) for col in counts.T.tolist()))(hp.r, hp.c, hp.T)
    th, a, b = state.Theta, model.a_theta, model.b_theta
    lp += float(
        np.sum((a - 1.0) * np.log(th) - b * th) + th.size * (a * math.log(b) - gammaln(a))
    )
    ll = model.loglik(state.counts, state.Theta)
    return lp + ll


def _gamma_factors(rng, shape, rate, size=None):
    """Gamma(shape, rate) factor entries, with a draw that underflows to 0.0
    (possible for shape << 1) lifted to the least positive double, so Theta
    stays positive; every positive draw is returned unchanged.  With size
    None it is one draw, which float() makes the base mass T.  The draw is
    rng.gamma(shape, 1 / rate, size) to the last bit, since numpy's gamma is
    the standard gamma times its scale, without gamma's broadcast of a
    second parameter array."""
    return np.maximum(rng.standard_gamma(shape, size) * (1.0 / rate), math.ulp(0.0))


def _accept(delta_new, delta_old, uniform):
    """MH accept/reject on a log-likelihood pair, tolerating -inf states;
    uniform() gives the uniform, and is called only for a ratio below one."""
    if delta_new == -math.inf:
        return False
    if delta_old == -math.inf:
        return True
    d = delta_new - delta_old
    return d >= 0.0 or uniform() < math.exp(d)


# n * kappa from which a sweep on data draws its entry proposals through an
# _EntryBank; below it, and on a flat model, each row draws its own.  Raw
# entry passes put the bank ahead from about 720 on sizes that grow n, V and
# kappa together, and by 10% or more from 960.  Every accept costs the bank
# a redraw, so data that accept more often (V small against kappa) cross
# later.  With the bank's kept scored mask it leads by 10% from 720, but the
# constant stays: moving it would move the streams of chains near it.
BANK_MIN = 1000

_INT64_MAX = 2**63 - 1


class _EntryBank:
    """One entry pass's proposals and MH uniforms, drawn ahead in bulk.

    The first read draws the Gamma(r) mixing variate of each of the n by
    kappa entries with one standard_gamma call, then one uniform each with
    one random call.  Then, from the reading row on, row-major over the
    entries another row expresses, it draws every proposal's beta with one
    beta call and then every Poisson count with one Poisson call, through
    _nb_fill's guards.  An accept that moves a column sum marks the column;
    the next read redraws the betas and then the Poisson counts of the marked
    columns, for the reading row and every later one, row-major over rows
    and sorted columns, and keeps the variates and uniforms.  So every read
    proposal was drawn against its column sum as it stands, from its exact
    conditional, and no earlier decision has read it.

    Each (re)draw also sets the scored mask of the entries it covers: drawn
    (another row expresses the entry), differing from the entry, and within
    the int64 guard.  Those tests read only the entry, which no earlier row
    moves, and its column sum, which only an accept moves and which marks
    the column; so with no column marked, a row's mask is exact, and a read
    is one nonzero on it and two gathers.  A read with columns marked
    first asks whether the row expresses anything another row does, and
    reads nothing, leaving the mark, if not.
    """

    def __init__(self, hp, M):
        self.r, self.tail = hp.r, hp.c + (M.shape[0] - 1) * hp.r
        self.stale = set(range(M.shape[1]))  # columns to redraw at the next read
        self.gammas = None
        self.props = np.zeros(M.shape, dtype=np.int64)
        self.scored = np.zeros(M.shape, dtype=bool)

    def proposals(self, rng, M, sums, i):
        """Row i's scored entries in column order, as three lists: columns,
        proposals and uniforms; all empty for a row that scores nothing."""
        if self.stale:
            if not (sums > M[i]).any():
                return [], [], []
            if self.gammas is None:
                self.gammas = rng.standard_gamma(self.r, M.shape)
                self.uniforms = rng.random(M.shape)
            js = sorted(self.stale)
            self.stale.clear()
            if len(js) == 1:  # one column, read and written through views
                js = js[0]
            olds, room = M[i:, js], _INT64_MAX - sums[js]
            rest = sums[js] - olds
            drawn = rest > 0
            props = self.props[i:, js]
            p = rng.beta(rest[drawn], self.tail)
            props[drawn] = _nb_fill(p, self.gammas[i:, js][drawn], rng)
            self.props[i:, js] = props
            self.scored[i:, js] = drawn & (props != olds) & (props - olds <= room)
        js = self.scored[i].nonzero()[0]
        return js.tolist(), self.props[i, js].tolist(), self.uniforms[i, js].tolist()


def update_entry(state, model, M, sums, i, _bank=None):
    """MH refresh of M[i, j] in place for each j another row expresses, in
    order, on the count matrix M of W with its column sums kept current; True
    if any proposal was accepted.

    Each proposal is the exact conditional of its entry under the array prior
    given everything else, so the acceptance ratio is the likelihood ratio
    alone.  The entry's conditional depends on its column alone, so the
    kernel first draws every proposal of the row in column order.  A
    proposal is NB(r, p) with p ~ Beta(rest, c + (n - 1) r), drawn as a
    Poisson count whose rate is a Gamma(r) variate times p / (1 - p).  A
    proposal that differs from its entry is scored; one that would carry its
    column sum to 2**63, past int64, is rejected without a draw, like an
    impossible one.  A flat model accepts every proposal and draws no
    uniform.

    The proposals come from one of two sources.  Given _bank, the sweep's
    _EntryBank, the row reads them and their uniforms from it; see
    _EntryBank for its draw order.  sweep_once passes one on a model with
    data when n * kappa is at least BANK_MIN, a measured size from which the
    bank is the faster source; a flat model accepts nearly every proposal,
    so its bank would be redrawn after almost every row.
    Otherwise the row draws its own: the gamma variates do not depend on
    the state, so the row's come first, one per column, from one
    standard_gamma call, and each proposal then draws its beta and its
    Poisson count; with data, each scored proposal's uniform is drawn right
    after it.  A row with no such column draws nothing, from either source.

    Either source hands over the scored proposals as three lists: columns,
    proposals and uniforms.  They are decided in order against one block of
    candidate rows: the row as it stands, then the row with each proposal's
    entry set.  The block takes one product with Theta and one row_loglik
    call, and is rebuilt for the proposals that follow an accept.  One loop
    over the block's log-likelihoods makes _accept's comparison on each in
    turn.  An accept reads the old entry from the row, which no earlier
    accept has moved in that column.  Every candidate's rates come from a
    fresh product, so an unsupported rate reads exactly 0.
    """
    hp, rng, theta = state.hp, state.rng, state.Theta
    row = M[i]
    if _bank is not None:
        js, props, us = _bank.proposals(rng, M, sums, i)
    else:
        cols = (sums > row).nonzero()[0]
        if not cols.size:
            return False
        r, beta, data = hp.r, rng.beta, model.y is not None
        tail = hp.c + (M.shape[0] - 1) * r
        entries = row[cols]
        gammas = rng.standard_gamma(r, cols.size).tolist()
        rests = (sums[cols] - entries).tolist()
        js, props, us = [], [], []
        for j, old, rest, g in zip(cols.tolist(), entries.tolist(), rests, gammas):
            prop = _nb_draw(r, beta(rest, tail), rng, g)
            if prop == old or (prop > old and rest + prop >= 2**63):
                continue
            js.append(j)
            props.append(prop)
            if data:
                us.append(rng.random())
    moved, k = False, 0
    while k < len(js):  # the row as it stands, then proposals k onward
        block = np.empty((len(js) - k + 1, row.size))
        block[:] = row
        for t in range(k, len(js)):
            block[t - k + 1, js[t]] = props[t]
        ll, *lls = model.row_loglik(i, block @ theta)
        for new in lls:
            t, k = k, k + 1
            # _accept's comparison; a flat model scores every candidate 0
            # and so reads no uniform
            if new == -math.inf:
                continue
            if ll != -math.inf and not (new - ll >= 0.0 or us[t] < math.exp(new - ll)):
                continue
            j = js[t]
            sums[j] += props[t] - row[j]
            row[j] = props[t]
            moved = True
            if _bank is not None:
                _bank.stale.add(j)
            break
    return moved


def update_singletons(state, model, M, sums, i):
    """Birth/death of row i's private columns in the count matrix M of W,
    whose column sums are sums.  On accept it sets state.Theta and returns
    the new (M, sums), whose M the caller makes the state's counts; else None.

    Proposes dropping every column only row i expresses and birthing the
    dishes the last of n buffet customers opens, _new_dishes(hp, n - 1), at
    uniform slots with factor rows from the prior; prior and proposal terms
    cancel, leaving the likelihood ratio of row i.  The proposed and the
    current row are scored as one (2, V) block of rates, one row_loglik
    call, before the proposed matrix is built.  With no birth and nothing
    private the proposal is the current state, which is accepted without a
    draw, so the move returns at once.
    """
    hp, rng, theta = state.hp, state.rng, state.Theta
    n = M.shape[0]
    row = M[i]
    private = sums == row  # every column sum is positive
    masses = _new_dishes(hp, n - 1, rng)
    born = len(masses)
    if born == 0 and not private.any():
        return None
    keep = (~private).nonzero()[0]
    w = row.astype(np.float64)
    block = np.empty((2, model.V))  # the proposed row's rates, then the current row's
    block[0] = w[keep] @ theta[keep]
    block[1] = w @ theta
    if born:  # choice(k, size=0) takes no draw, but costs about as much as one
        slots = rng.choice(keep.size + born, size=born, replace=False)
        born_theta = _gamma_factors(rng, model.a_theta, model.b_theta, (born, model.V))
        block[0] += np.array(masses, dtype=np.float64) @ born_theta
    if not _accept(*model.row_loglik(i, block), rng.random):
        return None
    fresh = np.zeros(keep.size + born, dtype=bool)
    new_M = np.zeros((n, fresh.size), dtype=np.int64)
    new_theta = np.empty((fresh.size, model.V))
    if born:
        fresh[slots] = True
        new_M[i, fresh] = masses
        new_theta[fresh] = born_theta
    new_M[:, ~fresh] = M[:, keep]
    new_theta[~fresh] = theta[keep]
    state.Theta = new_theta
    return new_M, new_M.sum(axis=0)


def update_theta(state, model):
    """Conjugate factor refresh through latent count allocation.

    Each observed count splits multinomially across features in proportion to
    W_{ij} Theta_{jv}; given the split, factor entries are gamma.  The
    (n, V, kappa) weights are written and normalised in the state's kept
    workspace, which grows when they outgrow it, and all n V cells are split
    in one multinomial call, in row-major order.  A zero count takes no draw,
    and a count on a zero rate (a state the data rule out) is passed as zero,
    so it stays unsplit.  With no data the draw is the plain prior.
    """
    kappa = state.counts.shape[1]
    if kappa < 1:
        raise ValueError("no factor rows to update on an empty array")
    rng = state.rng
    if model.y is None:
        state.Theta = _gamma_factors(rng, model.a_theta, model.b_theta, (kappa, model.V))
        return state
    w_mat, size = state.counts.astype(np.float64), model.n * model.V * kappa
    if state._weights.size < size:
        state._weights = np.empty(size)
    weights = state._weights[:size].reshape(model.n, model.V, kappa)
    np.multiply(w_mat[:, None, :], state.Theta.T, out=weights)
    total = weights.sum(axis=2)
    live = total > 0.0
    weights /= np.where(live, total, 1.0)[..., None]
    draws = rng.multinomial(np.where(live, model.y, 0), weights)
    shape = model.a_theta + draws.sum(axis=0).T
    rate = model.b_theta + w_mat.sum(axis=0)[:, None]
    state.Theta = _gamma_factors(rng, shape, rate)
    return state


def update_mass_T(state):
    """Exact gamma draw of the base mass: T | W ~ Gamma(alpha + kappa, beta +
    c xi), xi = psi(c + n r) - psi(c).  A T whose expected feature count T c
    xi reaches RATE_CAP is refused: the births' Poisson rate would pass it."""
    alpha, beta = state.t_prior
    hp = state.hp
    n, kappa = state.counts.shape
    gap = hp.c * harmonic_gap(n * hp.r, hp.c)
    new_t = float(_gamma_factors(state.rng, alpha + kappa, beta + gap))
    if not new_t * gap < RATE_CAP:
        raise ValueError(f"the mass draw T = {new_t:.3g} expects {new_t * gap:.3g} features, "
                         f"past the limit {RATE_CAP:g}")
    state.hp = Hyperparams(hp.r, hp.c, new_t)
    return state


def _slice_update(x0, log_target, rng):
    """One stepping-out/shrinkage slice move on (0, inf), unit width."""
    width, max_steps = 1.0, 1000
    f0 = log_target(x0)
    if not math.isfinite(f0):
        raise ValueError(f"slice sampling started at zero density (x0={x0!r})")
    level = f0 + math.log1p(-rng.random())
    lo = x0 - width * rng.random()
    hi = lo + width
    steps = max_steps
    while lo > 0.0 and log_target(lo) > level:
        lo -= width
        steps -= 1
        if steps == 0:
            raise RuntimeError(f"slice bracket grew past {max_steps} expansions (left)")
    lo = max(lo, 0.0)
    steps = max_steps
    while log_target(hi) > level:
        hi += width
        steps -= 1
        if steps == 0:
            raise RuntimeError(f"slice bracket grew past {max_steps} expansions (right)")
    for _ in range(max_steps):
        x = lo + rng.random() * (hi - lo)
        if x > 0.0 and log_target(x) > level:
            return x
        if x < x0:
            lo = x
        else:
            hi = x
    raise RuntimeError("slice shrinkage exhausted its iteration budget")


def update_c_r(state, c_prior=HyperPrior(), r_prior=HyperPrior()):
    """Slice updates (unit width) of c then r against the array p.m.f. plus
    the prior.

    A prior of None pins its parameter and skips the move.
    """
    r, c, T = state.hp.r, state.hp.c, state.hp.T
    counts = state.counts
    log_pmf = _log_pmf_of(counts.shape[0], ((col, 1) for col in counts.T.tolist()))
    if c_prior is not None:
        c = _slice_update(c, lambda x: c_prior.log_density(x) + log_pmf(r, x, T), state.rng)
    if r_prior is not None:
        r = _slice_update(r, lambda x: r_prior.log_density(x) + log_pmf(x, c, T), state.rng)
    state.hp = Hyperparams(r, c, T)
    return state


def sweep_once(state, model, config=ChainConfig()):
    """One full kernel pass in the fixed order: all non-singleton entries
    row-major, the per-row singleton move, Theta, T, c, r.

    A state that does not fit the model is refused on entry (_check_fit),
    before any draw; the kernels keep it fitting.  The entry and singleton
    passes run on a copy of state.counts and its column sums, which then
    replaces state.counts; no FeatureArray is built.  On a model with data
    whose n * kappa is at least BANK_MIN, the entry pass reads its
    proposals from one _EntryBank (see update_entry).
    """
    _check_fit(state, model)
    M = state.counts.copy()
    sums = M.sum(axis=0)
    bank = _EntryBank(state.hp, M) if model.y is not None and M.size >= BANK_MIN else None
    for i in range(model.n):
        update_entry(state, model, M, sums, i, bank)
    for i in range(model.n):
        out = update_singletons(state, model, M, sums, i)
        if out is not None:
            M, sums = out
    state.counts = M
    if M.shape[1]:
        update_theta(state, model)
    if config.mass:
        update_mass_T(state)
    if config.conc or config.shape:
        update_c_r(
            state,
            config.c_prior if config.conc else None,
            config.r_prior if config.shape else None,
        )
    return state


def run_chain(model, init, sweeps, rng, config=ChainConfig()):
    """Generate thinned states: the init, then every thin-th sweep's result.

    The stream is a pure function of (model, init values, sweeps, rng key).
    """
    if sweeps != int(sweeps) or sweeps < 0:
        raise ValueError(f"sweeps must be an integer >= 0, got {sweeps!r}")
    _check_fit(init, model)
    state = init.snapshot()
    state.rng = rng
    yield state.snapshot()
    for sweep in range(1, int(sweeps) + 1):
        sweep_once(state, model, config)
        if sweep % config.thin == 0:
            yield state.snapshot()


def prior_state(model, hp, t_prior, rng, draw_T=False):
    """A fresh state from the prior: optionally T ~ Gamma(t_prior), then the
    array, then factor rows."""
    if draw_T:
        hp = Hyperparams(hp.r, hp.c, float(_gamma_factors(rng, *t_prior)))
    W = nbibp_simulate(model.n, hp, rng)
    theta = _gamma_factors(rng, model.a_theta, model.b_theta, (W.kappa, model.V))
    return ChainState(W, theta, hp, t_prior, rng)


def resample_counts(state, model, rng=None):
    """New model with y ~ Poisson(W Theta) drawn under the current state;
    ValueError, before any draw, for a state that does not fit the model."""
    _check_fit(state, model)
    rng = state.rng if rng is None else rng
    rates = state.counts.astype(np.float64) @ state.Theta
    redrawn = object.__new__(PoissonFactorModel)  # Poisson counts need no checks
    redrawn.a_theta, redrawn.b_theta = model.a_theta, model.b_theta
    redrawn._observe(rng.poisson(rates))
    return redrawn


def chain_record(state, sweep, model, full=False):
    """JSON-ready summary of one emitted state.

    log_joint is null when the state is impossible under the data (the value
    is -inf, which JSON cannot carry).
    """
    lj = log_joint(state, model)
    rec = {
        "sweep": int(sweep),
        "kappa": state.counts.shape[1],
        "T": state.hp.T,
        "c": state.hp.c,
        "r": state.hp.r,
        "total_count": sum(state.counts.sum(axis=0).tolist()),
        "log_joint": lj if math.isfinite(lj) else None,
    }
    if full:
        rec["W"] = state.counts.T.tolist()
        rec["Theta"] = state.Theta.tolist()
    return rec
