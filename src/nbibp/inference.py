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
-inf.  The MH moves accept any possible proposal from it, and the Theta draw
leaves such counts unsplit, so a chain started there moves on instead of
failing.

At rest the chain holds W as a validated FeatureArray.  Within a sweep the
entry and singleton passes run on an int64 n-by-kappa copy of W with its
column sums, and W is rebuilt from it once, after both passes, if a move was
accepted.  The entry pass goes row by row: it computes a row's rates
W_i Theta once, moves them in O(V) for a proposal that keeps its entry
positive, and keeps the rates of an accepted one.  update_entry (the row
kernel on one column) and update_singletons exist for tests and tracing.
update_theta splits every positive count that has a positive rate in one
multinomial call.

A model built with y=None has a constant likelihood: every acceptance ratio
is one and Theta reverts to its prior.  The chain then targets the prior
itself, which is how the prior-invariance harnesses drive these kernels.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .distributions import DigammaParams, _nb_draw, digamma_sample
from .generative import nbibp_simulate
from .numerics import harmonic_gap
from .structures import FeatureArray, Hyperparams, _log_pmf_of, log_pmf_array

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
            if not np.issubdtype(y.dtype, np.integer):
                if y.dtype.kind not in "bf" or not np.all(np.isfinite(y) & (y == np.floor(y))):
                    raise ValueError("y entries must be integers")
            y = y.astype(np.int64)
            if (y < 0).any():
                raise ValueError("y entries must be >= 0")
            self.y = y
            self._log_fact = gammaln(y + 1.0)
            self.n, self.V = y.shape
        if self.n < 1 or self.V < 1:
            raise ValueError(f"model needs n, V >= 1, got n={self.n}, V={self.V}")
        if not (a_theta > 0.0 and b_theta > 0.0):
            raise ValueError(f"factor prior needs a, b > 0, got ({a_theta!r}, {b_theta!r})")
        self.a_theta = float(a_theta)
        self.b_theta = float(b_theta)

    def row_loglik(self, i, rates):
        """log p(y_i | rates); -inf when a zero rate meets a positive count."""
        if self.y is None:
            return 0.0
        ys = self.y[i]
        dead = rates <= 0.0
        if not dead.any():
            return float((ys * np.log(rates) - rates - self._log_fact[i]).sum())
        if np.any(dead & (ys > 0)):
            return -math.inf
        live = ~dead
        lam = rates[live]
        return float((ys[live] * np.log(lam) - lam - self._log_fact[i][live]).sum())

    def loglik(self, w_mat, theta):
        if self.y is None:
            return 0.0
        w_mat = np.asarray(w_mat, dtype=np.float64)
        return sum(self.row_loglik(i, w_mat[i] @ theta) for i in range(self.n))


@dataclass
class ChainState:
    """Mutable chain position: the array W, its factor matrix (row j of Theta
    pairs with column j of W), the hyperparameters, the (alpha, beta) gamma
    prior on T, and the owning random stream."""

    W: FeatureArray
    Theta: np.ndarray
    hp: Hyperparams
    t_prior: tuple = (1.0, 1.0)
    rng: object = None

    def __post_init__(self):
        self.Theta = np.asarray(self.Theta, dtype=np.float64)
        if self.Theta.ndim != 2:
            raise ValueError(f"Theta must be 2-d, got ndim={self.Theta.ndim}")
        a, b = self.t_prior
        if not (a > 0.0 and b > 0.0):
            raise ValueError(f"T prior needs alpha, beta > 0, got {self.t_prior!r}")
        self.t_prior = (float(a), float(b))
        self.check()

    def check(self):
        if self.Theta.shape[0] != self.W.kappa:
            raise ValueError(
                f"Theta has {self.Theta.shape[0]} rows but W has {self.W.kappa} columns"
            )
        if self.Theta.size and not (self.Theta > 0.0).all():
            raise ValueError("Theta entries must be positive")

    def snapshot(self):
        return replace(self, Theta=self.Theta.copy())


@dataclass(frozen=True)
class HyperPrior:
    """Prior for a positive scalar: kind 'gamma' with (shape a, rate b) or
    'lognormal' with (mu a, sigma b)."""

    kind: str = "gamma"
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gamma", "lognormal"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "gamma" and not (self.a > 0.0 and self.b > 0.0):
            raise ValueError(f"gamma prior needs a, b > 0, got ({self.a!r}, {self.b!r})")
        if self.kind == "lognormal" and not self.b > 0.0:
            raise ValueError(f"lognormal prior needs sigma > 0, got {self.b!r}")

    def log_density(self, x):
        if x <= 0.0:
            return -math.inf
        if self.kind == "gamma":
            return (self.a - 1.0) * math.log(x) - self.b * x
        lx = math.log(x)
        return -lx - 0.5 * ((lx - self.a) / self.b) ** 2


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


def log_joint(state, model):
    """log p(y, W, Theta | T, c, r); -inf when the data is impossible."""
    lp = log_pmf_array(state.W, state.hp)
    th = state.Theta
    if th.size:
        a, b = model.a_theta, model.b_theta
        lp += float(
            np.sum((a - 1.0) * np.log(th) - b * th) + th.size * (a * math.log(b) - gammaln(a))
        )
    ll = model.loglik(state.W.to_matrix(), state.Theta)
    return lp + ll


def _accept(delta_new, delta_old, rng):
    """MH accept/reject on a log-likelihood pair, tolerating -inf states."""
    if delta_new == -math.inf:
        return False
    if delta_old == -math.inf:
        return True
    d = delta_new - delta_old
    return d >= 0.0 or rng.uniform() < math.exp(d)


def _entry_row(state, model, M, sums, i, cols):
    """MH refresh of M[i, j] in place for each j in cols, in order, column
    sums kept current; True if any proposal was accepted.

    Each proposal is the exact conditional of its entry under the array prior
    given everything else, so the acceptance ratio is the likelihood ratio
    alone; every column in cols must be expressed by some row other than i.
    A proposal is scored on the row rates plus (prop - old) Theta_j, or on a
    fresh mat-vec if it zeroes its entry, so an unsupported rate reads 0.
    """
    hp, rng, theta = state.hp, state.rng, state.Theta
    tail = hp.c + (M.shape[0] - 1) * hp.r
    row = M[i]
    rates, moved = None, False
    for j in cols:
        old = row[j]
        prop = _nb_draw(hp.r, rng.beta(float(sums[j] - old), tail), rng)
        if prop == old:
            continue
        if rates is None:
            rates = row.astype(np.float64) @ theta
            ll = model.row_loglik(i, rates)
        if prop:
            new_rates = rates + (prop - old) * theta[j]
        else:  # exact zeros where no expressed feature has a positive factor
            w = row.astype(np.float64)
            w[j] = 0.0
            new_rates = w @ theta
        new_ll = model.row_loglik(i, new_rates)
        if _accept(new_ll, ll, rng):
            row[j] = prop
            sums[j] += prop - old
            rates, ll, moved = new_rates, new_ll, True
    return moved


def _singleton_move(state, model, M, sums, i):
    """Birth/death of row i's private columns; the new (M, sums) on accept,
    None when the state is unchanged.

    Proposes dropping every column only row i expresses and birthing a
    Poisson(c T [psi(c+nr) - psi(c+(n-1)r)]) batch of fresh ones at uniform
    slots, masses from the digamma law and factor rows from the prior; prior
    and proposal terms cancel, leaving the likelihood ratio of row i.  With no
    birth and nothing private the proposal is the current state, which is
    accepted without a draw, so the move returns at once.
    """
    hp, rng = state.hp, state.rng
    n = M.shape[0]
    row = M[i]
    private = (row > 0) & (sums == row)
    theta_tail = hp.c + (n - 1) * hp.r
    born = rng.poisson(hp.c * hp.T * harmonic_gap(hp.r, theta_tail))
    if born == 0 and not private.any():
        return None
    mass_law = DigammaParams(hp.r, theta_tail)
    masses = [digamma_sample(mass_law, rng) for _ in range(born)]
    keep = np.flatnonzero(~private)
    kappa_star = keep.size + born
    fresh = np.zeros(kappa_star, dtype=bool)
    new_M = np.zeros((n, kappa_star), dtype=np.int64)
    new_theta = np.empty((kappa_star, model.V))
    if born:
        fresh[rng.choose(kappa_star, born)] = True
        new_M[i, fresh] = masses
        new_theta[fresh] = rng.gamma_array(
            np.full((born, model.V), model.a_theta), 1.0 / model.b_theta
        )
    new_M[:, ~fresh] = M[:, keep]
    new_theta[~fresh] = state.Theta[keep]
    if not _accept(
        model.row_loglik(i, new_M[i].astype(np.float64) @ new_theta),
        model.row_loglik(i, row.astype(np.float64) @ state.Theta),
        rng,
    ):
        return None
    state.Theta = new_theta
    return new_M, new_M.sum(axis=0)


def update_entry(state, model, i, j):
    """MH refresh of W[i, j] for a column some other row also expresses."""
    M = state.W.to_matrix()
    sums = M.sum(axis=0)
    if sums[j] - M[i, j] < 1:
        raise ValueError(
            f"entry ({i}, {j}) is a singleton of its row; the birth/death move owns it"
        )
    if _entry_row(state, model, M, sums, i, [j]):
        state.W = FeatureArray.from_matrix(M)
    return state


def update_singletons(state, model, i):
    """Birth/death of row i's private features (see _singleton_move)."""
    M = state.W.to_matrix()
    out = _singleton_move(state, model, M, M.sum(axis=0), i)
    if out is not None:
        state.W = FeatureArray.from_matrix(out[0])
    return state


def update_theta(state, model):
    """Conjugate factor refresh through latent count allocation.

    Each observed count splits multinomially across features in proportion to
    W_{ij} Theta_{jv}; given the split, factor entries are gamma.  All cells
    with a positive count and a positive rate are split in one multinomial
    call, in row-major order.  A count on a zero rate (a state the data rule
    out) stays unsplit.  With no data the draw is the plain prior.
    """
    kappa = state.W.kappa
    if kappa < 1:
        raise ValueError("no factor rows to update on an empty array")
    rng = state.rng
    if model.y is None:
        state.Theta = rng.gamma_array(
            np.full((kappa, model.V), model.a_theta), 1.0 / model.b_theta
        )
        return state
    w_mat = state.W.to_matrix().astype(np.float64)
    rows, cols = np.nonzero(model.y)
    weights = w_mat[rows] * state.Theta.T[cols]
    total = weights.sum(axis=1)
    live = total > 0.0
    rows, cols, weights, total = rows[live], cols[live], weights[live], total[live]
    draws = rng.multinomial(model.y[rows, cols], weights / total[:, None])
    # alloc[j, v] = sum of draws[:, j] over the cells in column v
    slot = np.arange(kappa) * model.V + cols[:, None]
    alloc = np.bincount(slot.ravel(), weights=draws.ravel(), minlength=kappa * model.V)
    alloc = alloc.reshape(kappa, model.V)
    shape = model.a_theta + alloc
    rate = model.b_theta + w_mat.sum(axis=0)[:, None]
    state.Theta = rng.gamma_array(shape, 1.0 / rate)
    return state


def update_mass_T(state):
    """Exact gamma draw of the base mass: T | W ~ Gamma(alpha + kappa, beta +
    c [psi(c + n r) - psi(c)])."""
    alpha, beta = state.t_prior
    hp = state.hp
    rate = beta + hp.c * harmonic_gap(state.W.n * hp.r, hp.c)
    new_t = state.rng.gamma(alpha + state.W.kappa, 1.0 / rate)
    state.hp = Hyperparams(hp.r, hp.c, new_t)
    return state


def _slice_update(x0, log_target, rng):
    """One stepping-out/shrinkage slice move on (0, inf), unit width."""
    width, max_steps = 1.0, 1000
    f0 = log_target(x0)
    if not math.isfinite(f0):
        raise ValueError(f"slice sampling started at zero density (x0={x0!r})")
    level = f0 + math.log1p(-rng.uniform())
    lo = x0 - width * rng.uniform()
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
        x = lo + rng.uniform() * (hi - lo)
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
    hp = state.hp
    log_pmf = _log_pmf_of(state.W.n, state.W.columns)

    def slice_move(x0, prior, hp_at):
        if prior is None:
            return x0

        def target(x):
            lp = prior.log_density(x)
            if lp == -math.inf:
                return -math.inf
            return lp + log_pmf(hp_at(x))

        return _slice_update(x0, target, state.rng)

    c = slice_move(hp.c, c_prior, lambda c: Hyperparams(hp.r, c, hp.T))
    r = slice_move(hp.r, r_prior, lambda r: Hyperparams(r, c, hp.T))
    state.hp = Hyperparams(r, c, hp.T)
    return state


def sweep_once(state, model, config=ChainConfig()):
    """One full kernel pass in the fixed order: all non-singleton entries
    row-major, the per-row singleton move, Theta, T, c, r.

    The entry and singleton passes run on an int64 copy of W and its column
    sums; W is rebuilt (and validated) once after them, if anything moved.
    """
    M = state.W.to_matrix()
    sums = M.sum(axis=0)
    moved = False
    for i in range(model.n):
        cols = np.flatnonzero(sums > M[i])
        moved = _entry_row(state, model, M, sums, i, cols) or moved
    for i in range(model.n):
        out = _singleton_move(state, model, M, sums, i)
        if out is not None:
            M, sums = out
            moved = True
    if moved:
        state.W = FeatureArray.from_matrix(M)
    if state.W.kappa:
        update_theta(state, model)
    if config.mass:
        update_mass_T(state)
    if config.conc or config.shape:
        update_c_r(
            state,
            config.c_prior if config.conc else None,
            config.r_prior if config.shape else None,
        )
    state.check()
    return state


def run_chain(model, init, sweeps, rng, config=ChainConfig()):
    """Generate thinned states: the init, then every thin-th sweep's result.

    The stream is a pure function of (model, init values, sweeps, rng key).
    """
    if sweeps != int(sweeps) or sweeps < 0:
        raise ValueError(f"sweeps must be an integer >= 0, got {sweeps!r}")
    if init.W.n != model.n:
        raise ValueError(f"init has n={init.W.n} but the model has n={model.n}")
    if init.Theta.shape[1] != model.V and init.W.kappa:
        raise ValueError(
            f"init factor width {init.Theta.shape[1]} does not match V={model.V}"
        )
    state = ChainState(init.W, init.Theta.copy(), init.hp, init.t_prior, rng)
    yield state.snapshot()
    for sweep in range(1, int(sweeps) + 1):
        sweep_once(state, model, config)
        if sweep % config.thin == 0:
            yield state.snapshot()


def prior_state(model, hp, t_prior, rng, draw_T=False):
    """A fresh state from the prior: optionally T ~ Gamma(t_prior), then the
    array, then factor rows."""
    if draw_T:
        hp = Hyperparams(hp.r, hp.c, rng.gamma(t_prior[0], 1.0 / t_prior[1]))
    W = nbibp_simulate(model.n, hp, rng)
    theta = rng.gamma_array(
        np.full((W.kappa, model.V), model.a_theta), 1.0 / model.b_theta
    ).reshape(W.kappa, model.V)
    return ChainState(W, theta, hp, t_prior, rng)


def resample_counts(state, model, rng=None):
    """New model with y ~ Poisson(W Theta) drawn under the current state."""
    rng = state.rng if rng is None else rng
    if state.W.kappa:
        rates = state.W.to_matrix().astype(np.float64) @ state.Theta
    else:
        rates = np.zeros((model.n, model.V))
    return PoissonFactorModel(rng.poisson_array(rates), model.a_theta, model.b_theta)


def chain_record(state, sweep, model, full=False):
    """JSON-ready summary of one emitted state.

    log_joint is null when the state is impossible under the data (the value
    is -inf, which JSON cannot carry).
    """
    lj = log_joint(state, model)
    rec = {
        "sweep": int(sweep),
        "kappa": state.W.kappa,
        "T": state.hp.T,
        "c": state.hp.c,
        "r": state.hp.r,
        "total_count": int(sum(sum(col) for col in state.W.columns)),
        "log_joint": lj if math.isfinite(lj) else None,
    }
    if full:
        rec["W"] = [list(col) for col in state.W.columns]
        rec["Theta"] = [[float(x) for x in row] for row in state.Theta]
    return rec
