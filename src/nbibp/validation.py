"""Statistical verification suites.

Each suite draws fresh data under an explicit seed, checks one analytic
property of the package against its stated tolerance, and returns a
JSON-ready result.  The command-line `validate` subcommand and the
acceptance test battery both run these same functions, so a shipped wheel
can re-verify itself in the field.

Error bars on chain output use the integrated autocorrelation time; naive
batch errors understate chain noise badly enough to flip verdicts (sweep
autocorrelation times here run 30 to 40 sweeps).
"""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, psi
from scipy.stats import chi2 as _chi2

from .distributions import (
    BnbParams,
    DigammaParams,
    bnb_log_pmf,
    bnb_total_mass,
    digamma_log_pmf,
    digamma_sample_rounds,
    digamma_total_mass,
)
from .generative import nbibp_simulate, truncated_oracle_simulate
from .inference import (
    ChainConfig,
    PoissonFactorModel,
    prior_state,
    resample_counts,
    sweep_once,
)
from .numerics import RngStream, harmonic_gap
from .structures import (
    CombStruct,
    FeatureArray,
    Hyperparams,
    from_array,
    log_pmf_struct,
    project,
    struct_from_json,
    struct_to_json,
)

__all__ = [
    "SuiteResult",
    "SUITES",
    "run_suites",
    "autocorr_time",
    "mean_with_se",
    "gof_chi_square",
    "two_sample_chi_square",
    "tail_aggregated_tv",
]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    seconds: float
    metrics: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "seconds": round(self.seconds, 3),
            "metrics": self.metrics,
        }


# ---------------------------------------------------------------------------
# statistical helpers


def autocorr_time(x):
    """Integrated autocorrelation time, truncated at lag 500 or the first below 0.05."""
    x = np.asarray(x, dtype=np.float64)
    x = x - x.mean()
    v = float((x * x).mean())
    if v == 0.0:
        return 1.0
    tau = 1.0
    for k in range(1, min(500, len(x) // 3)):
        rho = float((x[:-k] * x[k:]).mean()) / v
        if rho < 0.05:
            break
        tau += 2.0 * rho
    return tau


def mean_with_se(x, correlated=False):
    """(mean, standard error); correlated=True inflates by autocorrelation."""
    x = np.asarray(x, dtype=np.float64)
    se = x.std(ddof=1) / math.sqrt(len(x))
    if correlated:
        se *= math.sqrt(autocorr_time(x))
    return float(x.mean()), float(se)


def gof_chi_square(counts, prob_of, reps):
    """Goodness of fit of observed category counts against exact probabilities.

    Categories with expected count >= 10 keep their own cell; the
    rest pool into a single tail cell whose probability is exact.  Returns
    (p_value, cells, chi2).
    """
    chi2 = 0.0
    cells = 0
    covered = 0.0
    tail_obs = reps
    for key, obs in counts.items():
        pr = prob_of(key)
        if pr * reps < 10.0:
            continue
        chi2 += (obs - pr * reps) ** 2 / (pr * reps)
        covered += pr
        tail_obs -= obs
        cells += 1
    tail_exp = max((1.0 - covered) * reps, 1e-12)
    chi2 += (tail_obs - tail_exp) ** 2 / tail_exp
    return float(_chi2.sf(chi2, cells)), cells, float(chi2)


def _pooled_cells(counts_a, counts_b, min_pooled):
    """(count in a, count in b) for each category with pooled count at least
    min_pooled, in sorted category order so sums do not depend on hashing."""
    cells = []
    for k in sorted(set(counts_a) | set(counts_b)):
        a, b = counts_a.get(k, 0), counts_b.get(k, 0)
        if a + b >= min_pooled:
            cells.append((a, b))
    return cells


def two_sample_chi_square(counts_a, counts_b):
    """Homogeneity test for two equal-size empirical category distributions.

    Cells with pooled count below 20 merge into the tail cell.
    """
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    cells = _pooled_cells(counts_a, counts_b, 20)
    cells.append((na - sum(a for a, _ in cells), nb - sum(b for _, b in cells)))
    chi2 = 0.0
    for a, b in cells:
        tot = a + b
        if tot == 0:
            continue
        ea = tot * na / (na + nb)
        eb = tot * nb / (na + nb)
        chi2 += (a - ea) ** 2 / ea + (b - eb) ** 2 / eb
    dof = max(len(cells) - 1, 1)
    return float(_chi2.sf(chi2, dof)), len(cells), float(chi2)


def tail_aggregated_tv(counts_a, counts_b):
    """Total variation between two equal-size empirical laws after pooling
    every category with combined count < 40 into one tail cell."""
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    cells = _pooled_cells(counts_a, counts_b, 40)
    acc = 0.0
    ta, tb = 1.0, 1.0
    for a, b in cells:
        pa = a / na
        pb = b / nb
        acc += abs(pa - pb)
        ta -= pa
        tb -= pb
    return 0.5 * (acc + abs(ta - tb)), len(cells)


def _param_grid():
    vals = (0.5, 1.0, 1.5, 2.0, 5.0)
    return [(r, th) for r in vals for th in vals]


def _struct_counter(draws):
    out = {}
    for arr in draws:
        key = struct_to_json(from_array(arr))
        out[key] = out.get(key, 0) + 1
    return out


def _chain_pull(chain, fwd):
    """(pull, chain mean, forward mean) of a chain series against i.i.d.
    forward draws; the chain's standard error counts its autocorrelation."""
    mc, sc = mean_with_se(chain, correlated=True)
    mf, sf = mean_with_se(fwd)
    return (mc - mf) / math.hypot(sc, sf), mc, mf


# ---------------------------------------------------------------------------
# suites

SUITES = {}


def _suite(name):
    """Register a suite under `name`.  The decorated function returns
    (passed, metrics); the registered one times it and wraps a SuiteResult."""

    def register(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            passed, metrics = fn(*args, **kwargs)
            return SuiteResult(name, passed, time.perf_counter() - t0, metrics)

        SUITES[name] = run
        return run

    return register


@_suite("digamma-identity")
def suite_digamma_identity(seed=0):
    """pmf_digamma(z; r, t) = (t xi)^{-1} (z-1+r)/z pmf_bnb(z-1; r, 1, t)."""
    worst = 0.0
    for r, th in _param_grid():
        dig = DigammaParams(r, th)
        bnb = BnbParams(r, 1.0, th)
        pref = 1.0 / (th * harmonic_gap(r, th))
        for z in range(1, 201):
            lhs = math.exp(digamma_log_pmf(dig, z))
            rhs = pref * (z - 1.0 + r) / z * math.exp(bnb_log_pmf(bnb, z - 1))
            worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-10, {"max_abs_err": worst}


@_suite("normalization")
def suite_normalization(seed=0):
    """Total p.m.f. mass equals 1 within 1e-10 across the parameter grid."""
    worst = 0.0
    for r, th in _param_grid():
        worst = max(worst, abs(digamma_total_mass(DigammaParams(r, th)) - 1.0))
        worst = max(worst, abs(bnb_total_mass(BnbParams(r, 1.0, th)) - 1.0))
    return worst <= 1e-10, {"max_abs_err": worst}


@_suite("rejection-sampler")
def suite_rejection_sampler(seed=20):
    """Sampler matches its p.m.f. (chi-square) and its round-count budget."""
    reps = 100000
    metrics = {}
    ok = True
    for idx, (r, th) in enumerate([(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)]):
        rng = RngStream(seed, idx)
        params = DigammaParams(r, th)
        draws = np.empty(reps, dtype=np.int64)
        rounds = np.empty(reps, dtype=np.int64)
        for k in range(reps):
            z, m = digamma_sample_rounds(params, rng)
            draws[k] = z
            rounds[k] = m
        vals, cnts = np.unique(draws, return_counts=True)
        counts = dict(zip(vals.tolist(), cnts.tolist()))
        pval, cells, _ = gof_chi_square(
            counts, lambda z: math.exp(digamma_log_pmf(params, z)), reps
        )
        want = max(r, 1.0) / (th * harmonic_gap(r, th))
        mean, se = mean_with_se(rounds)
        # r=1, theta=1 accepts every round: zero spread, exact agreement
        pull = (mean - want) / se if se > 0.0 else (0.0 if abs(mean - want) < 1e-12 else math.inf)
        key = f"r{r}_t{th}"
        metrics[key] = {
            "gof_p": pval,
            "cells": cells,
            "rounds_mean": mean,
            "rounds_want": want,
            "rounds_pull": pull,
        }
        ok = ok and pval > 0.001 and abs(pull) <= 3.0
    return ok, metrics


@_suite("simulator-pmf")
def suite_simulator_pmf(seed=40):
    """Sequential draws at n=2 match the exact structure p.m.f."""
    reps = 100000
    hp = Hyperparams(1.0, 1.0, 0.5)
    rng = RngStream(seed, 0)
    counts = _struct_counter(nbibp_simulate(2, hp, rng) for _ in range(reps))
    pval, cells, chi2 = gof_chi_square(
        counts, lambda key: math.exp(log_pmf_struct(struct_from_json(key), hp)), reps
    )
    return pval > 0.001, {"p": pval, "cells": cells, "chi2": chi2, "reps": reps}


@_suite("two-construction")
def suite_two_construction(seed=50):
    """Buffet route and truncated weight-measure route agree in law."""
    reps, epsilon = 100000, 1e-4
    hp = Hyperparams(1.0, 1.0, 0.5)
    rng_a = RngStream(seed, 0)
    rng_b = RngStream(seed, 1)
    ca = _struct_counter(nbibp_simulate(2, hp, rng_a) for _ in range(reps))
    cb = _struct_counter(
        truncated_oracle_simulate(2, hp, epsilon, rng_b) for _ in range(reps)
    )
    tv, cells = tail_aggregated_tv(ca, cb)
    return tv <= 0.02, {"tv": tv, "cells": cells, "epsilon": epsilon, "reps": reps}


@_suite("exchangeability")
def suite_exchangeability(seed=60):
    """Row order is immaterial, empirically and algebraically."""
    reps = 40000
    hp = Hyperparams(1.0, 1.0, 1.0)
    perm = (2, 0, 1)
    rng_a = RngStream(seed, 0)
    rng_b = RngStream(seed, 1)

    def permuted(arr):
        cols = tuple(tuple(col[p] for p in perm) for col in arr.columns)
        return FeatureArray(arr.n, cols)

    draws_a = [nbibp_simulate(3, hp, rng_a) for _ in range(reps)]
    ca = _struct_counter(draws_a)
    cb = _struct_counter(permuted(nbibp_simulate(3, hp, rng_b)) for _ in range(reps))
    worst = 0.0
    for a in draws_a[:500]:
        if a.kappa:
            worst = max(
                worst,
                abs(
                    log_pmf_struct(from_array(a), hp)
                    - log_pmf_struct(from_array(permuted(a)), hp)
                ),
            )
    pval, cells, chi2 = two_sample_chi_square(ca, cb)
    return (
        pval > 0.001 and worst <= 1e-12,
        {"p": pval, "cells": cells, "chi2": chi2, "max_alg_err": worst, "perm": list(perm)},
    )


@_suite("projection")
def suite_projection(seed=70):
    """Dropping the last row of an (n+1)-row draw reproduces the n-row law."""
    reps = 40000
    hp = Hyperparams(1.0, 1.0, 1.0)
    rng_a = RngStream(seed, 0)
    rng_b = RngStream(seed, 1)
    ca = {}
    for _ in range(reps):
        s = project(from_array(nbibp_simulate(3, hp, rng_a)), 2)
        key = struct_to_json(s)
        ca[key] = ca.get(key, 0) + 1
    cb = _struct_counter(nbibp_simulate(2, hp, rng_b) for _ in range(reps))
    pval, cells, chi2 = two_sample_chi_square(ca, cb)
    one = CombStruct(3, {(1, 0, 2): 1, (0, 1, 0): 2})
    deterministic = (
        project(one, 2) == CombStruct(2, {(1, 0): 1, (0, 1): 2})
        and project(one, 1) == CombStruct(1, {(1,): 1})
        and project(one, 3) == one
    )
    return (
        pval > 0.001 and deterministic,
        {"p": pval, "cells": cells, "chi2": chi2, "deterministic": deterministic},
    )


@_suite("expected-kappa")
def suite_expected_kappa(seed=80):
    """E[number of features] = c T [psi(c + n r) - psi(c)], incl. the r=1
    harmonic-number case T (1 + 1/2 + ... + 1/n)."""
    reps = 20000
    metrics = {}
    ok = True
    for idx, (r, c, T, n) in enumerate(
        [(1.0, 1.0, 1.0, 5), (2.0, 1.5, 0.8, 3), (0.5, 2.0, 1.0, 4)]
    ):
        rng = RngStream(seed, idx)
        want = c * T * (psi(c + n * r) - psi(c))
        ks = np.array(
            [nbibp_simulate(n, Hyperparams(r, c, T), rng).kappa for _ in range(reps)],
            dtype=np.float64,
        )
        mean, se = mean_with_se(ks)
        pull = (mean - want) / se
        entry = {"mean": mean, "want": float(want), "pull": pull}
        if r == 1.0:
            harmonic = T * sum(1.0 / k for k in range(1, n + 1))
            entry["harmonic_closed_form"] = harmonic
            entry["harmonic_err"] = abs(want - harmonic)
            ok = ok and abs(want - harmonic) <= 1e-12
        metrics[f"r{r}_c{c}_T{T}_n{n}"] = entry
        ok = ok and abs(pull) <= 3.0
    return ok, metrics


@_suite("prior-restoration")
def suite_prior_restoration(seed=301):
    """Flat-likelihood MCMC leaves the prior invariant at n=3, r=c=T=1.

    The total serving count has an infinite prior mean here (its tail decays
    like z^{-2}), so its comparison is self-normalized: both sides estimate
    the same truncated functional and the pull stays calibrated.
    """
    sweeps, forward_reps = 10000, 20000
    hp = Hyperparams(1.0, 1.0, 1.0)
    model = PoissonFactorModel(None, n=3, V=2)
    cfg = ChainConfig(mass=False, conc=False, shape=False)
    rng = RngStream(seed, 0)
    state = prior_state(model, hp, (1.0, 1.0), rng)
    ks = np.empty(sweeps)
    ws = np.empty(sweeps)
    for s in range(sweeps):
        sweep_once(state, model, cfg)
        ks[s] = state.W.kappa
        ws[s] = sum(sum(col) for col in state.W.columns)
    rng_f = RngStream(seed, 1)
    fk = np.empty(forward_reps)
    fw = np.empty(forward_reps)
    for s in range(forward_reps):
        arr = nbibp_simulate(3, hp, rng_f)
        fk[s] = arr.kappa
        fw[s] = sum(sum(col) for col in arr.columns)

    pk, mck, mfk = _chain_pull(ks, fk)
    pw, mcw, mfw = _chain_pull(ws, fw)
    pv, mcv, mfv = _chain_pull((ks - ks.mean()) ** 2, (fk - fk.mean()) ** 2)
    ok = abs(pk) <= 3.0 and abs(pw) <= 3.0 and abs(pv) <= 3.0
    return ok, {
        "kappa": {"chain": mck, "forward": mfk, "pull": pk},
        "kappa_var": {"chain": mcv, "forward": mfv, "pull": pv},
        "total_count": {"chain": mcw, "forward": mfw, "pull": pw},
        "exact_kappa_mean": float(psi(4.0) - psi(1.0)),
        "sweeps": sweeps,
    }


@_suite("geweke")
def suite_geweke(seed=223):
    """Forward vs successive-conditional moments on the Poisson factor model.

    n=3, V=2, r=1, c=3 (c large enough for finite count variance), T under a
    Gamma(4,4) prior so the mass kernel is exercised; c and r stay pinned.
    """
    iters, forward_reps = 30000, 12000
    hp = Hyperparams(1.0, 3.0, 1.0)
    t_prior = (4.0, 4.0)
    model = PoissonFactorModel(None, n=3, V=2)
    cfg = ChainConfig(mass=True, conc=False, shape=False)

    def stats(st, m):
        return st.W.kappa, sum(sum(c) for c in st.W.columns), int(m.y.sum()), st.hp.T

    rng_f = RngStream(seed, 1)
    F = np.empty((forward_reps, 4))
    for k in range(forward_reps):
        st = prior_state(model, hp, t_prior, rng_f, draw_T=True)
        m = resample_counts(st, model, rng_f)
        F[k] = stats(st, m)
    rng_c = RngStream(seed, 2)
    state = prior_state(model, hp, t_prior, rng_c, draw_T=True)
    m = resample_counts(state, model, rng_c)
    G = np.empty((iters, 4))
    for k in range(iters):
        sweep_once(state, m, cfg)
        m = resample_counts(state, m, rng_c)
        G[k] = stats(state, m)
    metrics = {}
    ok = True
    for t, nm in enumerate(["kappa", "total_count", "data_total", "T"]):
        pull, mc, mf = _chain_pull(G[:, t], F[:, t])
        metrics[nm] = {"forward": mf, "chain": mc, "pull": pull}
        ok = ok and abs(pull) <= 3.0
    metrics["iters"] = iters
    return ok, metrics


@_suite("t-update")
def suite_t_update(seed=0):
    """The mass conditional T^{alpha+kappa-1} e^{-(beta + c xi_n) T} normalizes
    to the gamma law the kernel draws from, settling its rate term."""
    worst = 0.0
    for (r, c, n, kappa, alpha, beta) in [
        (1.0, 1.0, 3, 2, 1.0, 1.0),
        (2.0, 0.5, 2, 0, 2.0, 3.0),
        (0.5, 2.0, 4, 5, 1.5, 0.7),
        (1.0, 1.0, 1, 1, 1.0, 1.0),
        (3.0, 4.0, 5, 8, 0.5, 2.0),
    ]:
        xi = c * (psi(c + n * r) - psi(c))
        rate = beta + xi
        shape = alpha + kappa
        val, err = quad(
            lambda t: t ** (shape - 1.0) * math.exp(-rate * t),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        norst = abs(val * rate ** shape / math.exp(gammaln(shape)) - 1.0)
        worst = max(worst, norst)
    return worst <= 1e-8, {"max_norm_err": worst}


def run_suites(names=None, seed=None):
    """Run the named suites (all by default); a seed replaces every suite's
    pinned default seed so independent reruns are possible."""
    results = []
    for name in names or SUITES:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        fn = SUITES[name]
        results.append(fn() if seed is None else fn(seed=seed))
    return results
