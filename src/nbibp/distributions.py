"""The three feature-count distributions used throughout the package.

* digamma distribution on {1, 2, ...}: the law of a feature's multiplicity,
  normalized by the harmonic gap psi(theta + r) - psi(theta),
* beta negative binomial (BNB) on {0, 1, ...}: a negative binomial whose
  success probability is integrated against a beta density,
* negative binomial (NB) on {0, 1, ...} with mass propto (r)_z / z! p^z (1-p)^r.

Log p.m.f.s are exact up to floating point.  Samplers draw through exact
beta / gamma / Poisson primitives only; the digamma sampler is a rejection
scheme whose proposal is BNB(r, 1, theta).  Total-mass and Laplace-transform
evaluations sum a truncated series and close it with an exact beta-integral
tail, so normalization checks hold to 1e-10 even for slowly decaying tails.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .numerics import harmonic_gap, log_beta_fn, log_rising_factorial

__all__ = [
    "DigammaParams",
    "BnbParams",
    "NbParams",
    "digamma_log_pmf",
    "digamma_sample",
    "digamma_sample_rounds",
    "digamma_mean",
    "digamma_laplace",
    "digamma_total_mass",
    "bnb_log_pmf",
    "bnb_sample",
    "bnb_mean",
    "bnb_total_mass",
    "nb_log_pmf",
    "nb_sample",
    "nb_total_mass",
]

REJECTION_CAP = 10**7


def _check_count(z, low, name):
    if z != int(z) or z < low:
        raise ValueError(f"{name} needs an integer z >= {low}, got {z!r}")
    return int(z)


@dataclass(frozen=True)
class DigammaParams:
    """Shape r > 0 and concentration theta > 0; support {1, 2, ...}."""

    r: float
    theta: float

    def __post_init__(self):
        if not (self.r > 0.0 and self.theta > 0.0):
            raise ValueError(f"DigammaParams needs r > 0 and theta > 0, got {self!r}")


@dataclass(frozen=True)
class BnbParams:
    """Count shape r > 0 and beta shapes alpha, beta > 0; support {0, 1, ...}."""

    r: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.r > 0.0 and self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"BnbParams needs r, alpha, beta > 0, got {self!r}")


@dataclass(frozen=True)
class NbParams:
    """Shape r > 0 and success probability p in (0, 1].

    p = 1 is admitted as a parameter value (it arises as a boundary of the
    conjugate updates) but p.m.f. evaluation and sampling reject it: all mass
    would sit at infinity, so no distribution on the integers exists there.
    """

    r: float
    p: float

    def __post_init__(self):
        if not (self.r > 0.0 and 0.0 < self.p <= 1.0):
            raise ValueError(f"NbParams needs r > 0 and p in (0, 1], got {self!r}")


# ---------------------------------------------------------------------------
# log p.m.f.s


def digamma_log_pmf(params, z):
    z = _check_count(z, 1, "digamma_log_pmf")
    r, theta = params.r, params.theta
    return (
        -math.log(harmonic_gap(r, theta))
        + log_rising_factorial(r, z)
        - log_rising_factorial(r + theta, z)
        - math.log(z)
    )


def bnb_log_pmf(params, z):
    z = _check_count(z, 0, "bnb_log_pmf")
    r, a, b = params.r, params.alpha, params.beta
    return (
        log_rising_factorial(r, z)
        - math.lgamma(z + 1)
        + log_beta_fn(z + a, r + b)
        - log_beta_fn(a, b)
    )


def nb_log_pmf(params, z):
    z = _check_count(z, 0, "nb_log_pmf")
    if params.p == 1.0:
        raise ValueError("nb_log_pmf is undefined at p = 1: no mass on finite counts")
    r, p = params.r, params.p
    return (
        log_rising_factorial(r, z)
        - math.lgamma(z + 1)
        + z * math.log(p)
        + r * math.log1p(-p)
    )


# ---------------------------------------------------------------------------
# means


def digamma_mean(params):
    """r / ((theta - 1)(psi(theta + r) - psi(theta))); finite only for theta > 1."""
    if params.theta <= 1.0:
        raise ValueError(f"digamma mean diverges for theta <= 1, got theta={params.theta!r}")
    return params.r / ((params.theta - 1.0) * harmonic_gap(params.r, params.theta))


def bnb_mean(params):
    """r alpha / (beta - 1); finite only for beta > 1."""
    if params.beta <= 1.0:
        raise ValueError(f"BNB mean diverges for beta <= 1, got beta={params.beta!r}")
    return params.r * params.alpha / (params.beta - 1.0)


# ---------------------------------------------------------------------------
# samplers


def _nb_draw(r, p, rng):
    """One NB(r, p) count through the gamma-Poisson mixture.

    Caps the Poisson rate at 1e18 so a beta draw that rounds to 1.0 cannot
    crash the Poisson sampler; the cap is reachable only on events of
    probability below 1e-15 for the parameter ranges this package uses.
    """
    if p <= 0.0:
        return 0
    q = 1.0 - p
    lam = rng.gamma(r) * (p / max(q, 1e-300))
    return int(rng.poisson(min(lam, 1e18)))


def nb_sample(params, rng):
    if params.p == 1.0:
        raise ValueError("nb_sample is undefined at p = 1: no mass on finite counts")
    return _nb_draw(params.r, params.p, rng)


def bnb_sample(params, rng):
    p = rng.beta(params.alpha, params.beta)
    return _nb_draw(params.r, p, rng)


def digamma_sample_rounds(params, rng):
    """Draw one digamma count; also report how many proposal rounds it took.

    Rejection scheme: propose Y ~ BNB(r, 1, theta) (a beta(1, theta) mixed
    negative binomial), accept when max(r, 1) U < (Y + r)/(Y + 1), and return
    Y + 1.  The expected number of rounds is max(r, 1)/(theta (psi(theta+r) -
    psi(theta))), which stays below max(r, 1/r) for every parameter choice.
    """
    r, theta = params.r, params.theta
    bound = max(r, 1.0)
    for rounds in range(1, REJECTION_CAP + 1):
        p = rng.beta(1.0, theta)
        y = _nb_draw(r, p, rng)
        if bound * rng.uniform() < (y + r) / (y + 1.0):
            return y + 1, rounds
    raise RuntimeError(
        f"digamma rejection sampler exceeded {REJECTION_CAP} rounds at {params!r}; "
        "this indicates a broken stream or corrupted parameters"
    )


def digamma_sample(params, rng):
    return digamma_sample_rounds(params, rng)[0]


# ---------------------------------------------------------------------------
# series machinery: head sums closed by exact beta-integral tails
#
# Both the digamma and the BNB p.m.f. have power-law tails (orders theta and
# beta), so a term-ratio truncation rule alone cannot certify 1e-10 accuracy;
# the geometric tail bound it suggests is not even valid as the ratios climb
# toward 1.  Writing the rising-factorial ratio as a beta integral turns the
# whole tail into one smooth 1-d integral, which quadrature nails to ~1e-13:
#
#   sum_{z>Z} e^{-tz} (r)_z / ((r+theta)_z z)
#       = (1/B(r,theta)) int_0^1 x^{r-1} (1-x)^{theta-1} R_Z(x e^{-t}) dx,
#   R_Z(y) = sum_{z>Z} y^z / z = -log(1-y) - sum_{z<=Z} y^z / z,
#
# and likewise for the BNB with remainder T_Z(y) = (1-y)^{-r} - partial
# binomial series.  For t > 0 a genuinely geometric bound (ratio < e^{-t})
# lets the integral be skipped once the bound drops below 1e-14.

_HEAD_TERMS = 128


def _head_length(t):
    # For t > 0, extend the head until e^{-tZ} alone certifies the tail, so
    # the quadrature is skipped whenever t is not tiny.
    if t <= 0.0:
        return _HEAD_TERMS
    return int(min(4096, max(_HEAD_TERMS, math.ceil(40.0 / t))))


def _quad_piece(f, a, b, what):
    out = quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=400, full_output=1)
    val, abserr = out[0], out[1]
    # QUADPACK's estimate is conservative by 2-3 orders on these integrands;
    # the gate is sized to catch genuine non-convergence, while achieved
    # accuracy (~1e-12) is pinned down by the normalization tests.
    if abserr > 1e-9:
        raise RuntimeError(f"quadrature failed to converge for {what}: abserr={abserr!r}")
    return val


def _beta_weighted_integral(a, b, g, what):
    """int_0^1 x^{a-1} (1-x)^{b-1} g(x) dx, g bounded or log-singular at 1.

    Split at 1/2.  A piece whose endpoint weight is singular (shape < 1) is
    computed under the substitution v = x^a resp. u = (1-x)^b, which absorbs
    the algebraic singularity exactly; a piece with shape >= 1 is already
    continuous and is integrated as is.  Substituting when the shape exceeds
    one would be wrong-headed: it compresses the integrand into an
    unresolvable boundary layer instead of stretching it.
    """

    def plain(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        gx = g(x)
        if gx == 0.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)) * gx

    total = 0.0
    if a < 1.0:

        def low(v):
            x = v ** (1.0 / a)
            if x <= 0.0:
                return 0.0
            gx = g(min(x, 0.5))
            if gx == 0.0:
                return 0.0
            return math.exp((b - 1.0) * math.log1p(-x)) * gx / a

        total += _quad_piece(low, 0.0, 0.5**a, what)
    else:
        total += _quad_piece(plain, 0.0, 0.5, what)
    if b < 1.0:

        def high(u):
            x = 1.0 - u ** (1.0 / b)
            x = min(max(x, 0.5), 1.0 - 1e-16)
            gx = g(x)
            if gx == 0.0:
                return 0.0
            return math.exp((a - 1.0) * math.log(x)) * gx / b

        total += _quad_piece(high, 0.0, 0.5**b, what)
    else:
        total += _quad_piece(plain, 0.5, 1.0, what)
    return total


def _tail_sum(log_first, y, r, z):
    """Sum of the series terms from index z on, where term z is exp(log_first)
    and each next term is the last times y (r + z - 1) / z; stops once a term
    no longer moves the total."""
    if log_first < -700.0:
        return 0.0
    term = math.exp(log_first)
    total = 0.0
    while term > total * 1e-17 + 1e-320:
        total += term
        z += 1
        term *= y * (r + z - 1) / z
    return total


def _log_series_remainder(y, zs, inv_zs):
    """R_Z(y) = sum over z > Z of y^z / z, for 0 <= y < 1."""
    Z = len(zs)
    if y <= 0.0:
        return 0.0
    if y > 0.8:
        partial = float(np.dot(np.power(y, zs), inv_zs))
        return -math.log1p(-y) - partial
    # r = 0.0 gives the ratio y (z - 1) / z, bit for bit
    return _tail_sum((Z + 1) * math.log(y) - math.log(Z + 1), y, 0.0, Z + 1)


def _digamma_weighted_mass(params, t):
    """sum_{z>=1} e^{-tz} pmf(z) for the digamma distribution."""
    r, theta = params.r, params.theta
    log_xi = math.log(harmonic_gap(r, theta))
    zs = np.arange(1, _head_length(t) + 1)
    log_u = (
        gammaln(r + zs)
        - gammaln(r)
        - gammaln(r + theta + zs)
        + gammaln(r + theta)
        - np.log(zs)
    )
    head_terms = np.exp(log_u - t * zs - log_xi)
    head = float(head_terms.sum())
    last = float(head_terms[-1])
    if t > 0.0:
        rho = math.exp(-t)
        bound = last * rho / (1.0 - rho)
        if bound < 1e-14:
            return head
    emt = math.exp(-t)
    inv_zs = 1.0 / zs
    log_b = log_beta_fn(r, theta)

    def remainder(x):
        return _log_series_remainder(x * emt, zs, inv_zs)

    tail = _beta_weighted_integral(
        r, theta, remainder, f"digamma tail at {params!r}, t={t!r}"
    )
    return head + math.exp(-log_xi - log_b) * tail


def _bnb_damped_remainder(x, r, coefs_rev):
    """(1-x)^r T_Z(x), T_Z(y) = sum over z > Z of (r)_z y^z / z!.

    Folding the (1-x)^r factor in keeps the value bounded as x -> 1, where
    T_Z alone blows up like (1-x)^{-r}.
    """
    Z = len(coefs_rev) - 1
    if x <= 0.0:
        return 0.0
    damp = r * math.log1p(-x)
    if x > 0.8:
        partial = 0.0
        for coef in coefs_rev:  # Horner, as np.polyval, without its per-step overhead
            partial = partial * x + coef
        # (1-x)^r (1-x)^{-r} is exactly 1.0
        return 1.0 - math.exp(damp) * partial
    log_first = (
        log_rising_factorial(r, Z + 1) - math.lgamma(Z + 2) + (Z + 1) * math.log(x)
    )
    return math.exp(damp) * _tail_sum(log_first, x, r, Z + 1)


def digamma_total_mass(params):
    """Total p.m.f. mass (should be 1); the package's normalization oracle."""
    return _digamma_weighted_mass(params, 0.0)


def bnb_total_mass(params):
    """Total BNB mass: a _HEAD_TERMS head closed by the beta-integral tail."""
    r, a, b = params.r, params.alpha, params.beta
    zs = np.arange(0, _HEAD_TERMS + 1)
    log_u = gammaln(r + zs) - gammaln(r) - gammaln(zs + 1)
    log_b_ab = log_beta_fn(a, b)
    head_terms = np.exp(
        log_u + gammaln(zs + a) + gammaln(r + b) - gammaln(zs + a + r + b) - log_b_ab
    )
    coefs_rev = np.exp(log_u)[::-1].tolist()
    tail = _beta_weighted_integral(
        a, b, lambda x: _bnb_damped_remainder(x, r, coefs_rev), f"BNB tail at {params!r}"
    )
    return float(head_terms.sum()) + math.exp(-log_b_ab) * tail


def nb_total_mass(params):
    """Total NB mass by plain geometric-tail truncation (valid: ratio -> p < 1)."""
    if params.p == 1.0:
        raise ValueError("nb_total_mass is undefined at p = 1")
    r, p = params.r, params.p
    total = 0.0
    term = math.exp(r * math.log1p(-p))  # z = 0
    z = 0
    while True:
        total += term
        z += 1
        term *= p * (r + z - 1) / z
        rho = p * max(1.0, (r + z) / (z + 1))
        if rho < 1.0 and term * rho / (1.0 - rho) < 1e-14:
            return total + term
        if z > 10**7:
            raise RuntimeError(f"nb_total_mass failed to converge at {params!r}")


# ---------------------------------------------------------------------------
# Laplace transform


def _digamma_laplace_quadrature(params, t):
    """1 - (1/xi) int_0^1 [1 - ((1-p)/(1-p e^{-t}))^r] p^{-1} (1-p)^{theta-1} dp."""
    r, theta = params.r, params.theta
    xi = harmonic_gap(r, theta)
    emt = math.exp(-t)

    def bracket_over_p(p):
        # -> r (1 - e^{-t}) as p -> 0, so the integrand carries no pole.
        rho = r * (math.log1p(-p) - math.log1p(-p * emt))
        return -math.expm1(rho) / p

    val = _beta_weighted_integral(
        1.0, theta, bracket_over_p, f"Laplace quadrature at {params!r}, t={t!r}"
    )
    return 1.0 - val / xi


def digamma_laplace(params, t):
    """E[e^{-t Z}] for Z digamma-distributed, t >= 0.

    Evaluated two ways, a truncated series with an exact integral tail and a
    direct quadrature of the mixed-geometric representation; the series value
    is returned and a disagreement beyond 1e-8 (quadrature non-convergence)
    raises.
    """
    if t < 0.0:
        raise ValueError(f"digamma_laplace needs t >= 0, got {t!r}")
    series = _digamma_weighted_mass(params, t)
    by_quad = _digamma_laplace_quadrature(params, t)
    if abs(series - by_quad) > 1e-8:
        raise RuntimeError(
            f"Laplace routes disagree at {params!r}, t={t!r}: "
            f"series={series!r}, quadrature={by_quad!r}"
        )
    return series
