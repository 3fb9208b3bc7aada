"""The three feature-count distributions used throughout the package.

* digamma distribution on {1, 2, ...}: the law of a feature's multiplicity,
  normalized by the harmonic gap psi(theta + r) - psi(theta),
* beta negative binomial (BNB) on {0, 1, ...}: a negative binomial whose
  success probability is integrated against a beta density,
* negative binomial (NB) on {0, 1, ...} with mass propto (r)_z / z! p^z (1-p)^r.

Log p.m.f.s are exact up to floating point.  Every rising-factorial ratio
is a beta function: (r)_z / (r+theta)_z = B(r+z, theta) / B(r, theta), and
(r)_z / z! = 1 / (B(r, z+1) (r+z)), the one form shared with the array
p.m.f.  scipy's betaln keeps these accurate at huge counts (10**12 and up),
where differences of log-gammas lose digits.  Samplers draw through exact
beta / gamma / Poisson primitives only; the digamma sampler is a rejection
scheme whose proposal is BNB(r, 1, theta).  The digamma and BNB total masses
sum their log p.m.f.s over a head and close it with an exact beta-integral
tail in s = -log(1-x) near x = 1, so normalization checks hold to 1e-10
even for slow tails.  The NB mass is 1 by the negative binomial theorem.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln

from .numerics import harmonic_gap

__all__ = [
    "DigammaParams",
    "BnbParams",
    "NbParams",
    "digamma_log_pmf",
    "digamma_sample",
    "digamma_sample_rounds",
    "digamma_total_mass",
    "bnb_log_pmf",
    "bnb_sample",
    "bnb_total_mass",
    "nb_log_pmf",
    "nb_sample",
]

REJECTION_CAP = 10**7


def _check_count(z, low, name):
    if z != int(z) or z < low:
        raise ValueError(f"{name} needs an integer z >= {low}, got {z!r}")
    return int(z)


@dataclass(frozen=True)
class DigammaParams:
    """Finite shape r > 0 and concentration theta > 0; support {1, 2, ...}."""

    r: float
    theta: float

    def __post_init__(self):
        if not (0.0 < self.r < math.inf and 0.0 < self.theta < math.inf):
            raise ValueError(f"DigammaParams needs finite r, theta > 0, got {self!r}")

    @classmethod
    def _unchecked(cls, r, theta):
        """The params of a finite r > 0 and theta > 0, built without
        __post_init__: only for values derived from checked Hyperparams."""
        params = object.__new__(cls)
        object.__setattr__(params, "r", r)
        object.__setattr__(params, "theta", theta)
        return params


@dataclass(frozen=True)
class BnbParams:
    """Finite count shape r > 0 and beta shapes alpha, beta > 0; support {0, 1, ...}."""

    r: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (
            0.0 < self.r < math.inf and 0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf
        ):
            raise ValueError(f"BnbParams needs finite r, alpha, beta > 0, got {self!r}")


@dataclass(frozen=True)
class NbParams:
    """Finite shape r > 0 and success probability p in (0, 1).

    p = 1 is refused: all mass would sit at infinity, so no distribution on
    the integers exists there.
    """

    r: float
    p: float

    def __post_init__(self):
        if not (0.0 < self.r < math.inf and 0.0 < self.p < 1.0):
            raise ValueError(f"NbParams needs finite r > 0 and p in (0, 1), got {self!r}")


# ---------------------------------------------------------------------------
# log p.m.f.s


def _log_rising_over_factorial(r, z):
    """log (r)_z / z! = -log B(r, z + 1) - log(r + z), for a count z >= 0 or
    an array of them; the coefficient of the NB and BNB laws and of each
    entry of the array p.m.f."""
    return -betaln(r, z + 1.0) - np.log(r + z)


def digamma_log_pmf(params, z):
    z = _check_count(z, 1, "digamma_log_pmf")
    r, theta = params.r, params.theta
    return float(
        betaln(r + z, theta)
        - betaln(r, theta)
        - math.log(harmonic_gap(r, theta))
        - math.log(z)
    )


def bnb_log_pmf(params, z):
    z = _check_count(z, 0, "bnb_log_pmf")
    r, a, b = params.r, params.alpha, params.beta
    return float(_log_rising_over_factorial(r, z) + betaln(z + a, r + b) - betaln(a, b))


def nb_log_pmf(params, z):
    z = _check_count(z, 0, "nb_log_pmf")
    r, p = params.r, params.p
    return float(_log_rising_over_factorial(r, z) + z * math.log(p) + r * math.log1p(-p))


# ---------------------------------------------------------------------------
# samplers


# The guards of every NB draw: 1 - p is floored at Q_FLOOR and the Poisson
# rate capped at RATE_CAP, so a beta draw that rounds to 1.0 cannot crash
# the Poisson sampler.
Q_FLOOR = 1e-300
RATE_CAP = 1e18


def _nb_draw(r, p, rng, _gamma=None):
    """One NB(r, p) count, a Python int, through the gamma-Poisson mixture:
    one gamma then one Poisson draw from rng, none when p <= 0.  Given
    _gamma, a Gamma(r) variate drawn ahead, it makes the Poisson draw alone:
    update_entry passes one from its row's single gamma call, and the buffet
    passes none.

    Floors 1 - p at Q_FLOOR and caps the Poisson rate at RATE_CAP.  Both
    guards are plain comparisons, which run on every draw of the buffet and
    the entry kernel; on the finite, non-NaN values a gamma and a beta draw
    give they equal max(q, Q_FLOOR) and min(rate, RATE_CAP).  The cap is
    reached in practice: a cold infer chain whose c/r moves drift to tiny c
    and r (about 0.07 and 0.004) draws betas that round to 1, and its entries
    land near 1e18.  The cap bounds each draw, not a sum of them;
    update_entry rejects a proposal that would carry its column sum past
    int64.
    """
    if p <= 0.0:
        return 0
    q = 1.0 - p
    lam = (rng.gamma(r) if _gamma is None else _gamma) * (p / (q if q > Q_FLOOR else Q_FLOOR))
    return rng.poisson(lam if lam < RATE_CAP else RATE_CAP)


def _nb_fill(p, gammas, rng):
    """_nb_draw over arrays: an int64 array of NB counts for the success
    probabilities p with their Gamma(r) variates gammas drawn ahead, under the
    same guards, from one Poisson call.  p <= 0 gives rate 0, for which
    numpy's Poisson sampler returns 0 with no draw, so the counts and the
    stream position equal _nb_draw(r, p_k, rng, gammas_k) called for each k
    in turn."""
    lam = gammas * (p / np.maximum(1.0 - p, Q_FLOOR))
    np.minimum(lam, RATE_CAP, out=lam)
    lam[p <= 0.0] = 0.0
    return rng.poisson(lam)


def nb_sample(params, rng):
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
    bound = r if r > 1.0 else 1.0
    for rounds in range(1, REJECTION_CAP + 1):
        y = _nb_draw(r, rng.beta(1.0, theta), rng)
        if bound * rng.random() < (y + r) / (y + 1.0):
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
#   sum_{z>Z} (r)_z / ((r+theta)_z z)
#       = (1/B(r,theta)) int_0^1 x^{r-1} (1-x)^{theta-1} R_Z(x) dx,
#   R_Z(x) = sum_{z>Z} x^z / z = -log(1-x) - sum_{z<=Z} x^z / z,
#
# and likewise for the BNB with remainder T_Z(x) = (1-x)^{-r} - partial
# binomial series.  Above x = 1/2 the integral runs in s = -log(1-x) over
# (log 2, inf): there (1-x)^{b-1} dx = e^{-bs} ds and R_Z = s - partial, so
# the weight's endpoint singularity and the remainder's log singularity both
# become a smooth, exponentially decaying integrand, for every shape b.  The
# remainders take s alongside x, so none of them ever needs 1 - x, which
# rounds to 0 long before the e^{-bs} weight has decayed when b is small.

_HEAD_TERMS = 128


def _quad_piece(f, a, b, what):
    from scipy.integrate import quad  # imported on use: only the total-mass oracles integrate

    out = quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=400, full_output=1)
    val, abserr = out[0], out[1]
    # QUADPACK's estimate is conservative by 2-3 orders on these integrands;
    # the gate is sized to catch genuine non-convergence, while achieved
    # accuracy (~1e-12) is pinned down by the normalization tests.
    if abserr > 1e-9:
        raise RuntimeError(f"quadrature failed to converge for {what}: abserr={abserr!r}")
    return val


def _beta_weighted_integral(a, b, g, what):
    """int_0^1 x^{a-1} (1-x)^{b-1} g(x, s) dx with s = -log(1-x); g bounded
    or log-singular at 1.

    Split at 1/2.  Below it, shape a < 1 is computed under the substitution
    v = x^a, which absorbs the algebraic singularity at 0 exactly, and shape
    a >= 1 is already continuous and is integrated as is (substituting there
    would compress the integrand into an unresolvable boundary layer instead
    of stretching it).  Above it, the integral runs in s.
    """

    if a < 1.0:

        def lower(v):
            x = v ** (1.0 / a)
            if x <= 0.0:
                return 0.0
            x = min(x, 0.5)
            gx = g(x, -math.log1p(-x))
            if gx == 0.0:
                return 0.0
            return math.exp((b - 1.0) * math.log1p(-x)) * gx / a

        total = _quad_piece(lower, 0.0, 0.5**a, what)
    else:

        def lower(x):
            if x <= 0.0:
                return 0.0
            gx = g(x, -math.log1p(-x))
            if gx == 0.0:
                return 0.0
            return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)) * gx

        total = _quad_piece(lower, 0.0, 0.5, what)

    def upper(s):
        x = -math.expm1(-s)
        gx = g(x, s)
        if gx == 0.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(x) - b * s) * gx

    return total + _quad_piece(upper, math.log(2.0), math.inf, what)


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


def _log_series_remainder(x, s, zs, inv_zs):
    """R_Z(x) = sum over z > Z of x^z / z, for 0 <= x < 1 and s = -log(1-x)."""
    Z = len(zs)
    if x <= 0.0:
        return 0.0
    if x > 0.8:
        return s - float(np.dot(np.power(x, zs), inv_zs))
    # r = 0.0 gives the ratio x (z - 1) / z, bit for bit
    return _tail_sum((Z + 1) * math.log(x) - math.log(Z + 1), x, 0.0, Z + 1)


def _bnb_damped_remainder(x, s, r, coefs_rev):
    """(1-x)^r T_Z(x), T_Z(x) = sum over z > Z of (r)_z x^z / z!, s = -log(1-x).

    Folding the (1-x)^r = e^{-rs} factor in keeps the value bounded as x -> 1,
    where T_Z alone blows up like (1-x)^{-r}.
    """
    Z = len(coefs_rev) - 1
    if x <= 0.0:
        return 0.0
    damp = math.exp(-r * s)
    if x > 0.8:
        partial = 0.0
        for coef in coefs_rev:  # Horner, as np.polyval, without its per-step overhead
            partial = partial * x + coef
        # e^{-rs} (1-x)^{-r} is exactly 1
        return 1.0 - damp * partial
    log_first = float(_log_rising_over_factorial(r, Z + 1)) + (Z + 1) * math.log(x)
    return damp * _tail_sum(log_first, x, r, Z + 1)


def digamma_total_mass(params):
    """Total mass (should be 1): digamma_log_pmf over a head, plus the tail."""
    r, theta = params.r, params.theta
    head = math.fsum(math.exp(digamma_log_pmf(params, z)) for z in range(1, _HEAD_TERMS + 1))
    log_xi = math.log(harmonic_gap(r, theta))
    log_b = betaln(r, theta)
    zs = np.arange(1, _HEAD_TERMS + 1)
    inv_zs = 1.0 / zs
    tail = _beta_weighted_integral(
        r,
        theta,
        lambda x, s: _log_series_remainder(x, s, zs, inv_zs),
        f"digamma tail at {params!r}",
    )
    return head + math.exp(-log_xi - log_b) * tail


def bnb_total_mass(params):
    """Total BNB mass: bnb_log_pmf summed over counts 0.._HEAD_TERMS, closed
    by the beta-integral tail."""
    r, a, b = params.r, params.alpha, params.beta
    head = math.fsum(math.exp(bnb_log_pmf(params, z)) for z in range(_HEAD_TERMS + 1))
    log_u = _log_rising_over_factorial(r, np.arange(0, _HEAD_TERMS + 1))
    coefs_rev = np.exp(log_u)[::-1].tolist()
    tail = _beta_weighted_integral(
        a,
        b,
        lambda x, s: _bnb_damped_remainder(x, s, r, coefs_rev),
        f"BNB tail at {params!r}",
    )
    return head + math.exp(-betaln(a, b)) * tail
