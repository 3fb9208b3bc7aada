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
sum their log p.m.f.s over a head and close it with one exact integral of
the incomplete beta, so normalization checks hold to 1e-10 even for slow
tails.  The NB mass is 1 by the negative binomial theorem.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln

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
# total masses: head sums closed by exact incomplete-beta tails
#
# Both p.m.f.s have power-law tails (orders theta and beta), so no rule on
# the terms alone certifies 1e-10.  With Z = _HEAD_TERMS and I_u(a, b) the
# regularized incomplete beta (DLMF 8.17), each tail is one integral:
#
#   digamma: sum_{z>Z} p(z) = (1/xi) int_0^1 u^{theta-1} (1-u)^Z I_u(theta, r) / u^theta du,
#            by sum_{z>Z} x^z / z = int_0^x t^Z / (1-t) dt and Fubini;
#   BNB:     sum_{z<=Z} p(z) = E[I_u(r, Z+1)], u ~ Beta(beta, alpha),
#            since P(NB(r, x) > Z) = I_x(Z+1, r).

_HEAD_TERMS = 128


def _incomplete_beta_integral(alpha, beta, a, b, scale, params):
    """scale * int_0^1 u^alpha (1-u)^beta I_u(a, b) / u^a du, alpha, beta > -1.

    I_u(a, b) / u^a is smooth on [0, 1], so QUADPACK's algebraic-weight rule
    (QAWS) takes the endpoint powers exactly.  Its Chebyshev moments lose
    digits at large exponents (at BnbParams(10, 10, 10) the error estimate
    read 5e-8 on an exact value), so the weight keeps each
    exponent's fractional part and the integrand the integer parts.  QAWS
    evaluates u = 0, where the ratio is 0/0, so its limit 1/(a B(a, b)) is
    passed.  The gate, in units of mass, catches non-convergence; the
    normalization tests pin the accuracy, orders below the estimate.
    """
    from scipy.integrate import quad  # imported on use: only the total-mass oracles integrate

    ka, kb = math.floor(max(alpha, 0.0)), math.floor(max(beta, 0.0))
    at_zero = scale * math.exp(-math.log(a) - betaln(a, b))

    def f(u):
        ua = u**a
        return u**ka * (1.0 - u) ** kb * (scale * betainc(a, b, u) / ua if ua > 0.0 else at_zero)

    out = quad(f, 0.0, 1.0, weight="alg", wvar=(alpha - ka, beta - kb),
               epsabs=1e-14, epsrel=1e-12, full_output=1)
    if not (math.isfinite(out[0]) and out[1] <= 1e-9):  # a NaN estimate fails too
        raise RuntimeError(
            f"quadrature failed to converge for the tail of {params!r}: "
            f"value={out[0]!r}, abserr={out[1]!r}"
        )
    return out[0]


def digamma_total_mass(params):
    """Total mass (should be 1): digamma_log_pmf over a head, plus the tail."""
    r, theta = params.r, params.theta
    head = math.fsum(math.exp(digamma_log_pmf(params, z)) for z in range(1, _HEAD_TERMS + 1))
    return head + _incomplete_beta_integral(
        theta - 1.0, _HEAD_TERMS, theta, r, 1.0 / harmonic_gap(r, theta), params
    )


def bnb_total_mass(params):
    """Total BNB mass: bnb_log_pmf summed over counts 0.._HEAD_TERMS, plus one
    minus the head's mass as the expectation above."""
    r, a, b = params.r, params.alpha, params.beta
    head = math.fsum(math.exp(bnb_log_pmf(params, z)) for z in range(_HEAD_TERMS + 1))
    return head + 1.0 - _incomplete_beta_integral(
        b - 1.0 + r, a - 1.0, r, _HEAD_TERMS + 1.0, math.exp(-betaln(b, a)), params
    )
