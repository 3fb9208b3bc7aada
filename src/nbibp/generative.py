"""Generative constructions for the count-valued feature process.

Three routes produce draws from the same law:

* nbibp_simulate: the sequential buffet construction.  Row m+1 revisits every
  existing dish k with a BNB(r, S_k, c + m r) count (S_k = servings so far)
  and opens Poisson(c T [psi(c + (m+1) r) - psi(c + m r)]) new dishes, each
  with a digamma(r, c + m r) count.  predictive_step draws that row and
  appends it in place to list columns with running column sums;
  nbibp_simulate runs it n times from no columns and wraps the columns in
  one FeatureArray at the end, unchecked since it drew them, so the
  predictive and the prior share one code path.
* bnbp_sample_finitary: the one-shot finite construction of the process
  masses themselves, Poisson-many atoms with digamma counts plus BNB counts
  at fixed atoms of the base, which no other route or module takes.
  _new_dishes, the one new-dish draw, gives its atoms (at m = 0), each
  buffet row's new dishes and the MCMC singleton births.
* truncated_oracle_simulate: a deliberately independent hierarchical oracle
  that first realizes the underlying weight measure down to weights > epsilon
  and then draws NB counts per atom.  It reaches the counts through the
  weights, where the buffet integrates them out, which is what makes
  agreement between the two an informative check.  Both draw their NB counts
  through distributions._nb_draw, though, so a defect there would not show
  as disagreement in two-construction; simulator-pmf, which checks the
  buffet against the exact p.m.f., would catch it.  Truncation bias: a
  feature is missed when its weight falls below epsilon, an event of total
  expected count about c T n r epsilon.
"""

import math
from functools import lru_cache

from .distributions import (
    BnbParams,
    DigammaParams,
    _nb_draw,
    bnb_sample,
    digamma_sample_rounds,
)
from .numerics import harmonic_gap
from .structures import FeatureArray

__all__ = [
    "predictive_step",
    "nbibp_simulate",
    "bnbp_sample_finitary",
    "truncated_oracle_simulate",
]


def _new_dishes(hp, m, rng):
    """Counts of the new dishes of the customer after m others, in draw order:
    Poisson(c T [psi(c + (m+1) r) - psi(c + m r)])-many digamma(r, c + m r).
    hp was checked where it entered, so the digamma params skip their check."""
    tail = hp.c + m * hp.r
    fresh = rng.poisson(hp.c * hp.T * harmonic_gap(hp.r, tail))
    if not fresh:
        return []
    mass_law = DigammaParams._unchecked(hp.r, tail)
    return [digamma_sample_rounds(mass_law, rng)[0] for _ in range(fresh)]


def predictive_step(columns, sums, m, hp, rng):
    """Append row m + 1, drawn from the law of the next row given the first
    m, in place to the m-row list columns and their running sums.

    Existing column k receives a BNB(r, S_k, c + m r) count, drawn as its
    beta-mixed negative binomial; the fresh columns, _new_dishes(hp, m, rng),
    follow in draw order after the existing columns.
    """
    r, beta = hp.r, rng.beta
    cnr = hp.c + m * r
    for k, col in enumerate(columns):
        z = _nb_draw(r, beta(sums[k], cnr), rng)
        col.append(z)
        sums[k] += z
    for z in _new_dishes(hp, m, rng):
        columns.append([0] * m + [z])
        sums.append(z)


def nbibp_simulate(n, hp, rng):
    """n rows of the buffet construction, columns in creation order."""
    if n != int(n) or n < 1:
        raise ValueError(f"nbibp_simulate needs integer n >= 1, got {n!r}")
    columns, sums = [], []
    for m in range(int(n)):
        predictive_step(columns, sums, m, hp, rng)
    return FeatureArray._unchecked(int(n), tuple(map(tuple, columns)))


def bnbp_sample_finitary(hp, rng, fixed_atoms=()):
    """One draw of the process masses: (counts at fixed atoms, diffuse counts).

    The diffuse part realizes Poisson(c T [psi(c + r) - psi(c)]) atoms with
    i.i.d. digamma(r, c) counts; each fixed atom of weight b in (0, 1)
    contributes a BNB(r, c b, c (1 - b)) count (possibly zero).  Counts are
    returned rather than located atoms: locations are exchangeable labels
    with no bearing on any downstream computation.
    """
    if not all(0.0 < b < 1.0 for b in fixed_atoms):
        raise ValueError(f"fixed atom weights must lie in (0, 1), got {fixed_atoms!r}")
    fixed = [
        bnb_sample(BnbParams(hp.r, hp.c * b, hp.c * (1.0 - b)), rng)
        for b in fixed_atoms
    ]
    return fixed, _new_dishes(hp, 0, rng)


# ---------------------------------------------------------------------------
# truncated hierarchical oracle


def _quad_result(out, where):
    """The value of a full_output quad result, or RuntimeError unless the
    value is finite and its error estimate is at most 1e-10 of it (a NaN
    estimate fails the comparison)."""
    if not (math.isfinite(out[0]) and out[1] <= 1e-10 * abs(out[0])):
        raise RuntimeError(
            f"weight-measure quadrature failed near {where}: value={out[0]!r}, abserr={out[1]!r}"
        )
    return out[0]


@lru_cache(maxsize=128)
def _weight_integrals(c, epsilon):
    """(I_low, I_high): integral of p^{-1} (1-p)^{c-1} over (eps, 1/2] and
    (max(eps, 1/2), 1).

    In u = 1 - p, I_high is the incomplete beta B_w(c, 0), w = 1 - max(eps,
    1/2), whose series sum_k w^{c+k} / (c+k) (DLMF 8.17(ii)) has terms at
    most 2^-k of the first, so 64 of them leave less than 2^-63 of the sum
    at any c; a value below the least normal double comes out subnormal or
    0.0.  Below c of about 5.6e-309, 1/c overflows, which is refused.  I_low
    is one quadrature in t = log p, up to where its integrand underflows,
    gated relative to its value however small."""
    from scipy.integrate import quad  # imported on use: only the truncated oracle integrates

    w = 1.0 - max(epsilon, 0.5)
    i_high = math.fsum(w ** (c + k) / (c + k) for k in range(64))
    if not math.isfinite(i_high):
        raise RuntimeError(f"the upper weight piece overflows at c={c!r}")
    # past p = 800 / c, below 1/2 from c = 1600 on, (1 - p)^{c-1} < e^-799
    # is 0.0; a long run of zeros defeats quad's extrapolation, whose
    # estimate then fails the gate though the value is right
    top = min(0.5, 800.0 / c)
    i_low = 0.0
    if epsilon < top:
        # in t = log p the lower piece is smooth and bounded
        out = quad(
            lambda t: math.exp((c - 1.0) * math.log1p(-math.exp(t))),
            math.log(epsilon),
            math.log(top),
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
            full_output=1,
        )
        i_low = _quad_result(out, 0)
    return i_low, i_high


def _draw_weight(c, epsilon, i_low, i_high, rng):
    """One weight from the normalized density p^{-1} (1-p)^{c-1} on (eps, 1)."""
    lo = max(epsilon, 0.5)
    if rng.random() * (i_low + i_high) < i_high:
        # upper piece: propose 1-p ~ (1-p)^{c-1} exactly, thin by lo/p <= 1
        width = 1.0 - lo
        while True:
            p = 1.0 - width * rng.random() ** (1.0 / c)
            if rng.random() * p < lo * 1.0:
                return p
    # lower piece in t = log p: bounded envelope, monotone target
    t_lo, t_hi = math.log(epsilon), math.log(0.5)
    env = max(
        math.exp((c - 1.0) * math.log1p(-epsilon)),
        math.exp((c - 1.0) * math.log(0.5)),
    )
    while True:
        t = t_lo + rng.random() * (t_hi - t_lo)
        if rng.random() * env < math.exp((c - 1.0) * math.log1p(-math.exp(t))):
            return math.exp(t)


def truncated_oracle_simulate(n, hp, epsilon, rng):
    """n rows via the explicit weight measure, dropping weights <= epsilon.

    Realizes Poisson-many atoms with weights from the restricted intensity,
    then n independent NB(r, p) counts per atom; columns that come out
    all-zero are unobservable and are discarded.  Weight sampling is exact
    (piecewise rejection), so epsilon is the only approximation.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"truncated_oracle_simulate needs integer n >= 1, got {n!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    n = int(n)
    i_low, i_high = _weight_integrals(hp.c, epsilon)
    atoms = rng.poisson(hp.c * hp.T * (i_low + i_high))
    cols = []
    for _ in range(atoms):
        p = _draw_weight(hp.c, epsilon, i_low, i_high, rng)
        col = tuple(_nb_draw(hp.r, p, rng) for _ in range(n))
        if any(col):
            cols.append(col)
    return FeatureArray._unchecked(n, tuple(cols))
