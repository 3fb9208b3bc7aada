"""The harmonic gap and keyed random streams.

Everything downstream (p.m.f. evaluation, the simulators, the MCMC kernels)
is built on harmonic_gap, scipy.special's digamma and log-beta functions,
and RngStream.  harmonic_gap is pure; RngStream, a numpy Generator whose
only addition is its (seed, stream_id) key, is the only stateful object in
the package.
"""

import numpy as np
from scipy.special import psi

__all__ = ["RngStream", "harmonic_gap"]


def harmonic_gap(r, theta):
    """psi(theta + r) - psi(theta) for r, theta > 0.

    This gap is the normalizer of the digamma distribution and the mean
    feature-count rate of the buffet-style simulator; it generalizes the
    harmonic-number increment H_{theta+r-1} - H_{theta-1} off the integers.
    """
    if not (r > 0.0 and theta > 0.0):
        raise ValueError(f"harmonic_gap needs r > 0 and theta > 0, got r={r!r}, theta={theta!r}")
    return float(psi(theta + r) - psi(theta))


_MASK64 = (1 << 64) - 1


class RngStream(np.random.Generator):
    """A numpy Generator on a Philox stream keyed by (seed, stream_id).

    Both key words are taken mod 2**64, so a negative seed is a valid key.
    Distinct stream ids under one seed give statistically independent
    streams, and an identical key replays the identical draw sequence
    regardless of what any other stream has consumed.  Replicate fan-out
    therefore keys one stream per replicate index and the merged output is
    independent of scheduling.  Draws are numpy's own methods.
    """

    def __init__(self, seed, stream_id=0):
        key = np.array([int(seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
        super().__init__(np.random.Philox(key=key))
