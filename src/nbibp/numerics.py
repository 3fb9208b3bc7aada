"""The harmonic gap and keyed random streams.

Everything downstream (p.m.f. evaluation, the simulators, the MCMC kernels)
is built on harmonic_gap, scipy.special's digamma and log-beta functions,
and RngStream.  harmonic_gap is pure; RngStream, a numpy Generator whose
only addition is its (seed, stream_id) key, is the only stateful object in
the package.  Replicate fan-out builds one RngStream per command and re-keys
it to (seed, k) for replicate k, which replays exactly the draws of a fresh
RngStream(seed, k) without the cost of building a new Philox.
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
    therefore gives replicate k the key (seed, k), and the merged output is
    independent of scheduling.  A command builds one stream and re-keys it
    per replicate.  Draws are numpy's own methods.
    """

    def __init__(self, seed, stream_id=0):
        super().__init__(np.random.Philox(key=0))
        self.rekey(seed, stream_id)

    def rekey(self, seed, stream_id=0):
        """Move to the first draw of RngStream(seed, stream_id) and return self.

        The Philox state is set whole: the key, a zero counter, an empty
        buffer and no pending 32-bit half, so nothing drawn before carries
        over.
        """
        self.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": [0, 0, 0, 0],
                "key": [int(seed) & _MASK64, int(stream_id) & _MASK64],
            },
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self
