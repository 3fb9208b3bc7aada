import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbibp.numerics import RngStream, harmonic_gap

# digamma reference values computed with an independent special-function
# library; harmonic_gap is checked on differences of table entries
DIGAMMA_TABLE = [
    (0.001, -1000.5755719318103),
    (0.5, -1.9635100260214235),
    (1.0, -0.5772156649015329),
    (2.0, 0.42278433509846713),
    (10.0, 2.251752589066721),
    (123.456, 4.811829323828985),
    (1e6, 13.81551005796419),
]


class TestHarmonicGap:
    def test_reference_values(self):
        for (theta, lo), (top, hi) in zip(DIGAMMA_TABLE, DIGAMMA_TABLE[1:]):
            assert harmonic_gap(top - theta, theta) == pytest.approx(hi - lo, rel=1e-13)

    def test_domain(self):
        for r, theta in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -0.5)):
            with pytest.raises(ValueError):
                harmonic_gap(r, theta)

    @given(
        st.floats(min_value=1e-3, max_value=1e5),
        st.floats(min_value=1e-3, max_value=1e5),
    )
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, r, theta):
        # psi(x + 1) = psi(x) + 1/x at x = theta + r
        step = harmonic_gap(r, theta) + 1.0 / (theta + r)
        assert harmonic_gap(r + 1.0, theta) == pytest.approx(step, abs=1e-9, rel=1e-11)

    def test_unit_shift_is_reciprocal(self):
        for th in (0.25, 1.0, 3.5, 40.0):
            assert harmonic_gap(1.0, th) == pytest.approx(1.0 / th, rel=1e-12)

    def test_integer_gap_is_harmonic_number(self):
        for n in (1, 2, 5, 10):
            want = sum(1.0 / k for k in range(1, n + 1))
            assert harmonic_gap(float(n), 1.0) == pytest.approx(want, rel=1e-12)

    def test_positive(self):
        assert harmonic_gap(0.3, 7.0) > 0.0
        assert type(harmonic_gap(0.3, 7.0)) is float


class TestRngStream:
    def test_replay(self):
        a = RngStream(42, 7)
        b = RngStream(42, 7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
        assert a.poisson(3.0) == b.poisson(3.0)
        assert np.array_equal(a.permutation(10), b.permutation(10))

    def test_streams_differ(self):
        a = RngStream(42, 0)
        b = RngStream(42, 1)
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_seeds_differ(self):
        assert RngStream(1, 0).random() != RngStream(2, 0).random()

    def test_choose_distinct(self):
        rng = RngStream(5, 0)
        picks = rng.choice(10, size=4, replace=False)
        assert len(set(picks.tolist())) == 4
        assert all(0 <= p < 10 for p in picks)

    def test_gamma_positive(self):
        rng = RngStream(6, 0)
        assert rng.gamma(0.5, 2.0) > 0.0
        arr = rng.gamma(1.5, 1.0, (3, 2))
        assert arr.shape == (3, 2) and (arr > 0).all()

    @pytest.mark.parametrize("seed, stream_id", [(42, 7), (0, 0), (-1, 3), (-(2**63), 2**64 + 5)])
    def test_keyed_philox_generator(self, seed, stream_id):
        # the stream is numpy's Generator on Philox keyed (seed, id) mod 2**64
        rng = RngStream(seed, stream_id)
        assert isinstance(rng, np.random.Generator)
        key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
        plain = np.random.Generator(np.random.Philox(key=key))
        assert [rng.random() for _ in range(3)] == [plain.random() for _ in range(3)]
        assert rng.poisson(4.0) == plain.poisson(4.0)
        assert np.array_equal(rng.gamma(0.7, 2.0, 5), plain.gamma(0.7, 2.0, 5))
        # a used stream, re-keyed, replays the key from its first draw; the
        # uint32 draws leave Philox's pending 32-bit half set
        used = RngStream(seed + 1, stream_id)
        used.random(3)
        used.integers(0, 2**32 - 1, size=3, dtype=np.uint32)
        used.poisson(2.0)
        assert used.bit_generator.state["has_uint32"] == 1
        assert used.rekey(seed, stream_id) is used
        plain = np.random.Generator(np.random.Philox(key=key))
        assert used.bit_generator.state["has_uint32"] == 0
        assert np.array_equal(
            used.integers(0, 2**32 - 1, size=5, dtype=np.uint32),
            plain.integers(0, 2**32 - 1, size=5, dtype=np.uint32),
        )
        assert [used.random() for _ in range(3)] == [plain.random() for _ in range(3)]
        assert used.poisson(4.0) == plain.poisson(4.0)
        assert np.array_equal(used.gamma(0.7, 2.0, 5), plain.gamma(0.7, 2.0, 5))

    def test_defines_no_draw_method(self):
        # every draw is numpy's own method: RngStream adds only its keying
        own = {k for k, v in vars(RngStream).items() if callable(v)}
        assert own == {"__init__", "rekey"}
