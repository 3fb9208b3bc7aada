import itertools
import json
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betaln, psi

from nbibp.distributions import (
    BnbParams,
    DigammaParams,
    bnb_log_pmf,
    digamma_log_pmf,
)
from nbibp.structures import (
    CombStruct,
    FeatureArray,
    Hyperparams,
    array_from_json,
    array_to_json,
    from_array,
    log_pmf_array,
    log_pmf_struct,
    ordering_count,
    project,
    struct_from_json,
    struct_to_json,
)


def columns_strategy(n):
    entry = st.integers(min_value=0, max_value=3)
    col = st.tuples(*([entry] * n)).filter(any)
    return st.lists(col, min_size=0, max_size=4).map(tuple)


arrays = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: columns_strategy(n).map(lambda cols: FeatureArray(n, cols))
)

# entries past int64 included, for the serializer
big_entry = st.one_of(st.integers(0, 3), st.integers(2**63, 2**70))
serialized_arrays = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.tuples(*([big_entry] * n)).filter(any), max_size=4).map(
        lambda cols: FeatureArray(n, tuple(cols))
    )
)


def column_loop_log_pmf(arr, hp, num=float, lgamma=math.lgamma):
    """The per-column, per-entry loop that log_pmf_array evaluates on
    sufficient statistics, kept as its oracle.  With num=mpmath.mpf and
    lgamma=mpmath.loggamma it is exact to the working precision."""
    n, r = arr.n, num(hp.r)
    cnr = num(hp.c) + n * r
    rate = hp.c * hp.T * (psi(hp.c + n * hp.r) - psi(hp.c))
    out = arr.kappa * math.log(hp.c * hp.T) - math.lgamma(arr.kappa + 1) - rate
    for col in arr.columns:
        s = sum(col)
        out += lgamma(s) + lgamma(cnr) - lgamma(cnr + s)
        for w in col:
            if w:
                out += lgamma(r + w) - lgamma(r) - lgamma(w + 1)
    return float(out)


class TestContainers:
    def test_zero_rows_refused(self):
        # arrays share the structures' domain, n >= 1
        with pytest.raises(ValueError, match="n >= 1"):
            FeatureArray(0, ())

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            FeatureArray(2, ((0, 0),))
        with pytest.raises(ValueError):
            CombStruct(2, {(0, 0): 1})

    def test_negative_and_fractional_entries_rejected(self):
        with pytest.raises(ValueError):
            FeatureArray(1, ((-1,),))
        with pytest.raises(ValueError):
            FeatureArray(1, ((1.5,),))

    def test_struct_needs_positive_rows_and_multiplicities(self):
        with pytest.raises(ValueError):
            CombStruct(0, {})
        with pytest.raises(ValueError):
            CombStruct(1, {(1,): 0})

    def test_from_matrix_refuses_fractional_entries(self):
        with pytest.raises(ValueError, match="integers >= 0"):
            FeatureArray.from_matrix(np.array([[1.5, 0.0], [0.0, 2.0]]))
        arr = FeatureArray.from_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert arr.columns == ((1, 0), (0, 2))
        assert all(type(w) is int for col in arr.columns for w in col)
        assert FeatureArray.from_matrix(arr.to_matrix()) == arr

    def test_matrix_round_trip(self):
        arr = FeatureArray(2, ((1, 0), (0, 2), (3, 1)))
        assert FeatureArray.from_matrix(arr.to_matrix()) == arr
        assert arr.to_matrix().shape == (2, 3)

    def test_collapse_counts_duplicates(self):
        arr = FeatureArray(2, ((1, 0), (1, 0), (0, 2)))
        struct = from_array(arr)
        assert struct.counts == {(1, 0): 2, (0, 2): 1}
        assert struct.kappa == 3

    def test_ordering_count_small(self):
        struct = CombStruct(2, {(1, 0): 2, (0, 2): 1})
        assert ordering_count(struct) == pytest.approx(math.log(3.0), rel=1e-14)
        assert ordering_count(CombStruct(1, {(2,): 1})) == 0.0


class TestHistoryValidation:
    """What a FeatureArray column may hold."""

    @pytest.mark.parametrize(
        "col, match",
        [
            ((1.5, 1), "integers >= 0"),
            ((-1, 1), "integers >= 0"),
            ((math.nan, 1), "integers >= 0"),
            ((math.inf, 1), "integers >= 0"),
            (("3", 1), "integers >= 0"),
            ((None, 1), "integers >= 0"),
            ((0, 0), "all-zero"),
            ((1,), "history length"),
        ],
    )
    def test_refused(self, col, match):
        with pytest.raises(ValueError, match=match):
            FeatureArray(2, (col,))

    @pytest.mark.parametrize("w, want", [(2.0, 2), (np.int64(3), 3), (True, 1)])
    def test_accepted_as_python_ints(self, w, want):
        arr = FeatureArray(2, ((0, w),))
        assert arr.columns == ((0, want),)
        assert type(arr.columns[0][1]) is int


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Hyperparams(1.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            Hyperparams(1.0, 1.0, 0.0)
        for bad in (math.inf, math.nan):
            for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
                with pytest.raises(ValueError):
                    Hyperparams(*args)


class TestPmfFrozenValues:
    def test_single_unit_column(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        got = log_pmf_struct(CombStruct(1, {(1,): 1}), hp)
        assert got == pytest.approx(math.log(math.exp(-1.0) / 2.0), rel=1e-13)

    def test_single_double_column(self):
        hp = Hyperparams(1.0, 2.0, 1.0)
        got = log_pmf_array(FeatureArray(1, ((2,),)), hp)
        assert got == pytest.approx(math.log(math.exp(-1.0) / 6.0), rel=1e-13)

    def test_empty_structure(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        got = log_pmf_struct(CombStruct(2, {}), hp)
        # minus c T (psi(c + 2r) - psi(c)) = -(1 + 1/2)
        assert got == pytest.approx(-1.5, rel=1e-13)

    def test_struct_scored_on_distinct_histories(self):
        # one history of multiplicity m is scored once, not as m columns:
        # at m = 10**12 the value is the closed form
        # m (log c + log T + log B(1, c + r) + log r) - c T psi_gap - log m!,
        # and at small m it equals the expanded array's value
        r, c, T = 0.7, 1.3, 2.5
        hp = Hyperparams(r, c, T)

        def closed(m):
            per_column = (
                math.log(c) + math.log(T) + betaln(1, c + r) - math.log(1 + r) - betaln(r, 2)
            )
            return m * per_column - c * T * (psi(c + r) - psi(c)) - math.lgamma(m + 1)

        for m in (1, 2, 5):
            struct = CombStruct(1, {(1,): m})
            expanded = log_pmf_array(FeatureArray(1, ((1,),) * m), hp) + ordering_count(struct)
            assert log_pmf_struct(struct, hp) == pytest.approx(expanded, rel=1e-12)
            assert log_pmf_struct(struct, hp) == pytest.approx(closed(m), rel=1e-12)
        start = time.perf_counter()
        got = log_pmf_struct(CombStruct(1, {(1,): 10**12}), hp)
        assert time.perf_counter() - start < 0.5
        assert got == pytest.approx(closed(10**12), rel=1e-12)

    def test_struct_equals_array_plus_orderings(self):
        hp = Hyperparams(1.3, 0.8, 2.0)
        arr = FeatureArray(3, ((1, 0, 2), (1, 0, 2), (0, 1, 0)))
        struct = from_array(arr)
        lhs = log_pmf_struct(struct, hp)
        rhs = log_pmf_array(arr, hp) + ordering_count(struct)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPmfInvariances:
    HP = Hyperparams(1.5, 0.7, 1.2)

    @given(arrays)
    @settings(max_examples=60, deadline=None)
    def test_column_order_irrelevant(self, arr):
        base = log_pmf_array(arr, self.HP)
        flipped = FeatureArray(arr.n, arr.columns[::-1])
        assert log_pmf_array(flipped, self.HP) == pytest.approx(base, abs=1e-12)

    @given(arrays, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_row_order_irrelevant(self, arr, rnd):
        perm = list(range(arr.n))
        rnd.shuffle(perm)
        permuted = FeatureArray(arr.n, tuple(tuple(col[i] for i in perm) for col in arr.columns))
        assert log_pmf_array(permuted, self.HP) == pytest.approx(
            log_pmf_array(arr, self.HP), abs=1e-12
        )

    @given(arrays)
    @settings(max_examples=60, deadline=None)
    def test_struct_array_relation(self, arr):
        struct = from_array(arr)
        assert log_pmf_struct(struct, self.HP) == pytest.approx(
            log_pmf_array(arr, self.HP) + ordering_count(struct), abs=1e-12
        )


    @given(arrays, *[st.floats(min_value=0.05, max_value=10.0)] * 3)
    @settings(max_examples=100, deadline=None)
    def test_matches_column_loop(self, arr, r, c, T):
        hp = Hyperparams(r, c, T)
        assert log_pmf_array(arr, hp) == pytest.approx(column_loop_log_pmf(arr, hp), rel=1e-12)

    @pytest.mark.parametrize("big", [10**12, 2**70])
    def test_huge_entries(self, big):
        # heavy-tailed count laws draw entries like these.  The statistics
        # keep only distinct values, 2**70 does not fit an int64, and a float
        # difference of log-gammas at 10**12 is already wrong in the fifth digit
        hp = Hyperparams(0.1, 0.1, 1.0)
        arr = FeatureArray(3, ((big, 0, 2), (1, big + 1, 0), (0, 0, 3)))
        with mpmath.workdps(50):
            want = column_loop_log_pmf(arr, hp, mpmath.mpf, mpmath.loggamma)
        assert log_pmf_array(arr, hp) == pytest.approx(want, rel=1e-12)
        assert log_pmf_struct(from_array(arr), hp) == pytest.approx(
            want + ordering_count(from_array(arr)), rel=1e-12
        )


class TestEnumerationOracles:
    def test_single_row_marked_poisson(self):
        # With one row, mass-z columns arrive as a thinned Poisson field:
        # P(multiset of size k, masses <= Z summed) = Pois(k; lam) q^k with
        # lam = c T (psi(c+r) - psi(c)) and q the head mass of the count law.
        r, c, T = 1.5, 2.0, 0.7
        hp = Hyperparams(r, c, T)
        lam = c * T * (psi(c + r) - psi(c))
        params = DigammaParams(r, c)
        zmax, kmax = 6, 4
        q = sum(math.exp(digamma_log_pmf(params, z)) for z in range(1, zmax + 1))
        for k in range(kmax + 1):
            total = 0.0
            for masses in itertools.combinations_with_replacement(range(1, zmax + 1), k):
                counts = {}
                for z in masses:
                    counts[(z,)] = counts.get((z,), 0) + 1
                total += math.exp(log_pmf_struct(CombStruct(1, counts), hp))
            want = math.exp(-lam) * lam**k / math.factorial(k) * q**k
            assert total == pytest.approx(want, rel=1e-12), k

    def test_two_row_path_sum(self):
        # Sequential-construction oracle: columns first seen in row 1 carry
        # the concentration-c count law and then grow by a (r, h1, c+r)
        # beta-mixed count; columns first seen in row 2 carry the
        # concentration-(c+r) count law; each round is a marked Poisson
        # multiset.  The struct determines each column's round, so its
        # probability is a single product of both rounds' multiset laws.
        r, c, T = 1.0, 2.0, 0.7
        hp = Hyperparams(r, c, T)
        lam1 = c * T * (psi(c + r) - psi(c))
        lam2 = c * T * (psi(c + 2 * r) - psi(c + r))
        cases = [
            {(1, 1): 1},
            {(2, 0): 1, (0, 1): 1},
            {(1, 0): 2, (0, 2): 1},
            {(1, 2): 1, (1, 0): 1, (0, 1): 2},
        ]
        for counts in cases:
            struct = CombStruct(2, counts)
            first = {h: m for h, m in counts.items() if h[0] > 0}
            second = {h: m for h, m in counts.items() if h[0] == 0}
            k1, k2 = sum(first.values()), sum(second.values())
            # Pois(k; lam) k!/prod m! prod pmf^m: the k! cancels, leaving
            # e^{-lam} lam^k prod (pmf^m / m!) per round.
            logp = -lam1 - lam2 + k1 * math.log(lam1) + k2 * math.log(lam2)
            for (h1, h2), m in first.items():
                one = digamma_log_pmf(DigammaParams(r, c), h1) + bnb_log_pmf(
                    BnbParams(r, float(h1), c + r), h2
                )
                logp += m * one - math.lgamma(m + 1)
            for (_, h2), m in second.items():
                logp += m * digamma_log_pmf(DigammaParams(r, c + r), h2) - math.lgamma(m + 1)
            assert log_pmf_struct(struct, hp) == pytest.approx(logp, abs=1e-12), counts


class TestProjection:
    def test_hand_examples(self):
        three = CombStruct(3, {(1, 0, 2): 1, (0, 1, 0): 2})
        assert project(three, 2) == CombStruct(2, {(1, 0): 1, (0, 1): 2})
        assert project(three, 1) == CombStruct(1, {(1,): 1})
        assert project(three, 3) == three

    def test_range_checks(self):
        one = CombStruct(1, {(1,): 1})
        for bad in (0, 2, 1.5):
            with pytest.raises(ValueError):
                project(one, bad)

    @given(arrays, st.data())
    @settings(max_examples=60, deadline=None)
    def test_projections_compose(self, arr, data):
        struct = from_array(arr)
        m = data.draw(st.integers(min_value=1, max_value=struct.n))
        k = data.draw(st.integers(min_value=1, max_value=m))
        assert project(project(struct, m), k) == project(struct, k)


class TestSerialization:
    def test_known_forms(self):
        arr = FeatureArray(2, ((1, 0), (0, 2)))
        assert array_to_json(arr) == '{"columns":[[1,0],[0,2]],"kind":"array","n":2}'
        struct = CombStruct(2, {(0, 2): 1, (1, 0): 2})
        text = struct_to_json(struct)
        assert struct_from_json(text) == struct

    @given(arrays)
    @settings(max_examples=60, deadline=None)
    def test_array_round_trip(self, arr):
        text = array_to_json(arr)
        again = array_from_json(text)
        assert again == arr
        assert array_to_json(again) == text

    @given(serialized_arrays)
    @example(FeatureArray(1, ()))
    @example(FeatureArray(1, ((2**63,), (1,), (2**64 + 7,))))
    @settings(max_examples=100, deadline=None)
    def test_array_record_is_json_dumps(self, arr):
        text = array_to_json(arr)
        assert text == json.dumps(
            {"kind": "array", "n": arr.n, "columns": [list(col) for col in arr.columns]},
            sort_keys=True,
            separators=(",", ":"),
        )
        assert array_from_json(text) == arr

    @given(arrays)
    @settings(max_examples=60, deadline=None)
    def test_struct_round_trip(self, arr):
        struct = from_array(arr)
        text = struct_to_json(struct)
        again = struct_from_json(text)
        assert again == struct
        assert struct_to_json(again) == text

    def test_malformed_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            array_from_json('{"kind":"struct","n":1,"counts":[]}')
        with pytest.raises(ValueError):
            array_from_json('{"kind":"array","n":2,"columns":[[0,0]]}')
