import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

import nbibp.validation as validation
from nbibp.generative import nbibp_simulate
from nbibp.numerics import RngStream
from nbibp.structures import CombStruct, FeatureArray, Hyperparams, from_array, struct_to_json
from nbibp.validation import (
    SUITES,
    SuiteResult,
    autocorr_time,
    gof_chi_square,
    mean_with_se,
    run_suites,
    tail_aggregated_tv,
    two_sample_chi_square,
)


class TestHelpers:
    def test_autocorr_time_iid_near_one(self):
        rng = RngStream(200, 0)
        x = [rng.random() for _ in range(8000)]
        assert 0.5 < autocorr_time(x) < 1.6

    def test_autocorr_time_ar1_inflated(self):
        rng = RngStream(201, 0)
        x = [0.0]
        for _ in range(8000):
            x.append(0.9 * x[-1] + math.sqrt(1 - 0.81) * (rng.random() - 0.5))
        # AR(1) with coefficient 0.9 has tau = (1+0.9)/(1-0.9) = 19
        assert autocorr_time(x[1:]) > 8.0

    def test_autocorr_time_constant_series(self):
        assert autocorr_time([2.0] * 100) == 1.0

    def test_mean_with_se(self):
        mean, se = mean_with_se([1.0, 2.0, 3.0, 4.0])
        assert mean == pytest.approx(2.5)
        assert se == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
        _, se_corr = mean_with_se(list(range(100)), correlated=True)
        assert se_corr > se  # monotone trend maximally autocorrelated

    def test_gof_accepts_the_truth(self):
        rng = RngStream(202, 0)
        reps = 20_000
        seen = {}
        for _ in range(reps):
            k = rng.poisson(3.0)
            seen[k] = seen.get(k, 0) + 1
        p, cells, _ = gof_chi_square(
            seen, lambda k: math.exp(-3.0 + k * math.log(3.0) - math.lgamma(k + 1)), reps
        )
        assert cells >= 5
        assert p > 1e-3

    def test_gof_rejects_a_wrong_law(self):
        rng = RngStream(203, 0)
        reps = 20_000
        seen = {}
        for _ in range(reps):
            k = rng.poisson(3.0)
            seen[k] = seen.get(k, 0) + 1
        p, _, _ = gof_chi_square(
            seen, lambda k: math.exp(-2.0 + k * math.log(2.0) - math.lgamma(k + 1)), reps
        )
        assert p < 1e-6

    @pytest.mark.parametrize(
        "probs, obs, want_obs, want_exp",
        [
            # the listed categories carry all the mass: the empty tail once
            # added a degree of freedom and read p 0.449
            ({0: 0.5, 1: 0.5}, {0: 480, 1: 520}, [480, 520], [500, 500]),
            # category 3 expects 5 draws and pools into a tail that holds 7
            ({0: 0.5, 1: 0.3, 2: 0.195, 3: 0.005}, {0: 480, 1: 310, 2: 203, 3: 7},
             [480, 310, 203, 7], [500, 300, 195, 5]),
        ],
        ids=["empty-tail", "tail-with-draws"],
    )
    def test_gof_matches_scipy(self, probs, obs, want_obs, want_exp):
        p, _, chi2 = gof_chi_square(obs, probs.get, 1000)
        want = chisquare(want_obs, want_exp)
        assert chi2 == pytest.approx(want.statistic, rel=1e-12)
        assert p == pytest.approx(want.pvalue, rel=1e-12)

    def test_gof_impossible_category_rejects(self):
        probs = {0: 0.5, 1: 0.5, 2: 0.0}
        p, _, _ = gof_chi_square({0: 495, 1: 504, 2: 1}, probs.get, 1000)
        assert p < 1e-12

    @pytest.mark.parametrize(
        "a, b, table",
        [
            # every category clears the pooling bar: the empty tail once
            # counted as a fourth cell and read p 0.2506
            ({"x": 100, "y": 60, "z": 40}, {"x": 80, "y": 70, "z": 50},
             [[100, 60, 40], [80, 70, 50]]),
            # u and v pool into a tail that holds 18 draws
            ({"x": 100, "y": 60, "u": 5, "v": 6}, {"x": 80, "y": 70, "u": 4, "v": 3},
             [[100, 60, 11], [80, 70, 7]]),
        ],
        ids=["empty-tail", "tail-with-draws"],
    )
    def test_two_sample_matches_scipy(self, a, b, table):
        p, cells, chi2 = two_sample_chi_square(a, b)
        want = chi2_contingency(table, correction=False)
        assert cells == len(table[0])
        assert chi2 == pytest.approx(want.statistic, rel=1e-12)
        assert p == pytest.approx(want.pvalue, rel=1e-12)

    def test_two_sample_identical_is_perfect(self):
        counts = {0: 500, 1: 300, 2: 200}
        p, _, chi2 = two_sample_chi_square(counts, dict(counts))
        assert chi2 == 0.0
        assert p == pytest.approx(1.0)

    def test_tail_tv_bounds(self):
        a = {0: 600, 1: 400}
        assert tail_aggregated_tv(a, dict(a))[0] == 0.0
        b = {2: 600, 3: 400}
        tv, _ = tail_aggregated_tv(a, b)
        assert tv == pytest.approx(1.0)

    def test_pooled_statistics_ignore_hash_seed(self):
        # string categories: set order follows the hash seed, and the float
        # sums must not
        script = (
            "import numpy as np\n"
            "from nbibp.validation import tail_aggregated_tv, two_sample_chi_square\n"
            "g = np.random.default_rng(5)\n"
            "a = {f'k{i}': int(x) for i, x in enumerate(g.poisson(60.0, 300))}\n"
            "b = {f'k{i}': int(x) for i, x in enumerate(g.poisson(60.0, 300))}\n"
            "print(repr((two_sample_chi_square(a, b), tail_aggregated_tv(a, b))))\n"
        )
        outs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            run = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert run.returncode == 0, run.stderr
            outs.add(run.stdout)
        assert len(outs) == 1, outs


arrays = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * n).filter(any), max_size=5
    ).map(lambda cols: FeatureArray(n, tuple(cols)))
)


class TestStructKey:
    @given(arrays, st.randoms(use_true_random=False))
    def test_key_ignores_column_order(self, arr, rand):
        cols = list(arr.columns)
        rand.shuffle(cols)
        assert validation._struct_key(cols) == validation._struct_key(arr.columns)

    @given(arrays)
    def test_key_rebuilds_the_structure(self, arr):
        assert CombStruct(arr.n, Counter(validation._struct_key(arr.columns))) == from_array(arr)

    def test_key_counts_match_json_counts(self):
        hp = Hyperparams(1.0, 1.0, 1.0)
        rng = RngStream(204, 0)
        draws = [nbibp_simulate(3, hp, rng) for _ in range(3000)]
        by_key = validation._struct_counter(a.columns for a in draws)
        by_json = Counter(struct_to_json(from_array(a)) for a in draws)
        as_json = {struct_to_json(CombStruct(3, Counter(k))): m for k, m in by_key.items()}
        assert len(as_json) == len(by_key) > 50
        assert as_json == by_json


class TestSuitePlumbing:
    def test_result_serializes(self):
        res = SuiteResult("demo", True, 1.23456, {"x": 1})
        out = res.to_json()
        assert out == {"name": "demo", "passed": True, "seconds": 1.235, "metrics": {"x": 1}}

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            run_suites(["not-a-suite"])

    def test_empty_selection_runs_nothing(self, monkeypatch):
        # [] once read as "all" and ran every suite
        ran = []
        stub = {name: (lambda name=name: ran.append(name) or name) for name in "abc"}
        monkeypatch.setattr(validation, "SUITES", stub)
        assert run_suites([]) == [] and ran == []
        assert run_suites() == ["a", "b", "c"] and ran == ["a", "b", "c"]

    def test_seed_override_reaches_suites(self):
        # the fast analytic suites ignore their seed but must accept one
        results = run_suites(["digamma-identity", "t-update"], seed=99)
        assert [r.name for r in results] == ["digamma-identity", "t-update"]
        assert all(r.passed for r in results)

    def test_registry_names(self):
        assert set(SUITES) == {
            "digamma-identity",
            "normalization",
            "rejection-sampler",
            "simulator-pmf",
            "two-construction",
            "exchangeability",
            "projection",
            "expected-kappa",
            "prior-restoration",
            "geweke",
            "t-update",
        }
