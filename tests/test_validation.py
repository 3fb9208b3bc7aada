import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nbibp.validation as validation
from nbibp.numerics import RngStream
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
        # string categories, as the suites' JSON keys: set order follows the
        # hash seed, and the float sums must not
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
