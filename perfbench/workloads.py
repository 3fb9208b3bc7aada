"""The four benchmark workloads.

Every workload makes its inputs from the workload seed with its own
``numpy.random.Generator``; no package code touches the inputs, so a change
of the package's random streams cannot change them.  The package is reached
only through its public functions: ``nbibp.cli.main(argv)`` in-process, or
the ``nbibp.inference`` API.  Package attributes are looked up at call time
(``inference.sweep_once``, not a name bound at import), so the tracer's
wrappers are seen.

A workload runs as a sequence of timed steps.  ``prepare(i)`` does untimed
plumbing (starting a chain, writing an input file), ``step(i)`` is the timed
call into the package, and ``check(i, out, err)`` verifies the step's output
untimed and returns a ``Step``.  ``finish()`` runs the whole-run checks.

Two kinds of check are kept apart.  A failed operation (an exception, a
non-zero exit, a state the data rule out) counts toward ``failed``; that is
how the known cold-start crash of ``infer`` shows.  A wrong output (a count
law off by more than its bound, a malformed output file) also clears
``sound``, which makes the run's ``correct`` false.  Law checks use exact
means and reject a correct program with probability below 1e-6 per check.

Sizes are chosen so that one run stays well under a minute on two cores;
(n, V) = (500, 200) chains are left out for that reason.
"""

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import psi


def load_package(root):
    """Import nbibp from ``<root>/src`` and nowhere else."""
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import nbibp
    import nbibp.cli

    if src not in Path(nbibp.__file__).resolve().parents:
        raise ImportError(f"nbibp was imported from {nbibp.__file__}, not from {src}")
    return nbibp


@dataclass
class Step:
    """Outcome of one timed step: ``units`` operations attempted (sweeps or
    replicates), whether they all completed, whether the output is sound,
    and bytes for the output digest."""

    units: int
    ok: bool
    sound: bool = True
    blob: bytes = b""


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _planted(g, n, V, K, p_active):
    """W (n x K counts, every column used), Theta ~ Gamma(1, 1), y ~ Poisson(W Theta)."""
    W = np.where(g.random((n, K)) < p_active, 1 + g.poisson(1.0, (n, K)), 0)
    for j in np.flatnonzero(W.sum(axis=0) == 0):
        W[g.integers(n), j] = 1
    theta = g.gamma(1.0, 1.0, (K, V))
    return W, theta, g.poisson(W @ theta)


def _batch_means_se(x, batches=50):
    """Standard error of a correlated series' mean from batch means."""
    x = np.asarray(x, dtype=np.float64)
    m = len(x) // batches
    means = x[: m * batches].reshape(batches, m).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def _state_blob(state):
    return repr((state.W.columns, state.hp)).encode() + state.Theta.tobytes()


class Workload:
    name = ""
    op = "sweep"
    trace_steps = 0
    inputs = 0  # size of a cycled input set whose first pass alone is counted; 0: none

    def params(self):
        return {}

    def prepare(self, i):
        pass

    def finish(self):
        """(sound, all_failed, per-layer observations) after the last step."""
        return True, False, {}


class ChainData(Workload):
    """Posterior chains (``run_chain``, every kernel and the c/r slice moves)
    on planted Poisson-factor data, each started warm from its planted truth.

    The run cycles through ``chains`` datasets with ``length`` sweeps each, so
    the chain state stays near the planted size (kappa about 16) instead of
    drifting with one chain's trajectory; that keeps sweeps per second steady
    across seeds.
    """

    name = "chain-data"
    n, V, K, p_active = 100, 50, 16, 0.25
    chains, length = 16, 20
    trace_steps = 40

    def __init__(self, pkg, seed, workdir):
        self.pkg = pkg
        g = np.random.default_rng([seed, 1])
        self.data = [_planted(g, self.n, self.V, self.K, self.p_active) for _ in range(self.chains)]
        self.chain_seeds = g.integers(0, 2**62, self.chains)
        self.input_digest = _digest(*(a for d in self.data for a in d), self.chain_seeds)
        # T so that the prior mean of kappa is the planted K.
        self.T0 = self.K / float(psi(1.0 + self.n) - psi(1.0))
        self.series = []

    def params(self):
        return {"n": self.n, "V": self.V, "planted_features": self.K, "chains": self.chains,
                "sweeps_per_chain": self.length, "start": "planted truth"}

    def prepare(self, i):
        if i % self.length:
            return
        inf, st, nu = self.pkg.inference, self.pkg.structures, self.pkg.numerics
        k = (i // self.length) % self.chains
        W, theta, y = self.data[k]
        self.model = inf.PoissonFactorModel(y)
        rng = nu.RngStream(int(self.chain_seeds[k]), i // self.length)
        init = inf.ChainState(
            st.FeatureArray.from_matrix(W), theta, st.Hyperparams(1.0, 1.0, self.T0), (1.0, 1.0), rng
        )
        self.chain = inf.run_chain(self.model, init, self.length, rng, inf.ChainConfig())
        next(self.chain)
        self.series.append(([], []))

    def step(self, i):
        return next(self.chain)

    def check(self, i, state, err):
        if err is not None:
            return Step(1, False, blob=repr(err).encode())
        lj = self.pkg.inference.log_joint(state, self.model)
        kappas, ljs = self.series[-1]
        kappas.append(state.W.kappa)
        if math.isfinite(lj):
            ljs.append(lj)
        return Step(1, math.isfinite(lj), blob=_state_blob(state))

    def finish(self):
        return True, False, _chain_obs(self.pkg, self.series)


def _chain_obs(pkg, series):
    """kappa mean and length-weighted autocorrelation times over the chains."""
    acf = pkg.validation.autocorr_time
    used = [(k, lj) for k, lj in series if len(k) >= 3]
    total = sum(len(k) for k, _ in used)
    if not total:
        return {}
    return {
        "inference.kappa_mean": sum(sum(k) for k, _ in used) / total,
        "inference.tau_kappa": sum(acf(k) * len(k) for k, _ in used) / total,
        "inference.tau_log_joint": sum(acf(lj) * len(k) for k, lj in used if len(lj) >= 3) / total,
    }


class ChainPrior(Workload):
    """The successive-conditional loop of the Geweke self-test: ``sweep_once``
    then ``resample_counts`` at n=3, V=2, r=1, c=3, T under a Gamma(4, 4)
    prior, the mass kernel on and c, r pinned.  The chain targets the joint
    prior, so its kappa mean must match the exact prior mean."""

    name = "chain-prior"
    n, V, r, c, t_prior = 3, 2, 1.0, 3.0, (4.0, 4.0)
    trace_steps = 15000

    def __init__(self, pkg, seed, workdir):
        self.pkg = pkg
        g = np.random.default_rng([seed, 2])
        self.chain_seed = int(g.integers(0, 2**62))
        self.input_digest = _digest(np.array([self.chain_seed]))
        # E[kappa] = E[T] c [psi(c + n r) - psi(c)] with E[T] = alpha / beta.
        a, b = self.t_prior
        self.exact_kappa = a / b * self.c * float(psi(self.c + self.n * self.r) - psi(self.c))
        self.kappas, self.ljs = [], []

    def params(self):
        return {"n": self.n, "V": self.V, "r": self.r, "c": self.c, "t_prior": self.t_prior,
                "exact_kappa_mean": self.exact_kappa}

    def prepare(self, i):
        if i:
            return
        inf, nu = self.pkg.inference, self.pkg.numerics
        self.cfg = inf.ChainConfig(mass=True, conc=False, shape=False)
        self.rng = nu.RngStream(self.chain_seed, 0)
        flat = inf.PoissonFactorModel(None, n=self.n, V=self.V)
        hp = self.pkg.structures.Hyperparams(self.r, self.c, 1.0)
        self.state = inf.prior_state(flat, hp, self.t_prior, self.rng, draw_T=True)
        self.model = inf.resample_counts(self.state, flat, self.rng)

    def step(self, i):
        inf = self.pkg.inference
        inf.sweep_once(self.state, self.model, self.cfg)
        self.model = inf.resample_counts(self.state, self.model, self.rng)

    def check(self, i, out, err):
        if err is not None:
            return Step(1, False, blob=repr(err).encode())
        st = self.state
        self.kappas.append(st.W.kappa)
        self.ljs.append(self.pkg.inference.log_joint(st, self.model))
        return Step(1, True, blob=repr((st.W.columns, st.hp.T, self.model.y.tobytes())).encode())

    def finish(self):
        obs = _chain_obs(self.pkg, [(self.kappas, self.ljs)])
        pull = float((np.mean(self.kappas) - self.exact_kappa) / _batch_means_se(self.kappas))
        obs["check.kappa_pull"] = pull
        ok = abs(pull) <= 6.0  # the batch-means SE has 49 degrees of freedom
        return ok, not ok, obs


class SimulateBuffet(Workload):
    """``nbibp simulate --n 3 --mass-T 2 --reps R`` through ``cli.main``.

    With r = c = 1 the feature count of one replicate is exactly
    Poisson(c T [psi(c + n r) - psi(c)]) = Poisson(11/3), so each call's
    ``mean_kappa`` is checked against that mean and variance.
    """

    name = "simulate-buffet"
    op = "replicate"
    n, T, reps = 3, 2.0, 500
    trace_steps = 100

    def __init__(self, pkg, seed, workdir):
        self.pkg = pkg
        g = np.random.default_rng([seed, 3])
        self.seeds = g.integers(0, 2**62, 1 << 14)
        self.input_digest = _digest(self.seeds)
        self.out = Path(workdir) / "simulate.jsonl"
        self.exact_kappa = self.T * float(psi(1.0 + self.n) - psi(1.0))
        self.kappa_sum = 0.0
        self.calls = 0
        self.out_bytes = 0

    def params(self):
        return {"n": self.n, "mass_T": self.T, "reps_per_call": self.reps,
                "exact_kappa_mean": self.exact_kappa}

    def step(self, i):
        seed = int(self.seeds[i % len(self.seeds)])
        return self.pkg.cli.main(["simulate", "--n", str(self.n), "--mass-T", str(self.T),
                                  "--reps", str(self.reps), "--seed", str(seed),
                                  "--out", str(self.out)])

    def check(self, i, code, err):
        if err is not None or code != 0:
            return Step(self.reps, False, blob=repr((code, err)).encode())
        data = self.out.read_bytes()
        self.out_bytes += len(data)
        lines = data.splitlines()
        summary = json.loads(lines[-1])
        if len(lines) != self.reps + 1 or summary.get("reps") != self.reps:
            return Step(self.reps, False, sound=False, blob=data)
        mean = summary["mean_kappa"]
        self.kappa_sum += mean * self.reps
        self.calls += 1
        z = (mean - self.exact_kappa) / math.sqrt(self.exact_kappa / self.reps)
        sound = abs(z) <= 6.0  # one check per call, hundreds per run: a stricter bound
        return Step(self.reps, sound, sound, blob=data)

    def finish(self):
        obs = {"cli.out_bytes": self.out_bytes}
        if not self.calls:
            return True, False, obs
        n = self.calls * self.reps
        z = (self.kappa_sum / n - self.exact_kappa) / math.sqrt(self.exact_kappa / n)
        obs["check.kappa_pull"] = z
        ok = abs(z) <= 5.0
        return ok, not ok, obs


class InferCold(Workload):
    """``nbibp infer --in <file> --sweeps S`` through ``cli.main`` over small
    planted datasets, with the default cold start from ``prior_state``.

    A call fails when it raises, exits non-zero, or emits a state with no
    finite ``log_joint``; its S sweeps then count as failed.  No dataset is
    dropped or re-seeded after a failure.  The run cycles the datasets, each
    with its own chain seed; the first pass is what ``attempted`` and
    ``failed`` count, and later passes only add timed calls.
    """

    name = "infer-cold"
    n, V, K, p_active = 20, 10, 4, 0.3
    sweeps, datasets = 8, 512
    inputs = datasets
    trace_steps = 60

    def __init__(self, pkg, seed, workdir):
        self.pkg = pkg
        g = np.random.default_rng([seed, 4])
        self.ys = [_planted(g, self.n, self.V, self.K, self.p_active)[2] for _ in range(self.datasets)]
        self.seeds = g.integers(0, 2**62, self.datasets)
        self.input_digest = _digest(*self.ys, self.seeds)
        self.inp = Path(workdir) / "infer_in.txt"
        self.out = Path(workdir) / "infer_out.jsonl"
        self.out_bytes = 0
        self.crashed = self.impossible = 0

    def params(self):
        return {"n": self.n, "V": self.V, "planted_features": self.K, "sweeps_per_call": self.sweeps,
                "datasets": self.datasets, "start": "prior_state (cold)"}

    def prepare(self, i):
        y = self.ys[i % self.datasets]
        self.inp.write_text("\n".join(" ".join(map(str, row)) for row in y) + "\n")
        self.out.unlink(missing_ok=True)

    def step(self, i):
        seed = int(self.seeds[i % self.datasets])
        return self.pkg.cli.main(["infer", "--in", str(self.inp), "--sweeps", str(self.sweeps),
                                  "--seed", str(seed), "--out", str(self.out)])

    def check(self, i, code, err):
        if err is not None or code != 0:
            self.crashed += 1
            return Step(self.sweeps, False, blob=repr((code, type(err).__name__, str(err))).encode())
        data = self.out.read_bytes()
        self.out_bytes += len(data)
        recs = [json.loads(ln) for ln in data.splitlines()]
        if [rec["sweep"] for rec in recs] != list(range(self.sweeps + 1)):
            return Step(self.sweeps, False, sound=False, blob=data)
        finite = all(rec["log_joint"] is not None and math.isfinite(rec["log_joint"]) for rec in recs)
        self.impossible += not finite
        return Step(self.sweeps, finite, blob=data)

    def finish(self):
        obs = {"cli.out_bytes": self.out_bytes, "check.crashed_calls": self.crashed,
               "check.impossible_state_calls": self.impossible}
        return True, False, obs


WORKLOADS = {w.name: w for w in (ChainData, ChainPrior, SimulateBuffet, InferCold)}
