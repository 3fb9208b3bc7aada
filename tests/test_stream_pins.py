"""Random-stream pins: sha256 digests of ten fixed-seed runs.

The pins cover run_chain with every kernel on (c/r slice moves included)
from a planted n=40, V=15 truth, on its data and on a flat (y=None) model of
the same shape, whose entry pass draws no uniforms; the same from a planted
n=100, V=20 truth, large enough that its entry passes read their proposals
from an entry bank, and from a planted n=100, V=50, K=16 truth, the shape
of the benchmark's chain-data workload; the Geweke suite's
successive-conditional loop; `infer --synthetic --full`; `simulate` under
the sequential, finitary and truncated constructions; and `sample` under
the digamma, BNB and NB laws.  The chain and Geweke digests hash the hyperparameters as (r, c, T),
so the text of repr(Hyperparams) is not part of the pin.

A change that keeps every draw and every printed value leaves every digest
as it is.  A change that moves the stream or a printed value on purpose
declares it in CHANGES.md and re-records the digests it moves here.
"""

import hashlib

import numpy as np

import nbibp.cli as cli
from nbibp.inference import (
    BANK_MIN,
    ChainConfig,
    ChainState,
    PoissonFactorModel,
    prior_state,
    resample_counts,
    run_chain,
    sweep_once,
)
from nbibp.numerics import RngStream
from nbibp.structures import FeatureArray, Hyperparams

RUN_CHAIN_SHA256 = "54c76807689773b54292f19cd335b1bbacf1bbdb455d9405654d8065d66e1946"
BANKED_CHAIN_SHA256 = "d027092ec784004ce991cdea6a84fd54ba675bc9f50857d03d5a7af88d024349"
CHAIN_DATA_SHAPE_SHA256 = "1c03a4ab7b9392fae49e847b846ab60d085e7fbe0f4154526969814d3df13f22"
FLAT_CHAIN_SHA256 = "fd02764c489872a491906a8c93ff15648a422c2ad18e263c82864a91f61bb982"
GEWEKE_LOOP_SHA256 = "1dda0e6e53add49c7dc33f5b8e9510d5ddb69fa0baac9fe06df006de0e0efccd"
INFER_FULL_SHA256 = "ea0cccf2e88da8a6be1214d919a746724b9a2a54bdedfb1894ed601d7e0fe91d"
SIMULATE_SHA256 = "049e43bc035188a3273ca3e90763fe5b2eca456f4814e2fa0a968cbb1e54f150"
FINITARY_SHA256 = "f968b048f6346bef9cdc63b5e349fc0f3c7d14241a5a3e54718e5984f8977b0e"
TRUNCATED_SHA256 = "3a733207f7df4873df3b5bf8ee1d079a936af9c72e7292ccc8a4eedc6be671fe"
SAMPLE_SHA256 = "274641023be1427ad48d948fe67aea2fedb3e22b5d26998d082fb8f8f532d537"


def _state_key(state):
    hp = state.hp
    return repr((state.W.columns, hp.r, hp.c, hp.T)).encode()


def _planted(n, V, K, seed):
    """W (n x K counts, every column used), Theta ~ Gamma(1, 1), y ~ Poisson(W Theta)."""
    g = np.random.default_rng(seed)
    W = np.where(g.random((n, K)) < 0.3, 1 + g.poisson(1.0, (n, K)), 0)
    for j in np.flatnonzero(W.sum(axis=0) == 0):
        W[g.integers(n), j] = 1
    theta = g.gamma(1.0, 1.0, (K, V))
    return W, theta, g.poisson(W @ theta)


def run_chain_digest():
    """10 sweeps of every kernel, c/r slice moves included, from the planted
    truth of an n=40, V=15 dataset."""
    W, theta, y = _planted(40, 15, 8, 2024)
    model = PoissonFactorModel(y)
    rng = RngStream(31, 0)
    init = ChainState(
        FeatureArray.from_matrix(W), theta, Hyperparams(1.0, 1.0, 2.0), (1.0, 1.0), rng
    )
    h = hashlib.sha256()
    for state in run_chain(model, init, 10, rng, ChainConfig()):
        h.update(_state_key(state))
        h.update(state.Theta.tobytes())
    return h.hexdigest()


def banked_chain_digest():
    """10 sweeps of every kernel, c/r slice moves included, from the planted
    truth of an n=100, V=20 dataset: n * kappa stays at least BANK_MIN, so
    every entry pass reads its proposals from an entry bank."""
    W, theta, y = _planted(100, 20, 12, 2025)
    model = PoissonFactorModel(y)
    rng = RngStream(33, 0)
    init = ChainState(
        FeatureArray.from_matrix(W), theta, Hyperparams(1.0, 1.0, 2.0), (1.0, 1.0), rng
    )
    h = hashlib.sha256()
    for state in run_chain(model, init, 10, rng, ChainConfig()):
        assert state.counts.size >= BANK_MIN
        h.update(_state_key(state))
        h.update(state.Theta.tobytes())
    return h.hexdigest()


def chain_data_shape_digest():
    """10 sweeps of every kernel, c/r slice moves included, from the planted
    truth of an n=100, V=50, K=16 dataset, banked like banked_chain_digest."""
    W, theta, y = _planted(100, 50, 16, 2026)
    model = PoissonFactorModel(y)
    rng = RngStream(34, 0)
    init = ChainState(
        FeatureArray.from_matrix(W), theta, Hyperparams(1.0, 1.0, 2.0), (1.0, 1.0), rng
    )
    h = hashlib.sha256()
    for state in run_chain(model, init, 10, rng, ChainConfig()):
        assert state.counts.size >= BANK_MIN
        h.update(_state_key(state))
        h.update(state.Theta.tobytes())
    return h.hexdigest()


def flat_chain_digest():
    """10 sweeps of every kernel, c/r slice moves included, of a flat-model
    chain from the planted n=40, V=15 truth of run_chain_digest."""
    W, theta, _ = _planted(40, 15, 8, 2024)
    model = PoissonFactorModel(None, n=40, V=15)
    rng = RngStream(32, 0)
    init = ChainState(
        FeatureArray.from_matrix(W), theta, Hyperparams(1.0, 1.0, 2.0), (1.0, 1.0), rng
    )
    h = hashlib.sha256()
    for state in run_chain(model, init, 10, rng, ChainConfig()):
        h.update(_state_key(state))
        h.update(state.Theta.tobytes())
    return h.hexdigest()


def geweke_loop_digest(iters=500):
    """The successive-conditional loop of the Geweke suite at its own setup."""
    model = PoissonFactorModel(None, n=3, V=2)
    cfg = ChainConfig(mass=True, conc=False, shape=False)
    rng = RngStream(223, 2)
    state = prior_state(model, Hyperparams(1.0, 3.0, 1.0), (4.0, 4.0), rng, draw_T=True)
    m = resample_counts(state, model, rng)
    h = hashlib.sha256()
    for _ in range(iters):
        sweep_once(state, m, cfg)
        m = resample_counts(state, m, rng)
        h.update(_state_key(state))
        h.update(state.Theta.tobytes())
        h.update(m.y.tobytes())
    return h.hexdigest()


def stdout_digest(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_run_chain_stream_pinned():
    assert run_chain_digest() == RUN_CHAIN_SHA256


def test_banked_chain_stream_pinned():
    assert banked_chain_digest() == BANKED_CHAIN_SHA256


def test_chain_data_shape_stream_pinned():
    assert chain_data_shape_digest() == CHAIN_DATA_SHAPE_SHA256


def test_flat_chain_stream_pinned():
    assert flat_chain_digest() == FLAT_CHAIN_SHA256


def test_geweke_loop_stream_pinned():
    assert geweke_loop_digest() == GEWEKE_LOOP_SHA256


def test_infer_full_output_pinned(capsys):
    digest = stdout_digest(
        capsys,
        "infer", "--synthetic", "--n", "5", "--V", "3", "--sweeps", "20", "--seed", "2", "--full",
    )
    assert digest == INFER_FULL_SHA256


def test_simulate_output_pinned(capsys):
    digest = stdout_digest(
        capsys,
        "simulate", "--n", "4", "--r", "1.5", "--c", "2", "--mass-T", "2",
        "--reps", "200", "--seed", "5",
    )
    assert digest == SIMULATE_SHA256


def test_finitary_output_pinned(capsys):
    digest = stdout_digest(
        capsys,
        "simulate", "--construction", "finitary", "--r", "1.5", "--c", "2", "--mass-T", "2",
        "--reps", "300", "--seed", "7",
    )
    assert digest == FINITARY_SHA256


def test_truncated_output_pinned(capsys):
    digest = stdout_digest(
        capsys,
        "simulate", "--construction", "truncated", "--epsilon", "1e-3", "--n", "2",
        "--reps", "100", "--seed", "7",
    )
    assert digest == TRUNCATED_SHA256


def test_sample_output_pinned(capsys):
    runs = (
        ("--dist", "digamma", "--r", "0.7", "--theta", "1.5", "--seed", "5"),
        ("--dist", "bnb", "--r", "1.5", "--alpha", "2", "--beta", "1.5", "--seed", "-3"),
        ("--dist", "nb", "--r", "2.5", "--p", "0.3", "--seed", "11"),
    )
    for flags in runs:
        assert cli.main(["sample", *flags, "--reps", "300"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SAMPLE_SHA256
