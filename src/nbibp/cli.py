"""Command-line surface.

Subcommands:

* simulate: replicate draws of feature arrays (sequential buffet by default,
  the truncated weight-measure oracle with --construction truncated, or the
  one-shot mass construction with --construction finitary), one JSON record
  per line plus a trailing summary record.
* pmf: log p.m.f. of serialized arrays or structures read from --in.
* sample: i.i.d. draws from the digamma, beta negative binomial, or negative
  binomial count distributions, one integer per line plus a summary.
* infer: MCMC on an n-by-V count matrix (--in, whitespace or JSON), or on
  synthetic data generated forward under the prior (--synthetic), writing one
  chain record per emitted state.
* validate: named verification suites.

Exit status is 0 on success, 1 when a validate suite or a pmf record fails,
and 2 when the command cannot run: a bad flag value or bad input (say, a
negative count for infer) ends it with one ``nbibp: error: ...`` line on
stderr, never a traceback.

Every stochastic command requires an explicit --seed and is a pure function
of its flags: rerunning with the same flags produces byte-identical output.
Replicate k draws from the stream keyed (seed, k), so outputs are independent
of any scheduling; each command builds one stream and re-keys it per
replicate.

The argument parser is built once per process, on the first main call, and
reused by every later call; importing this module builds none.

Importing this module loads numpy and, of scipy's subpackages, only
scipy.special.  Only simulate --construction truncated and validate load
scipy.integrate, for their quadratures, and no command loads scipy.stats.
"""

import argparse
import contextlib
import functools
import json
import sys

from .distributions import (
    RATE_CAP,
    BnbParams,
    DigammaParams,
    NbParams,
    bnb_sample,
    digamma_sample,
    nb_sample,
)
from .generative import (
    _weight_integrals,
    bnbp_sample_finitary,
    nbibp_simulate,
    truncated_oracle_simulate,
)
from .inference import (
    ChainConfig,
    HyperPrior,
    PoissonFactorModel,
    chain_record,
    prior_state,
    resample_counts,
    run_chain,
)
from .numerics import RngStream, harmonic_gap
from .structures import (
    Hyperparams,
    array_from_json,
    array_to_json,
    log_pmf_array,
    log_pmf_struct,
    struct_from_json,
)
from .validation import SUITES, run_suites

__all__ = ["main"]

# The most features c T [psi(c + n r) - psi(c)] that simulate and infer let n
# rows expect, and the most atoms c T (I_low + I_high) that the truncated
# construction may expect.  Every test and benchmark expects a few thousand
# at most; a million takes seconds to open, and rates from about 9e18 on are
# past numpy's Poisson sampler.
FEATURE_CAP = 1e6


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _open_out(path):
    """The --out file for writing, or stdout when no path is given."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _hyper(args):
    return Hyperparams(args.r, args.c, args.mass_T)


def _check_features(hp, n):
    """ValueError unless n rows expect at most FEATURE_CAP features, in the
    product order of the draws' rates, which read NaN where c T overflows."""
    expected = hp.c * hp.T * harmonic_gap(n * hp.r, hp.c)
    if not expected <= FEATURE_CAP:
        raise ValueError(f"--mass-T {hp.T:g}, --c {hp.c:g} and --r {hp.r:g} expect {expected:.3g} "
                         f"features at n={n}, past the limit {FEATURE_CAP:g}")


def _parse_prior(text):
    """'gamma:a,b' | 'lognormal:mu,sigma' -> HyperPrior; 'point' -> None (pinned)."""
    if text == "point":
        return None
    try:
        kind, rest = text.split(":", 1)
        a, b = (float(x) for x in rest.split(","))
    except ValueError:
        raise ValueError(
            f"bad prior spec {text!r}: expected kind:a,b with kind gamma|lognormal, or point"
        ) from None
    return HyperPrior(kind, a, b)


def cmd_simulate(args):
    if args.reps < 0:
        raise ValueError("--reps must be >= 0")
    if args.construction == "truncated" and not 0.0 < args.epsilon < 1.0:
        raise ValueError("--epsilon must lie in (0, 1)")
    if args.construction != "finitary" and args.n < 1:
        raise ValueError("--n must be >= 1")
    hp = _hyper(args)
    _check_features(hp, args.n if args.construction != "finitary" else 1)
    if args.construction == "truncated":
        # the epsilon cut keeps far more atoms than features at large c
        i_low, i_high = _weight_integrals(hp.c, args.epsilon)
        atoms = hp.c * hp.T * (i_low + i_high)
        if not atoms <= FEATURE_CAP:
            raise ValueError(f"--c {hp.c:g}, --epsilon {args.epsilon:g} and --mass-T {hp.T:g} "
                             f"expect {atoms:.3g} atoms, past the limit {FEATURE_CAP:g}")
    with _open_out(args.out) as out:
        kappas = []
        row_feats = []
        pos_entries = 0
        pos_total = 0
        rng = RngStream(args.seed)
        for k in range(args.reps):
            rng.rekey(args.seed, k)
            if args.construction == "sequential":
                arr = nbibp_simulate(args.n, hp, rng)
            elif args.construction == "truncated":
                arr = truncated_oracle_simulate(args.n, hp, args.epsilon, rng)
            else:
                fixed, diffuse = bnbp_sample_finitary(hp, rng)
                print(_dump({"kind": "masses", "fixed": fixed, "diffuse": diffuse}), file=out)
                kappas.append(len(diffuse))
                continue
            print(array_to_json(arr), file=out)
            kappas.append(arr.kappa)
            positive = [w for col in arr.columns for w in col if w > 0]
            row_feats.append(len(positive) / arr.n)
            pos_entries += len(positive)
            pos_total += sum(positive)
        summary = {
            "kind": "summary",
            "reps": args.reps,
            "mean_kappa": (sum(kappas) / len(kappas)) if kappas else None,
            "mean_row_features": (sum(row_feats) / len(row_feats)) if row_feats else None,
            "mean_multiplicity": (pos_total / pos_entries) if pos_entries else None,
        }
        print(_dump(summary), file=out)
    return 0


def cmd_pmf(args):
    hp = _hyper(args)
    failures = 0
    with open(args.in_path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    with _open_out(args.out) as out:
        for idx, ln in enumerate(lines):
            try:
                kind = json.loads(ln).get("kind")
                if kind == "array":
                    val = log_pmf_array(array_from_json(ln), hp)
                elif kind == "struct":
                    val = log_pmf_struct(struct_from_json(ln), hp)
                else:
                    raise ValueError(f"record kind must be array or struct, got {kind!r}")
            except Exception as exc:
                print(f"record {idx}: {exc}", file=sys.stderr)
                failures += 1
                continue
            print(_dump({"index": idx, "log_pmf": val}), file=out)
    return 1 if failures else 0


def cmd_sample(args):
    if args.reps < 0:
        raise ValueError("--reps must be >= 0")
    if args.dist == "digamma":
        params = DigammaParams(args.r, args.theta)
        draw = lambda rng: digamma_sample(params, rng)
    elif args.dist == "bnb":
        params = BnbParams(args.r, args.alpha, args.beta)
        draw = lambda rng: bnb_sample(params, rng)
    else:
        params = NbParams(args.r, args.p)
        draw = lambda rng: nb_sample(params, rng)
    with _open_out(args.out) as out:
        total = 0
        rng = RngStream(args.seed)
        for k in range(args.reps):
            z = draw(rng.rekey(args.seed, k))
            total += z
            print(z, file=out)
        summary = {
            "kind": "summary",
            "dist": args.dist,
            "reps": args.reps,
            "mean": (total / args.reps) if args.reps else None,
        }
        print(_dump(summary), file=out)
    return 0


def _load_counts(path):
    with open(path) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = None
    y = obj.get("y") if isinstance(obj, dict) else obj
    if isinstance(y, list):  # JSON; a 1x1 whitespace file also parses, as a number
        # numpy would report a ragged matrix as a sequence in an array element
        for k, row in enumerate(y):
            if not isinstance(row, list) or any(isinstance(v, list) for v in row):
                raise ValueError(f"{path}: row {k} is not a list of counts")
            if len(row) != len(y[0]):
                raise ValueError(f"{path}: not a rectangular count matrix: row {k} has "
                                 f"{len(row)} counts, row 0 has {len(y[0])}")
            # numpy would read true and false as the counts 1 and 0
            if any(v is True or v is False for v in row):
                raise ValueError(f"{path}: counts must be integers, not true or false")
        return y
    try:
        rows = [
            [int(tok) for tok in ln.split()] for ln in text.splitlines() if ln.strip()
        ]
    except ValueError:
        # int() names the bad token but not its row, which the JSON branch names
        for k, ln in enumerate(ln for ln in text.splitlines() if ln.strip()):
            for tok in ln.split():
                try:
                    int(tok)
                except ValueError:
                    raise ValueError(f"{path}: row {k}: {tok!r} is not an integer count") from None
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path}: not a rectangular count matrix")
    return rows


def cmd_infer(args):
    if args.sweeps < 0:
        raise ValueError("--sweeps must be >= 0")
    hp = _hyper(args)
    t_prior = (args.t_alpha, args.t_beta)
    rng = RngStream(args.seed, 0)
    truth = None
    if args.synthetic:
        template = PoissonFactorModel(None, args.a_theta, args.b_theta, n=args.n, V=args.V)
        _check_features(hp, args.n)
        gen = prior_state(template, hp, t_prior, rng)
        top = float((gen.counts @ gen.Theta).max(initial=0.0))
        if not top < RATE_CAP:
            raise ValueError(f"--a-theta {args.a_theta:g} and --b-theta {args.b_theta:g} give a "
                             f"synthetic Poisson rate of {top:.3g}, past the limit {RATE_CAP:g}")
        y = resample_counts(gen, template, rng).y
        truth = {
            "kind": "truth",
            "W": gen.counts.T.tolist(),
            "Theta": gen.Theta.tolist(),
            "y": y.tolist(),
        }
    else:
        y = _load_counts(args.in_path)
    model = PoissonFactorModel(y, args.a_theta, args.b_theta)
    _check_features(hp, model.n)
    c_prior, r_prior = _parse_prior(args.c_prior), _parse_prior(args.r_prior)
    config = ChainConfig(
        conc=c_prior is not None,
        shape=r_prior is not None,
        thin=args.thin,
        c_prior=c_prior or HyperPrior(),
        r_prior=r_prior or HyperPrior(),
    )
    init = prior_state(model, hp, t_prior, rng)
    with _open_out(args.out) as out:
        if truth is not None:
            print(_dump(truth), file=out)
        sweep = 0
        for state in run_chain(model, init, args.sweeps, rng, config):
            print(_dump(chain_record(state, sweep, model, full=args.full)), file=out)
            sweep += config.thin
    return 0


def cmd_validate(args):
    names = args.suite  # None: every suite, in registration order
    if names is not None and "none" in names:
        if names != ["none"]:
            raise ValueError("--suite none cannot be combined with other suites")
        names = []
    results = run_suites(names, seed=args.seed)
    for res in results:
        print(_dump(res.to_json()))
    ok = all(res.passed for res in results)
    print(_dump({"kind": "report", "passed": ok}))
    return 0 if ok else 1


def _add_hyper_flags(p):
    p.add_argument("--r", type=float, default=1.0, help="count shape r > 0")
    p.add_argument("--c", type=float, default=1.0, help="concentration c > 0")
    p.add_argument("--mass-T", type=float, default=1.0, dest="mass_T", help="base mass T > 0")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one line, like any other
        self.exit(2, f"nbibp: error: {message}\n")


@functools.cache
def _parser():
    """The argparse tree, built on the first main call and kept for the
    process.  parse_args makes a fresh namespace on each call and copies an
    'append' default before appending, so one tree serves every call."""
    top = _Parser(
        prog="nbibp",
        description="count-valued latent feature processes: simulate, evaluate, infer, verify",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw replicate feature arrays")
    _add_hyper_flags(p)
    p.add_argument("--n", type=int, default=1, help="rows per replicate")
    p.add_argument("--reps", type=int, default=1, help="number of replicates")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--construction",
        choices=("sequential", "truncated", "finitary"),
        default="sequential",
    )
    p.add_argument("--epsilon", type=float, default=1e-4, help="weight cutoff (truncated)")
    p.add_argument("--out", default=None, help="output path (stdout if absent)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("pmf", help="log p.m.f. of serialized arrays/structures")
    _add_hyper_flags(p)
    p.add_argument("--in", dest="in_path", required=True, help="input records, one per line")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pmf)

    p = sub.add_parser("sample", help="i.i.d. draws from one count distribution")
    p.add_argument("--dist", choices=("digamma", "bnb", "nb"), default="digamma")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=1.0, help="digamma concentration")
    p.add_argument("--alpha", type=float, default=1.0, help="bnb first shape")
    p.add_argument("--beta", type=float, default=1.0, help="bnb second shape")
    p.add_argument("--p", type=float, default=0.5, help="nb success parameter in (0,1)")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("infer", help="MCMC on count data")
    _add_hyper_flags(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="in_path", help="n-by-V count matrix")
    source.add_argument("--synthetic", action="store_true", help="generate data forward first")
    p.add_argument("--n", type=int, default=3, help="rows (synthetic mode)")
    p.add_argument("--V", type=int, default=2, help="columns (synthetic mode)")
    p.add_argument("--a-theta", type=float, default=1.0, dest="a_theta")
    p.add_argument("--b-theta", type=float, default=1.0, dest="b_theta")
    p.add_argument("--t-alpha", type=float, default=1.0, dest="t_alpha")
    p.add_argument("--t-beta", type=float, default=1.0, dest="t_beta")
    p.add_argument("--c-prior", default="gamma:1,1", dest="c_prior")
    p.add_argument("--r-prior", default="gamma:1,1", dest="r_prior")
    p.add_argument("--sweeps", type=int, default=100)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--full", action="store_true", help="include W and Theta per record")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("validate", help="run verification suites")
    p.add_argument(
        "--suite",
        action="append",
        default=None,
        choices=sorted(SUITES) + ["none"],
        help="suite name (repeatable; default all; 'none' for an empty report)",
    )
    p.add_argument("--seed", type=int, default=None, help="override per-suite default seeds")
    p.set_defaults(fn=cmd_validate)
    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"nbibp: error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
