"""The package's public surface: its export list, and every name the
benchmark's span tracer (perfbench/spans.py) wraps."""

import importlib.util
from pathlib import Path

import nbibp
import nbibp.cli  # the tracer reaches cli.main; the package does not import it

# The recorded export set: adding or dropping a public name means editing it.
EXPORTS = {
    "RngStream", "digamma_fn", "harmonic_gap", "log_beta_fn", "log_rising_factorial",
    "BnbParams", "DigammaParams", "NbParams", "bnb_log_pmf", "bnb_mean", "bnb_sample",
    "bnb_total_mass", "digamma_laplace", "digamma_log_pmf", "digamma_mean",
    "digamma_sample", "digamma_sample_rounds", "digamma_total_mass", "nb_log_pmf",
    "nb_sample", "nb_total_mass",
    "CombStruct", "FeatureArray", "Hyperparams", "array_from_json", "array_to_json",
    "from_array", "left_order", "log_pmf_array", "log_pmf_struct", "ordering_count",
    "project", "struct_from_json", "struct_to_json", "uniform_label",
    "bnbp_sample_finitary", "nbibp_simulate", "predictive_step",
    "truncated_oracle_simulate", "truncated_weight_mass",
    "ChainConfig", "ChainState", "HyperPrior", "PoissonFactorModel", "chain_record",
    "log_joint", "prior_state", "resample_counts", "run_chain", "sweep_once",
    "update_c_r", "update_entry", "update_mass_T", "update_singletons", "update_theta",
    "SUITES", "SuiteResult", "run_suites",
    "__version__",
}

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_export_list():
    names = nbibp.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(nbibp, name) for name in names)
    assert set(names) == EXPORTS


def test_submodule_export_lists():
    # a stale name here would break `from nbibp.<module> import *`
    for mod in ("numerics", "distributions", "structures", "generative", "inference",
                "validation", "cli"):
        module = getattr(nbibp, mod)
        names = module.__all__
        assert len(names) == len(set(names)), mod
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], (mod, missing)


def load_spans():
    spec = importlib.util.spec_from_file_location("nbibp_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_targets_exist_and_uninstall_cleanly():
    spans = load_spans()
    mods = [nbibp] + [getattr(nbibp, m) for m in spans.MODULES]
    before = [(m, dict(vars(m))) for m in mods]
    methods = [
        (getattr(getattr(nbibp, mod), attr), method)
        for mod, attr, method, _ in spans.TARGETS
        if method is not None
    ]
    originals = [vars(cls)[method] for cls, method in methods]
    tracer = spans.Tracer(nbibp)
    try:
        tracer.install()
        for mod, attr, method, _ in spans.TARGETS:
            owner = getattr(getattr(nbibp, mod), attr)
            wrapped = vars(owner)[method] if method is not None else owner
            assert hasattr(wrapped, "__wrapped__"), f"{mod}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for m, names in before:
        assert vars(m).keys() >= names.keys()
        changed = [k for k, v in names.items() if vars(m)[k] is not v]
        assert changed == [], (m.__name__, changed)
    assert [vars(cls)[method] for cls, method in methods] == originals
