"""Count-valued latent feature modeling: exact p.m.f.s, generative
constructions, and MCMC for buffet-style processes with negative binomial
multiplicities."""

from types import ModuleType as _ModuleType

from .numerics import (
    RngStream,
    digamma_fn,
    harmonic_gap,
    log_beta_fn,
    log_rising_factorial,
)
from .distributions import (
    BnbParams,
    DigammaParams,
    NbParams,
    bnb_log_pmf,
    bnb_mean,
    bnb_sample,
    bnb_total_mass,
    digamma_laplace,
    digamma_log_pmf,
    digamma_mean,
    digamma_sample,
    digamma_sample_rounds,
    digamma_total_mass,
    nb_log_pmf,
    nb_sample,
    nb_total_mass,
)
from .structures import (
    CombStruct,
    FeatureArray,
    Hyperparams,
    array_from_json,
    array_to_json,
    from_array,
    left_order,
    log_pmf_array,
    log_pmf_struct,
    ordering_count,
    project,
    struct_from_json,
    struct_to_json,
    uniform_label,
)
from .generative import (
    bnbp_sample_finitary,
    nbibp_simulate,
    predictive_step,
    truncated_oracle_simulate,
    truncated_weight_mass,
)
from .inference import (
    ChainConfig,
    ChainState,
    HyperPrior,
    PoissonFactorModel,
    chain_record,
    log_joint,
    prior_state,
    resample_counts,
    run_chain,
    sweep_once,
    update_c_r,
    update_entry,
    update_mass_T,
    update_singletons,
    update_theta,
)
from .validation import SUITES, SuiteResult, run_suites

__version__ = "0.1.0"

# The public names are exactly the ones imported above, each listed once.
__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
) + ["__version__"]
