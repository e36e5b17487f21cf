"""Social learning over community-structured networks.

Simulation of traditional and step-size (adaptive) belief recursions over
Stochastic Block Model graphs with per-community true hypotheses, together
with the closed-form theory (expected combination matrices, steady-state
log-belief ratios, step-size thresholds) and Monte Carlo cross-validation
tooling.
"""

__version__ = "0.1.0"

from . import exceptions  # noqa: F401
from .graphs import (  # noqa: F401
    BlockModel,
    ExpectedMatrix,
    Network,
    NetworkBlock,
    SbmParams,
    averaging_combination,
    closed_form_power,
    expected_combination,
    expected_perron,
    inverse_binomial_moment,
    is_strongly_connected,
    load_network,
    perron_vector,
    sample_sbm,
    save_network,
)
from .models import (  # noqa: F401
    HypothesisSet,
    LikelihoodProfile,
    bernoulli_profile,
    check_global_identifiability,
    cluster_informativeness,
    kl_divergence,
    load_profile,
    random_multinomial_profile,
    save_profile,
)
from .learning import (  # noqa: F401
    BeliefState,
    Trace,
    asl_update,
    bayesian_update,
    estimate_state,
    geometric_combine,
    run,
)
from .theory import (  # noqa: F401
    LogRatioPrediction,
    ThresholdReport,
    asymmetric_delta_thresholds,
    exact_recovery_infeasible,
    expected_log_ratio,
    network_divergence,
    optimal_hypothesis_set,
    symmetric_delta_threshold,
    symmetric_log_ratio_closed_form,
)
from .inverse import (  # noqa: F401
    BeliefSeries,
    estimate_log_likelihoods,
    fit_error,
    scan_delta,
    traditional_fit,
)
from .harness import (  # noqa: F401
    ErrorReport,
    ExperimentConfig,
    ExperimentResult,
    compare_theory,
    run_experiment,
)
