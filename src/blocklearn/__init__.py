"""Social learning over community-structured networks.

Simulation of traditional and step-size (adaptive) belief recursions over
Stochastic Block Model graphs with per-community true hypotheses, together
with the closed-form theory (expected combination matrices, steady-state
log-belief ratios, step-size thresholds) and Monte Carlo cross-validation
tooling.

The names below are imported from their modules on first use (PEP 562), so
that importing one module of the package, as each ``blocklearn`` command
does, does not load the others.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("exceptions", "graphs", "models", "learning", "theory", "inverse", "config",
            "harness", "writers")

_NAMES = {
    "graphs": (
        "BlockModel",
        "ExpectedMatrix",
        "Network",
        "NetworkBlock",
        "SbmParams",
        "averaging_combination",
        "closed_form_power",
        "expected_combination",
        "expected_perron",
        "inverse_binomial_moment",
        "is_strongly_connected",
        "load_network",
        "perron_vector",
        "sample_sbm",
        "save_network",
    ),
    "models": (
        "HypothesisSet",
        "LikelihoodProfile",
        "bernoulli_profile",
        "check_global_identifiability",
        "cluster_informativeness",
        "kl_divergence",
        "load_profile",
        "random_multinomial_profile",
        "save_profile",
    ),
    "learning": (
        "BeliefState",
        "Trace",
        "asl_update",
        "bayesian_update",
        "estimate_state",
        "geometric_combine",
        "run",
    ),
    "theory": (
        "LogRatioPrediction",
        "ThresholdReport",
        "asymmetric_delta_thresholds",
        "exact_recovery_infeasible",
        "expected_log_ratio",
        "network_divergence",
        "optimal_hypothesis_set",
        "symmetric_delta_threshold",
        "symmetric_log_ratio_closed_form",
    ),
    "inverse": (
        "BeliefSeries",
        "estimate_log_likelihoods",
        "fit_error",
        "scan_delta",
        "traditional_fit",
    ),
    "config": ("ExperimentConfig",),
    "harness": (
        "ErrorReport",
        "ExperimentResult",
        "compare_theory",
        "run_experiment",
    ),
}

_OWNERS = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_MODULES, *_OWNERS]


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _OWNERS:
        return getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
