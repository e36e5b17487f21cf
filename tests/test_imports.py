"""Each ``blocklearn`` command loads only the code it runs, and the package
root still exports every name it did when it imported all its modules.

A command runs as ``python -m blocklearn.cli`` runs it, in a fresh
interpreter, which then prints the names of the modules it loaded.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blocklearn

SRC = Path(__file__).resolve().parents[1] / "src"

RUN_AND_LIST = """
import json, runpy, sys
sys.argv = ["blocklearn", *sys.argv[1:]]
try:
    runpy.run_module("blocklearn.cli", run_name="__main__")
except SystemExit as exit:
    if exit.code:
        raise
print(json.dumps(sorted(sys.modules)))
"""

CONFIG = {
    "version": 1,
    "network": {"kind": "file", "path": "net/network.txt"},
    "profile": {"kind": "bernoulli", "success_probs": [0.1, 0.5]},
    "strategy": "asl",
    "delta": 0.2,
    "horizon": 40,
    "burn_in": 10,
    "replicates": 2,
    "base_seed": 3,
    "store_traces": True,
}

# each command reads what the ones before it wrote
COMMANDS = {
    "generate": ["generate", "--seed", "7", "--out", "net", "--n0", "10", "--n1", "12",
                 "--p0", "0.8", "--p1", "0.7", "--q0", "0.1", "--q1", "0.2"],
    "simulate": ["simulate", "--config", "config.json", "--out", "sim"],
    "predict": ["predict", "--config", "config.json", "--out", "pred"],
    "fit-delta": ["fit-delta", "--trace", "sim/trace_0000.csv", "--network", "net/network.txt",
                  "--traditional", "--out", "fit"],
}

NOT_LOADED = {
    "generate": ["blocklearn.harness", "blocklearn.learning", "blocklearn.models",
                 "blocklearn.theory", "blocklearn.inverse"],
    "simulate": ["numpy.ma"],
    "predict": ["numpy.ma", "blocklearn.harness", "blocklearn.learning"],
    "fit-delta": ["blocklearn.harness", "blocklearn.learning", "blocklearn.models"],
}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The modules each command loaded, by command."""
    workdir = tmp_path_factory.mktemp("commands")
    (workdir / "config.json").write_text(json.dumps(CONFIG))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    modules = {}
    for command, argv in COMMANDS.items():
        proc = subprocess.run([sys.executable, "-c", RUN_AND_LIST, *argv], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        modules[command] = set(json.loads(proc.stdout.splitlines()[-1]))
    return modules


def test_commands_load_the_package(loaded):
    assert all({"blocklearn", "blocklearn.graphs", "blocklearn.writers"} <= modules
               for modules in loaded.values())
    assert "blocklearn.harness" in loaded["simulate"]
    assert "blocklearn.inverse" in loaded["fit-delta"]


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_command_loads_only_what_it_runs(loaded, command):
    assert not loaded[command] & set(NOT_LOADED[command])


# The package root's public names when it imported every module, by the
# module that defines them; "exceptions" and the modules are names too.
EXPORTED = {
    "graphs": ["BlockModel", "ExpectedMatrix", "Network", "NetworkBlock", "SbmParams",
               "averaging_combination", "closed_form_power", "expected_combination",
               "expected_perron", "inverse_binomial_moment", "is_strongly_connected",
               "load_network", "perron_vector", "sample_sbm", "save_network"],
    "models": ["HypothesisSet", "LikelihoodProfile", "bernoulli_profile",
               "check_global_identifiability", "cluster_informativeness", "kl_divergence",
               "load_profile", "random_multinomial_profile", "save_profile"],
    "learning": ["BeliefState", "Trace", "asl_update", "bayesian_update", "estimate_state",
                 "geometric_combine", "run"],
    "theory": ["LogRatioPrediction", "ThresholdReport", "asymmetric_delta_thresholds",
               "exact_recovery_infeasible", "expected_log_ratio", "network_divergence",
               "optimal_hypothesis_set", "symmetric_delta_threshold",
               "symmetric_log_ratio_closed_form"],
    "inverse": ["BeliefSeries", "estimate_log_likelihoods", "fit_error", "scan_delta",
                "traditional_fit"],
    "harness": ["ErrorReport", "ExperimentConfig", "ExperimentResult", "compare_theory",
                "run_experiment"],
}
EXPORTED_MODULES = ["exceptions", "graphs", "harness", "inverse", "learning", "models", "theory",
                    "writers"]
EXPORTED_NAMES = EXPORTED_MODULES + [name for names in EXPORTED.values() for name in names]


def test_every_exported_name_resolves():
    for module in EXPORTED_MODULES:
        assert getattr(blocklearn, module) is importlib.import_module(f"blocklearn.{module}")
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"blocklearn.{module}")
        for name in names:
            assert getattr(blocklearn, name) is getattr(owner, name)
    assert set(EXPORTED_NAMES) <= set(dir(blocklearn))
    with pytest.raises(AttributeError):
        blocklearn.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from blocklearn import *", namespace)
    assert set(EXPORTED_NAMES) <= set(namespace)


# The modules whose __all__ the package root exports, lowest layer first.
EXPORTING = ["graphs", "models", "learning", "theory", "inverse", "config", "harness"]
ROOT_MODULES = ["exceptions", "graphs", "models", "learning", "theory", "inverse", "config",
                "harness", "writers"]


def fresh_modules(code):
    """The modules a fresh interpreter loaded running ``code``, which prints
    a JSON list of them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_no_name_is_exported_by_two_modules():
    owners = {}
    for module in EXPORTING:
        for name in importlib.import_module(f"blocklearn.{module}").__all__:
            assert name not in owners, f"{name} is in {owners.get(name)} and {module}"
            owners[name] = module


def test_root_exports_the_modules_and_their_names():
    names = [name for module in EXPORTING
             for name in importlib.import_module(f"blocklearn.{module}").__all__]
    assert sorted(blocklearn.__all__) == sorted(ROOT_MODULES + names)
    assert len(blocklearn.__all__) == len(set(blocklearn.__all__))
    for module in EXPORTING:
        owner = importlib.import_module(f"blocklearn.{module}")
        for name in owner.__all__:
            assert getattr(blocklearn, name) is getattr(owner, name)
    assert set(blocklearn.__all__) <= set(dir(blocklearn))


def test_importing_the_runner_and_the_command_loads_no_theory():
    loaded = fresh_modules("import json, sys\nfrom blocklearn import cli, harness\n"
                           "print(json.dumps(sorted(sys.modules)))")
    assert {"blocklearn.cli", "blocklearn.harness"} <= loaded
    assert not loaded & {"blocklearn.theory", "blocklearn.inverse", "blocklearn.verify"}


def test_dunder_lookup_loads_nothing():
    loaded = fresh_modules("import json, sys\nimport blocklearn\nbefore = set(sys.modules)\n"
                           "assert not hasattr(blocklearn, '__wrapped__')\n"
                           "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert loaded == set()
