import csv
import gc
import importlib.util
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blocklearn import exceptions
from blocklearn.cli import main
from blocklearn.graphs import SbmParams, load_network, sample_sbm, save_matrix_csv, save_network
from blocklearn.harness import ExperimentConfig, run_experiment
from blocklearn.inverse import BeliefSeries, recursion_series, scan_delta
from blocklearn.learning import run
from blocklearn.models import bernoulli_profile, save_profile
from blocklearn.theory import expected_log_ratio


def write_config(tmp_path, **overrides):
    config = {
        "version": 1,
        "network": {"kind": "sbm", "n0": 15, "n1": 15, "p0": 0.8, "p1": 0.8,
                    "q0": 0.1, "q1": 0.1},
        "profile": {"kind": "bernoulli", "success_probs": [0.1, 0.5]},
        "strategy": "asl",
        "delta": 0.2,
        "horizon": 40,
        "burn_in": 10,
        "replicates": 2,
        "base_seed": 3,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestGenerate:
    def test_two_community(self, tmp_path):
        out = tmp_path / "net"
        code = main(["generate", "--seed", "7", "--out", str(out),
                     "--n0", "10", "--n1", "12", "--p0", "0.8", "--p1", "0.7",
                     "--q0", "0.1", "--q1", "0.2"])
        assert code == 0
        network = load_network(out / "network.txt")
        assert network.size == 22
        assert (out / "combination.csv").exists()
        assert (out / "manifest.json").exists()

    def test_three_community(self, tmp_path):
        out = tmp_path / "net3"
        code = main(["generate", "--seed", "1", "--out", str(out),
                     "--sizes", "4,5,6", "--p", "0.9", "--q", "0.2"])
        assert code == 0
        network = load_network(out / "network.txt")
        assert np.array_equal(np.bincount(network.clusters), [4, 5, 6])

    def test_missing_parameters_exit_nonzero(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "x"), "--n0", "5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "UsageError"

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        code = main(["generate", "--seed", "-1", "--out", str(tmp_path / "x"),
                     "--n0", "5", "--n1", "5", "--p0", "0.8", "--p1", "0.8",
                     "--q0", "0.1", "--q1", "0.1"])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "UsageError", "detail": "--seed must be at least 0, got -1"}
        assert not (tmp_path / "x").exists()


class TestThresholds:
    def test_symmetric_value_printed(self, capsys):
        code = main(["thresholds", "--d0", "0.368", "--d1", "0.511",
                     "--p", "0.8", "--q", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.054 <= payload["delta_min_symmetric"] <= 0.058

    def test_full_report(self, tmp_path, capsys):
        code = main(["thresholds", "--d0", "0.035", "--d1", "0.04",
                     "--n0", "10", "--n1", "8", "--p0", "0.8", "--p1", "0.8",
                     "--q0", "0.2", "--q1", "0.2", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.14 <= payload["asymmetric"]["delta0"] <= 0.16
        assert (tmp_path / "thresholds.json").exists()

    @pytest.mark.parametrize("flags, missing", [
        (["--n0", "10"], "--n1, --p0, --p1, --q0, --q1"),
        (["--p", "0.8", "--q", "0.1", "--p0", "0.8"], "--n0, --n1, --p1, --q0, --q1"),
    ], ids=["n0-alone", "p0-next-to-p-q"])
    def test_partial_sbm_flags_are_one_json_error(self, capsys, flags, missing):
        code = main(["thresholds", "--d0", "0.1", "--d1", "0.2", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        error = json.loads(captured.err)
        assert error["error"] == "UsageError"
        assert error["detail"].endswith("needs " + missing)


class TestSimulate:
    def test_small_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "summary.json").exists()
        assert (out / "error_report.csv").exists()
        assert (out / "theory_comparison.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["replicates_ok"] == 2

    # each used to write bare NaN, which is not JSON
    @pytest.mark.parametrize("overrides, nulled", [
        ({"replicates": 1}, ("cluster_log_ratio_mu", "0", "stderr")),
        ({"burn_in": 40}, ("cluster_p_err", "0")),
    ], ids=["one-replicate", "empty-window"])
    def test_summary_is_strict_json(self, tmp_path, overrides, nulled):
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "strict"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        for key in nulled:
            summary = summary[key]
        assert summary is None

    def test_zero_horizon(self, tmp_path):
        config = write_config(tmp_path, horizon=0, burn_in=0)
        out = tmp_path / "results0"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_flag_overrides(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "results2"
        code = main(["simulate", "--config", str(config), "--out", str(out),
                     "--replicates", "3", "--delta", "0.3"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["replicates"] == 3
        assert summary["config"]["delta"] == 0.3

    def test_delta_flag_resolves_a_null_burn_in(self, tmp_path):
        config = write_config(tmp_path, delta=0.1, burn_in=None, horizon=600, replicates=1)
        out = tmp_path / "burn"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--delta", "0.01"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["delta"] == 0.01
        assert summary["config"]["burn_in"] == 500  # ceil(5 / 0.01), not the file's 50

    def test_block_model_run_gets_theory_rows(self, tmp_path):
        config = write_config(tmp_path, **THREE_COMMUNITY)
        out = tmp_path / "results3"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "theory_comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["cluster"] for row in rows] == ["0", "1", "2"]

    def test_every_replicate_failing_is_a_typed_error(self, tmp_path, capsys):
        config = write_config(tmp_path, base_seed=-5, replicates=3)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "neg")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "AllReplicatesFailed"

    @pytest.mark.parametrize("change, field", [
        ({"delta": "0.1"}, "delta"),
        ({"network": {"kind": "sbm", "n0": 15, "p0": 0.8, "p1": 0.8, "q0": 0.1, "q1": 0.1}},
         "n1"),
        ({"colour": "red"}, "colour"),
        ({"replicates": 2.5}, "replicates"),
        ({"network": {"kind": "blocks", "sizes": 5, "probs": [[0.9, 0.1], [0.1, 0.9]]}},
         "sizes"),
        ({"profile": {"kind": "multinomial", "alphabet": 2.5, "seed": 10}}, "alphabet"),
        ({"network": {"kind": "sbm", "n0": 15, "n1": "15", "p0": 0.8, "p1": 0.8, "q0": 0.1,
                      "q1": 0.1}}, "n1"),
        ({"burn_in": -20, "horizon": 100}, "burn_in"),
        ({"burn_in": -10, "horizon": -5}, "burn_in"),
        ({"burn_in": 0, "horizon": -5}, "horizon"),
        ({"store_traces": "yes"}, "store_traces"),
        ({"base_seed": 1.5}, "base_seed"),
        ({"pair": [0, 1.5]}, "pair"),
        ({"profile": {"kind": "multinomial", "alphabet": 4, "seed": 1, "n_hypothesis": 3}},
         "n_hypothesis"),
    ])
    def test_malformed_config_is_one_json_error(self, tmp_path, capsys, change, field):
        config = write_config(tmp_path, **change)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "MalformedConfig"
        assert repr(field) in error["detail"]

    # a list used to die with an uncaught TypeError traceback, and a string
    # with a ValueError about dictionary update sequences
    @pytest.mark.parametrize("command", ["simulate", "predict"])
    @pytest.mark.parametrize("document, found", [
        ([1, 2], "an array"), ("str", "a string"), (3, "a number"), (None, "null"),
        (True, "a boolean"),
    ])
    def test_config_that_is_not_an_object_is_one_json_error(self, tmp_path, capsys, command,
                                                            document, found):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "MalformedConfig"
        assert error["detail"] == f"a config must be a JSON object, got {found}"

    # a file that is not JSON used to print the parser's JSONDecodeError,
    # naming neither the file nor the config
    @pytest.mark.parametrize("command", ["simulate", "predict"])
    def test_config_that_is_not_json_is_one_json_error(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text("network: sbm\n")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "MalformedConfig"
        assert error["detail"].startswith(f"config file {str(path)!r} is not JSON: ")

    # an unknown strategy or estimator used to print as a plain ValueError
    @pytest.mark.parametrize("command", ["simulate", "predict"])
    @pytest.mark.parametrize("change, detail", [
        ({"strategy": "bogus"}, "unknown strategy 'bogus'"),
        ({"estimator": "max"}, "estimator must be 'mu' or 'psi', got 'max'"),
    ])
    def test_unknown_strategy_is_one_typed_error(self, tmp_path, capsys, command, change,
                                                 detail):
        config = write_config(tmp_path, **change)
        code = main([command, "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "InvalidStrategy", "detail": detail}

    @pytest.mark.parametrize("command", ["simulate", "predict"])
    def test_pair_outside_the_hypotheses_is_one_json_error(self, tmp_path, capsys, command):
        config = write_config(tmp_path, pair=[0, 5])
        code = main([command, "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "InvalidPair"

    def test_missing_out_dir_fails(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", str(config)]) == 2
        assert "output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["fixed-graph", "network-file"])
    def test_one_graph_compared_with_its_own_prediction(self, tmp_path, source):
        # a run on one drawn graph is compared with the prediction for that
        # graph; the graph-averaged one is off by about 30 standard errors
        network = sample_sbm(SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1), seed=42)
        overrides = dict(delta=0.1, horizon=1500, burn_in=500, replicates=20, base_seed=42)
        argv = []
        if source == "fixed-graph":
            argv = ["--fixed-graph"]
        else:
            save_network(tmp_path / "network.txt", network)
            overrides["network"] = {"kind": "file", "path": str(tmp_path / "network.txt")}
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "one_graph"
        assert main(["simulate", "--config", str(config), "--out", str(out), *argv]) == 0
        with open(out / "theory_comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        expected = expected_log_ratio(network.combination, profile, 0.1).cluster_means(network.clusters)
        assert [float(row["theory_value"]) for row in rows] == pytest.approx(
            [expected[0], expected[1]], abs=1e-15
        )
        assert [int(row["flagged"]) for row in rows] == [0, 0]


THREE_COMMUNITY = {
    "network": {"kind": "blocks", "sizes": [20, 25, 30],
                "probs": [[0.9, 0.05, 0.05], [0.05, 0.8, 0.05], [0.05, 0.05, 0.9]]},
    "profile": {"kind": "multinomial", "alphabet": 25, "seed": 10},
}


# What simulate and predict write for the default config with stored traces,
# on the two-community law ("sbm") and on THREE_COMMUNITY ("blocks").
SBM_SPEC = {"n0": 15, "n1": 15, "p0": 0.8, "p1": 0.8, "q0": 0.1, "q1": 0.1}
EXPECTED_FILES = {
    "sbm": {
        "network": {"kind": "sbm", **SBM_SPEC},
        "profile": {"kind": "bernoulli", "success_probs": [0.1, 0.5]},
        "cluster_log_ratio_mu": {
            "0": {"mean": 0.09688755910423945, "pooled_var": 0.0037235187704866305,
                  "stderr": 0.03425353181185377},
            "1": {"mean": -0.26444325426796694, "pooled_var": 0.006216179680377781,
                  "stderr": 0.03974929223174122},
        },
        "cluster_p_err": {"0": 0.08666666666666668, "1": 0.0},
        "meta": {"n_agents": 30, "cluster_sizes": [15, 15], "profile": "bernoulli(0.1, 0.5)",
                 "sbm_params": SBM_SPEC},
        "values": (0.10956719807011835, -0.252328614667612),
        "comparison": [
            "0,0.096887559104239449,0.10956719807011832,0.034253531811853768,"
            "-0.37017026552254556,0",
            "1,-0.26444325426796694,-0.25232861466761192,0.039749292231741222,"
            "-0.30477623424653222,0",
        ],
    },
    "blocks": {
        **THREE_COMMUNITY,
        "cluster_log_ratio_mu": {
            "0": {"mean": 0.23953608803893617, "pooled_var": 0.006423847984605787,
                  "stderr": 0.04677570912968243},
            "1": {"mean": -0.23808455821648214, "pooled_var": 0.0028490047009283492,
                  "stderr": 0.0023528983924714086},
            "2": {"mean": 0.005969075826939873, "pooled_var": 0.0038469154691973704,
                  "stderr": 0.01605383066973874},
        },
        "cluster_p_err": {"0": 0.0016666666666666718, "1": 0.0006666666666666687, "2": 0.0},
        "meta": {"n_agents": 75, "cluster_sizes": [20, 25, 30],
                 "profile": "multinomial(m=25, seed=10)",
                 "sbm_params": {"sizes": [20, 25, 30],
                                "probs": THREE_COMMUNITY["network"]["probs"]}},
        "values": (0.2304717614909887, -0.03568204949865255),
        "comparison": [
            "0,0.23953608803893617,0.23047176149098872,0.04677570912968243,"
            "0.19378277137001232,0",
            "1,-0.23808455821648214,-0.25319324557682149,0.0023528983924714086,"
            "6.4213088880857594,1",
            "2,0.0059690758269398732,-0.035682049498652536,0.016053830669738742,"
            "2.5944664661316148,0",
        ],
    },
}


class TestOutputFiles:
    @pytest.mark.parametrize("law", sorted(EXPECTED_FILES))
    def test_law_files(self, tmp_path, capsys, law):
        expected = EXPECTED_FILES[law]
        config = write_config(tmp_path, store_traces=True, network=expected["network"],
                              profile=expected["profile"])
        sim, pred = tmp_path / "sim", tmp_path / "pred"
        assert main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
        assert main(["predict", "--config", str(config), "--out", str(pred)]) == 0

        summary = json.loads((sim / "summary.json").read_text())
        del summary["cluster_log_ratio_psi"]  # checked alike through the mu statistics
        assert summary == {
            "version": "0.1.0",
            "config": {
                "version": 1, "network": expected["network"], "profile": expected["profile"],
                "strategy": "asl", "delta": 0.2, "horizon": 40, "burn_in": 10, "replicates": 2,
                "base_seed": 3, "pair": [0, 1], "estimator": "mu", "fixed_graph": False,
                "store_traces": True, "record_observations": False, "n_jobs": 1,
                "out_dir": str(sim),
            },
            "replicates_ok": 2,
            "failures": [],
            "cluster_log_ratio_mu": expected["cluster_log_ratio_mu"],
            "cluster_p_err": expected["cluster_p_err"],
            "steady_state_samples": 60,
        }
        meta = json.loads((sim / "trace_0001.csv.meta.json").read_text())
        assert meta == {
            "seed": 4, "strategy": "asl", "delta": 0.2, "horizon": 40, "pair": [0, 1],
            "estimator": "mu", "network_retries": 0, "version": "0.1.0", "burn_in": 10,
            "replicate": 1, **expected["meta"],
        }
        prediction = json.loads((pred / "prediction.json").read_text())
        assert (prediction["values"][0], prediction["values"][-1]) == expected["values"]
        del prediction["values"]
        assert prediction == {
            "schema_version": 2, "delta": 0.2, "pair": [0, 1], "matrix_kind": "expected-block",
            "inputs": {"params": expected["meta"]["sbm_params"],
                       "profile": expected["meta"]["profile"]},
        }
        assert (sim / "theory_comparison.csv").read_bytes() == "\r\n".join(
            ["cluster,empirical_mean,theory_value,stderr,z_score,flagged",
             *expected["comparison"], ""]
        ).encode()


def command_inputs(command, tmp_path):
    """Arguments, apart from ``--out``, of a run of ``command`` that writes
    files; its input files go to ``tmp_path``."""
    law = ["--n0", "5", "--n1", "5", "--p0", "0.9", "--p1", "0.9", "--q0", "0.3", "--q1", "0.3"]
    if command == "generate":
        return ["--seed", "1", *law]
    if command == "thresholds":
        return ["--d0", "0.035", "--d1", "0.04", "--p", "0.8", "--q", "0.1", *law]
    if command == "fit-delta":
        network = sample_sbm(SbmParams(n0=5, n1=5, p0=0.9, p1=0.9, q0=0.3, q1=0.3), seed=1)
        save_network(tmp_path / "network.txt", network)
        trace = run(network, bernoulli_profile(network.clusters, (0.1, 0.5)), delta=0.3,
                    horizon=20, seed=1)
        trace.to_csv(tmp_path / "trace.csv")
        return ["--trace", str(tmp_path / "trace.csv"), "--network",
                str(tmp_path / "network.txt"), "--traditional"]
    return ["--config", str(write_config(tmp_path, store_traces=True))]


class TestManifest:
    @pytest.mark.parametrize("command", ["generate", "simulate", "thresholds", "predict",
                                         "fit-delta"])
    def test_manifest_lists_the_files_written(self, tmp_path, command):
        out = tmp_path / "results"
        assert main([command, *command_inputs(command, tmp_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        written = {path.name for path in out.iterdir()} - {"manifest.json"}
        assert sorted(manifest["outputs"]) == sorted(written)
        if command == "simulate":
            assert "trace_0001.csv.meta.json" in written

    @pytest.mark.parametrize("store_traces", [True, False])
    def test_repeated_simulate_leaves_only_its_own_files(self, tmp_path, store_traces):
        out = tmp_path / "results"
        out.mkdir()
        (out / "notes.txt").write_text("not an output")
        config = write_config(tmp_path, store_traces=True)
        assert main(["simulate", "--config", str(config), "--fixed-graph", "--replicates", "2",
                     "--out", str(out)]) == 0
        assert (out / "trace_0001.csv").exists()
        # a smaller run into the same directory removes what the first wrote
        config = write_config(tmp_path, store_traces=store_traces)
        assert main(["simulate", "--config", str(config), "--fixed-graph", "--replicates", "1",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        written = {path.name for path in out.iterdir()} - {"manifest.json", "notes.txt"}
        assert sorted(manifest["outputs"]) == sorted(written)
        assert ("trace_0000.csv" in written) == store_traces
        assert (out / "notes.txt").read_text() == "not an output"

    def test_another_commands_outputs_are_kept(self, tmp_path, capsys):
        # a directory holds one command's run: simulate refuses generate's
        # directory before it runs, and leaves every file as it was
        out = tmp_path / "results"
        assert main(["generate", *command_inputs("generate", tmp_path), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main(["simulate", *command_inputs("simulate", tmp_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        error = json.loads(captured.err)
        assert error["error"] == "UsageError"
        assert str(out) in error["detail"] and "'generate'" in error["detail"]
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert sorted(before) == ["combination.csv", "manifest.json", "network.txt"]

    @pytest.mark.parametrize("store_traces", [True, False])
    def test_another_commands_outputs_are_kept_under_out_dir(self, tmp_path, capsys,
                                                             store_traces):
        # the same rule for a directory given as the config's out_dir
        out = tmp_path / "results"
        assert main(["generate", *command_inputs("generate", tmp_path), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        config = write_config(tmp_path, store_traces=store_traces, out_dir=str(out))
        assert main(["simulate", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "UsageError"
        assert str(out) in error["detail"] and "'generate'" in error["detail"]
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_run_experiment_keeps_another_commands_outputs(self, tmp_path):
        # the library refuses it too, before any file is touched
        out = tmp_path / "results"
        assert main(["generate", *command_inputs("generate", tmp_path), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        config = ExperimentConfig.from_json(write_config(tmp_path), out_dir=str(out))
        result = run_experiment(config)
        with pytest.raises(exceptions.UsageError, match="'generate'"):
            result.write_outputs(out)
        with pytest.raises(exceptions.UsageError, match="'generate'"):
            run_experiment(replace(config, store_traces=True))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


class TestPredict:
    def test_block_model_config(self, tmp_path, capsys):
        config = write_config(tmp_path, delta=0.1, **THREE_COMMUNITY)
        out = tmp_path / "pred3"
        assert main(["predict", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["cluster_means"]
        assert sorted(payload["cluster_means"]) == ["0", "1", "2"]
        prediction = json.loads((out / "prediction.json").read_text())
        assert prediction["schema_version"] == 2
        assert len(prediction["values"]) == 75
        assert prediction["matrix_kind"] == "expected-block"
        assert "truncation_steps" not in prediction
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "predict" and manifest["outputs"] == ["prediction.json"]

    def test_store_traces_config_needs_no_out(self, tmp_path, capsys):
        # only run_experiment needs an out_dir for store_traces; predict writes no trace
        config = write_config(tmp_path, store_traces=True, record_observations=True)
        assert main(["predict", "--config", str(config)]) == 0
        assert sorted(json.loads(capsys.readouterr().out)) == ["cluster_means"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    def test_profile_that_is_not_a_profile_is_one_json_error(self, tmp_path, capsys):
        profile = bernoulli_profile(np.repeat([0, 1], 15), (0.1, 0.5))
        path = tmp_path / "profile.txt"
        save_profile(path, profile)
        lines = path.read_text().splitlines()
        lines[3] = "0.5 0.25"  # a row that does not sum to one
        path.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, profile={"kind": "file", "path": str(path)})
        assert main(["predict", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "MalformedFile"
        assert "profile.txt" in error["detail"] and "sum to one" in error["detail"]

    def test_prediction_table(self, tmp_path, capsys):
        config = write_config(tmp_path, delta=0.1)
        out = tmp_path / "pred"
        code = main(["predict", "--config", str(config), "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cluster_means"]["0"] == pytest.approx(0.0425, abs=1e-3)
        assert (out / "prediction.json").exists()


    @pytest.mark.parametrize("flag", [["--replicates", "3"], ["--estimator", "psi"],
                                      ["--jobs", "2"]])
    def test_simulate_only_flags_are_refused(self, tmp_path, capsys, flag):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", "--config", str(config), *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "simulate"])
    def test_negative_seed_of_the_fixed_graph_names_base_seed(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out), "--fixed-graph",
                     "--seed", "-1"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedConfig",
            "detail": "config field 'base_seed' must be at least 0 to draw the fixed graph, got -1"}
        assert not out.exists()

    def test_fixed_graph_predicts_the_drawn_graph(self, tmp_path, capsys):
        config = write_config(tmp_path, delta=0.1, base_seed=42)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim"),
                     "--fixed-graph"]) == 0
        capsys.readouterr()
        assert main(["predict", "--config", str(config), "--out", str(tmp_path / "pred"),
                     "--fixed-graph"]) == 0
        predicted = json.loads(capsys.readouterr().out)["cluster_means"]
        with open(tmp_path / "sim" / "theory_comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [predicted[row["cluster"]] for row in rows] == [
            float(row["theory_value"]) for row in rows
        ]
        assert predicted["0"] != pytest.approx(0.0425, abs=1e-3)  # not the law's mean
        prediction = json.loads((tmp_path / "pred" / "prediction.json").read_text())
        assert prediction["matrix_kind"] == "explicit-matrix"


class TestFitDelta:
    def test_scan_on_simulated_trace(self, tmp_path, capsys):
        params = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
        network = sample_sbm(params, seed=2)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.5, horizon=60, seed=2)
        trace_path = tmp_path / "trace.csv"
        trace.to_csv(trace_path)
        net_path = tmp_path / "network.txt"
        save_network(net_path, network)
        out = tmp_path / "scan"
        code = main(["fit-delta", "--trace", str(trace_path), "--network", str(net_path),
                     "--grid", "0.1,0.3,0.5,0.7", "--split", "30",
                     "--traditional", "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_delta"] in (0.1, 0.3, 0.5, 0.7)
        lines = (out / "delta_scan.csv").read_text().splitlines()
        assert lines[0] == "delta,fit_error"
        assert len(lines) == 1 + 1 + 4  # header + traditional row + grid rows

        scan = scan_delta(BeliefSeries.from_trace_csv(trace_path, split_index=30),
                          network.combination, [0.1, 0.3, 0.5, 0.7], include_traditional=True)
        reference = tmp_path / "loop.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta", "fit_error"])
            writer.writerow([0.0, f"{scan.traditional_error:.17g}"])
            for d, e in zip(scan.deltas, scan.errors):
                writer.writerow([f"{d:.17g}", f"{e:.17g}"])
        assert (out / "delta_scan.csv").read_bytes() == reference.read_bytes()

    def test_noiseless_trace_recovers_generator(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        network = sample_sbm(SbmParams(n0=5, n1=5, p0=0.9, p1=0.9, q0=0.3, q1=0.3), seed=1)
        series = recursion_series(rng.normal(size=10), network.combination, 0.5, steps=40)
        trace_path = tmp_path / "external.csv"
        with open(trace_path, "w") as fh:
            fh.write("iter,agent,log_ratio\n")
            for i in range(series.shape[0]):
                for k in range(10):
                    fh.write(f"{i},{k},{series[i, k]:.17g}\n")
        net_path = tmp_path / "network.txt"
        save_network(net_path, network)
        code = main(["fit-delta", "--trace", str(trace_path), "--network", str(net_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_delta"] == pytest.approx(0.5, abs=1e-9)

    def test_step_column_reads_as_iter(self, tmp_path):
        network = sample_sbm(SbmParams(n0=5, n1=5, p0=0.9, p1=0.9, q0=0.3, q1=0.3), seed=1)
        net_path = tmp_path / "network.txt"
        save_network(net_path, network)
        series = recursion_series(np.linspace(-1, 1, 10), network.combination, 0.3, steps=30)
        rows = "".join(f"{i},{k},{series[i, k]:.17g}\n"
                       for i in range(series.shape[0]) for k in range(10))
        for step in ("iter", "step"):
            (tmp_path / f"{step}.csv").write_text(f"{step},agent,log_ratio\n" + rows)
            code = main(["fit-delta", "--trace", str(tmp_path / f"{step}.csv"), "--network",
                         str(net_path), "--traditional", "--out", str(tmp_path / step)])
            assert code == 0
        assert ((tmp_path / "step" / "delta_scan.csv").read_bytes()
                == (tmp_path / "iter" / "delta_scan.csv").read_bytes())

    @pytest.mark.parametrize("cell", ["abc", "inf"])
    def test_unusable_log_ratio_is_one_json_error(self, tmp_path, capsys, cell):
        network = sample_sbm(SbmParams(n0=2, n1=2, p0=0.9, p1=0.9, q0=0.6, q1=0.6), seed=1)
        net_path = tmp_path / "network.txt"
        save_network(net_path, network)
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text("step,agent,log_ratio\n"
                              + "".join(f"{i},{k},0.5\n" for i in range(8) for k in range(4))
                              + f"8,0,{cell}\n")
        code = main(["fit-delta", "--trace", str(trace_path), "--network", str(net_path)])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "MalformedFile"
        assert "trace.csv: column 'log_ratio'" in error["detail"]

    def test_duplicated_row_is_one_json_error(self, tmp_path, capsys):
        # the second row for step 3, agent 0 used to replace the first, with exit 0
        network = sample_sbm(SbmParams(n0=2, n1=2, p0=0.9, p1=0.9, q0=0.6, q1=0.6), seed=1)
        net_path = tmp_path / "network.txt"
        save_network(net_path, network)
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text("step,agent,log_ratio\n"
                              + "".join(f"{i},{k},0.5\n" for i in range(8) for k in range(4))
                              + "3,0,0.25\n")
        code = main(["fit-delta", "--trace", str(trace_path), "--network", str(net_path)])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "MalformedFile"
        assert "trace.csv: more than one row for step 3, agent 0" in error["detail"]

    @pytest.mark.parametrize("flag", ["--network", "--combination"])
    def test_wrong_sized_matrix_is_one_json_error(self, tmp_path, capsys, flag):
        # a 4-agent matrix against a 6-agent trace names both sizes, not numpy's matmul text
        network = sample_sbm(SbmParams(n0=2, n1=2, p0=0.9, p1=0.9, q0=0.6, q1=0.6), seed=1)
        path = tmp_path / "matrix.txt"
        if flag == "--network":
            save_network(path, network)
        else:
            save_matrix_csv(path, network.combination)
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text("iter,agent,log_ratio\n"
                              + "".join(f"{i},{k},0.5\n" for i in range(8) for k in range(6)))
        code = main(["fit-delta", "--trace", str(trace_path), flag, str(path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert "4x4" in error["detail"] and "6 agents" in error["detail"]

    @pytest.mark.parametrize("text", ["0.5,0.5\r\n0.5,abc\r\n", "0.5,0.5\r\n0.5\r\n"],
                             ids=["not-a-number", "ragged"])
    def test_malformed_combination_csv_is_one_json_error(self, tmp_path, capsys, text):
        path = tmp_path / "combination.csv"
        path.write_text(text)
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text("iter,agent,log_ratio\n"
                              + "".join(f"{i},{k},0.5\n" for i in range(4) for k in range(2)))
        code = main(["fit-delta", "--trace", str(trace_path), "--combination", str(path)])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "MalformedFile"
        assert error["detail"].startswith(f"{path}: not a matrix of numbers")

    @pytest.mark.parametrize("kind", ["all-5", "transpose", "negative"])
    def test_matrix_that_is_not_a_combination_is_refused(self, tmp_path, capsys, kind):
        # each of these used to fit with exit 0
        network = sample_sbm(SbmParams(n0=5, n1=5, p0=0.9, p1=0.9, q0=0.3, q1=0.3), seed=1)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace_path = tmp_path / "trace.csv"
        run(network, profile, strategy="asl", delta=0.5, horizon=40, seed=1).to_csv(trace_path)
        if kind == "all-5":
            matrix, column = np.full((10, 10), 5.0), 0
        elif kind == "transpose":
            matrix = network.combination.T
            column = int(np.flatnonzero(np.abs(matrix.sum(axis=0) - 1.0) > 1e-9)[0])
        else:
            matrix, column = network.combination.copy(), 3
            matrix[:, 3] = 0.0
            matrix[:2, 3] = [1.5, -0.5]  # sums to 1
        path = tmp_path / "combination.csv"
        save_matrix_csv(path, matrix)
        code = main(["fit-delta", "--trace", str(trace_path), "--combination", str(path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "MalformedFile"
        assert error["detail"].startswith(f"{path}: column {column} is not a combination column")

    def test_zero_grid_step_is_one_json_error(self, tmp_path, capsys):
        network = sample_sbm(SbmParams(n0=3, n1=3, p0=0.9, p1=0.9, q0=0.3, q1=0.3), seed=1)
        net_path = tmp_path / "network.txt"
        save_network(net_path, network)
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text("iter,agent,log_ratio\n"
                              + "".join(f"{i},{k},0.5\n" for i in range(4) for k in range(6)))
        code = main(["fit-delta", "--trace", str(trace_path), "--network", str(net_path),
                     "--grid", "0.1:0.5:0"])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "UsageError"
        assert "grid step" in error["detail"]


    @pytest.mark.parametrize("grid", ["0.1:0.5", "0.1,abc", "0.1:0.5:0.1:0.2", "0.5:0.1:0.1",
                                      ","])
    def test_malformed_grid_names_the_flag(self, tmp_path, capsys, grid):
        # these used to report only the unpacking or float() error, or an
        # empty grid without the flag
        code = main(["fit-delta", "--trace", str(tmp_path / "trace.csv"), "--network",
                     str(tmp_path / "network.txt"), "--grid", grid])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "UsageError", "detail": "--grid takes start:stop:step or "
                         f"a comma list of numbers, got {grid!r}"}

SBM_FLAGS = ["--n0", "10", "--n1", "8", "--p0", "0.8", "--p1", "0.8", "--q0", "0.2", "--q1", "0.2"]


# Each probe names its argv and the words its detail must contain; "{name}"
# stands for one of the probe's input files.  Every probe used to exit 0, or
# exit 2 with a ValueError, UnicodeDecodeError or IsADirectoryError.
@pytest.mark.parametrize("argv, named", [
    # threshold inputs that are not finite numbers or probabilities
    (["thresholds", "--d0", "nan", "--d1", "0.2", "--p", "0.8", "--q", "0.1"], ["d0", "nan"]),
    (["thresholds", "--d0", "0.1", "--d1", "0.2", "--p", "nan", "--q", "0.1"], ["p ", "nan"]),
    (["thresholds", "--d0", "inf", "--d1", "0.2", "--p", "0.8", "--q", "0.1"], ["d0", "inf"]),
    (["thresholds", "--d0", "0.1", "--d1", "nan", *SBM_FLAGS], ["d1", "nan"]),
    # input files that cannot be read as text
    (["fit-delta", "--trace", "{trace}", "--network", "{binary}"], ["{binary}"]),
    (["fit-delta", "--trace", "{trace}", "--network", "{folder}"], ["{folder}"]),
    (["fit-delta", "--trace", "{trace}", "--combination", "{folder}"], ["{folder}"]),
    (["fit-delta", "--trace", "{binary}", "--network", "{network}"], ["{binary}"]),
    (["fit-delta", "--trace", "{folder}", "--network", "{network}"], ["{folder}"]),
    (["simulate", "--config", "{binary_profile}", "--out", "{out}"], ["{binary}"]),
    (["predict", "--config", "{folder_profile}"], ["{folder}"]),
    # flags that are missing or take no such value
    (["generate", "--out", "{out}", "--n0", "5"], ["--n1"]),
    (["generate", "--out", "{out}", "--sizes", "3,4"], ["--p", "--q"]),
    (["generate", "--out", "{out}", "--sizes", "3,4", "--p", "0.5,0.5,0.5", "--q", "0.1"],
     ["--p"]),
    (["generate", "--out", "{out}", "--seed", "-1", *SBM_FLAGS], ["--seed", "-1"]),
    (["thresholds", "--d0", "0.1", "--d1", "0.2"], ["--p"]),
    (["verify", "--suite", "nope"], ["nope"]),
    (["fit-delta", "--trace", "{trace}"], ["--network", "--combination"]),
    (["fit-delta", "--trace", "{trace}", "--network", "{network}", "--grid", "0.1:0.5"],
     ["--grid", "0.1:0.5"]),
    (["fit-delta", "--trace", "{trace}", "--network", "{network}", "--grid", "0.1:0.5:0"],
     ["--grid", "0.1:0.5:0"]),
    (["simulate", "--config", "{config}"], ["--out"]),
    (["generate", "--out", "{out}", "--sizes", "3,x", "--p", "0.5", "--q", "0.1"],
     ["--sizes", "3,x"]),
    (["generate", "--out", "{out}", "--sizes", "3,4", "--p", "0.5,y", "--q", "0.1"],
     ["--p", "0.5,y"]),
    # a directory as the config file, and a file as the output directory
    (["simulate", "--config", "{folder}", "--out", "{out}"], ["{folder}"]),
    (["predict", "--config", "{folder}"], ["{folder}"]),
    (["generate", "--out", "{trace}", *SBM_FLAGS], ["--out", "{trace}"]),
    (["simulate", "--config", "{config}", "--out", "{trace}"], ["--out", "{trace}"]),
    (["simulate", "--config", "{file_out_config}"], ["out_dir", "{trace}"]),
    # sizes above physical memory, refused before the allocation
    (["fit-delta", "--trace", "{far_trace}", "--network", "{network}"],
     ["{far_trace}", "'iter'", "1000000000000"]),
    (["fit-delta", "--trace", "{past_int64_trace}", "--network", "{network}"],
     ["{past_int64_trace}", "'iter'", "10000000000000000000"]),
    (["simulate", "--config", "{long_config}", "--out", "{out}"], ["'horizon'", "100000000000"]),
    # laws out of range, named by their flags
    (["generate", "--out", "{out}", *SBM_FLAGS, "--p0", "1.5"], ["--p0", "1.5"]),
    (["generate", "--out", "{out}", *SBM_FLAGS, "--p0", "nan"], ["--p0", "nan"]),
    (["generate", "--out", "{out}", *SBM_FLAGS, "--n0", "0"], ["--n0"]),
    (["generate", "--out", "{out}", "--sizes", "3,0", "--p", "0.5", "--q", "0.1"], ["--sizes"]),
    (["generate", "--out", "{out}", "--sizes", ",", "--p", "0.5", "--q", "0.1"], ["--sizes"]),
    (["generate", "--out", "{out}", "--sizes", "3,4", "--p", "0.5", "--q", "2"], ["--q"]),
    (["generate", "--out", "{out}", *SBM_FLAGS, "--max-retries", "0"], ["--max-retries"]),
    (["thresholds", "--d0", "0.1", "--d1", "0.2", *SBM_FLAGS, "--p0", "1.5"], ["--p0", "1.5"]),
    (["thresholds", "--d0", "0.1", "--d1", "0.2", *SBM_FLAGS, "--n0", "0"], ["--n0"]),
], ids=["d0-nan", "p-nan", "d0-inf", "d1-nan-sbm", "network-binary", "network-folder",
        "combination-folder", "trace-binary", "trace-folder", "profile-binary",
        "profile-folder", "generate-missing", "generate-k-missing", "generate-p-count",
        "generate-seed", "thresholds-no-bound", "verify-suite", "fit-delta-no-matrix",
        "fit-delta-grid", "fit-delta-grid-step", "simulate-no-out", "generate-sizes-word",
        "generate-p-word", "simulate-config-folder", "predict-config-folder",
        "generate-out-file", "simulate-out-file", "simulate-out-dir-file", "trace-far-step", "trace-step-past-int64",
        "simulate-long-horizon", "generate-p0-above-1", "generate-p0-nan", "generate-n0-zero",
        "generate-size-zero", "generate-no-sizes", "generate-q-above-1", "generate-no-retries",
        "thresholds-p0-above-1", "thresholds-n0-zero"])
def test_bad_input_is_one_typed_json_error(tmp_path, capsys, argv, named):
    files = {name: tmp_path / name
             for name in ("binary", "folder", "network", "trace", "out", "far_trace",
                          "past_int64_trace")}
    files["binary"].write_bytes(b"\xff\xfe\x00 not text\n")
    files["folder"].mkdir()
    save_network(files["network"],
                 sample_sbm(SbmParams(n0=3, n1=3, p0=0.9, p1=0.9, q0=0.3, q1=0.3), seed=1))
    files["trace"].write_text("iter,agent,log_ratio\n"
                              + "".join(f"{i},{k},0.5\n" for i in range(4) for k in range(6)))
    files["far_trace"].write_text("iter,agent,log_ratio\n0,0,0.5\n1000000000000,0,0.5\n")
    files["past_int64_trace"].write_text("iter,agent,log_ratio\n0,0,0.5\n1e19,0,0.5\n")
    files["config"] = write_config(tmp_path)
    (tmp_path / "long").mkdir()
    files["long_config"] = write_config(tmp_path / "long", horizon=100_000_000_000)
    (tmp_path / "file_out").mkdir()
    files["file_out_config"] = write_config(tmp_path / "file_out", out_dir=str(files["trace"]))
    for name in ("binary", "folder"):
        (tmp_path / f"{name}_config").mkdir()
        files[f"{name}_profile"] = write_config(tmp_path / f"{name}_config",
                                                profile=str(files[name]))
    start = time.perf_counter()
    code = main([arg.format(**files) for arg in argv])
    # each fails before any work that its input sizes
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    error = json.loads(captured.err)
    assert issubclass(getattr(exceptions, error["error"]), exceptions.BlocklearnError)
    for word in named:
        assert word.format(**files) in error["detail"]


# Runs the CLI on its arguments under a 2 GiB address-space limit, set once
# the command is imported, and prints how long ``main`` took.
UNDER_2_GIB = """
import resource, sys, time
from blocklearn.cli import main
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""

SBM_LAW = {"kind": "sbm", "n0": 3_000_000_000, "n1": 15, "p0": 0.8, "p1": 0.8, "q0": 0.1,
           "q1": 0.1}


# Each input sizes an allocation far above 2 GiB, which used to end the
# process in a MemoryError traceback.
@pytest.mark.skipif(importlib.util.find_spec("resource") is None,
                    reason="needs resource.setrlimit")
@pytest.mark.parametrize("argv, named", [
    (["generate", "--out", "net", "--n0", "2000000000", "--n1", "15", "--p0", "0.8", "--p1",
      "0.8", "--q0", "0.1", "--q1", "0.1"], ["--n0", "--n1"]),
    (["predict", "--config", "{law}"], ["'network'"]),
    (["simulate", "--config", "{law}", "--replicates", "1", "--out", "sim"], ["'network'"]),
    (["simulate", "--config", "{dense}", "--out", "sim"], ["'network'"]),
    (["predict", "--config", "{dense}", "--fixed-graph"], ["'network'"]),
], ids=["generate-huge-law", "predict-huge-law", "simulate-huge-law", "simulate-dense-draw",
        "predict-dense-fixed-graph"])
def test_input_sized_beyond_memory_is_one_typed_json_error(tmp_path, argv, named):
    (tmp_path / "law").mkdir()
    (tmp_path / "dense").mkdir()
    files = {
        "law": write_config(tmp_path / "law", network=SBM_LAW, delta=0.1),
        "dense": write_config(tmp_path / "dense", network={**SBM_LAW, "n0": 20000, "n1": 20000},
                              delta=0.1, horizon=10, burn_in=0, replicates=1),
    }
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent
                                                          / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", UNDER_2_GIB,
                           *[arg.format(**files) for arg in argv]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert float(proc.stdout) < 1.0
    assert len(proc.stderr.splitlines()) == 1
    error = json.loads(proc.stderr)
    assert issubclass(getattr(exceptions, error["error"]), exceptions.BlocklearnError)
    for word in named:
        assert word in error["detail"]


# Blocks every scipy import, imports every blocklearn module, then runs the
# CLI on the remaining arguments.
WITHOUT_SCIPY = """
import importlib, pkgutil, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
import blocklearn
for module in pkgutil.iter_modules(blocklearn.__path__):
    importlib.import_module(f"blocklearn.{module.name}")
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
from blocklearn.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestVerify:
    def test_binomial_suites_run_without_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, "verify",
                               "--suite", "inverse-binomial-moment",
                               "--suite", "expected-matrix-trend"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("PASS inverse-binomial-moment")
        assert lines[1].startswith("PASS expected-matrix-trend")

    def test_single_suite(self, capsys):
        code = main(["verify", "--suite", "power-identity"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS power-identity")

    def test_suite_selected_by_its_printed_name(self, capsys):
        assert main(["verify", "--suite", "scan-delta-recovery"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS scan-delta-recovery")
        assert len(out.splitlines()) == 1

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2


# -- the process entry --------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

# ``python -m blocklearn.cli`` without the ``-m``: registers an atexit handler
# first, so that it runs after every handler the command registers, and
# prints from it how many objects the collector holds frozen.
RUN_MODULE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"atexit ran, {gc.get_freeze_count()} frozen", file=sys.stderr))
sys.argv = ["blocklearn", *sys.argv[1:]]
runpy.run_module("blocklearn.cli", run_name="__main__")
"""

ENTRIES = {"-m": ["-m", "blocklearn.cli"], "runpy": ["-c", RUN_MODULE]}


def run_process(entry, argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *ENTRIES[entry], *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def tree_bytes(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestProcessEntry:
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_files_match_in_process_runs(self, tmp_path, monkeypatch, capsys, entry):
        # the same relative argv in two copies of one directory, one run by
        # main() in this process and one by a blocklearn process
        argvs = [
            ["simulate", "--config", "config.json", "--out", "sim", "--fixed-graph"],
            ["fit-delta", "--trace", "sim/trace_0001.csv", "--network", "net.txt",
             "--traditional", "--out", "fit"],
        ]
        dirs = {side: tmp_path / side for side in ("main", "process")}
        for root in dirs.values():
            root.mkdir()
            write_config(root, store_traces=True, record_observations=True)
            save_network(root / "net.txt",
                         sample_sbm(SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1), 3))
        monkeypatch.chdir(dirs["main"])
        for argv in argvs:
            assert main(argv) == 0
            assert run_process(entry, argv, dirs["process"]).returncode == 0
        capsys.readouterr()
        files = tree_bytes(dirs["main"])
        assert {"sim/trace_0001.csv", "fit/delta_scan.csv"} <= set(files)
        assert tree_bytes(dirs["process"]) == files

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_exit_codes(self, tmp_path, entry):
        ok = run_process(entry, ["thresholds", "--d0", "0.368", "--d1", "0.511",
                                 "--p", "0.8", "--q", "0.1"], tmp_path)
        assert ok.returncode == 0, ok.stderr
        assert "delta_min_symmetric" in json.loads(ok.stdout)
        failed = run_process(entry, ["fit-delta", "--trace", "missing.csv",
                                     "--combination", "missing.csv"], tmp_path)
        assert failed.returncode == 2
        assert json.loads(failed.stderr.splitlines()[0])["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("code", [0, 2])
    def test_atexit_handlers_run_after_the_command(self, tmp_path, code):
        # one process per exit code: the command's own output comes first,
        # then the handler registered before it, which sees the objects the
        # entry froze out of the final collections
        argv = (["thresholds", "--d0", "0.368", "--d1", "0.511", "--p", "0.8", "--q", "0.1"]
                if code == 0 else ["generate", "--seed", "-1", "--out", "x", "--n0", "5"])
        proc = run_process("runpy", argv, tmp_path)
        assert proc.returncode == code
        *_, last = proc.stderr.splitlines()
        assert last.startswith("atexit ran, ") and last.endswith(" frozen")
        assert int(last.split()[2]) > 0


class TestMainLeavesTheCollector:
    @pytest.mark.parametrize("command", ["simulate", "failing"])
    def test_freeze_count_and_enabled_unchanged(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        argv = (["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]
                if command == "simulate" else ["simulate", "--config", str(config)])
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(argv) == (0 if command == "simulate" else 2)
        assert (gc.get_freeze_count(), gc.isenabled()) == before
