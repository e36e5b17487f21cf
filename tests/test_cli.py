import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blocklearn.cli import main
from blocklearn.graphs import SbmParams, load_network, sample_sbm, save_matrix_csv, save_network
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
        assert err["error"] == "ValueError"


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
        assert error["error"] == "ValueError"
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

    def test_another_commands_outputs_are_kept(self, tmp_path):
        out = tmp_path / "results"
        assert main(["generate", *command_inputs("generate", tmp_path), "--out", str(out)]) == 0
        assert main(["simulate", *command_inputs("simulate", tmp_path), "--out", str(out)]) == 0
        assert (out / "network.txt").exists() and (out / "combination.csv").exists()


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
        assert error["error"] == "ValueError"
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
        assert error == {"error": "ValueError", "detail": "--grid takes start:stop:step or "
                         f"a comma list of numbers, got {grid!r}"}

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
