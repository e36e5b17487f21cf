import csv
import json

import numpy as np
import pytest

from blocklearn.cli import main
from blocklearn.graphs import SbmParams, load_network, sample_sbm, save_network
from blocklearn.inverse import recursion_series
from blocklearn.learning import run
from blocklearn.models import bernoulli_profile
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

    def test_manifest_lists_the_files_written(self, tmp_path):
        config = write_config(tmp_path, store_traces=True)
        out = tmp_path / "results"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        written = {path.name for path in out.iterdir()} - {"manifest.json"}
        assert sorted(manifest["outputs"]) == sorted(written)
        assert "trace_0001.csv.meta.json" in written

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

    def test_prediction_table(self, tmp_path, capsys):
        config = write_config(tmp_path, delta=0.1)
        out = tmp_path / "pred"
        code = main(["predict", "--config", str(config), "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cluster_means"]["0"] == pytest.approx(0.0425, abs=1e-3)
        assert (out / "prediction.json").exists()


class TestFitDelta:
    def test_scan_on_simulated_trace(self, tmp_path, capsys):
        params = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
        network = sample_sbm(params, seed=2)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.5, horizon=60, seed=2)
        trace_path = tmp_path / "trace.csv"
        trace.to_csv(trace_path, sidecar=False)
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


class TestVerify:
    def test_single_suite(self, capsys):
        code = main(["verify", "--suite", "power-identity"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS power-identity")

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2
