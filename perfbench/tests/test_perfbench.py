"""Self-tests of the benchmark: its checks pass on real outputs and reject
corrupted ones, and every workload runs end to end at a smoke size.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402  (sets the thread variables before numpy is used)

bench_run._import_program()

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- in-process batteries -------------------------------------------------------


@pytest.fixture(scope="module")
def two_small():
    workload = workloads.two_community(0, replicates=2, sparse_replicates=2)
    return workload, workload.run_round(None, None)


@pytest.fixture(scope="module")
def three_small():
    workload = workloads.three_community(0, replicates=2)
    return workload, workload.run_round(None, None)


def test_two_community_checks_pass(two_small):
    workload, results = two_small
    assert workload.check(results) == 0
    assert workload.failed(results) == 0


def test_three_community_checks_pass(three_small):
    workload, results = three_small
    assert workload.check(results) == 0


def _battery_check(battery, result, **changes):
    adjacencies, symbols = battery.regenerate(result.clusters)
    kwargs = dict(adjacencies=adjacencies, symbols=symbols, likelihoods=battery.likelihoods(result.clusters),
                  delta=battery.delta, burn_in=battery.burn_in)
    kwargs.update(changes)
    oracle.check_battery(result, **kwargs)


def _copy_result(result, **fields):
    return dataclasses.replace(result, **fields)


@pytest.mark.parametrize("corrupt", ["rep_means_psi", "rep_means_mu", "iter_mean", "pooled_var_psi"])
def test_battery_rejects_perturbed_aggregate(two_small, corrupt):
    workload, results = two_small
    battery = workload.batteries[1]
    result = results[battery.key]
    values = getattr(result, corrupt).copy()
    values.flat[3] += 1e-6
    with pytest.raises(oracle.CheckFailed):
        _battery_check(battery, _copy_result(result, **{corrupt: values}))


def test_battery_rejects_dropped_replicate(two_small):
    workload, results = two_small
    battery = workload.batteries[0]
    result = results[battery.key]
    with pytest.raises(oracle.CheckFailed):
        _battery_check(battery, _copy_result(result, rep_means_mu=result.rep_means_mu[1:]))


def test_battery_rejects_wrong_delta(two_small):
    workload, results = two_small
    battery = workload.batteries[1]
    with pytest.raises(oracle.CheckFailed):
        _battery_check(battery, results[battery.key], delta=0.3)


def test_battery_rejects_moved_estimate(three_small):
    workload, results = three_small
    battery = workload.batteries[0]
    result = results[battery.key]
    counts = result.error_report.counts.copy()
    counts[0, 0] -= 1
    counts[0, 1] += 1
    report = _copy_result(result.error_report, counts=counts)
    with pytest.raises(oracle.CheckFailed):
        _battery_check(battery, _copy_result(result, error_report=report))


def test_properties_reject_swapped_step_sizes(two_small):
    workload, results = two_small
    vb1 = {key[1]: res for key, res in results.items() if key[0] == "vb1"}
    swapped = {0.01: vb1[0.1], 0.1: vb1[0.01], 0.3: vb1[0.3]}
    with pytest.raises(oracle.CheckFailed):
        oracle.check_two_community_properties(swapped, results[("sparse", 0.286)])


# -- CLI round trip -----------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_small(tmp_path_factory):
    workload = workloads.CliRoundTrip(replicates=4)
    result = workload.run_round(tmp_path_factory.mktemp("cli") / "round", False)
    return workload, result


def test_cli_checks_pass_and_count_flagged_rows(cli_small):
    workload, result = cli_small
    assert workload.check(result) == 2
    assert workload.failed(result) == 0


def _corrupted(cli_small, tmp_path, edit):
    workload, result = cli_small
    root = tmp_path / "copy"
    shutil.copytree(result["dir"], root)
    edit(root)
    return workload, {"dir": root, "codes": result["codes"]}


def _edit_csv_value(relpath, row, column):
    def edit(root):
        path = root / relpath
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[column] = repr(float(cells[column]) + 1e-6)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    return edit


def _drop_line(relpath, row):
    def edit(root):
        path = root / relpath
        lines = path.read_text().splitlines()
        del lines[row]
        path.write_text("\n".join(lines) + "\n")

    return edit


def _edit_json(relpath, change):
    def edit(root):
        path = root / relpath
        data = json.loads(path.read_text())
        change(data)
        path.write_text(json.dumps(data))

    return edit


CORRUPTIONS = {
    "trace value": _edit_csv_value("sim/trace_0001.csv", 700, 3),
    "trace row dropped": _drop_line("sim/trace_0000.csv", 900),
    "iteration_stats mean": _edit_csv_value("sim/iteration_stats.csv", 1000, 2),
    "iteration_stats std": _edit_csv_value("sim/iteration_stats.csv", 1000, 3),
    "error_report p_err": _edit_csv_value("sim/error_report.csv", 3, 2),
    "summary mean": _edit_json("sim/summary.json",
                               lambda d: d["cluster_log_ratio_mu"]["1"].update(mean=d["cluster_log_ratio_mu"]["1"]["mean"] + 1e-6)),
    "prediction value": _edit_json("pred/prediction.json", lambda d: d["values"].__setitem__(4, d["values"][4] + 1e-6)),
    "prediction delta": _edit_json("pred/prediction.json", lambda d: d.update(delta=0.3)),
    "fit-delta error": _edit_csv_value("fit_0000/delta_scan.csv", 5, 1),
    "fit-delta traditional row": _edit_csv_value("fit_0003/delta_scan.csv", 1, 1),
    "comparison empirical mean": _edit_csv_value("sim/theory_comparison.csv", 1, 1),
    "network edge": lambda root: (root / "net/network.txt").write_text(
        (root / "net/network.txt").read_text().replace("1 1 1", "1 0 1", 1)),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_cli_check_rejects_corruption(cli_small, tmp_path, name):
    workload, result = _corrupted(cli_small, tmp_path, CORRUPTIONS[name])
    with pytest.raises(oracle.CheckFailed):
        workload.check(result)


def test_cli_check_rejects_wrong_delta(cli_small):
    workload, result = cli_small
    wrong = workloads.CliRoundTrip(replicates=4)
    wrong.sim_config["delta"] = 0.3
    with pytest.raises(oracle.CheckFailed):
        wrong.check(result)


def test_cli_check_rejects_failed_step(cli_small):
    workload, result = cli_small
    with pytest.raises(oracle.CheckFailed):
        workload.check({"dir": result["dir"], "codes": [0, 2]})


def test_cli_subprocess_round(tmp_path):
    workload = workloads.CliRoundTrip(replicates=4)
    result = workload.run_round(tmp_path / "round", None)
    assert result["codes"] == [0] * len(workload.steps)
    assert workload.peak_rss_kb > 0
    assert workload.check(result) == 2


# -- whole runs at smoke size ---------------------------------------------------------


SMOKE = {
    "two_community": lambda: workloads.two_community(0, replicates=2, sparse_replicates=2),
    "three_community": lambda: workloads.three_community(0, replicates=2),
    "cli_roundtrip": lambda: workloads.CliRoundTrip(replicates=4),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(tmp_path, name, trace):
    workload = SMOKE[name]()
    run = bench_run.measure(workload, 0.0, trace, tmp_path / "work")
    assert run["rounds"] == (2 if trace else 1)
    workload.check(run["first"])
    if not trace:
        assert run["peak_rss_mb"] > 0
        return
    tracer = run["tracer"]
    assert tracer.nesting_error() is None
    metrics = tracing.layer_metrics(tracer, run["traced_rounds"], workload.replicate_steps,
                                    run["untraced_walls"], 0.1)
    runs = workload.sim_config["replicates"] if name == "cli_roundtrip" else workload.operations
    assert metrics["learning.run_calls"][0] == runs
    total = metrics["trace.mid_spans_self_s"][0] + metrics["trace.mid_remainder_s"][0]
    assert total == pytest.approx(metrics["trace.mid_wall_s"][0], abs=1e-9)
    if name == "cli_roundtrip":
        assert metrics["harness.bytes_written"][0] > 0
        assert metrics["inverse.rows_loaded"][0] == 2 * 1501 * 30
        assert metrics["theory.predict_calls"][0] == 2


def test_tracing_restores_the_program():
    from blocklearn import harness, inverse

    before = (harness.run_experiment, harness.run, inverse.BeliefSeries.__dict__["from_trace_csv"])
    tracer = tracing.Tracer()
    with tracer.traced_round(0):
        assert harness.run is not before[1]
    assert (harness.run_experiment, harness.run, inverse.BeliefSeries.__dict__["from_trace_csv"]) == before


def test_run_fails_without_source(tmp_path):
    """In a directory holding only the benchmark, a run exits nonzero and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "two_community", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    a, b = workloads.two_community(1), workloads.two_community(2)
    assert [x.base_seed for x in a.batteries[:3]] != [x.base_seed for x in b.batteries[:3]]
    assert workloads.two_community(1).batteries == a.batteries
    assert np.array_equal(workloads.three_community(3).batteries[0].profile.likelihoods,
                          workloads.three_community(4).batteries[0].profile.likelihoods)
