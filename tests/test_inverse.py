import csv

import numpy as np
import pytest

from blocklearn.exceptions import DeltaOutOfRange, InsufficientSteps, MalformedFile
from blocklearn.graphs import SbmParams, averaging_combination, sample_sbm
from blocklearn.inverse import (
    BeliefSeries,
    estimate_log_likelihoods,
    fit_error,
    recursion_series,
    scan_delta,
    traditional_fit,
)
from blocklearn.learning import run
from blocklearn.models import bernoulli_profile

VB1 = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)


def random_combination(rng, n):
    adjacency = (rng.random((n, n)) < 0.5).astype(int)
    np.fill_diagonal(adjacency, 1)
    return averaging_combination(adjacency)


class TestBeliefSeries:
    def test_split_validation(self):
        with pytest.raises(InsufficientSteps):
            BeliefSeries(values=np.zeros((3, 2)), split_index=3)

    def test_default_split_is_half(self):
        series = BeliefSeries.from_array(np.zeros((10, 2)))
        assert series.split_index == 5

    def test_forward_fill(self):
        values = np.array([[np.nan, 1.0], [2.0, np.nan], [np.nan, 3.0]])
        series = BeliefSeries.from_array(values, split_index=1)
        # leading gap falls back to the uniform-belief ratio 0
        assert np.array_equal(series.values, [[0.0, 1.0], [2.0, 1.0], [2.0, 3.0]])

    def test_forward_fill_matches_row_loop(self):
        def row_loop(values):
            filled = values.copy()
            for k in range(filled.shape[1]):
                last = 0.0
                for i in range(filled.shape[0]):
                    if np.isnan(filled[i, k]):
                        filled[i, k] = last
                    else:
                        last = filled[i, k]
            return filled

        rng = np.random.default_rng(12)
        for _ in range(50):
            values = rng.normal(size=(int(rng.integers(2, 40)), 5))
            values[rng.random(values.shape) < rng.random()] = np.nan
            values[:, 0] = np.nan  # an all-NaN column
            values[-1, 1] = np.nan  # a NaN in the last row
            series = BeliefSeries.from_array(values, split_index=1)
            assert np.array_equal(series.values, row_loop(values))

    def test_trace_csv_ingestion(self, tmp_path):
        network = sample_sbm(VB1, seed=0)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.4, horizon=30, seed=1)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        series = BeliefSeries.from_trace_csv(path, split_index=15)
        assert series.values.shape == (31, 30)
        assert np.allclose(series.values, trace.log_ratio, atol=1e-15)


def dictreader_values(path, step_col="step", agent_col="agent", value_col="log_ratio"):
    """Reference parser: one csv.DictReader row at a time, then forward fill."""
    steps, agents, vals = [], [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            steps.append(int(row[step_col]))
            agents.append(int(row[agent_col]))
            vals.append(float(row[value_col]))
    values = np.full((max(steps) + 1, max(agents) + 1), np.nan)
    values[steps, agents] = vals
    return BeliefSeries.from_array(values).values


class TestCsvParsing:
    def test_trace_with_observations_matches_row_loop(self, tmp_path):
        network = sample_sbm(VB1, seed=4)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.3, horizon=120, seed=4,
                    record_observations=True)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_text().splitlines()[0].endswith(",obs")
        series = BeliefSeries.from_trace_csv(path)
        assert np.array_equal(series.values, dictreader_values(path, step_col="iter"))

    def test_generic_csv_with_reordered_columns_and_gaps(self, tmp_path):
        rng = np.random.default_rng(14)
        rows = [(i, k, rng.normal()) for i in range(25) for k in range(7) if rng.random() < 0.7]
        rng.shuffle(rows)
        path = tmp_path / "generic.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["log_ratio", "note", "agent", "step"])
            for i, k, value in rows:
                writer.writerow([repr(value), "x", k, i])
        series = BeliefSeries.from_trace_csv(path)
        assert np.array_equal(series.values, dictreader_values(path))

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("iter,agent,log_ratio\r\n")
        with pytest.raises(InsufficientSteps):
            BeliefSeries.from_trace_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "nostep.csv"
        path.write_text("agent,log_ratio\n0,1.5\n")
        with pytest.raises(MalformedFile):
            BeliefSeries.from_trace_csv(path)

    @pytest.mark.parametrize("column", ["step", "agent"])
    @pytest.mark.parametrize("bad", ["-1", "1.7", "inf", "nan"])
    def test_id_that_is_not_a_non_negative_integer(self, tmp_path, column, bad):
        # a step of -1 would overwrite the last row, a step of 1.7 land on step 1
        rows = [{"step": "0", "agent": "0"}, {"step": "1", "agent": "0"},
                {"step": "2", "agent": "1"}]
        rows[1][column] = bad
        path = tmp_path / "ids.csv"
        path.write_text("step,agent,log_ratio\n"
                        + "".join(f"{r['step']},{r['agent']},0.5\n" for r in rows))
        with pytest.raises(MalformedFile, match=f"column '{column}'"):
            BeliefSeries.from_trace_csv(path)

    @pytest.mark.parametrize("column, bad", [("step", "abc"), ("agent", "1x"),
                                             ("log_ratio", "abc"), ("log_ratio", "inf"),
                                             ("log_ratio", "-inf")])
    def test_cell_that_is_not_a_usable_number(self, tmp_path, column, bad):
        rows = [{"step": "0", "agent": "0", "log_ratio": "0.5"},
                {"step": "1", "agent": "0", "log_ratio": "0.5"}]
        rows[1][column] = bad
        path = tmp_path / "cells.csv"
        path.write_text("log_ratio,agent,step\n"
                        + "".join(f"{r['log_ratio']},{r['agent']},{r['step']}\n" for r in rows))
        with pytest.raises(MalformedFile, match=f"cells.csv: column '{column}'"):
            BeliefSeries.from_trace_csv(path)


class TestEstimateLogLikelihoods:
    def test_single_agent_hand_arithmetic(self):
        # identity combination, delta = 0.5, series (0, 1, 1.5):
        # increments (1/0.5)*(1 - 0.5*0) = 2 and (1/0.5)*(1.5 - 0.5*1) = 2
        series = BeliefSeries(values=np.array([[0.0], [1.0], [1.5]]), split_index=3 - 1)
        estimates = estimate_log_likelihoods(series, np.eye(1), 0.5)
        assert estimates[0] == pytest.approx(2.0, abs=1e-14)

    def test_noiseless_recovery_is_exact(self):
        rng = np.random.default_rng(2)
        combination = random_combination(rng, 8)
        truth = rng.normal(size=8)
        series = BeliefSeries.from_array(recursion_series(truth, combination, 0.3, steps=40))
        recovered = estimate_log_likelihoods(series, combination, 0.3)
        assert np.abs(recovered - truth).max() < 1e-10

    def test_simulated_trace_estimates_match_realized_ratios(self):
        # the estimator at the true step size returns exactly the train-window
        # average of the realized log-likelihood ratios
        network = sample_sbm(VB1, seed=6)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.5, horizon=200, seed=6,
                    record_observations=True)
        split = 100
        series = BeliefSeries.from_array(trace.log_ratio, split_index=split)
        estimates = estimate_log_likelihoods(series, network.combination, 0.5)
        log_like = profile.log_likelihoods  # (N, H, m)
        nu = np.array(
            [
                log_like[k, 0, trace.observations[k, : split - 1]]
                - log_like[k, 1, trace.observations[k, : split - 1]]
                for k in range(30)
            ]
        )
        assert np.abs(estimates - nu.mean(axis=1)).max() < 1e-10

    def test_simulated_trace_estimates_near_expected_values(self):
        # statistical check against the signed informativeness values
        network = sample_sbm(VB1, seed=6)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.5, horizon=200, seed=6)
        series = BeliefSeries.from_array(trace.log_ratio, split_index=100)
        estimates = estimate_log_likelihoods(series, network.combination, 0.5)
        expected = np.where(network.clusters == 0, 0.3680642, -0.5108256)
        # per-agent standard error of a 99-sample mean of the log-likelihood ratio
        log_ratio_values = np.log([0.9 / 0.5, 0.1 / 0.5])
        var_c0 = 0.9 * log_ratio_values[0] ** 2 + 0.1 * log_ratio_values[1] ** 2 - 0.3680642**2
        var_c1 = 0.5 * (np.log(0.5 / 0.9)) ** 2 + 0.5 * (np.log(0.5 / 0.1)) ** 2 - 0.5108256**2
        se = np.sqrt(np.where(network.clusters == 0, var_c0, var_c1) / 99)
        assert np.all(np.abs(estimates - expected) <= 3 * se)

    def test_delta_validation(self):
        series = BeliefSeries(values=np.zeros((4, 2)), split_index=2)
        with pytest.raises(DeltaOutOfRange):
            estimate_log_likelihoods(series, np.eye(2), 1.0)

    def test_needs_two_fitting_steps(self):
        series = BeliefSeries(values=np.zeros((4, 2)), split_index=1)
        with pytest.raises(InsufficientSteps):
            estimate_log_likelihoods(series, np.eye(2), 0.5)


class TestFitError:
    def test_exact_fixed_point_gives_zero(self):
        rng = np.random.default_rng(5)
        combination = random_combination(rng, 6)
        truth = rng.normal(size=6)
        delta = 0.4
        # stationary point of the recursion: y = delta*c + (1-delta) A^T y
        fixed = np.linalg.solve(np.eye(6) - (1 - delta) * combination.T, delta * truth)
        series = BeliefSeries(values=np.tile(fixed, (20, 1)), split_index=10)
        estimates = estimate_log_likelihoods(series, combination, delta)
        assert np.abs(estimates - truth).max() < 1e-10
        assert fit_error(series, combination, delta, estimates) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        combination = random_combination(rng, 5)
        series = BeliefSeries(values=rng.normal(size=(12, 5)), split_index=6)
        estimates = rng.normal(size=5)
        assert fit_error(series, combination, 0.3, estimates) >= 0.0

    def test_misspecified_delta_scores_worse(self):
        rng = np.random.default_rng(9)
        combination = random_combination(rng, 10)
        truth = rng.normal(size=10)
        series = BeliefSeries.from_array(recursion_series(truth, combination, 0.5, steps=60))
        est_true = estimate_log_likelihoods(series, combination, 0.5)
        est_bad = estimate_log_likelihoods(series, combination, 0.1)
        assert fit_error(series, combination, 0.5, est_true) < fit_error(
            series, combination, 0.1, est_bad
        )

    def test_agent_reordering_invariance(self):
        rng = np.random.default_rng(10)
        n = 9
        combination = random_combination(rng, n)
        values = rng.normal(size=(16, n))
        series = BeliefSeries(values=values, split_index=8)
        estimates = rng.normal(size=n)
        base = fit_error(series, combination, 0.35, estimates)
        perm = rng.permutation(n)
        permuted = fit_error(
            BeliefSeries(values=values[:, perm], split_index=8),
            combination[np.ix_(perm, perm)],
            0.35,
            estimates[perm],
        )
        assert permuted == pytest.approx(base, abs=1e-14)


class TestScanDelta:
    def test_single_point_grid(self):
        rng = np.random.default_rng(11)
        combination = random_combination(rng, 6)
        series = BeliefSeries.from_array(
            recursion_series(rng.normal(size=6), combination, 0.5, steps=30)
        )
        scan = scan_delta(series, combination, [0.25])
        assert scan.best_delta == 0.25

    def test_noiseless_argmin_at_generator(self):
        rng = np.random.default_rng(12)
        combination = random_combination(rng, 12)
        series = BeliefSeries.from_array(
            recursion_series(rng.normal(size=12), combination, 0.5, steps=80)
        )
        scan = scan_delta(series, combination, np.arange(0.025, 0.98, 0.025))
        assert scan.best_delta == pytest.approx(0.5, abs=1e-12)

    def test_traditional_fit_reported(self):
        rng = np.random.default_rng(13)
        combination = random_combination(rng, 6)
        series = BeliefSeries.from_array(
            recursion_series(rng.normal(size=6), combination, 0.5, steps=30)
        )
        scan = scan_delta(series, combination, [0.3, 0.5], include_traditional=True)
        assert scan.traditional_error is not None and scan.traditional_error >= 0.0
        estimates, error = traditional_fit(series, combination)
        assert error == pytest.approx(scan.traditional_error, abs=1e-15)
        assert estimates.shape == (6,)

    def test_errors_match_per_point_fit(self):
        network = sample_sbm(VB1, seed=8)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.3, horizon=400, seed=8)
        rng = np.random.default_rng(15)
        grid = np.arange(0.025, 0.98, 0.025)
        for values, split in ((trace.log_ratio, 150), (rng.normal(size=(40, 30)), 2)):
            series = BeliefSeries.from_array(values, split_index=split)
            scan = scan_delta(series, network.combination, grid, include_traditional=True)
            reference = [
                fit_error(series, network.combination, d,
                          estimate_log_likelihoods(series, network.combination, d))
                for d in grid
            ]
            assert np.allclose(scan.errors, reference, rtol=1e-12, atol=0)
            assert scan.best_delta == grid[int(np.argmin(reference))]
            _, traditional = traditional_fit(series, network.combination)
            assert scan.traditional_error == pytest.approx(traditional, rel=1e-12)

    def test_needs_two_fitting_steps(self):
        series = BeliefSeries(values=np.zeros((4, 2)), split_index=1)
        with pytest.raises(InsufficientSteps):
            scan_delta(series, np.eye(2), [0.5])

    def test_grid_validation(self):
        series = BeliefSeries(values=np.zeros((6, 2)), split_index=3)
        with pytest.raises(DeltaOutOfRange):
            scan_delta(series, np.eye(2), [0.5, 1.0])
