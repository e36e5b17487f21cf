import csv
import json

import numpy as np
import pytest

from blocklearn.exceptions import DeltaOutOfRange, WindowTooLarge
from blocklearn.graphs import SbmParams, perron_vector, sample_sbm
from blocklearn.learning import (
    BeliefState,
    asl_update,
    bayesian_update,
    estimate_state,
    geometric_combine,
    llr_table,
    log_ratio_chunks,
    ratio_estimates,
    ratio_log_beliefs,
    run,
    windowed_mean_log_ratio,
)
from blocklearn.models import LikelihoodProfile, bernoulli_profile
from blocklearn.theory import network_divergence

VB1 = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)


def two_symbol_profile(rows):
    """One-agent profile whose hypothesis-h likelihood row is rows[h]."""
    likelihoods = np.asarray(rows, dtype=float)[None, :, :]
    return LikelihoodProfile(likelihoods=likelihoods, true_state=np.array([0]))


class TestBayesianUpdate:
    def test_uniform_prior_equal_likelihoods(self):
        profile = two_symbol_profile([[0.3, 0.7], [0.3, 0.7]])
        state = BeliefState.uniform(1, 2)
        log_psi = bayesian_update(state, np.array([1]), profile)
        assert np.allclose(np.exp(log_psi), [[0.5, 0.5]], atol=1e-14)

    def test_two_to_one_likelihood_ratio(self):
        profile = two_symbol_profile([[0.2, 0.8], [0.1, 0.9]])
        state = BeliefState.uniform(1, 2)
        log_psi = bayesian_update(state, np.array([0]), profile)
        assert np.allclose(np.exp(log_psi), [[2 / 3, 1 / 3]], atol=1e-14)

    def test_hand_normalized_posterior(self):
        # prior (0.9, 0.1) with likelihoods (0.1, 0.5) -> (9/14, 5/14)
        profile = two_symbol_profile([[0.9, 0.1], [0.5, 0.5]])
        state = BeliefState(log_private=np.log(np.array([[0.9, 0.1]])))
        log_psi = bayesian_update(state, np.array([1]), profile)
        assert np.allclose(np.exp(log_psi), [[9 / 14, 5 / 14]], atol=1e-14)


class TestAslUpdate:
    def test_delta_near_one_ignores_prior(self):
        profile = two_symbol_profile([[0.9, 0.1], [0.5, 0.5]])
        state = BeliefState(log_private=np.log(np.array([[0.999, 0.001]])))
        log_psi = asl_update(state, np.array([1]), profile, delta=1 - 1e-12)
        ratio = log_psi[0, 0] - log_psi[0, 1]
        assert abs(ratio - np.log(0.1 / 0.5)) < 1e-9

    def test_delta_near_zero_keeps_prior(self):
        profile = two_symbol_profile([[0.9, 0.1], [0.5, 0.5]])
        log_prior = np.log(np.array([[0.7, 0.3]]))
        state = BeliefState(log_private=log_prior)
        log_psi = asl_update(state, np.array([1]), profile, delta=1e-12)
        assert abs((log_psi[0, 0] - log_psi[0, 1]) - (log_prior[0, 0] - log_prior[0, 1])) < 1e-9

    def test_half_delta_log_ratio(self):
        profile = two_symbol_profile([[0.9, 0.1], [0.5, 0.5]])
        state = BeliefState.uniform(1, 2)
        log_psi = asl_update(state, np.array([1]), profile, delta=0.5)
        assert log_psi[0, 0] - log_psi[0, 1] == pytest.approx(0.5 * np.log(0.1 / 0.5), abs=1e-12)

    def test_delta_out_of_range(self):
        profile = two_symbol_profile([[0.9, 0.1], [0.5, 0.5]])
        state = BeliefState.uniform(1, 2)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DeltaOutOfRange):
                asl_update(state, np.array([0]), profile, delta=bad)

    def test_interpolation_identity_per_step(self):
        rng = np.random.default_rng(17)
        params = VB1
        network = sample_sbm(params, seed=2)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        state = BeliefState.uniform(30, 2)
        delta = 0.3
        for _ in range(100):
            obs = rng.integers(0, 2, size=30)
            log_psi = asl_update(state, obs, profile, delta)
            log_like = profile.log_likelihoods[np.arange(30), :, obs]
            lhs = log_psi[:, 0] - log_psi[:, 1]
            rhs = delta * (log_like[:, 0] - log_like[:, 1]) + (1 - delta) * (
                state.log_private[:, 0] - state.log_private[:, 1]
            )
            assert np.abs(lhs - rhs).max() <= 1e-12
            state = BeliefState(log_private=geometric_combine(log_psi, network.combination))


class TestGeometricCombine:
    def test_identity_combination(self):
        log_psi = np.log(np.array([[0.8, 0.2], [0.3, 0.7]]))
        assert np.allclose(geometric_combine(log_psi, np.eye(2)), log_psi, atol=1e-14)

    def test_equal_weights_symmetric_beliefs(self):
        log_psi = np.log(np.array([[0.8, 0.2], [0.2, 0.8]]))
        combo = np.full((2, 2), 0.5)
        log_mu = geometric_combine(log_psi, combo)
        assert np.allclose(np.exp(log_mu), 0.5, atol=1e-14)

    def test_weighted_geometric_mean(self):
        # weights (0.75, 0.25) on (0.8, 0.2) and (0.2, 0.8): log-ratio log(4)/2
        log_psi = np.log(np.array([[0.8, 0.2], [0.2, 0.8]]))
        combo = np.array([[0.75, 0.75], [0.25, 0.25]])
        log_mu = geometric_combine(log_psi, combo)
        assert log_mu[0, 0] - log_mu[0, 1] == pytest.approx(0.5 * np.log(4), abs=1e-12)
        assert np.allclose(np.exp(log_mu[0]), [2 / 3, 1 / 3], atol=1e-12)


class TestEstimateState:
    def test_clear_winner(self):
        assert estimate_state(np.log(np.array([[0.9, 0.1]])))[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        assert estimate_state(np.log(np.array([[0.5, 0.5]])))[0] == 0

    def test_three_hypotheses(self):
        assert estimate_state(np.log(np.array([[0.2, 0.3, 0.5]])))[0] == 2

    def test_log_ratio_estimates_break_ties_alike(self):
        # log-ratios against hypothesis 0, with exact ties among the maxima
        x = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [0.5, 2.0], [-0.5, -0.25]])
        assert ratio_estimates(x).tolist() == [0, 1, 0, 2, 0]
        assert np.array_equal(ratio_estimates(x), estimate_state(ratio_log_beliefs(x)))


class TestRun:
    def test_zero_horizon_keeps_initial_state(self):
        network = sample_sbm(VB1, seed=1)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.1, horizon=0, seed=0)
        assert trace.log_ratio.shape == (1, 30)
        assert np.allclose(trace.log_ratio[0], 0.0)
        assert np.all(trace.estimates[0] == 0)

    def test_bitwise_determinism(self):
        network = sample_sbm(VB1, seed=1)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        a = run(network, profile, strategy="asl", delta=0.1, horizon=200, seed=5,
                record_observations=True)
        b = run(network, profile, strategy="asl", delta=0.1, horizon=200, seed=5,
                record_observations=True)
        assert np.array_equal(a.log_ratio, b.log_ratio)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.observations, b.observations)

    def test_simplex_conservation_along_run(self):
        network = sample_sbm(VB1, seed=4)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.2, horizon=300, seed=9)
        final = trace.final_state
        assert np.abs(np.exp(final.log_private).sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(np.exp(final.log_public).sum(axis=1) - 1.0).max() <= 1e-10

    def test_traditional_consensus_on_dominant_hypothesis(self):
        # one fixed network whose realized divergence favors hypothesis 1;
        # observation seeds vary across runs
        network = sample_sbm(VB1, seed=11)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        K = network_divergence(profile, perron_vector(network.combination), 0, 1)
        assert K < 0  # this draw favors hypothesis 1, as in the reference setup
        wins = 0
        for s in range(100):
            trace = run(network, profile, strategy="traditional", horizon=2000, seed=s)
            wins += bool(np.all(trace.estimates[-1] == 1))
        assert wins >= 95

    def test_estimator_flag(self):
        network = sample_sbm(VB1, seed=1)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        mu_est = run(network, profile, strategy="asl", delta=0.3, horizon=50, seed=3,
                     estimator="mu")
        psi_est = run(network, profile, strategy="asl", delta=0.3, horizon=50, seed=3,
                      estimator="psi")
        assert np.array_equal(mu_est.log_ratio, psi_est.log_ratio)
        assert not np.array_equal(mu_est.estimates, psi_est.estimates)

    def test_variance_scales_with_delta(self):
        # halving the step size halves the steady-state variance (within a band)
        def pooled_variance(delta, runs=400, horizon=120):
            samples = []
            for s in range(runs):
                network = sample_sbm(VB1, seed=7000 + s)
                profile = bernoulli_profile(network.clusters, (0.1, 0.5))
                trace = run(network, profile, strategy="asl", delta=delta,
                            horizon=horizon, seed=7000 + s)
                samples.append(trace.mu_log_ratio[-1])
            return np.asarray(samples).var(axis=0, ddof=1).mean()

        ratio = pooled_variance(0.2) / pooled_variance(0.1)
        assert 1.5 <= ratio <= 2.5

    def test_trace_csv_round_trip(self, tmp_path):
        network = sample_sbm(VB1, seed=1)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.1, horizon=20, seed=0,
                    record_observations=True)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,agent,cluster,log_ratio,estimate,obs"
        assert len(lines) == 1 + 21 * 30
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["delta"] == 0.1 and meta["strategy"] == "asl"
        assert meta["seed"] == 0 and meta["horizon"] == 20


def row_loop_csv(trace, path):
    """Reference trace writer: one csv.writer row per (iteration, agent)."""
    with_obs = trace.observations is not None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "agent", "cluster", "log_ratio", "estimate"]
                        + (["obs"] if with_obs else []))
        for i in range(trace.horizon + 1):
            for k in range(trace.n_agents):
                row = [i, k, int(trace.clusters[k]), f"{trace.log_ratio[i, k]:.17g}",
                       int(trace.estimates[i, k])]
                if with_obs:
                    row.append(int(trace.observations[k, i - 1]) if i >= 1 else "")
                writer.writerow(row)


class TestTraceCsv:
    @pytest.mark.parametrize("record_observations", [False, True])
    def test_bytes_match_row_loop(self, tmp_path, record_observations):
        network = sample_sbm(VB1, seed=3)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.2, horizon=150, seed=4,
                    record_observations=record_observations)
        # values whose %.17g text is easy to get wrong
        trace.log_ratio[1, :4] = [-0.0, 1e-300, 123456789.123, -2.5e16]
        trace.to_csv(tmp_path / "bulk.csv", sidecar=False)
        row_loop_csv(trace, tmp_path / "loop.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


class TestLogRatioChunks:
    @pytest.mark.parametrize("horizon", [1, 15, 16, 17])
    @pytest.mark.parametrize("asl", [True, False])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("n_hypotheses", [2, 3])
    def test_matches_per_step_recursion(self, horizon, asl, shared, n_hypotheses):
        rng = np.random.default_rng(horizon + 10 * n_hypotheses)
        n, reps, alphabet = 6, 3, 4
        raw = rng.random((n, n_hypotheses, alphabet)) + 0.05
        profile = LikelihoodProfile(likelihoods=raw / raw.sum(axis=2, keepdims=True),
                                    true_state=rng.integers(0, n_hypotheses, n))
        combination_t = rng.random((n, n) if shared else (reps, n, n))
        symbols = rng.integers(0, alphabet, size=(horizon, reps, n)).astype(np.uint8)
        w_like, w_prior = (0.3, 0.7) if asl else (1.0, 1.0)

        table = llr_table(profile)
        psi, mu = [], []
        prev_mu = np.zeros((reps, n, n_hypotheses - 1))
        for t in range(horizon):
            like = table[np.arange(n), symbols[t]]  # (reps, n, H - 1)
            psi.append(w_like * like + w_prior * prev_mu)
            prev_mu = np.matmul(combination_t, psi[-1])
            mu.append(prev_mu)

        chunks = [(start, x_psi.copy(), x_mu.copy())
                  for start, x_psi, x_mu in log_ratio_chunks(combination_t, table, symbols,
                                                             w_like, w_prior)]
        assert [start for start, _, _ in chunks] == list(range(0, horizon, 16))
        assert np.array_equal(np.concatenate([c[1] for c in chunks]), np.array(psi))
        assert np.array_equal(np.concatenate([c[2] for c in chunks]), np.array(mu))


class TestWindowedMean:
    def test_window_one_is_identity(self):
        series = np.arange(12.0).reshape(6, 2)
        assert np.array_equal(windowed_mean_log_ratio(series, 1), series)

    def test_constant_series(self):
        series = np.full((7, 3), 2.5)
        out = windowed_mean_log_ratio(series, 4)
        assert np.isnan(out[:3]).all()
        assert np.allclose(out[3:], 2.5)

    def test_short_series_arithmetic(self):
        out = windowed_mean_log_ratio(np.array([[1.0], [2.0], [3.0], [4.0]]), 2)
        assert np.isnan(out[0, 0])
        assert np.allclose(out[1:, 0], [1.5, 2.5, 3.5])

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            windowed_mean_log_ratio(np.zeros((3, 1)), 4)
