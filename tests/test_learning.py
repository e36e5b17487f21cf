import json

import numpy as np
import pytest

from blocklearn.exceptions import DeltaOutOfRange, InvalidPair, check_strategy
from blocklearn.graphs import BlockModel, SbmParams, perron_vector, sample_sbm
from blocklearn.inverse import BeliefSeries, estimate_log_likelihoods, scan_delta
from blocklearn.learning import (
    BeliefState,
    TraceRecorder,
    asl_update,
    bayesian_update,
    estimate_state,
    geometric_combine,
    llr_table,
    log_normalize,
    log_ratio_chunks,
    pair_ratio,
    ratio_estimates,
    run,
    simulate_block,
)
from blocklearn.models import (
    LikelihoodProfile,
    bernoulli_profile,
    observation_matrix,
    random_multinomial_profile,
)
from blocklearn.theory import (
    expected_log_ratio,
    network_divergence,
    symmetric_log_ratio_closed_form,
)

VB1 = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
CRITERION_5 = BlockModel(sizes=(20, 25, 30),
                         probs=[[0.9, 0.05, 0.05], [0.05, 0.8, 0.05], [0.05, 0.05, 0.9]])


def ratio_log_beliefs(x):
    """Normalized log-beliefs ``log_normalize([0, x])`` from log-ratios."""
    return log_normalize(np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1))


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

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, float("nan")])
    def test_every_entry_point_rejects_alike(self, bad):
        profile = bernoulli_profile(np.repeat([0, 1], 15), (0.1, 0.5))
        series = BeliefSeries(values=np.zeros((6, 30)), split_index=3)
        calls = [
            lambda: asl_update(BeliefState.uniform(30, 2), np.zeros(30, dtype=int), profile, bad),
            lambda: check_strategy("asl", bad, "mu"),
            lambda: expected_log_ratio(VB1, profile, bad),
            lambda: symmetric_log_ratio_closed_form(0.37, 0.51, 0.8, 0.1, bad),
            lambda: estimate_log_likelihoods(series, np.eye(30), bad),
            lambda: scan_delta(series, np.eye(30), [0.5, bad, 0.25]),
        ]
        for call in calls:
            with pytest.raises(DeltaOutOfRange) as excinfo:
                call()
            assert str(excinfo.value) == f"delta must be in (0, 1), got {bad}"

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

    @pytest.mark.parametrize("n_hypotheses", [2, 3, 4, 5, 6])
    def test_log_ratio_estimates_match_log_beliefs(self, n_hypotheses):
        # half-integer log-ratios: exact ties at 0 and between hypotheses
        rng = np.random.default_rng(n_hypotheses)
        x = rng.integers(-3, 4, size=(7, 5, 11, n_hypotheses - 1)) / 2.0
        x[0] = 0.0  # every hypothesis ties with hypothesis 0
        x[1] = -1.0
        x[1, ..., -1] = x[1, ..., 0] = 0.5  # hypotheses 1 and H - 1 tie above 0
        estimates = ratio_estimates(x)
        assert estimates.dtype == np.min_scalar_type(n_hypotheses - 1)
        assert np.array_equal(estimates, estimate_state(ratio_log_beliefs(x)))
        assert (estimates[0] == 0).all() and (estimates[1] == 1).all()

    @staticmethod
    def argmax_of_zero_and(x):
        """argmax of ``[0, x]``, ties to the lowest index, over the entries
        before the first NaN (a NaN running maximum admits nothing after it)."""
        values = np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1)
        after_nan = np.cumsum(np.isnan(values), axis=-1) > 0
        return np.argmax(np.where(after_nan, -np.inf, values), axis=-1)

    @staticmethod
    def where_select(x):
        """The ``np.where`` select the arithmetic one replaced."""
        estimates = (x[..., 0] > 0.0).astype(np.uint8)
        best = np.maximum(x[..., 0], 0.0)
        for h in range(1, x.shape[-1]):
            estimates = np.where(x[..., h] > best, np.uint8(h + 1), estimates)
            np.maximum(best, x[..., h], out=best)
        return estimates

    @pytest.mark.parametrize("n_hypotheses", [2, 3, 4, 5])
    def test_log_ratio_estimates_match_argmax_oracle(self, n_hypotheses):
        # every combination of ties, signed zeros and NaN
        values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, np.nan])
        grids = np.meshgrid(*[values] * (n_hypotheses - 1), indexing="ij")
        x = np.stack(grids, axis=-1).reshape(-1, 6, n_hypotheses - 1)
        estimates = ratio_estimates(x)
        assert estimates.dtype == np.uint8
        assert np.array_equal(estimates, self.argmax_of_zero_and(x))
        assert np.array_equal(estimates, self.where_select(x))


class TestPairRatio:
    @staticmethod
    def zero_fill_then_add(x, pair):
        a, b = pair
        ratio = np.zeros(x.shape[:-1])
        if a:
            ratio += x[..., a - 1]
        if b:
            ratio -= x[..., b - 1]
        return ratio

    def test_bits_match_zero_fill_then_add(self):
        # signed zeros in every position, next to ordinary values
        values = np.array([0.0, -0.0, 1.5, -1.5, 1e-300, -np.inf])
        x = np.stack(np.meshgrid(values, values, values, indexing="ij"), axis=-1).reshape(-1, 3)
        x = x.reshape(2, -1, 3)
        for a in range(4):
            for b in range(4):
                with np.errstate(invalid="ignore"):  # -inf - -inf
                    got = pair_ratio(x, (a, b))
                    want = self.zero_fill_then_add(x, (a, b))
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True), (a, b)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (a, b)


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


class TestCheckPair:
    # with three hypotheses a pair (0, -1) used to be read as (0, 1) by the
    # simulator and as (0, 2) by the theory
    @pytest.mark.parametrize("pair", [(0, -1), (-1, 1), (0, 3), (3, 0), (0, 1.0)])
    def test_pair_outside_the_hypotheses_is_rejected(self, pair):
        network = sample_sbm(CRITERION_5, seed=777)
        profile = random_multinomial_profile(network.clusters, alphabet_size=25, seed=10)
        with pytest.raises(InvalidPair) as from_run:
            run(network, profile, strategy="asl", delta=0.1, horizon=5, pair=pair)
        with pytest.raises(InvalidPair) as from_theory:
            expected_log_ratio(CRITERION_5, profile, 0.1, pair)
        assert isinstance(from_run.value, ValueError)
        assert str(from_run.value) == str(from_theory.value)


class TestSimulateBlock:
    @staticmethod
    def chunks(burn_in, record):
        """The chunks one hook sees, copied, and the traces of a recorder
        that the hook calls first when ``record`` is set."""
        network = sample_sbm(CRITERION_5, seed=3)
        profile = random_multinomial_profile(network.clusters, 25, seed=10)
        symbols = observation_matrix(profile, 40, [1, 2])
        combination_t = np.ascontiguousarray(network.combination.T)
        seen = []
        recorder = TraceRecorder(2, 40, network.clusters, profile.n_hypotheses) if record else None

        def on_chunk(start, psi, mu, est):
            if recorder is not None:
                recorder(start, psi, mu, est)
            seen.append((start, psi.copy(), None if mu is None else mu.copy(),
                         None if est is None else est.copy()))

        simulate_block(combination_t, profile, symbols, "asl", 0.1, (0, 2), "mu", on_chunk,
                       burn_in=burn_in)
        return seen, recorder and recorder.close([{}, {}])

    @pytest.mark.parametrize("burn_in", [0, 15, 16, 17, 32, 40])
    def test_burn_in_chunks_skip_mu_and_estimates(self, burn_in):
        full, _ = self.chunks(0, record=False)
        seen, _ = self.chunks(burn_in, record=False)
        assert [c[0] for c in seen] == [0, 16, 32]
        for (start, psi, mu, est), (_, psi_full, mu_full, est_full) in zip(seen, full):
            assert np.array_equal(psi, psi_full)
            if start + psi.shape[0] <= burn_in:
                assert mu is None and est is None
            else:
                assert np.array_equal(mu, mu_full) and np.array_equal(est, est_full)

    def test_recorded_blocks_keep_every_chunk(self):
        # a recorder is passed with burn_in 0, and sees mu and the estimates
        # of every chunk
        seen, traces = self.chunks(0, record=True)
        assert [c[0] for c in seen] == [0, 16, 32]
        assert all(mu is not None and est is not None for _, _, mu, est in seen)
        mu = np.concatenate([c[2] for c in seen])  # (T, B, N)
        est = np.concatenate([c[3] for c in seen])
        for j, trace in enumerate(traces):
            assert np.array_equal(trace.mu_log_ratio[1:], mu[:, j])
            assert np.array_equal(trace.estimates[1:], est[:, j])
            assert not trace.mu_log_ratio[0].any() and not trace.estimates[0].any()


class TestLogRatioChunks:
    # 64 stacked 75 x 75 matrices take 2.9 MB, more than STACK_BYTES: that
    # input steps in sub-blocks
    @pytest.mark.parametrize("horizon, n, reps", [(1, 6, 3), (15, 6, 3), (16, 6, 3), (17, 6, 3),
                                                  (40, 75, 64)], ids=["1", "15", "16", "17", "40"])
    @pytest.mark.parametrize("asl", [True, False])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("n_hypotheses", [2, 3])
    def test_matches_per_step_recursion(self, horizon, n, reps, asl, shared, n_hypotheses):
        rng = np.random.default_rng(horizon + 10 * n_hypotheses)
        alphabet = 4
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
