import json

import numpy as np
import pytest

from blocklearn.exceptions import (
    DeltaOutOfRange,
    InvalidRegime,
    PreconditionFailed,
    ZeroInformativeness,
)
from blocklearn.graphs import BlockModel, SbmParams, expected_combination, sample_sbm
from blocklearn.models import (
    LikelihoodProfile,
    bernoulli_profile,
    cluster_informativeness,
    random_multinomial_profile,
)
from blocklearn.theory import (
    asymmetric_delta_thresholds,
    exact_recovery_infeasible,
    expected_log_ratio,
    mean_log_likelihood_ratios,
    network_divergence,
    optimal_hypothesis_set,
    symmetric_delta_threshold,
    symmetric_log_ratio_closed_form,
)

CLUSTERS = np.repeat([0, 1], 15)
VB1 = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
D0 = 0.3680642071684971
D1 = 0.5108256237659907


def vb1_profile():
    return bernoulli_profile(CLUSTERS, (0.1, 0.5))


def uniform_u(n=30):
    return np.full(n, 1.0 / n)


class TestNetworkDivergence:
    def test_same_hypothesis_is_zero(self):
        assert network_divergence(vb1_profile(), uniform_u(), 0, 0) == 0.0

    def test_antisymmetry(self):
        profile = vb1_profile()
        k01 = network_divergence(profile, uniform_u(), 0, 1)
        k10 = network_divergence(profile, uniform_u(), 1, 0)
        assert k01 == pytest.approx(-k10, abs=1e-15)

    def test_vb1_uniform_value(self):
        # direct summation oracle: half of (d0 - d1) under the uniform vector
        expected = 0.5 * (D0 - D1)
        k = network_divergence(vb1_profile(), uniform_u(), 0, 1)
        assert k == pytest.approx(expected, abs=1e-12)
        assert k < 0  # the network as a whole favors hypothesis 1

    def test_label_arguments(self):
        profile = vb1_profile()
        by_label = network_divergence(profile, uniform_u(), "theta0", "theta1")
        by_index = network_divergence(profile, uniform_u(), 0, 1)
        assert by_label == by_index


class TestOptimalHypothesisSet:
    def test_homogeneous_truth(self):
        profile = bernoulli_profile(np.zeros(10, dtype=int), (0.1, 0.5))
        result = optimal_hypothesis_set(profile, uniform_u(10))
        assert result.indices == (0,)
        assert result.objective[0] == pytest.approx(0.0, abs=1e-15)

    def test_vb1_prefers_theta1(self):
        result = optimal_hypothesis_set(vb1_profile(), uniform_u())
        assert result.indices == (1,)
        assert result.labels == ("theta1",)

    def test_mirrored_clusters_tie(self):
        # both clusters Bernoulli pairs with swapped roles: objective symmetric
        likelihoods = np.empty((4, 2, 2))
        likelihoods[:2, 0] = [0.9, 0.1]
        likelihoods[:2, 1] = [0.1, 0.9]
        likelihoods[2:, 0] = [0.1, 0.9]
        likelihoods[2:, 1] = [0.9, 0.1]
        profile = LikelihoodProfile(
            likelihoods=likelihoods, true_state=np.array([0, 0, 1, 1])
        )
        result = optimal_hypothesis_set(profile, uniform_u(4))
        assert result.indices == (0, 1)

    def test_members_beat_excluded_hypotheses(self):
        profile = vb1_profile()
        u = uniform_u()
        result = optimal_hypothesis_set(profile, u)
        for star in result.indices:
            for other in range(profile.n_hypotheses):
                if other not in result.indices:
                    assert network_divergence(profile, u, star, other) > 0


class TestExpectedLogRatio:
    def test_matches_closed_form(self):
        profile = vb1_profile()
        for delta in (0.01, 0.1, 0.3, 0.9):
            prediction = expected_log_ratio(VB1, profile, delta)
            closed = symmetric_log_ratio_closed_form(D0, D1, 0.8, 0.1, delta)
            means = prediction.cluster_means(CLUSTERS)
            assert means[0] == pytest.approx(closed[0], abs=1e-9)
            assert means[1] == pytest.approx(closed[1], abs=1e-9)

    def test_delta_point_one_values(self):
        prediction = expected_log_ratio(VB1, vb1_profile(), 0.1)
        means = prediction.cluster_means(CLUSTERS)
        assert means[0] == pytest.approx(0.042549, abs=1e-5)
        assert means[1] == pytest.approx(-0.185311, abs=1e-5)

    def test_small_delta_approaches_network_divergence(self):
        profile = vb1_profile()
        k = network_divergence(profile, uniform_u(), 0, 1)
        prediction = expected_log_ratio(VB1, profile, 1e-6)
        means = prediction.cluster_means(CLUSTERS)
        assert means[0] == pytest.approx(k, abs=1e-3)
        assert means[1] == pytest.approx(k, abs=1e-3)

    def test_small_delta_both_negative(self):
        means = expected_log_ratio(VB1, vb1_profile(), 0.01).cluster_means(CLUSTERS)
        assert means[0] == pytest.approx(-0.0565, abs=5e-4)
        assert means[1] == pytest.approx(-0.0862, abs=5e-4)
        assert means[0] < 0 and means[1] < 0

    def test_block_and_explicit_paths_agree(self):
        profile = vb1_profile()
        dense = expected_combination(VB1).dense()
        block_path = expected_log_ratio(VB1, profile, 0.2)
        dense_path = expected_log_ratio(dense, profile, 0.2)
        assert np.abs(block_path.values - dense_path.values).max() < 1e-10

    @pytest.mark.parametrize("delta", [0.001, 0.01, 0.1, 0.7])
    def test_explicit_solve_matches_power_sum(self, delta):
        network = sample_sbm(VB1, seed=42)
        profile = vb1_profile()
        nu = mean_log_likelihood_ratios(profile)
        # delta * sum_t (1 - delta)^t (M^(t+1))^T nu, until the tail is below 1e-15 |nu|
        mt = network.combination.T
        total, y, weight = np.zeros(30), mt @ nu, 1.0
        while weight >= 1e-15:
            total += delta * weight * y
            y = mt @ y
            weight *= 1.0 - delta
        prediction = expected_log_ratio(network.combination, profile, delta)
        assert np.abs(prediction.values - total).max() < 1e-10

    def test_sbm_params_and_block_model_agree(self):
        profile = vb1_profile()
        for delta in (0.01, 0.1, 0.7):
            from_params = expected_log_ratio(VB1, profile, delta)
            from_blocks = expected_log_ratio(
                BlockModel(sizes=(15, 15), probs=[[0.8, 0.1], [0.1, 0.8]]), profile, delta
            )
            assert np.array_equal(from_params.values, from_blocks.values)

    def test_three_community_block_path_matches_dense(self):
        probs = np.full((3, 3), 0.05)
        np.fill_diagonal(probs, [0.9, 0.8, 0.9])
        model = BlockModel(sizes=(20, 25, 30), probs=probs)
        profile = random_multinomial_profile(model.labels(), alphabet_size=25, seed=10)
        dense = expected_combination(model).dense()
        for pair in ((0, 1), (2, 0)):
            for delta in (0.01, 0.1, 0.7):
                block_path = expected_log_ratio(model, profile, delta, pair)
                dense_path = expected_log_ratio(dense, profile, delta, pair)
                assert block_path.matrix_kind == "expected-block"
                assert np.abs(block_path.values - dense_path.values).max() < 1e-12

    def test_delta_validation(self):
        with pytest.raises(DeltaOutOfRange):
            expected_log_ratio(VB1, vb1_profile(), 0.0)

    def test_json_serialization(self):
        prediction = expected_log_ratio(VB1, vb1_profile(), 0.1)
        payload = json.loads(json.dumps(prediction.to_json()))
        assert len(payload["values"]) == 30
        assert payload["delta"] == 0.1
        assert payload["matrix_kind"] == "expected-block"


class TestSymmetricDeltaThreshold:
    def test_vb1_threshold(self):
        assert 0.054 <= symmetric_delta_threshold(0.368, 0.511, 0.8, 0.1) <= 0.058

    def test_sparse_threshold(self):
        assert 0.25 <= symmetric_delta_threshold(0.368, 0.511, 0.25, 0.1) <= 0.27

    def test_equal_informativeness_needs_no_delta(self):
        assert symmetric_delta_threshold(0.4, 0.4, 0.8, 0.1) == 0.0

    def test_invalid_regime(self):
        with pytest.raises(InvalidRegime):
            symmetric_delta_threshold(0.3, 0.4, 0.1, 0.2)

    def test_zero_informativeness(self):
        with pytest.raises(ZeroInformativeness):
            symmetric_delta_threshold(0.0, 0.4, 0.8, 0.1)

    def test_threshold_is_exact_sign_boundary(self):
        threshold = symmetric_delta_threshold(D0, D1, 0.8, 0.1)
        above = symmetric_log_ratio_closed_form(D0, D1, 0.8, 0.1, threshold * (1 + 1e-6))
        below = symmetric_log_ratio_closed_form(D0, D1, 0.8, 0.1, threshold * (1 - 1e-6))
        assert above[0] > 0 and above[1] < 0
        # just below the threshold exactly one cluster's sign flips
        assert (below[0] > 0) + (below[1] < 0) == 1


class TestAsymmetricThresholds:
    def test_example_one(self):
        params = SbmParams(n0=10, n1=8, p0=0.8, p1=0.8, q0=0.2, q1=0.2)
        report = asymmetric_delta_thresholds(params, 0.035, 0.04)
        assert 0.14 <= report.delta0 <= 0.16
        assert report.feasible

    def test_example_two_vs_symmetric(self):
        params = SbmParams(n0=10, n1=10, p0=0.8, p1=0.8, q0=0.2, q1=0.2)
        report = asymmetric_delta_thresholds(params, 0.035, 0.04)
        assert report.delta0 == pytest.approx(0.11, abs=0.01)
        assert report.delta_min == pytest.approx(0.05, abs=0.01)
        assert report.delta0 >= report.delta_min

    def test_decoupled_clusters(self):
        params = SbmParams(n0=5, n1=5, p0=0.8, p1=0.8, q0=0.0, q1=0.0)
        report = asymmetric_delta_thresholds(params, 0.3, 0.4)
        assert report.delta_c0 == 0.0 and report.delta_c1 == 0.0
        assert report.prevalent_cluster is None

    def test_precondition_failure_names_inequality(self):
        params = SbmParams(n0=2, n1=20, p0=0.5, p1=0.8, q0=0.1, q1=0.4)
        with pytest.raises(PreconditionFailed) as excinfo:
            asymmetric_delta_thresholds(params, 0.01, 0.5)
        assert "p0*n0*d0" in str(excinfo.value)

    def test_prevalent_cluster_needs_no_threshold(self):
        params = SbmParams(n0=10, n1=8, p0=0.8, p1=0.8, q0=0.2, q1=0.2)
        report = asymmetric_delta_thresholds(params, 0.035, 0.04)
        assert report.prevalent_cluster == 0  # cluster-0 hypothesis dominates here
        assert report.delta_c0 == 0.0 and report.delta_c1 > 0.0

    def test_dominates_symmetric_bound_on_random_instances(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 40))
            q = float(rng.uniform(0.01, 0.5))
            p = float(rng.uniform(q + 0.05, 1.0))
            d0 = float(rng.uniform(0.01, 1.0))
            d1 = float(rng.uniform(0.01, 1.0))
            params = SbmParams(n0=n, n1=n, p0=p, p1=p, q0=q, q1=q)
            try:
                report = asymmetric_delta_thresholds(params, d0, d1)
            except PreconditionFailed:
                continue
            checked += 1
            assert report.delta0 >= symmetric_delta_threshold(d0, d1, p, q) - 1e-12

    def test_json_round_trip(self):
        params = SbmParams(n0=10, n1=8, p0=0.8, p1=0.8, q0=0.2, q1=0.2)
        payload = json.loads(asymmetric_delta_thresholds(params, 0.035, 0.04).to_json_str())
        assert payload["inputs"]["params"]["n0"] == 10
        assert payload["feasible"] is True


class TestExactRecovery:
    def test_sparse_parameters_infeasible(self):
        check = exact_recovery_infeasible(15, 0.25, 0.1)
        assert check.infeasible
        assert check.margin == pytest.approx(0.43, abs=0.01)

    def test_equal_probabilities(self):
        check = exact_recovery_infeasible(15, 0.3, 0.3)
        assert check.infeasible and check.margin == 0.0

    def test_dense_parameters_still_below_bound(self):
        check = exact_recovery_infeasible(15, 0.8, 0.1)
        assert check.margin == pytest.approx(1.36, abs=0.01)
        assert check.infeasible  # 1.36 < sqrt(2)

    def test_feasible_regime_exists(self):
        check = exact_recovery_infeasible(200, 0.8, 0.05)
        assert not check.infeasible


class TestInformativenessConsistency:
    def test_report_feeds_thresholds(self):
        report = cluster_informativeness(vb1_profile(), CLUSTERS)
        threshold = symmetric_delta_threshold(report.d0, report.d1, 0.8, 0.1)
        assert threshold == pytest.approx(0.0554, abs=5e-4)
