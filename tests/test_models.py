import numpy as np
import pytest

from blocklearn.exceptions import MalformedFile, SupportMismatch
from blocklearn.models import (
    HypothesisSet,
    LikelihoodProfile,
    bernoulli_profile,
    check_global_identifiability,
    cluster_informativeness,
    divergence_table,
    kl_divergence,
    load_profile,
    observation_matrix,
    random_multinomial_profile,
    sample_observation,
    save_profile,
)

CLUSTERS = np.repeat([0, 1], 15)


def vb1_profile():
    return bernoulli_profile(CLUSTERS, (0.1, 0.5))


class TestHypothesisSet:
    def test_numbered(self):
        hs = HypothesisSet.numbered(3)
        assert hs.labels == ("theta0", "theta1", "theta2")
        assert hs.index("theta1") == 1

    def test_uniqueness(self):
        with pytest.raises(ValueError):
            HypothesisSet(("a", "a"))


class TestLikelihoodProfile:
    def test_row_sums_enforced(self):
        bad = np.array([[[0.5, 0.4], [0.5, 0.5]]])
        with pytest.raises(ValueError):
            LikelihoodProfile(likelihoods=bad, true_state=np.array([0]))

    def test_strict_positivity_enforced(self):
        bad = np.array([[[1.0, 0.0], [0.5, 0.5]]])
        with pytest.raises(ValueError):
            LikelihoodProfile(likelihoods=bad, true_state=np.array([0]))

    def test_bernoulli_generator(self):
        profile = vb1_profile()
        assert profile.likelihoods.shape == (30, 2, 2)
        assert np.allclose(profile.likelihoods[0, 0], [0.9, 0.1])
        assert np.allclose(profile.likelihoods[0, 1], [0.5, 0.5])
        assert np.array_equal(profile.true_state, CLUSTERS)

    def test_multinomial_generator_seeded(self):
        a = random_multinomial_profile(CLUSTERS, alphabet_size=25, seed=4)
        b = random_multinomial_profile(CLUSTERS, alphabet_size=25, seed=4)
        assert np.array_equal(a.likelihoods, b.likelihoods)
        assert a.likelihoods.shape == (30, 2, 25)
        assert np.all(np.abs(a.likelihoods.sum(axis=2) - 1.0) <= 1e-12)


class TestKlDivergence:
    def test_paper_values(self):
        d0 = kl_divergence([0.9, 0.1], [0.5, 0.5])
        d1 = kl_divergence([0.5, 0.5], [0.9, 0.1])
        assert d0 == pytest.approx(0.3680642071684971, abs=1e-12)  # rounds to 0.37
        assert d1 == pytest.approx(0.5108256237659907, abs=1e-12)  # rounds to 0.51

    def test_identical_distributions(self):
        assert kl_divergence([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_zero_mass_in_p_is_fine(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2))

    def test_nonnegative_with_equality_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(m))
            q = rng.dirichlet(np.ones(m))
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, p) == 0.0
            if not np.allclose(p, q):
                assert kl_divergence(p, q) > 0.0


class TestClusterInformativeness:
    def test_vb1_values(self):
        report = cluster_informativeness(vb1_profile(), CLUSTERS)
        assert report.d0 == pytest.approx(0.368, abs=5e-4)
        assert report.d1 == pytest.approx(0.511, abs=5e-4)
        assert report.homogeneous

    def test_uninformative_profile(self):
        flat = np.full((6, 2, 2), 0.5)
        profile = LikelihoodProfile(likelihoods=flat, true_state=np.repeat([0, 1], 3))
        report = cluster_informativeness(profile, np.repeat([0, 1], 3))
        assert report.d0 == 0.0 and report.d1 == 0.0

    def test_perturbed_agent_detected(self):
        profile = vb1_profile()
        likelihoods = profile.likelihoods.copy()
        likelihoods[3, 1] = [0.4, 0.6]  # agent 3 sees a different theta1 model
        perturbed = LikelihoodProfile(likelihoods=likelihoods, true_state=profile.true_state)
        report = cluster_informativeness(perturbed, CLUSTERS)
        assert not report.homogeneous
        gap = abs(
            kl_divergence([0.9, 0.1], [0.4, 0.6]) - kl_divergence([0.9, 0.1], [0.5, 0.5])
        )
        assert report.max_deviation == pytest.approx(gap, abs=1e-12)

    def test_reorder_invariance_within_cluster(self):
        profile = random_multinomial_profile(CLUSTERS, alphabet_size=5, seed=9)
        base = cluster_informativeness(profile, CLUSTERS)
        perm = np.concatenate([np.random.default_rng(1).permutation(15), np.arange(15, 30)])
        shuffled = LikelihoodProfile(
            likelihoods=profile.likelihoods[perm], true_state=profile.true_state[perm]
        )
        report = cluster_informativeness(shuffled, CLUSTERS)
        assert report.d0 == pytest.approx(base.d0, abs=1e-14)
        assert report.d1 == pytest.approx(base.d1, abs=1e-14)
        assert np.allclose(np.sort(report.per_agent[:15, 1]), np.sort(base.per_agent[:15, 1]))

    def test_summed_variant_exposed(self):
        profile = random_multinomial_profile(np.repeat([0, 1, 2], 4), alphabet_size=6, seed=2)
        report = cluster_informativeness(profile, np.repeat([0, 1, 2], 4))
        assert report.summed_d.shape == (3,)
        assert report.d0 is None  # pairwise form needs exactly two clusters
        assert "summed" in report.variant_used


class TestGlobalIdentifiability:
    def test_vb1_all_witnesses(self):
        ok, witnesses = check_global_identifiability(vb1_profile(), 0)
        assert ok
        assert witnesses[1] == list(range(30))

    def test_indistinguishable_hypotheses(self):
        flat = np.full((4, 2, 3), 1 / 3)
        profile = LikelihoodProfile(likelihoods=flat, true_state=np.zeros(4, dtype=int))
        ok, witnesses = check_global_identifiability(profile, 0)
        assert not ok
        assert witnesses[1] == []

    def test_single_informative_agent(self):
        flat = np.full((4, 2, 2), 0.5)
        flat[2, 1] = [0.3, 0.7]
        profile = LikelihoodProfile(likelihoods=flat, true_state=np.zeros(4, dtype=int))
        ok, witnesses = check_global_identifiability(profile, "theta0")
        assert ok
        assert witnesses[1] == [2]


def random_profiles(seed=2024, count=40):
    """Random profiles with H = 2..5 and m = 2..25; some agents have equal
    hypothesis rows, so some divergences are exactly zero."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, h, m = int(rng.integers(1, 9)), int(rng.integers(2, 6)), int(rng.integers(2, 26))
        raw = rng.random((n, h, m)) + 1e-3
        flat = rng.random(n) < 0.3
        raw[flat] = raw[flat, :1]
        yield LikelihoodProfile(likelihoods=raw / raw.sum(axis=2, keepdims=True),
                                true_state=rng.integers(0, h, n))


class TestVectorizedDivergences:
    def test_table_matches_kl_loop(self):
        for profile in random_profiles():
            like, truth = profile.likelihoods, profile.true_state
            reference = np.array([[kl_divergence(like[k, truth[k]], like[k, j])
                                   for j in range(profile.n_hypotheses)]
                                  for k in range(profile.n_agents)])
            np.testing.assert_allclose(divergence_table(profile), reference,
                                       rtol=1e-13, atol=1e-15)

    def test_identifiability_matches_kl_loop(self):
        for profile in random_profiles(seed=7):
            like = profile.likelihoods
            for star in range(profile.n_hypotheses):
                reference = {h: [k for k in range(profile.n_agents)
                                 if kl_divergence(like[k, star], like[k, h]) > 0]
                             for h in range(profile.n_hypotheses) if h != star}
                ok, witnesses = check_global_identifiability(profile, star)
                assert witnesses == reference
                assert ok == all(reference.values())


class TestObservationSampling:
    def test_near_degenerate_distribution(self):
        eps = 1e-12
        likelihoods = np.array([[[1 - 2 * eps, eps, eps]] * 2])
        profile = LikelihoodProfile(likelihoods=likelihoods, true_state=np.array([0]))
        rng = np.random.default_rng(0)
        draws = [sample_observation(profile, 0, rng) for _ in range(10_000)]
        assert set(draws) == {0}

    def test_bernoulli_frequencies(self):
        profile = vb1_profile()
        rng = np.random.default_rng(1)
        n = 100_000
        freq_c0 = np.mean([sample_observation(profile, 0, rng) for _ in range(n)])
        freq_c1 = np.mean([sample_observation(profile, 20, rng) for _ in range(n)])
        se_c0 = np.sqrt(0.1 * 0.9 / n)
        se_c1 = np.sqrt(0.25 / n)
        assert abs(freq_c0 - 0.1) <= 3 * se_c0  # cluster 0 follows Bernoulli(0.1)
        assert abs(freq_c1 - 0.5) <= 3 * se_c1  # cluster 1 follows Bernoulli(0.5)

    def test_equal_seeds_equal_streams(self):
        profile = vb1_profile()
        draws_a = [sample_observation(profile, 5, np.random.default_rng(7)) for _ in range(1)]
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        seq_a = [sample_observation(profile, 5, rng_a) for _ in range(200)]
        seq_b = [sample_observation(profile, 5, rng_b) for _ in range(200)]
        assert seq_a == seq_b
        assert draws_a[0] == seq_a[0]

    def test_agent_substreams_stable_under_growth(self):
        small = vb1_profile()
        grown = bernoulli_profile(np.repeat([0, 1], 20), (0.1, 0.5))
        obs_small = observation_matrix(small, horizon=50, seed=13)
        obs_grown = observation_matrix(grown, horizon=50, seed=13)
        # agents keep their streams when the network grows (cluster-0 rows match)
        assert np.array_equal(obs_small[:15], obs_grown[:15])

    def test_matrix_matches_scalar_sampler(self):
        profile = vb1_profile()
        obs = observation_matrix(profile, horizon=30, seed=3)
        children = np.random.SeedSequence(3).spawn(profile.n_agents)
        for agent in (0, 17):
            rng = np.random.default_rng(children[agent])
            scalar = [sample_observation(profile, agent, rng) for _ in range(30)]
            assert np.array_equal(obs[agent], scalar)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 6_029_717_381, 2**130 + 5]


class TestObservationBlocks:
    @pytest.mark.parametrize("alphabet", [2, 3, 25])
    def test_block_equals_stacked_seed_calls(self, alphabet):
        profile = random_multinomial_profile(np.repeat([0, 1, 2], 4), alphabet, seed=alphabet)
        block = observation_matrix(profile, horizon=40, seed=SEEDS)
        assert block.dtype == np.uint8
        stacked = np.stack([observation_matrix(profile, horizon=40, seed=s) for s in SEEDS])
        assert np.array_equal(block, stacked)

    def test_empty_block(self):
        block = observation_matrix(vb1_profile(), horizon=10, seed=[])
        assert block.shape == (0, 30, 10)

    @pytest.mark.parametrize("seed", [-1, [3, -2]])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            observation_matrix(vb1_profile(), horizon=10, seed=seed)


class TestProfileIO:
    def test_round_trip(self, tmp_path):
        profile = random_multinomial_profile(np.repeat([0, 1, 2], 3), alphabet_size=7, seed=11)
        path = tmp_path / "profile.txt"
        save_profile(path, profile)
        loaded = load_profile(path)
        assert np.array_equal(loaded.likelihoods, profile.likelihoods)
        assert np.array_equal(loaded.true_state, profile.true_state)
        assert loaded.hypotheses.labels == profile.hypotheses.labels

    @pytest.mark.parametrize("keep", [0, 1, 2, 3, 12, 13])
    def test_short_file_rejected(self, tmp_path, keep):
        # header, labels, true states, then 9 agents x 3 hypotheses = 27 rows
        profile = random_multinomial_profile(np.repeat([0, 1, 2], 3), alphabet_size=7, seed=11)
        path = tmp_path / "profile.txt"
        save_profile(path, profile)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:keep]))
        with pytest.raises(MalformedFile):
            load_profile(path)

    def test_short_row_rejected(self, tmp_path):
        profile = random_multinomial_profile(np.repeat([0, 1], 2), alphabet_size=3, seed=2)
        path = tmp_path / "profile.txt"
        save_profile(path, profile)
        lines = path.read_text().splitlines()
        lines[-1] = " ".join(lines[-1].split()[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile):
            load_profile(path)
