import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklearn.exceptions import (
    DegenerateBlock,
    InvalidRegimeWarning,
    MalformedFile,
    NoConvergence,
    NotStronglyConnected,
    ZeroColumn,
)
from blocklearn.graphs import (
    BlockModel,
    Network,
    SbmParams,
    averaging_combination,
    closed_form_power,
    expected_combination,
    expected_perron,
    inverse_binomial_moment,
    is_strongly_connected,
    load_matrix_csv,
    load_network,
    perron_vector,
    sample_adjacency,
    sample_sbm,
    save_matrix_csv,
    save_network,
)
from blocklearn.verify import exact_block_expectation

VB1 = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)


class TestAveragingCombination:
    def test_identity_adjacency(self):
        assert np.array_equal(averaging_combination(np.eye(3, dtype=int)), np.eye(3))

    def test_all_ones(self):
        combo = averaging_combination(np.ones((4, 4), dtype=int))
        assert np.allclose(combo, 0.25)

    def test_single_column_normalization(self):
        adjacency = np.ones((4, 4), dtype=int)
        adjacency[2, 0] = 0  # column 0 becomes (1, 1, 0, 1)
        combo = averaging_combination(adjacency)
        assert np.allclose(combo[:, 0], [1 / 3, 1 / 3, 0.0, 1 / 3])

    def test_zero_column_reports_agent(self):
        adjacency = np.ones((3, 3), dtype=int)
        adjacency[:, 1] = 0
        with pytest.raises(ZeroColumn) as excinfo:
            averaging_combination(adjacency)
        assert excinfo.value.agent == 1

    def test_column_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            adjacency = (rng.random((12, 12)) < 0.5).astype(int)
            np.fill_diagonal(adjacency, 1)
            combo = averaging_combination(adjacency)
            assert np.all(np.abs(combo.sum(axis=0) - 1.0) <= 1e-12)


class TestSampleSbm:
    def test_complete_graph(self):
        network = sample_sbm(SbmParams(n0=2, n1=2, p0=1, p1=1, q0=1, q1=1), seed=5)
        assert np.array_equal(network.adjacency, np.ones((4, 4), dtype=int))
        assert np.allclose(network.combination, 0.25)

    def test_determinism(self):
        a = sample_sbm(VB1, seed=99)
        b = sample_sbm(VB1, seed=99)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.combination, b.combination)

    def test_intra_block_density(self):
        # Fig-1 style parameters: intra-block-0 density near p0 within 3 binomial s.e.
        params = SbmParams(n0=20, n1=15, p0=0.8, p1=0.9, q0=0.1, q1=0.1)
        network = sample_sbm(params, seed=1)
        block = network.adjacency[:20, :20]
        se = np.sqrt(0.8 * 0.2 / block.size)
        assert abs(block.mean() - 0.8) <= 3 * se

    def test_entrywise_frequency(self):
        # raw (unconditioned) draws: per-entry frequency matches the law
        params = SbmParams(n0=3, n1=3, p0=0.5, p1=0.5, q0=0.5, q1=0.5)
        seeds = 100_000
        freq = np.zeros((6, 6))
        for s in range(seeds):
            freq += sample_adjacency(params, np.random.default_rng(s))
        freq /= seeds
        se = np.sqrt(0.25 / seeds)
        assert np.all(np.abs(freq - 0.5) <= 3 * se)

    def test_connectivity_retry_and_metadata(self):
        network = sample_sbm(VB1, seed=0)
        connected, has_loop = is_strongly_connected(network.adjacency)
        assert connected and has_loop
        assert network.retries >= 0

    def test_retries_exhausted(self):
        sparse = SbmParams(n0=2, n1=2, p0=0.05, p1=0.05, q0=0.01, q1=0.01)
        with pytest.raises((NotStronglyConnected, ZeroColumn)):
            sample_sbm(sparse, seed=3, max_retries=2)

    def test_three_community_model(self):
        probs = np.full((3, 3), 0.05)
        np.fill_diagonal(probs, [0.9, 0.8, 0.9])
        model = BlockModel(sizes=(20, 25, 30), probs=probs)
        network = sample_sbm(model, seed=2)
        assert network.size == 75
        assert np.array_equal(np.bincount(network.clusters), [20, 25, 30])


class TestStrongConnectivity:
    def test_identity_not_connected(self):
        connected, has_loop = is_strongly_connected(np.eye(4, dtype=int))
        assert not connected and has_loop

    def test_ring_with_self_loop(self):
        n = 5
        adjacency = np.zeros((n, n), dtype=int)
        for i in range(n):
            adjacency[i, (i + 1) % n] = 1
        adjacency[0, 0] = 1
        assert is_strongly_connected(adjacency) == (True, True)

    def test_disjoint_cliques(self):
        adjacency = np.zeros((6, 6), dtype=int)
        adjacency[:3, :3] = 1
        adjacency[3:, 3:] = 1
        connected, _ = is_strongly_connected(adjacency)
        assert not connected


class TestExpectedCombination:
    def test_block_values(self):
        params = SbmParams(n0=20, n1=15, p0=0.8, p1=0.9, q0=0.1, q1=0.1)
        expected = expected_combination(params)
        assert expected.block_values[0, 0] == pytest.approx(0.8 / 17.5, abs=1e-15)
        dense = expected.dense()
        assert np.all(np.abs(dense.sum(axis=0) - 1.0) <= 1e-12)

    def test_symmetric_form(self):
        n, p, q = 8, 0.6, 0.2
        expected = expected_combination(SbmParams(n0=n, n1=n, p0=p, p1=p, q0=q, q1=q))
        assert expected.block_values[0, 0] == pytest.approx(p / (n * (p + q)), abs=1e-15)
        assert expected.block_values[1, 0] == pytest.approx(q / (n * (p + q)), abs=1e-15)

    def test_degenerate_block(self):
        with pytest.raises(DegenerateBlock):
            expected_combination(SbmParams(n0=2, n1=2, p0=0, p1=1, q0=1, q1=0))

    def test_single_agent_enumeration_oracle(self):
        # n0 = n1 = 1: enumerate all 16 adjacency realizations directly
        p, q = 0.7, 0.3
        params = SbmParams(n0=1, n1=1, p0=p, p1=p, q0=q, q1=q)
        law = np.array([[p, q], [q, p]])
        exact = np.zeros((2, 2))
        for bits in itertools.product((0, 1), repeat=4):
            e = np.array(bits, dtype=float).reshape(2, 2)
            weight = float(np.prod(np.where(e == 1, law, 1 - law)))
            sums = e.sum(axis=0)
            combo = np.divide(e, sums, out=np.zeros_like(e), where=sums > 0)
            exact += weight * combo
        assert np.allclose(exact, exact_block_expectation(params), atol=1e-12)
        approx = expected_combination(params).block_values
        residual = np.abs(exact - approx).max()
        assert 0 < residual < 0.2  # the block form is an approximation here

    def test_monte_carlo_mean_matches_exact(self):
        # sampled combination matrices average to the exact expectation, which
        # sits within a small residual of the block approximation
        params = SbmParams(n0=20, n1=15, p0=0.8, p1=0.9, q0=0.1, q1=0.1)
        exact_intra = exact_block_expectation(params)[0, 0]
        rng = np.random.default_rng(7)
        samples = 10_000
        block_means = np.empty(samples)
        for s in range(samples):
            adjacency = sample_adjacency(params, rng)
            sums = adjacency.sum(axis=0)
            combo = np.divide(adjacency, sums, out=np.zeros((35, 35)), where=sums > 0)
            block_means[s] = combo[:20, :20].mean()
        se = block_means.std(ddof=1) / np.sqrt(samples)
        assert abs(block_means.mean() - exact_intra) <= 3 * se
        assert abs(exact_intra - 0.8 / 17.5) < 5e-4

    def test_bias_shrinks_with_size(self):
        biases = []
        for n in (10, 20, 40):
            params = SbmParams(n0=n, n1=n, p0=0.5, p1=0.5, q0=0.1, q1=0.1)
            biases.append(
                np.abs(
                    exact_block_expectation(params) - expected_combination(params).block_values
                ).max()
            )
        assert biases[0] > biases[1] > biases[2]


class TestClosedFormPower:
    def test_first_power_matches_expected_matrix(self):
        n, p, q = 6, 0.7, 0.2
        dense = expected_combination(SbmParams(n0=n, n1=n, p0=p, p1=p, q0=q, q1=q)).dense()
        assert np.allclose(closed_form_power(p, q, n, 1), dense, atol=1e-15)

    def test_equal_probabilities_flatten(self):
        with pytest.warns(InvalidRegimeWarning):
            power = closed_form_power(0.4, 0.4, 5, 3)
        assert np.allclose(power, 1.0 / 10.0)

    def test_against_repeated_multiplication(self):
        base = closed_form_power(0.8, 0.1, 15, 1)
        product = base @ base @ base @ base @ base
        assert np.abs(closed_form_power(0.8, 0.1, 15, 5) - product).max() < 1e-12

    def test_power_identity_up_to_fifty(self):
        base = closed_form_power(0.8, 0.1, 15, 1)
        acc = base.copy()
        for t in range(2, 51):
            acc = acc @ base
            assert np.abs(closed_form_power(0.8, 0.1, 15, t) - acc).max() < 1e-10


class TestPerronVector:
    def test_uniform_matrix(self):
        u = perron_vector(np.full((5, 5), 0.2))
        assert np.allclose(u, 0.2, atol=1e-12)

    def test_two_by_two_hand_solution(self):
        u = perron_vector(np.array([[0.9, 0.2], [0.1, 0.8]]))
        assert np.allclose(u, [2 / 3, 1 / 3], atol=1e-10)

    def test_expected_matrix_closed_form(self):
        params = SbmParams(n0=20, n1=15, p0=0.8, p1=0.9, q0=0.1, q1=0.1)
        dense = expected_combination(params).dense()
        assert np.abs(perron_vector(dense, tol=1e-14) - expected_perron(params)).max() < 1e-9

    def test_properties_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            matrix = rng.random((n, n)) + 0.05
            matrix /= matrix.sum(axis=0)
            u = perron_vector(matrix, tol=1e-13)
            assert np.abs(matrix @ u - u).max() <= 1e-13
            assert abs(u.sum() - 1.0) <= 1e-12
            assert np.all(u > 0)

    def test_no_convergence(self):
        slow = np.array([[0.99, 0.02], [0.01, 0.98]])  # second eigenvalue 0.97
        with pytest.raises(NoConvergence):
            perron_vector(slow, tol=1e-15, max_iter=3)

    def test_decoupled_perron_undefined(self):
        with pytest.raises(DegenerateBlock):
            expected_perron(SbmParams(n0=3, n1=3, p0=0.5, p1=0.5, q0=0.0, q1=0.0))


class TestInverseBinomialMoment:
    def test_exact_small_case(self):
        # sum over b in {0,1,2} of pmf(b; 2, 0.5) / (1 + b) = 7/12
        value = inverse_binomial_moment(1.0, 2, 0.5, 1, mode="exact")
        assert value == pytest.approx(7 / 12, abs=1e-14)

    def test_degenerate_p_one(self):
        exact = inverse_binomial_moment(2.0, 5, 1.0, 3, mode="exact")
        approx = inverse_binomial_moment(2.0, 5, 1.0, 3, mode="approx")
        assert exact == pytest.approx(approx, abs=1e-14)
        assert exact == pytest.approx(1.0 / 7.0**3, abs=1e-14)

    def test_gap_decays_with_n(self):
        sizes = np.array([10, 40, 160])
        gaps = [
            inverse_binomial_moment(1.0, n, 0.5, 1, mode="exact")
            - inverse_binomial_moment(1.0, n, 0.5, 1, mode="approx")
            for n in sizes
        ]
        slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
        assert slope <= -4 / 3 + 0.15

    def test_jensen_lower_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            c = float(rng.uniform(0.05, 4.0))
            n = int(rng.integers(1, 80))
            p = float(rng.uniform(0.0, 1.0))
            t = int(rng.integers(1, 5))
            exact = inverse_binomial_moment(c, n, p, t, mode="exact")
            approx = inverse_binomial_moment(c, n, p, t, mode="approx")
            assert exact >= approx - 1e-14


class TestNetworkIO:
    def test_round_trip_two_communities(self, tmp_path):
        network = sample_sbm(VB1, seed=8)
        path = tmp_path / "network.txt"
        save_network(path, network)
        loaded = load_network(path)
        assert np.array_equal(loaded.adjacency, network.adjacency)
        assert np.array_equal(loaded.clusters, network.clusters)
        assert np.allclose(loaded.combination, network.combination, atol=1e-15)
        header = path.read_text().splitlines()[0]
        assert header.split() == ["30", "15", "15"]

    def test_round_trip_three_communities(self, tmp_path):
        probs = np.full((3, 3), 0.2)
        np.fill_diagonal(probs, 0.9)
        network = sample_sbm(BlockModel(sizes=(4, 5, 6), probs=probs), seed=21)
        path = tmp_path / "network.txt"
        save_network(path, network)
        loaded = load_network(path)
        assert np.array_equal(loaded.adjacency, network.adjacency)
        assert path.read_text().splitlines()[0].split() == ["15", "3", "4", "5", "6"]

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_one_to_four_communities(self, tmp_path_factory, sizes, seed):
        n = sum(sizes)
        adjacency = (np.random.default_rng(seed).random((n, n)) < 0.4).astype(np.int8)
        np.fill_diagonal(adjacency, 1)  # no agent without in-neighbors
        network = Network(
            adjacency=adjacency,
            combination=averaging_combination(adjacency),
            clusters=np.repeat(np.arange(len(sizes)), sizes),
        )
        path = tmp_path_factory.mktemp("net") / "network.txt"
        save_network(path, network)
        loaded = load_network(path)
        assert np.array_equal(loaded.adjacency, network.adjacency)
        assert np.array_equal(loaded.clusters, network.clusters)
        assert np.array_equal(loaded.combination, network.combination)

    def test_single_community_header(self, tmp_path):
        network = sample_sbm(BlockModel(sizes=(6,), probs=[[0.9]]), seed=1)
        path = tmp_path / "network.txt"
        save_network(path, network)
        assert path.read_text().splitlines()[0].split() == ["6", "1", "6"]
        assert np.array_equal(load_network(path).clusters, np.zeros(6))

    @pytest.mark.parametrize(
        "text",
        [
            "3 2 1\n1 1 0\n0 1 2\n1 0 1\n",  # entry 2
            "3 2 1\n1 1 0\n0 1 0.5\n1 0 1\n",  # fractional entry
            "3 2 1\n1 1 0\n0 1 x\n1 0 1\n",  # not a number
            "3 2 1\n1 1 0\n0 1\n1 0 1\n",  # short row
            "3 2 1\n1 1 0\n0 1 1\n",  # missing row
            "3 2 2\n1 1 0\n0 1 1\n1 0 1\n",  # sizes do not sum to N
            "3 3 1 1\n1 1 0\n0 1 1\n1 0 1\n",  # fewer sizes than communities
            "3 1\n1 1 0\n0 1 1\n1 0 1\n",  # header too short
            "",
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "network.txt"
        path.write_text(text)
        with pytest.raises(MalformedFile):
            load_network(path)

    def test_combination_csv_exact_round_trip(self, tmp_path):
        network = sample_sbm(VB1, seed=8)
        path = tmp_path / "combination.csv"
        save_matrix_csv(path, network.combination)
        assert np.array_equal(load_matrix_csv(path), network.combination)
