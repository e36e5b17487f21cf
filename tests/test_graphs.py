import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklearn.exceptions import (
    DegenerateBlock,
    InvalidRegimeWarning,
    MalformedFile,
    NotStronglyConnected,
    ZeroColumn,
)
from blocklearn.graphs import (
    BlockModel,
    Network,
    SbmParams,
    _binomial_pmf,
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
THREE_PROBS = np.array([[0.9, 0.05, 0.05], [0.05, 0.8, 0.05], [0.05, 0.05, 0.9]])


class TestSbmParams:
    def test_is_the_two_community_block_model(self):
        params = SbmParams(n0=20, n1=15, p0=0.8, p1=0.9, q0=0.1, q1=0.2)
        assert isinstance(params, BlockModel)
        assert params.sizes == (20, 15) and params.size == 35
        assert np.array_equal(params.probs, [[0.8, 0.1], [0.2, 0.9]])
        assert params.to_dict() == {"n0": 20, "n1": 15, "p0": 0.8, "p1": 0.9, "q0": 0.1, "q1": 0.2}
        assert not params.is_symmetric and VB1.is_symmetric

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            VB1.p0 = 0.5

    @pytest.mark.parametrize("bad", [
        dict(n0=0), dict(p0=-0.1), dict(q1=1.5), dict(p1=float("nan")), dict(q0=float("inf")),
    ])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            SbmParams(**{**VB1.to_dict(), **bad})

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_samples_like_the_equal_block_model(self, seed):
        params = SbmParams(n0=10, n1=12, p0=0.8, p1=0.7, q0=0.1, q1=0.2)
        model = BlockModel(sizes=(10, 12), probs=[[0.8, 0.1], [0.2, 0.7]])
        a, b = sample_sbm(params, seed=seed), sample_sbm(model, seed=seed)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.clusters, b.clusters) and a.retries == b.retries


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

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 7])
    def test_block_matches_int_form(self, seed):
        block = sample_sbm(VB1, [seed, seed + 1])
        for i, s in enumerate((seed, seed + 1)):
            alone = sample_sbm(VB1, seed=s)
            network = block.network(i)
            assert np.array_equal(network.adjacency, alone.adjacency)
            assert network.adjacency.dtype == alone.adjacency.dtype == np.int8
            assert np.array_equal(network.combination, alone.combination)
            assert network.retries == alone.retries
        assert block.combination.flags.c_contiguous
        assert block.retries == block.redraws.sum()

    def test_block_failures_match_int_form(self):
        # within two retries this law fails on zero columns and on connectivity
        law = SbmParams(2, 2, 0.6, 0.6, 0.3, 0.3)
        seeds = range(60)
        block = sample_sbm(law, seeds, max_retries=2)
        expected = {}
        for i, seed in enumerate(seeds):
            try:
                sample_sbm(law, seed=seed, max_retries=2)
            except (NotStronglyConnected, ZeroColumn) as exc:
                expected[i] = f"{type(exc).__name__}: {exc}"
        assert {i: f"{type(exc).__name__}: {exc}" for i, exc in block.failures.items()} == expected
        kinds = [type(exc) for exc in block.failures.values()]
        assert (kinds.count(NotStronglyConnected), kinds.count(ZeroColumn)) == (31, 14)
        assert not block.adjacency[list(block.failures)].any()
        assert np.all(block.redraws[list(block.failures)] == 2)

    def test_negative_seed_fails_alone(self):
        block = sample_sbm(VB1, [3, -1, 4])
        assert list(block.failures) == [1]
        assert str(block.failures[1]) == "expected non-negative integer"
        assert np.array_equal(block.adjacency[2], sample_sbm(VB1, seed=4).adjacency)
        with pytest.raises(ValueError, match="non-negative"):
            sample_sbm(VB1, seed=-1)


class TestStrongConnectivity:
    def test_perron_vector_matrices(self):
        periodic = np.array([[0.0, 0.5, 0.0], [1.0, 0.0, 1.0], [0.0, 0.5, 0.0]])
        assert is_strongly_connected(periodic) == (True, False)
        reducible = expected_combination(SbmParams(n0=3, n1=3, p0=0.5, p1=0.5, q0=0.0,
                                                    q1=0.0)).dense()
        assert is_strongly_connected(reducible) == (False, True)

    def test_one_way_edge_is_not_connected(self):
        # 0 reaches 1 but not the reverse: only the search against the edges sees it
        assert is_strongly_connected([[1, 1], [0, 1]]) == (False, True)
        assert is_strongly_connected([[1, 0], [1, 1]]) == (False, True)

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

    def test_k_communities(self):
        probs = np.array([[0.9, 0.05, 0.1], [0.05, 0.8, 0.05], [0.2, 0.05, 0.9]])
        model = BlockModel(sizes=(20, 25, 30), probs=probs)
        expected = expected_combination(model)
        in_degree = [sum(probs[i, j] * model.sizes[i] for i in range(3)) for j in range(3)]
        assert np.allclose(expected.block_values, probs / in_degree, rtol=1e-15, atol=0)
        assert np.array_equal(expected.labels(), model.labels())
        dense = expected.dense()
        assert dense.shape == (75, 75)
        assert np.all(np.abs(dense.sum(axis=0) - 1.0) <= 1e-12)
        two = SbmParams(n0=20, n1=15, p0=0.8, p1=0.9, q0=0.1, q1=0.2)
        same = BlockModel(sizes=(20, 15), probs=[[0.8, 0.1], [0.2, 0.9]])
        assert np.array_equal(expected_combination(same).block_values,
                              expected_combination(two).block_values)

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
        assert np.abs(perron_vector(dense) - expected_perron(params)).max() < 1e-9

    def test_properties_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            matrix = rng.random((n, n)) + 0.05
            matrix /= matrix.sum(axis=0)
            u = perron_vector(matrix)
            assert np.abs(matrix @ u - u).max() <= 1e-13
            assert abs(u.sum() - 1.0) <= 1e-12
            assert np.all(u > 0)

    def test_periodic_matrix(self):
        # irreducible with period 2: A^t never converges, yet u is unique
        periodic = np.array([[0.0, 0.5, 0.0], [1.0, 0.0, 1.0], [0.0, 0.5, 0.0]])
        assert np.abs(perron_vector(periodic) - [0.25, 0.5, 0.25]).max() <= 1e-15

    def test_reducible_matrix_raises(self):
        params = SbmParams(n0=3, n1=3, p0=0.5, p1=0.5, q0=0.0, q1=0.0)
        with pytest.raises(DegenerateBlock):
            perron_vector(expected_combination(params).dense())

    @pytest.mark.parametrize("matrix", [
        [[0.9, 0.2], [0.2, 0.8]],  # column sums 1.1 and 1.0
        [[1.5, 0.2], [-0.5, 0.8]],  # columns sum to one, one entry negative
        [[0.5, 0.5, 0.0], [0.5, 0.5, 1.0]],  # not square
    ])
    def test_not_column_stochastic_raises(self, matrix):
        with pytest.raises(ValueError, match="column-stochastic"):
            perron_vector(matrix)

    def test_decoupled_perron_undefined(self):
        with pytest.raises(DegenerateBlock):
            expected_perron(SbmParams(n0=3, n1=3, p0=0.5, p1=0.5, q0=0.0, q1=0.0))


class TestBinomialPmf:
    def test_matches_scipy(self):
        pytest.importorskip("scipy")
        from scipy.stats import binom

        probs = np.concatenate([np.linspace(0.0, 1.0, 21), [1e-9, 1e-3, 0.999, 1 - 1e-9]])
        for n in range(201):
            support = np.arange(n + 1)
            for p in probs:
                pmf = _binomial_pmf(n, p)
                reference = binom.pmf(support, n, p)
                assert np.abs(pmf - reference).max() <= 1e-13, (n, p)
                for c in (0.1, 1.0, 3.0):
                    moment = np.sum(pmf / (c + support))
                    assert moment == pytest.approx(np.sum(reference / (c + support)),
                                                   rel=1e-12, abs=0), (n, p, c)

    @pytest.mark.parametrize("n", [0, 1, 5, 60, 200])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.3, 0.5, 0.97, 1.0])
    def test_sums_to_one(self, n, p):
        pmf = _binomial_pmf(n, p)
        assert pmf.shape == (n + 1,)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_p_is_exact(self):
        assert _binomial_pmf(4, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert _binomial_pmf(4, 1.0).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_zero_trials(self):
        assert _binomial_pmf(0, 0.3).tolist() == [1.0]
        assert inverse_binomial_moment(2.0, 0, 0.3, 2, mode="exact") == 0.25


class TestInverseBinomialMoment:
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    @pytest.mark.parametrize("n", [-3, 2.5, 4.0, "4"])
    def test_bad_n_rejected(self, mode, n):
        with pytest.raises(ValueError, match="non-negative integer"):
            inverse_binomial_moment(1.0, n, 0.5, mode=mode)

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


class TestNetwork:
    # a weight where 0 -> 1 has no edge: -0.5 in a column that still sums to
    # one, and NaN, whose column sum is NaN and fails no comparison
    @pytest.mark.parametrize("column", [[-0.5, 7 / 6, 1 / 3], [np.nan, 0.5, 0.5]])
    def test_weight_without_edge_rejected(self, column):
        adjacency = np.array([[1, 0, 1], [1, 1, 1], [1, 1, 1]], dtype=np.int8)
        combination = averaging_combination(adjacency)
        combination[:, 1] = column
        with pytest.raises(ValueError, match="nonnegative"):
            Network(adjacency=adjacency, combination=combination, clusters=np.zeros(3, int))


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

    def test_bytes_match_row_loop(self, tmp_path):
        for network in (sample_sbm(VB1, seed=8),
                        sample_sbm(BlockModel(sizes=(20, 25, 30), probs=THREE_PROBS), seed=3)):
            sizes = np.bincount(network.clusters)
            reference = tmp_path / "loop.txt"
            with open(reference, "w") as fh:
                if len(sizes) == 2:
                    fh.write(f"{network.size} {sizes[0]} {sizes[1]}\n")
                else:
                    fh.write(f"{network.size} {len(sizes)} " + " ".join(map(str, sizes)) + "\n")
                for row in network.adjacency:
                    fh.write(" ".join(str(int(v)) for v in row) + "\n")
            save_network(tmp_path / "network.txt", network)
            assert (tmp_path / "network.txt").read_bytes() == reference.read_bytes()

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

    def test_interleaved_communities_rejected(self, tmp_path):
        adjacency = np.ones((4, 4), dtype=np.int8)
        network = Network(adjacency=adjacency, combination=averaging_combination(adjacency),
                          clusters=np.array([0, 1, 0, 1]))
        path = tmp_path / "network.txt"
        with pytest.raises(ValueError, match="contiguous"):
            save_network(path, network)
        assert not path.exists()

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
