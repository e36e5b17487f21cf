import csv
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from blocklearn import config as config_module
from blocklearn import harness, learning
from blocklearn.exceptions import (
    BlocklearnError,
    DeltaOutOfRange,
    InvalidPair,
    InvalidStrategy,
    MalformedConfig,
    MismatchedConfig,
)
from blocklearn.graphs import BlockModel, Network, SbmParams, sample_sbm, save_network
from blocklearn.harness import (
    BLOCK_SIZE,
    ComparisonRow,
    ErrorReport,
    ExperimentConfig,
    _chunk_sums,
    _write_comparison_csv,
    compare_theory,
    run_experiment,
)
from blocklearn.learning import run
from blocklearn.theory import expected_log_ratio
from blocklearn.models import bernoulli_profile, random_multinomial_profile
from blocklearn.writers import ROWS_PER_WRITE
from test_writers import row_loop_csv

VB1 = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
PROFILE = {"kind": "bernoulli", "success_probs": [0.1, 0.5]}
CRITERION_5 = BlockModel(sizes=(20, 25, 30),
                         probs=[[0.9, 0.05, 0.05], [0.05, 0.8, 0.05], [0.05, 0.05, 0.9]])
MULTINOMIAL = {"kind": "multinomial", "alphabet": 25, "seed": 10}


def small_config(**overrides):
    base = dict(
        network=VB1,
        profile=PROFILE,
        strategy="asl",
        delta=0.2,
        horizon=80,
        burn_in=30,
        replicates=6,
        base_seed=100,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_burn_in_default(self):
        config = ExperimentConfig(network=VB1, profile=PROFILE, strategy="asl",
                                  delta=0.1, horizon=200, replicates=1)
        assert config.burn_in == 50  # ceil(5 / delta)

    def test_traditional_needs_no_delta(self):
        config = ExperimentConfig(network=VB1, profile=PROFILE, strategy="traditional",
                                  horizon=10, replicates=1)
        assert config.burn_in == 0

    def test_delta_required_for_asl(self):
        with pytest.raises(DeltaOutOfRange):
            ExperimentConfig(network=VB1, profile=PROFILE, strategy="asl",
                             horizon=10, replicates=1)

    def test_horizon_must_cover_burn_in(self):
        with pytest.raises(ValueError):
            small_config(horizon=10, burn_in=20)

    def test_json_round_trip(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = ExperimentConfig.from_json(path)
        assert loaded.to_dict() == config.to_dict()

    def test_to_dict_of_law_objects(self):
        expected = {
            "version": 1,
            "network": {"kind": "sbm", "n0": 15, "n1": 15, "p0": 0.8, "p1": 0.8,
                        "q0": 0.1, "q1": 0.1},
            "profile": PROFILE, "strategy": "asl", "delta": 0.2, "horizon": 80, "burn_in": 30,
            "replicates": 6, "base_seed": 100, "pair": [0, 1], "estimator": "mu",
            "fixed_graph": False, "store_traces": False, "record_observations": False,
            "n_jobs": 1, "out_dir": None,
        }
        assert list(small_config().to_dict().items()) == list(expected.items())
        blocks = BlockModel(sizes=(2, 3), probs=[[0.9, 0.1], [0.2, 0.8]])
        assert small_config(network=blocks).to_dict()["network"] == {
            "kind": "blocks", "sizes": [2, 3], "probs": [[0.9, 0.1], [0.2, 0.8]]
        }

    def test_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config().to_dict()))
        loaded = ExperimentConfig.from_json(path, replicates=3, delta=0.4)
        assert loaded.replicates == 3 and loaded.delta == 0.4

    @pytest.mark.parametrize("change, field", [
        ({"delta": "0.1"}, "delta"),
        ({"replicates": 2.5}, "replicates"),
        ({"replicates": True}, "replicates"),
        ({"colour": "red"}, "colour"),
        ({"pair": [0]}, "pair"),
        ({"store_traces": 1}, "store_traces"),
    ])
    def test_malformed_field_is_named(self, change, field):
        data = {"network": VB1.to_dict() | {"kind": "sbm"}, "profile": PROFILE, "delta": 0.2,
                **change}
        with pytest.raises(MalformedConfig, match=repr(field)):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("change, field", [
        ({"delta": "0.1"}, "delta"),
        ({"replicates": 2.5}, "replicates"),
        ({"replicates": True}, "replicates"),
        ({"replicates": 0}, "replicates"),
        ({"pair": [0]}, "pair"),
        ({"pair": [0, 1.5]}, "pair"),
        ({"pair": np.array([0, 1])}, "pair"),
        ({"store_traces": 1}, "store_traces"),
        ({"store_traces": "yes"}, "store_traces"),
        ({"base_seed": 1.5}, "base_seed"),
        ({"horizon": None}, "horizon"),
        ({"burn_in": -20, "horizon": 100}, "burn_in"),
        ({"burn_in": -10, "horizon": -5}, "burn_in"),
        ({"burn_in": 0, "horizon": -5}, "horizon"),
        ({"strategy": "traditional", "delta": None, "horizon": -5}, "horizon"),
    ])
    def test_python_and_json_configs_fail_alike(self, change, field):
        data = {"network": VB1.to_dict() | {"kind": "sbm"}, "profile": PROFILE, "delta": 0.2,
                **change}
        with pytest.raises(MalformedConfig, match=repr(field)) as built:
            ExperimentConfig(**data)
        with pytest.raises(MalformedConfig) as loaded:
            ExperimentConfig.from_dict(data)
        assert str(built.value) == str(loaded.value)

    def test_pair_of_numpy_integers_is_stored_as_ints(self):
        config = small_config(pair=(np.int64(1), np.int32(0)))
        assert config.pair == (1, 0) and type(config.pair[0]) is int
        assert json.loads(json.dumps(config.to_dict()))["pair"] == [1, 0]

    def test_numpy_scalars_are_stored_as_plain_types(self, tmp_path):
        plain = small_config(delta=0.25, horizon=40, burn_in=10, replicates=2, base_seed=7)
        typed = small_config(delta=np.float32(0.25), horizon=np.int64(40), burn_in=np.int64(10),
                             replicates=np.int64(2), base_seed=np.int32(7), n_jobs=np.int64(1))
        for name in ("horizon", "burn_in", "replicates", "base_seed", "n_jobs"):
            assert type(getattr(typed, name)) is int, name
        assert type(typed.delta) is float
        run_experiment(plain).write_outputs(tmp_path / "plain")
        run_experiment(typed).write_outputs(tmp_path / "typed")
        summary = (tmp_path / "plain" / "summary.json").read_bytes()
        assert (tmp_path / "typed" / "summary.json").read_bytes() == summary

    @pytest.mark.parametrize("kind", ["path", "sbm", "blocks"])
    def test_path_and_numpy_specs_echo_as_plain_json(self, tmp_path, kind):
        path = tmp_path / "network.txt"
        save_network(path, sample_sbm(VB1, seed=5))
        blocks = {"kind": "blocks", "sizes": [2, 3], "probs": [[0.9, 0.1], [0.2, 0.8]]}
        plain, typed = {
            "path": (str(path), path),
            "sbm": ({"kind": "sbm", **VB1.to_dict()},
                    {"kind": "sbm", "n0": np.int64(15), "n1": np.int64(15),
                     **{k: np.float64(getattr(VB1, k)) for k in ("p0", "p1", "q0", "q1")}}),
            "blocks": (blocks, {**blocks, "sizes": [np.int64(2), np.int64(3)]}),
        }[kind]
        for name, network in (("plain", plain), ("typed", typed)):
            run_experiment(small_config(network=network, replicates=2)).write_outputs(
                tmp_path / name)
        summary = (tmp_path / "plain" / "summary.json").read_bytes()
        assert (tmp_path / "typed" / "summary.json").read_bytes() == summary

    def test_missing_spec_field_is_named(self):
        network = {"kind": "sbm", "n0": 15, "p0": 0.8, "p1": 0.8, "q0": 0.1, "q1": 0.1}
        config = ExperimentConfig.from_dict({"network": network, "profile": PROFILE,
                                             "delta": 0.2})
        with pytest.raises(MalformedConfig, match="'n1'"):
            run_experiment(config)
        with pytest.raises(MalformedConfig, match="'success_probs'"):
            run_experiment(small_config(profile={"kind": "bernoulli"}))
        with pytest.raises(MalformedConfig, match="'network' is missing"):
            ExperimentConfig.from_dict({"profile": PROFILE, "delta": 0.2})

    @pytest.mark.parametrize("spec, field", [
        ({"network": {"kind": "blocks", "sizes": 5, "probs": [[0.9, 0.1], [0.1, 0.9]]}},
         "sizes"),
        ({"network": {"kind": "blocks", "sizes": [2, 3], "probs": [0.9, 0.1]}}, "probs"),
        ({"network": {"kind": "sbm", **VB1.to_dict(), "n1": "15"}}, "n1"),
        ({"network": {"kind": "sbm", **VB1.to_dict(), "p0": None}}, "p0"),
        ({"profile": {"kind": "multinomial", "alphabet": 2.5, "seed": 10}}, "alphabet"),
        ({"profile": {"kind": "multinomial", "alphabet": 25, "seed": 10, "n_hypotheses": "3"}},
         "n_hypotheses"),
        ({"profile": {"kind": "bernoulli", "success_probs": [0.1, "0.5"]}}, "success_probs"),
        ({"profile": {"kind": "file", "path": ["profile.txt"]}}, "path"),
        # values of the right type outside their field's range
        ({"profile": {"kind": "multinomial", "alphabet": 0, "seed": 10}}, "alphabet"),
        ({"profile": {"kind": "multinomial", "alphabet": -2, "seed": 10}}, "alphabet"),
        ({"profile": {"kind": "multinomial", "alphabet": 25, "seed": -3}}, "seed"),
        ({"profile": {"kind": "multinomial", "alphabet": 25, "seed": 10, "n_hypotheses": 1}},
         "n_hypotheses"),
        ({"profile": {"kind": "bernoulli", "success_probs": [0.1]}}, "success_probs"),
        ({"profile": {"kind": "bernoulli", "success_probs": [0.1, 1.5]}}, "success_probs"),
        ({"network": {"kind": "blocks", "sizes": [2, 3], "probs": [[0.5, 0.1], [0.1]]}},
         "probs"),
        ({"network": {"kind": "blocks", "sizes": [3, -1], "probs": [[0.5, 0.1], [0.1, 0.5]]}},
         "sizes"),
        ({"network": {"kind": "sbm", **VB1.to_dict(), "p0": 1.5}}, "p0"),
    ])
    def test_wrong_typed_spec_field_is_named(self, spec, field):
        with pytest.raises(MalformedConfig, match=repr(field)):
            run_experiment(small_config(**spec))

    # a law or profile builder's own ValueError names the spec it came from
    @pytest.mark.parametrize("spec, found", [
        ({"network": {"kind": "blocks", "sizes": [], "probs": []}},
         "network spec of kind 'blocks': need at least one community"),
        ({"profile": {"kind": "bernoulli", "success_probs": [0.1, 1e-13]}},
         "profile spec of kind 'bernoulli': likelihood entries must be at least"),
        ({"network": CRITERION_5, "profile": {**MULTINOMIAL, "n_hypotheses": 2}},
         "profile spec of kind 'multinomial': true_state indices out of range"),
    ])
    def test_builder_error_names_the_spec(self, spec, found):
        with pytest.raises(MalformedConfig, match=re.escape(found)):
            config_module.resolve_inputs(small_config(**spec))

    def test_the_runner_uses_the_config_module(self):
        assert harness.ExperimentConfig is config_module.ExperimentConfig
        assert harness.resolve_inputs is config_module.resolve_inputs

    # a misspelt field used to be dropped: "n_hypothesis" gave the default
    # two hypotheses
    @pytest.mark.parametrize("spec, fields", [
        ({"profile": {"kind": "multinomial", "alphabet": 4, "seed": 1, "n_hypothesis": 3}},
         "'n_hypothesis'"),
        ({"network": {"kind": "sbm", **VB1.to_dict(), "colour": "red"}}, "'colour'"),
        ({"network": {"kind": "blocks", "sizes": [2, 3], "probs": [[0.9, 0.1], [0.2, 0.8]],
                      "labels": [0, 1], "seed": 3}}, "'labels', 'seed'"),
        ({"profile": {"kind": "bernoulli", "success_probs": [0.1, 0.5], "n_hypotheses": 2}},
         "'n_hypotheses'"),
        ({"profile": {"kind": "file", "path": "profile.txt", "alphabet": 2}}, "'alphabet'"),
    ])
    def test_unknown_spec_field_is_named(self, spec, fields):
        with pytest.raises(MalformedConfig, match=re.escape(f"unknown field(s) {fields}")):
            run_experiment(small_config(**spec))

    def test_unknown_schema_version(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"version": 99, "network": {}, "profile": {}})

    # the string "1" used to be reported as "unsupported config schema version 1",
    # and true was taken for 1
    @pytest.mark.parametrize("version", [2, "1", True, 1.0])
    def test_schema_version_is_a_named_field(self, version):
        with pytest.raises(MalformedConfig,
                           match=f"config field 'version' must be 1, got {version!r}$"):
            ExperimentConfig.from_dict({"version": version, "network": VB1.to_dict(),
                                        "profile": PROFILE})


class TestRunExperiment:
    def test_deterministic_reports(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert json.dumps(a.summary_dict(), sort_keys=True) == json.dumps(
            b.summary_dict(), sort_keys=True
        )
        assert np.array_equal(a.iter_mean, b.iter_mean)
        assert np.array_equal(a.rep_means_mu, b.rep_means_mu)

    def test_serial_equals_parallel(self):
        # n_jobs is accepted and ignored: replicates run batched in one process
        serial = run_experiment(small_config(n_jobs=1))
        parallel = run_experiment(small_config(n_jobs=2))
        assert np.array_equal(serial.iter_mean, parallel.iter_mean)
        assert np.array_equal(serial.iter_std, parallel.iter_std)
        assert np.array_equal(serial.error_report.counts, parallel.error_report.counts)
        a, b = serial.summary_dict(), parallel.summary_dict()
        a.pop("config"), b.pop("config")  # identical up to the n_jobs echo
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @staticmethod
    def check_window_aggregates_against_traces(result):
        """Estimate counts and pooled variances recomputed from the traces."""
        config = result.config
        window = slice(config.burn_in + 1, config.horizon + 1)
        recount = np.zeros_like(result.error_report.counts)
        for trace in result.traces:
            est = trace.estimates[window]
            for h in range(recount.shape[1]):
                recount[:, h] += (est == h).sum(axis=0)
        assert np.array_equal(recount, result.error_report.counts)
        agents = np.arange(recount.shape[0])
        p_direct = 1.0 - recount[agents, result.true_state] / result.error_report.samples
        assert np.allclose(p_direct, result.error_report.p_err, atol=0)
        for pooled, series in [(result.pooled_var_psi, "log_ratio"),
                               (result.pooled_var_mu, "mu_log_ratio")]:
            samples = np.concatenate([getattr(trace, series)[window] for trace in result.traces])
            assert np.allclose(pooled, np.var(samples, axis=0), rtol=1e-12, atol=0)

    def test_error_probabilities_two_ways(self):
        self.check_window_aggregates_against_traces(run_experiment(small_config(store_traces=True)))

    def test_error_probabilities_two_ways_three_communities(self):
        result = run_experiment(small_config(network=CRITERION_5, profile=MULTINOMIAL,
                                             store_traces=True))
        assert result.error_report.counts.shape == (75, 3)
        assert (result.error_report.counts[:, 1:] > 0).any(axis=0).all()
        self.check_window_aggregates_against_traces(result)

    def test_partial_failures_recorded(self):
        # tiny sparse law: most graph draws cannot be made primitive, so some
        # replicates fail and land in the manifest while the rest aggregate
        params = SbmParams(n0=1, n1=1, p0=0.2, p1=0.2, q0=0.05, q1=0.05)
        config = ExperimentConfig(network=params, profile=PROFILE, strategy="asl",
                                  delta=0.3, horizon=20, burn_in=5, replicates=8,
                                  base_seed=0)
        result = run_experiment(config)
        assert result.n_ok == 2 and len(result.failures) == 6
        assert all("replicate" in f and "error" in f for f in result.failures)
        assert result.error_report.samples == 15 * result.n_ok

    @pytest.mark.parametrize("n_agents", [1, 2, 3, 30, 75])
    def test_chunk_sums_are_bitwise_numpy_sums(self, n_agents):
        # the forms run_experiment reduces chunks with: einsum, or with one
        # agent numpy's own sums, each bitwise equal to sum over the axes
        sum_replicates, square_replicates, square_samples = _chunk_sums(n_agents)
        rng = np.random.default_rng(n_agents)
        for steps in (1, 7, 16):
            for reps in (1, 5, 16, 64):
                shape = (steps, reps, n_agents)
                chunk = rng.normal(size=shape) * np.exp(5.0 * rng.normal(size=shape))
                assert np.array_equal(sum_replicates(chunk), chunk.sum(axis=1))
                assert np.array_equal(square_replicates(chunk), (chunk * chunk).sum(axis=1))
                for window in (chunk, chunk[steps // 2:]):
                    assert np.array_equal(square_samples(window),
                                          (window * window).sum(axis=(0, 1)))

    def test_blocks_match_standalone_runs(self):
        # more replicates than one block, with failed graph draws in both
        params = SbmParams(n0=4, n1=4, p0=0.35, p1=0.35, q0=0.04, q1=0.04)
        config = ExperimentConfig(network=params, profile=PROFILE, strategy="asl",
                                  delta=0.3, horizon=60, burn_in=20, replicates=70,
                                  base_seed=0)
        assert config.replicates > BLOCK_SIZE
        result = run_experiment(config)

        labels = BlockModel(sizes=(4, 4), probs=[[0.35, 0.04], [0.04, 0.35]]).labels()
        profile = bernoulli_profile(labels, (0.1, 0.5))
        failures, traces = [], []
        for r in range(config.replicates):
            try:
                network = sample_sbm(params, seed=r)
            except BlocklearnError as exc:
                failures.append({"replicate": r, "error": f"{type(exc).__name__}: {exc}"})
                continue
            traces.append(run(network, profile, strategy="asl", delta=0.3, horizon=60, seed=r))
        assert {f["replicate"] for f in failures} & set(range(BLOCK_SIZE, config.replicates))
        assert result.failures == failures
        rep_mu = np.array([t.mu_log_ratio[21:].mean(axis=0) for t in traces])
        rep_psi = np.array([t.log_ratio[21:].mean(axis=0) for t in traces])
        iter_mean = np.mean([t.log_ratio for t in traces], axis=0)
        assert np.abs(result.rep_means_mu - rep_mu).max() <= 1e-12
        assert np.abs(result.rep_means_psi - rep_psi).max() <= 1e-12
        assert np.abs(result.iter_mean - iter_mean).max() <= 1e-12

    def test_block_streams_match_per_seed_streams(self, monkeypatch):
        # 70 replicates (two blocks) with failed graph draws in both: drawing
        # each block's symbols in one call gives the aggregates and failure
        # list of drawing every agent's stream on its own, through NumPy
        params = SbmParams(n0=4, n1=4, p0=0.35, p1=0.35, q0=0.04, q1=0.04)
        config = ExperimentConfig(network=params, profile=PROFILE, strategy="asl",
                                  delta=0.3, horizon=60, burn_in=20, replicates=70,
                                  base_seed=0, store_traces=True, record_observations=True)
        blocked = run_experiment(config)

        def per_seed(profile, horizon, seeds):
            cdf = np.cumsum(profile.likelihoods[np.arange(8), profile.true_state], axis=1)
            symbols = np.empty((len(seeds), 8, horizon), dtype=np.uint8)
            for b, seed in enumerate(seeds):
                for k, child in enumerate(np.random.SeedSequence(seed).spawn(8)):
                    u = np.random.default_rng(child).random(horizon)
                    symbols[b, k] = np.minimum(np.searchsorted(cdf[k], u, side="right"), 1)
            return symbols

        monkeypatch.setattr(learning, "observation_matrix", per_seed)
        reference = run_experiment(config)
        assert {f["replicate"] for f in blocked.failures} & set(range(BLOCK_SIZE, 70))
        assert blocked.failures == reference.failures
        for name in ("iter_mean", "iter_std", "rep_means_psi", "rep_means_mu",
                     "pooled_var_psi", "pooled_var_mu"):
            assert np.array_equal(getattr(blocked, name), getattr(reference, name))
        assert np.array_equal(blocked.error_report.counts, reference.error_report.counts)
        for a, b in zip(blocked.traces, reference.traces, strict=True):
            assert np.array_equal(a.observations, b.observations)
            assert np.array_equal(a.mu_log_ratio, b.mu_log_ratio)

    @pytest.mark.parametrize("burn_in", [0, 16, 17, 48])
    def test_burn_in_skip_leaves_aggregates_unchanged(self, monkeypatch, burn_in):
        # simulate_block skips mu and the estimates on chunks inside the
        # burn-in; every aggregate equals that of a run computing them all
        config = small_config(network=CRITERION_5, profile=MULTINOMIAL, pair=[0, 2],
                              horizon=48, burn_in=burn_in, replicates=3)
        skipped = run_experiment(config)
        every_chunk = learning.simulate_block

        def no_skip(*args, burn_in=0, **kwargs):
            return every_chunk(*args, **kwargs)

        monkeypatch.setattr(learning, "simulate_block", no_skip)
        reference = run_experiment(config)
        for name in ("iter_mean", "iter_std", "rep_means_psi", "rep_means_mu",
                     "pooled_var_psi", "pooled_var_mu"):
            assert np.array_equal(getattr(skipped, name), getattr(reference, name), equal_nan=True)
        assert np.array_equal(skipped.error_report.counts, reference.error_report.counts)

    @pytest.mark.parametrize("law, profile, pair", [
        (CRITERION_5, MULTINOMIAL, (0, -1)),  # ran as (0, 1), predicted as (0, 2)
        (VB1, PROFILE, (0, 5)),
    ])
    def test_pair_outside_the_hypotheses_is_rejected(self, law, profile, pair):
        with pytest.raises(InvalidPair):
            run_experiment(small_config(network=law, profile=profile, pair=pair))

    @pytest.mark.parametrize("law, profile", [(VB1, PROFILE), (CRITERION_5, MULTINOMIAL)])
    def test_traces_are_compact_and_match_run(self, law, profile):
        # on one graph, a block of replicates shares run's combination matrix
        config = small_config(network=law, profile=profile, replicates=3, fixed_graph=True,
                              store_traces=True, record_observations=True)
        result = run_experiment(config)
        assert len(result.traces) == 3
        for r, trace in enumerate(result.traces):
            seed = config.base_seed + r
            alone = run(result.network, result.profile, strategy="asl", delta=config.delta,
                        horizon=config.horizon, seed=seed, record_observations=True)
            assert trace.estimates.dtype == np.uint8
            assert trace.observations.dtype == np.uint8
            for name in ("log_ratio", "mu_log_ratio", "estimates", "observations"):
                assert np.array_equal(getattr(trace, name), getattr(alone, name))
                assert getattr(trace, name).dtype == getattr(alone, name).dtype

    @pytest.mark.parametrize("record_observations", [False, True])
    def test_stored_bytes_per_cell(self, record_observations):
        # psi and mu at 8 bytes and the estimate at 1 per (replicate, step,
        # agent); recorded symbols add the block they were drawn in, 1 byte
        # per (replicate, iteration, agent), counted once per block
        config = small_config(replicates=70, store_traces=True,
                              record_observations=record_observations)
        traces = run_experiment(config).traces
        assert len(traces) == 70
        series = sum(t.log_ratio.nbytes + t.mu_log_ratio.nbytes + t.estimates.nbytes
                     for t in traces)
        cells = len(traces) * (config.horizon + 1) * 30
        assert series / cells <= 17
        if record_observations:
            blocks = {id(t.observations.base): t.observations.base for t in traces}
            assert len(blocks) == 2  # two blocks of replicates
            assert sum(t.observations.nbytes for t in traces) == sum(
                b.nbytes for b in blocks.values())
            assert (series + sum(b.nbytes for b in blocks.values())) / cells <= 18
        else:
            assert all(t.observations is None for t in traces)

    def test_negative_seed_fails_only_its_replicates(self, tmp_path):
        from blocklearn.graphs import save_network

        path = tmp_path / "network.txt"
        save_network(path, sample_sbm(VB1, seed=5))
        result = run_experiment(small_config(network=str(path), replicates=5, base_seed=-2))
        assert [f["replicate"] for f in result.failures] == [0, 1]
        assert result.n_ok == 3

    def test_negative_seed_on_a_law_fails_only_its_replicates(self):
        result = run_experiment(small_config(replicates=5, base_seed=-2, store_traces=True))
        assert result.failures == [{"replicate": r, "error": "ValueError: expected non-negative integer"}
                                   for r in (0, 1)]
        assert [t.metadata["replicate"] for t in result.traces] == [2, 3, 4]
        # the kept replicates step the graphs their seeds draw alone
        solo = run_experiment(small_config(replicates=3, base_seed=0, store_traces=True))
        for trace, alone in zip(result.traces, solo.traces):
            assert trace.metadata["network_retries"] == alone.metadata["network_retries"]
            assert np.abs(trace.log_ratio - alone.log_ratio).max() <= 1e-12

    def test_agent_count_mismatch_fails_once(self, monkeypatch):
        # checked before any replicate, not as R identical replicate failures
        draws = []
        monkeypatch.setattr(harness, "sample_sbm", lambda *a, **k: draws.append(a))
        profile = bernoulli_profile(np.repeat([0, 1], 10), (0.1, 0.5))
        with pytest.raises(ValueError, match="30 agents, the profile 20"):
            run_experiment(small_config(profile=profile))
        assert draws == []

    def test_unexpected_replicate_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a defect, not a failed draw")

        monkeypatch.setattr(harness, "sample_sbm", broken)
        with pytest.raises(TypeError, match="a defect"):
            run_experiment(small_config())

    def test_all_failures_raise(self):
        params = SbmParams(n0=1, n1=1, p0=0.2, p1=0.2, q0=0.05, q1=0.05)
        config = ExperimentConfig(network=params, profile=PROFILE, strategy="asl",
                                  delta=0.3, horizon=20, burn_in=5, replicates=8,
                                  base_seed=120)
        with pytest.raises(RuntimeError):
            run_experiment(config)

    def test_zero_horizon_reports_empty_window(self):
        config = ExperimentConfig(network=VB1, profile=PROFILE, strategy="asl",
                                  delta=0.2, horizon=0, burn_in=0, replicates=2)
        result = run_experiment(config)
        assert result.error_report.samples == 0
        assert np.all(np.isnan(result.error_report.p_err))

    def test_fixed_graph_reuses_one_draw(self):
        result = run_experiment(small_config(fixed_graph=True, store_traces=True,
                                             replicates=3))
        retries = {t.metadata["network_retries"] for t in result.traces}
        assert len(retries) == 1

    def test_network_file_source(self, tmp_path):
        from blocklearn.graphs import sample_sbm, save_network

        path = tmp_path / "network.txt"
        save_network(path, sample_sbm(VB1, seed=5))
        result = run_experiment(small_config(network=str(path), replicates=2))
        assert result.n_ok == 2

    def test_outputs_written(self, tmp_path):
        result = run_experiment(small_config(replicates=2))
        prediction = expected_log_ratio(VB1, bernoulli_profile(result.clusters, (0.1, 0.5)),
                                        0.2)
        outputs = result.write_outputs(tmp_path, comparison=compare_theory(result, prediction))
        for name in ("summary.json", "error_report.csv", "iteration_stats.csv",
                     "theory_comparison.csv"):
            assert name in outputs
        for name in outputs + ["manifest.json"]:
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["replicates_ok"] == 2
        report_lines = (tmp_path / "error_report.csv").read_text().splitlines()
        assert report_lines[0] == "agent,cluster,p_err,stderr"
        assert len(report_lines) == 31

        reference = tmp_path / "iteration_stats_rows.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "agent", "mean_log_ratio", "std_log_ratio"])
            for i in range(result.iter_mean.shape[0]):
                for k in range(result.iter_mean.shape[1]):
                    writer.writerow([i, k, f"{result.iter_mean[i, k]:.17g}",
                                     f"{result.iter_std[i, k]:.17g}"])
        assert (tmp_path / "iteration_stats.csv").read_bytes() == reference.read_bytes()

    def test_iteration_stats_bytes(self, tmp_path):
        # 151 x 30 rows: two ROWS_PER_WRITE windows
        small = small_config(replicates=2, horizon=150)
        # an identity network built in code, with more agents than
        # ROWS_PER_WRITE: each window is one iteration, which write_rows
        # writes in two parts
        n = ROWS_PER_WRITE + 3
        wide = small_config(network=Network(adjacency=np.eye(n, dtype=np.int8),
                                             combination=np.eye(n), clusters=np.arange(n) % 2),
                            replicates=2, horizon=2, burn_in=0)
        for name, config in [("small", small), ("wide", wide)]:
            result = run_experiment(config)
            result.iter_mean[1, :4] = [-0.0, 1e-300, float("nan"), float("inf")]
            result.iter_std[-1, -3:] = [float("-inf"), float("nan"), 2.5e16]
            result.write_outputs(tmp_path / name)
            reference = tmp_path / f"{name}_loop.csv"
            with open(reference, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["iter", "agent", "mean_log_ratio", "std_log_ratio"])
                for i, k in np.ndindex(result.iter_mean.shape):
                    writer.writerow([i, k, f"{result.iter_mean[i, k]:.17g}",
                                     f"{result.iter_std[i, k]:.17g}"])
            assert ((tmp_path / name / "iteration_stats.csv").read_bytes()
                    == reference.read_bytes()), name

    def test_iteration_stats_memory_does_not_grow_with_the_horizon(self, tmp_path):
        result = run_experiment(small_config(replicates=2))

        def peak(horizon):
            rng = np.random.default_rng(horizon)
            long = dataclasses.replace(result, iter_mean=rng.normal(size=(horizon + 1, 30)),
                                       iter_std=rng.random((horizon + 1, 30)))
            tracemalloc.start()
            try:
                long.write_outputs(tmp_path / str(horizon))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                (tmp_path / str(horizon) / "iteration_stats.csv").unlink()

        peak(100)  # first-use allocations
        # (iteration, agent) index columns for all 20,001 x 30 rows would
        # take 9.6 MB; a window of ROWS_PER_WRITE rows takes the same at
        # any horizon
        assert peak(20_000) - peak(2_000) < 100_000

    def test_block_memory_at_acceptance_scale(self):
        # one 64-replicate block of the criterion-5 law: its 2.9 MB stack of
        # graphs, its symbols and the recursion's (16, 64, 75, 2) buffers.
        # One buffer pair per chunk, no arrays of squares and seed states
        # converted one replicate at a time keep the peak at 9.2 MB; a third
        # chunk buffer and arrays of squares would take it to 10.7 MB
        profile = random_multinomial_profile(CRITERION_5.labels(), alphabet_size=25, seed=10)
        config = ExperimentConfig(network=CRITERION_5, profile=profile, strategy="asl",
                                  delta=0.1, horizon=64, burn_in=32, replicates=64, base_seed=777)
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.8e6


SPARSE = SbmParams(n0=4, n1=4, p0=0.35, p1=0.35, q0=0.04, q1=0.04)
WIDE = SbmParams(n0=150, n1=150, p0=0.1, p1=0.1, q0=0.01, q1=0.01)


class TestStreamedTraces:
    """With ``store_traces`` and an ``out_dir``, ``run_experiment`` writes the
    trace files as the run goes and keeps none in memory."""

    @staticmethod
    def outputs(config, out_dir):
        """Run ``config`` and write its outputs into ``out_dir``, with the
        theory rows ``simulate`` adds to a step-size run."""
        result = run_experiment(config)
        comparison = None
        if config.strategy == "asl":
            prediction = expected_log_ratio(result.network, result.profile, config.delta,
                                            config.pair)
            comparison = compare_theory(result, prediction)
        return result, result.write_outputs(out_dir, comparison=comparison)

    @pytest.mark.parametrize("overrides", [
        # the benchmark's simulate round: one drawn graph, 20 traces with symbols
        dict(delta=0.1, horizon=1500, burn_in=500, replicates=20, base_seed=42,
             fixed_graph=True, record_observations=True),
        # two blocks on a sparse law; replicates 0 and 1 fail on their seeds
        dict(network=SPARSE, delta=0.3, horizon=60, burn_in=20, replicates=70, base_seed=-2,
             record_observations=True),
        dict(network=CRITERION_5, profile=MULTINOMIAL, pair=[0, 2], horizon=120, burn_in=40,
             replicates=3, record_observations=True),
        dict(horizon=0, burn_in=0, replicates=3, record_observations=True),
        dict(strategy="traditional", delta=None, burn_in=None, horizon=100, replicates=4),
        # one 16-step chunk is 4800 rows, more than one write's ROWS_PER_WRITE
        dict(network=WIDE, horizon=40, burn_in=8, replicates=2, record_observations=True),
    ], ids=["cli-roundtrip", "sparse-two-blocks", "criterion-5", "horizon-0", "traditional",
            "300-agents"])
    def test_streamed_directory_equals_in_memory_outputs(self, tmp_path, overrides):
        streamed, in_memory = tmp_path / "streamed", tmp_path / "in_memory"
        streamed.mkdir()
        (streamed / "manifest.json").write_text("{}")  # from an earlier run
        config = small_config(store_traces=True, **overrides)
        reference, names = self.outputs(config, in_memory)

        stream_config = small_config(store_traces=True, out_dir=str(streamed), **overrides)
        result = run_experiment(stream_config)
        assert result.traces == []
        assert result.streamed == [name for name in names if name.startswith("trace_")]
        # the traces are on disk before write_outputs, and the stale
        # manifest is gone until it writes its own
        assert sorted(path.name for path in streamed.iterdir()) == sorted(result.streamed)
        _, streamed_names = self.outputs(stream_config, streamed)

        assert streamed_names == names
        for name in names + ["manifest.json"]:
            expected = (in_memory / name).read_bytes()
            if name == "summary.json":
                summary = json.loads((streamed / name).read_text())
                assert summary["config"].pop("out_dir") == str(streamed)
                summary["config"]["out_dir"] = None
                assert summary == json.loads(expected)
            else:
                assert (streamed / name).read_bytes() == expected, name
        assert len(result.streamed) == 2 * len(reference.traces) > 0
        row_loop_csv(reference.traces[0], tmp_path / "loop.csv")
        assert (streamed / "trace_0000.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_memory_does_not_grow_with_stored_cells(self, tmp_path):
        # traces kept in memory take 17 bytes per (replicate, step, agent)
        # cell; a streamed run keeps none, and grows with the horizon by a
        # block's symbols (1 byte per cell) and the per-iteration sums (16
        # bytes per (step, agent), 0.8 per cell at 20 replicates)
        def peak(horizon):
            config = small_config(delta=0.1, horizon=horizon, burn_in=100, replicates=20,
                                  store_traces=True, record_observations=True,
                                  out_dir=str(tmp_path / str(horizon)))
            tracemalloc.start()
            try:
                run_experiment(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)  # first-use allocations
        added = peak(3000) - peak(1500)
        assert added / (20 * 1500 * 30) < 2

    def test_streamed_result_writes_only_into_its_directory(self, tmp_path):
        config = small_config(store_traces=True, out_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        with pytest.raises(ValueError, match="traces are in"):
            result.write_outputs(tmp_path / "elsewhere")
        assert not (tmp_path / "elsewhere").exists()
        result.write_outputs(tmp_path / "." / "run")
        assert (tmp_path / "run" / "manifest.json").exists()


class TestCompareTheory:
    def test_zero_z_for_exact_match(self):
        result = run_experiment(small_config())
        prediction = expected_log_ratio(VB1, bernoulli_profile(result.clusters, (0.1, 0.5)),
                                        0.2)
        stats = result.cluster_statistics("mu")
        prediction.values = np.where(
            result.clusters == 0, stats[0]["mean"], stats[1]["mean"]
        )
        rows = compare_theory(result, prediction)
        assert all(abs(row.z_score) < 1e-9 for row in rows)
        assert not any(row.flagged for row in rows)

    # both used to be written inf,1: a mismatch flagged where nothing was tested
    @pytest.mark.parametrize("overrides", [{"replicates": 1}, {"burn_in": 80}])
    def test_nothing_to_test_is_not_flagged(self, overrides):
        result = run_experiment(small_config(**overrides))
        prediction = expected_log_ratio(VB1, bernoulli_profile(result.clusters, (0.1, 0.5)),
                                        0.2)
        rows = compare_theory(result, prediction)
        assert len(rows) == 2
        assert all(np.isnan(row.stderr) and np.isnan(row.z_score) for row in rows)
        assert not any(row.flagged for row in rows)

    def test_zero_stderr(self):
        result = run_experiment(small_config())
        prediction = expected_log_ratio(VB1, bernoulli_profile(result.clusters, (0.1, 0.5)),
                                        0.2)
        stats = result.cluster_statistics("mu")
        # every replicate's mean made equal to its cluster's mean, so the
        # standard error is zero
        for c, stat in stats.items():
            result.rep_means_mu[:, result.clusters == c] = stat["mean"]
        stats = result.cluster_statistics("mu")
        prediction.values = np.where(result.clusters == 0, stats[0]["mean"],
                                     stats[1]["mean"] + 0.5)
        rows = compare_theory(result, prediction)
        assert [row.stderr for row in rows] == [0.0, 0.0]
        assert [row.z_score for row in rows] == [0.0, float("inf")]
        assert [row.flagged for row in rows] == [False, True]

    def test_unknown_series_rejected(self):
        result = run_experiment(small_config(replicates=2))
        with pytest.raises(ValueError, match="'mu' or 'psi'"):
            result.cluster_statistics("bogus")

    def test_mismatched_delta_rejected(self):
        result = run_experiment(small_config())
        prediction = expected_log_ratio(VB1, bernoulli_profile(result.clusters, (0.1, 0.5)),
                                        0.3)
        with pytest.raises(MismatchedConfig):
            compare_theory(result, prediction)

    def test_variance_grows_with_delta(self):
        variances = []
        for delta in (0.05, 0.1, 0.2, 0.3):
            config = small_config(delta=delta, horizon=400, burn_in=150, replicates=40,
                                  base_seed=55)
            result = run_experiment(config)
            variances.append(np.mean(result.pooled_var_psi))
        assert variances[0] < variances[1] < variances[2] < variances[3]


class TestCsvWriters:
    """The bulk writers give the bytes of a ``csv.writer`` row loop."""

    @pytest.mark.parametrize("samples", [0, 7])
    def test_error_report(self, tmp_path, samples):
        counts = np.array([[7, 0], [3, 4], [0, 7]]) if samples else np.zeros((3, 2), int)
        report = ErrorReport(counts=counts, clusters=np.array([0, 0, 1]),
                             true_state=np.array([0, 0, 1]), samples=samples)
        report.to_csv(tmp_path / "bulk.csv")
        p, se = report.p_err, report.stderr
        with open(tmp_path / "loop.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["agent", "cluster", "p_err", "stderr"])
            for k in range(3):
                writer.writerow([k, int(report.clusters[k]), f"{p[k]:.17g}", f"{se[k]:.17g}"])
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_theory_comparison(self, tmp_path):
        rows = [
            ComparisonRow(0, 0.125, -1e-300, 0.0, float("inf"), True),
            ComparisonRow(1, -0.0, 123456789.123, float("nan"), float("-inf"), False),
            ComparisonRow(2, 1 / 3, 2.5e16, 0.1, -2.9, False),
        ]
        _write_comparison_csv(tmp_path / "bulk.csv", rows)
        with open(tmp_path / "loop.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster", "empirical_mean", "theory_value", "stderr", "z_score",
                             "flagged"])
            for row in rows:
                writer.writerow([row.cluster, f"{row.empirical_mean:.17g}",
                                 f"{row.theory_value:.17g}", f"{row.stderr:.17g}",
                                 f"{row.z_score:.17g}", int(row.flagged)])
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


class TestCheckStrategy:
    @pytest.mark.parametrize("strategy, delta, estimator, error", [
        ("greedy", 0.1, "mu", ValueError),
        ("asl", None, "mu", DeltaOutOfRange),
        ("asl", 1.0, "mu", DeltaOutOfRange),
        ("traditional", None, "max", ValueError),
    ])
    def test_run_and_config_reject_alike(self, strategy, delta, estimator, error):
        network = sample_sbm(VB1, seed=1)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        with pytest.raises(error) as from_run:
            run(network, profile, strategy=strategy, delta=delta, estimator=estimator)
        with pytest.raises(error) as from_config:
            small_config(strategy=strategy, delta=delta, estimator=estimator)
        assert type(from_run.value) is type(from_config.value)
        assert str(from_run.value) == str(from_config.value)

    @pytest.mark.parametrize("strategy, estimator", [("bogus", "mu"), ("asl", "max")])
    def test_unknown_names_raise_a_typed_error(self, strategy, estimator):
        with pytest.raises(InvalidStrategy) as excinfo:
            small_config(strategy=strategy, estimator=estimator)
        assert isinstance(excinfo.value, BlocklearnError) and isinstance(excinfo.value, ValueError)
