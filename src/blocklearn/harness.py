"""Monte Carlo experiment runner: seeded replicates, error probabilities,
and theory-versus-simulation comparison."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, learning
from .exceptions import AllReplicatesFailed, MismatchedConfig
from .graphs import BlockModel, Network, SbmParams, load_network, sample_sbm
from .learning import (
    check_strategy,
    run,  # noqa: F401 - part of this module's namespace, which perfbench/tracing.py wraps
    write_rows,
)
from .models import (
    LikelihoodProfile,
    bernoulli_profile,
    load_profile,
    random_multinomial_profile,
    seed_words,
)

__all__ = [
    "ExperimentConfig",
    "ErrorReport",
    "ExperimentResult",
    "resolve_inputs",
    "run_experiment",
    "compare_theory",
    "ComparisonRow",
    "write_manifest",
]


@dataclass
class ExperimentConfig:
    """Full description of a Monte Carlo experiment.

    ``network`` may be SbmParams, BlockModel, a Network, a network-file path,
    or a dict spec (kinds "sbm", "blocks", "file").  ``profile`` may be a
    LikelihoodProfile, a profile-file path, or a dict spec (kinds
    "bernoulli", "multinomial", "file").  A null ``burn_in`` defaults to
    ``ceil(5 / delta)`` for the step-size strategy and 0 otherwise.
    ``n_jobs`` is accepted and ignored: replicates run batched in one process.
    """

    network: object
    profile: object
    strategy: str = "asl"
    delta: float = None
    horizon: int = 1000
    burn_in: int = None
    replicates: int = 100
    base_seed: int = 0
    pair: tuple = (0, 1)
    estimator: str = "mu"
    fixed_graph: bool = False
    store_traces: bool = False
    record_observations: bool = False
    n_jobs: int = 1
    out_dir: str = None

    SCHEMA_VERSION = 1

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        check_strategy(self.strategy, self.delta, self.estimator)
        if self.burn_in is None:
            self.burn_in = math.ceil(5.0 / self.delta) if self.strategy == "asl" else 0
        if self.horizon < self.burn_in:
            raise ValueError(f"horizon {self.horizon} must be at least burn_in {self.burn_in}")
        self.pair = (int(self.pair[0]), int(self.pair[1]))

    @classmethod
    def from_dict(cls, data, **overrides):
        data = dict(data)
        version = data.pop("version", cls.SCHEMA_VERSION)
        if version != cls.SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema version {version}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        if "pair" in data:
            data["pair"] = tuple(data["pair"])
        return cls(**data)

    @classmethod
    def from_json(cls, path, **overrides):
        with open(path) as fh:
            return cls.from_dict(json.load(fh), **overrides)

    def to_dict(self):
        def _spec(value):
            if isinstance(value, SbmParams):
                return {"kind": "sbm", **value.to_dict()}
            if isinstance(value, BlockModel):
                return {"kind": "blocks", **value.to_dict()}
            if isinstance(value, Network):
                return {"kind": "network", "size": value.size}
            if isinstance(value, LikelihoodProfile):
                return {"kind": "profile", "reference": value.reference}
            return value

        return {
            "version": self.SCHEMA_VERSION,
            "network": _spec(self.network),
            "profile": _spec(self.profile),
            "strategy": self.strategy,
            "delta": self.delta,
            "horizon": self.horizon,
            "burn_in": self.burn_in,
            "replicates": self.replicates,
            "base_seed": self.base_seed,
            "pair": list(self.pair),
            "estimator": self.estimator,
            "fixed_graph": self.fixed_graph,
            "store_traces": self.store_traces,
            "record_observations": self.record_observations,
            "n_jobs": self.n_jobs,
            "out_dir": self.out_dir,
        }


def _resolve_network_source(spec):
    """Return either a sampling law (SbmParams/BlockModel) or a fixed Network."""
    if isinstance(spec, (SbmParams, BlockModel, Network)):
        return spec
    if isinstance(spec, (str, Path)):
        return load_network(spec)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "sbm":
            return SbmParams(**{k: spec[k] for k in ("n0", "n1", "p0", "p1", "q0", "q1")})
        if kind == "blocks":
            return BlockModel(sizes=tuple(spec["sizes"]), probs=np.asarray(spec["probs"]))
        if kind == "file":
            return load_network(spec["path"])
        raise ValueError(f"unknown network spec kind {kind!r}")
    raise TypeError(f"cannot interpret network spec of type {type(spec).__name__}")


def _resolve_profile(spec, clusters):
    if isinstance(spec, LikelihoodProfile):
        return spec
    if isinstance(spec, (str, Path)):
        return load_profile(spec)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "bernoulli":
            return bernoulli_profile(clusters, spec["success_probs"])
        if kind == "multinomial":
            return random_multinomial_profile(
                clusters,
                alphabet_size=spec["alphabet"],
                seed=spec["seed"],
                n_hypotheses=spec.get("n_hypotheses"),
            )
        if kind == "file":
            return load_profile(spec["path"])
        raise ValueError(f"unknown profile spec kind {kind!r}")
    raise TypeError(f"cannot interpret profile spec of type {type(spec).__name__}")


def resolve_inputs(config):
    """The network source, cluster labels and likelihood profile of a config.

    The source is a fixed Network (a network file or object, or with
    ``fixed_graph`` the law's draw at ``base_seed``), or the
    SbmParams/BlockModel law each replicate draws its own graph from.
    """
    source = _resolve_network_source(config.network)
    if config.fixed_graph and not isinstance(source, Network):
        source = sample_sbm(source, seed=config.base_seed)
    if isinstance(source, Network):
        clusters = source.clusters
    elif isinstance(source, BlockModel):
        clusters = source.labels()
    else:
        clusters = source.to_block_model().labels()
    return source, clusters, _resolve_profile(config.profile, clusters)


@dataclass
class ErrorReport:
    """Per-agent empirical error probabilities over the steady-state window."""

    counts: np.ndarray  # (N, H) estimate histogram
    clusters: np.ndarray
    true_state: np.ndarray
    samples: int

    @property
    def p_err(self):
        if self.samples == 0:
            return np.full(self.counts.shape[0], np.nan)
        correct = self.counts[np.arange(self.counts.shape[0]), self.true_state]
        return 1.0 - correct / self.samples

    @property
    def stderr(self):
        if self.samples == 0:
            return np.full(self.counts.shape[0], np.nan)
        p = self.p_err
        return np.sqrt(p * (1.0 - p) / self.samples)

    @property
    def modal_estimate(self):
        return np.argmax(self.counts, axis=1)

    def cluster_means(self):
        p = self.p_err
        return {int(c): float(p[self.clusters == c].mean()) for c in np.unique(self.clusters)}

    def to_csv(self, path):
        columns = [np.arange(self.counts.shape[0]), self.clusters, self.p_err, self.stderr]
        with open(path, "w", newline="") as fh:
            fh.write("agent,cluster,p_err,stderr\r\n")
            write_rows(fh, "%d,%d,%.17g,%.17g\r\n", columns)


@dataclass
class ExperimentResult:
    """Aggregates over replicates plus the audit trail to reproduce them."""

    config: ExperimentConfig
    clusters: np.ndarray
    true_state: np.ndarray
    error_report: ErrorReport
    iter_mean: np.ndarray  # (horizon + 1, N) mean public log-ratio per iteration
    iter_std: np.ndarray
    rep_means_psi: np.ndarray  # (R_ok, N) per-replicate steady-state means
    rep_means_mu: np.ndarray
    pooled_var_psi: np.ndarray  # (N,) variance over all steady-state samples
    pooled_var_mu: np.ndarray
    failures: list
    traces: list = field(default_factory=list, repr=False)
    # the Network every replicate used (fixed graph or network file), or the
    # SbmParams/BlockModel law each replicate drew its own graph from
    network: object = field(default=None, repr=False)
    profile: LikelihoodProfile = field(default=None, repr=False)

    @property
    def n_ok(self):
        return self.rep_means_mu.shape[0]

    def cluster_statistics(self, series="mu"):
        """Per-cluster steady-state mean, standard error (over replicates),
        and pooled variance of the chosen log-ratio series."""
        rep = self.rep_means_mu if series == "mu" else self.rep_means_psi
        pooled = self.pooled_var_mu if series == "mu" else self.pooled_var_psi
        stats = {}
        for c in np.unique(self.clusters):
            cols = rep[:, self.clusters == c].mean(axis=1)  # per-replicate cluster mean
            se = float(cols.std(ddof=1) / math.sqrt(cols.size)) if cols.size > 1 else float("nan")
            stats[int(c)] = {
                "mean": float(cols.mean()),
                "stderr": se,
                "pooled_var": float(pooled[self.clusters == c].mean()),
            }
        return stats

    def summary_dict(self):
        return {
            "version": __version__,
            "config": self.config.to_dict(),
            "replicates_ok": self.n_ok,
            "failures": self.failures,
            "cluster_log_ratio_mu": self.cluster_statistics("mu"),
            "cluster_log_ratio_psi": self.cluster_statistics("psi"),
            "cluster_p_err": self.error_report.cluster_means(),
            "steady_state_samples": self.error_report.samples,
        }

    def write_outputs(self, out_dir, comparison=None):
        """Write the run's files and a ``manifest.json`` listing them.

        Returns the names of the files written, apart from the manifest.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        outputs = []

        with open(out / "summary.json", "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
        outputs.append("summary.json")

        self.error_report.to_csv(out / "error_report.csv")
        outputs.append("error_report.csv")

        steps, n = self.iter_mean.shape
        with open(out / "iteration_stats.csv", "w", newline="") as fh:
            fh.write("iter,agent,mean_log_ratio,std_log_ratio\r\n")
            columns = [
                np.repeat(np.arange(steps), n),
                np.tile(np.arange(n), steps),
                self.iter_mean.ravel(),
                self.iter_std.ravel(),
            ]
            write_rows(fh, "%d,%d,%.17g,%.17g\r\n", columns)
        outputs.append("iteration_stats.csv")

        for i, trace in enumerate(self.traces):
            name = f"trace_{i:04d}.csv"
            trace.to_csv(out / name)
            outputs += [name, name + ".meta.json"]

        if comparison is not None:
            _write_comparison_csv(out / "theory_comparison.csv", comparison)
            outputs.append("theory_comparison.csv")

        write_manifest(out, "simulate", outputs)
        return outputs


def write_manifest(out_dir, command, outputs):
    """Write ``manifest.json`` into an existing output directory: the package
    version, the command and the names of the files it wrote."""
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump({"version": __version__, "command": command, "outputs": outputs}, fh, indent=2)


# Replicates stepped together by one recursion.  Blocks are reduced in
# replicate order, so equal seeds give bitwise-equal aggregates.
BLOCK_SIZE = 64


def _draw_block(indices, source, profile, config):
    """Graphs and observation symbols of one block of replicates.

    Returns ``(replicates, networks, symbols, failures)``: the replicates
    whose inputs could be drawn, their networks, their symbols as one
    ``(B, N, horizon)`` array, and a record of each replicate that failed.
    The graphs are drawn first; the symbols of every replicate that got one
    are then drawn in one ``observation_matrix`` call.
    """
    replicates, networks, failures = [], [], []
    for r in indices:
        seed = config.base_seed + r
        try:
            network = source if isinstance(source, Network) else sample_sbm(source, seed=seed)
            if network.size != profile.n_agents:
                raise ValueError("network and profile disagree on the number of agents")
            seed_words(seed)  # a seed the streams cannot take fails this replicate only
        except Exception as exc:  # noqa: BLE001 - collect per-replicate failures
            failures.append({"replicate": r, "error": f"{type(exc).__name__}: {exc}"})
            continue
        replicates.append(r)
        networks.append(network)
    seeds = [config.base_seed + r for r in replicates]
    # looked up on the module at call time, so it can be wrapped
    symbols = learning.observation_matrix(profile, config.horizon, seeds)
    return replicates, networks, symbols, failures


def run_experiment(config):
    """Execute all replicates of an experiment and aggregate the results.

    Replicate r uses seed ``base_seed + r`` for both its graph draw (unless
    the graph is fixed) and its observation streams.  Replicates run in
    blocks of ``BLOCK_SIZE`` through ``learning.simulate_block``, and each
    chunk of iterations is reduced as it is produced; per-replicate traces
    are kept only with ``store_traces``.  Failed replicates are recorded and
    skipped.
    """
    source, clusters, profile = resolve_inputs(config)
    fixed_t = np.ascontiguousarray(source.combination.T) if isinstance(source, Network) else None
    law_metadata = {} if isinstance(source, Network) else {"sbm_params": source.to_dict()}

    n, h = profile.n_agents, profile.n_hypotheses
    horizon, burn_in = config.horizon, config.burn_in
    window = horizon - burn_in
    count_index = np.arange(n) * h  # flat (agent, hypothesis) bins

    iter_sum = np.zeros((horizon + 1, n))
    iter_sq = np.zeros((horizon + 1, n))
    counts = np.zeros(n * h, dtype=np.int64)
    psi_sq = np.zeros(n)
    mu_sq = np.zeros(n)
    rep_psi, rep_mu, traces, failures = [], [], [], []

    for first in range(0, config.replicates, BLOCK_SIZE):
        indices = range(first, min(first + BLOCK_SIZE, config.replicates))
        replicates, networks, symbols, block_failures = _draw_block(indices, source, profile, config)
        failures += block_failures
        if not replicates:
            continue
        if fixed_t is not None:
            combination_t = fixed_t
        else:
            combination_t = np.stack([net.combination.T for net in networks])
        size = len(replicates)
        psi_sum = np.zeros((size, n))
        mu_sum = np.zeros((size, n))

        def reduce_chunk(start, psi, mu, est):
            nonlocal counts, psi_sq, mu_sq, psi_sum, mu_sum
            rows = slice(start + 1, start + 1 + psi.shape[0])
            iter_sum[rows] += psi.sum(axis=1)
            iter_sq[rows] += (psi * psi).sum(axis=1)
            # steady-state window: iterations burn_in + 1 .. horizon
            in_window = slice(max(burn_in - start, 0), None)
            psi, mu, est = psi[in_window], mu[in_window], est[in_window]
            psi_sum += psi.sum(axis=0)
            mu_sum += mu.sum(axis=0)
            psi_sq += (psi * psi).sum(axis=(0, 1))
            mu_sq += (mu * mu).sum(axis=(0, 1))
            counts += np.bincount((est + count_index).ravel(), minlength=n * h)

        record = None
        if config.store_traces:
            record = [(network, config.base_seed + r,
                       {"burn_in": burn_in, "replicate": r, **law_metadata})
                      for r, network in zip(replicates, networks)]
        traces += learning.simulate_block(
            combination_t, profile, symbols, config.strategy, config.delta, config.pair,
            config.estimator, on_chunk=reduce_chunk, record=record,
            record_observations=config.record_observations,
        )
        if window:
            rep_psi.append(psi_sum / window)
            rep_mu.append(mu_sum / window)
        else:
            rep_psi.append(np.full((size, n), np.nan))
            rep_mu.append(np.full((size, n), np.nan))

    n_ok = sum(block.shape[0] for block in rep_mu)
    if n_ok == 0:
        raise AllReplicatesFailed(f"all {config.replicates} replicates failed: {failures}")

    rep_psi = np.vstack(rep_psi)
    rep_mu = np.vstack(rep_mu)
    iter_mean = iter_sum / n_ok
    iter_std = np.sqrt(np.clip(iter_sq / n_ok - iter_mean**2, 0.0, None))
    total_samples = window * n_ok
    if total_samples:
        pooled_var_psi = psi_sq / total_samples - (rep_psi.mean(axis=0)) ** 2
        pooled_var_mu = mu_sq / total_samples - (rep_mu.mean(axis=0)) ** 2
    else:
        pooled_var_psi = np.full(n, np.nan)
        pooled_var_mu = np.full(n, np.nan)

    report = ErrorReport(
        counts=counts.reshape(n, h),
        clusters=clusters,
        true_state=profile.true_state,
        samples=total_samples,
    )
    return ExperimentResult(
        config=config,
        clusters=clusters,
        true_state=profile.true_state,
        error_report=report,
        iter_mean=iter_mean,
        iter_std=iter_std,
        rep_means_psi=rep_psi,
        rep_means_mu=rep_mu,
        pooled_var_psi=np.clip(pooled_var_psi, 0.0, None),
        pooled_var_mu=np.clip(pooled_var_mu, 0.0, None),
        failures=failures,
        traces=traces,
        network=source,
        profile=profile,
    )


class ComparisonRow(NamedTuple):
    cluster: int
    empirical_mean: float
    theory_value: float
    stderr: float
    z_score: float
    flagged: bool


def compare_theory(result, prediction, series="mu"):
    """Compare per-cluster empirical steady-state means against a prediction.

    Returns one row per cluster with the z-score of the empirical mean
    (standard error taken across replicates); rows with |z| > 3 are flagged.

    Raises
    ------
    MismatchedConfig
        If the prediction was computed for a different step size or pair.
    """
    if prediction.delta != result.config.delta:
        raise MismatchedConfig(
            f"prediction delta {prediction.delta} != experiment delta {result.config.delta}"
        )
    if tuple(prediction.pair) != tuple(result.config.pair):
        raise MismatchedConfig(
            f"prediction pair {prediction.pair} != experiment pair {result.config.pair}"
        )
    stats = result.cluster_statistics(series)
    rows = []
    for c, stat in stats.items():
        theory = float(prediction.values[result.clusters == c].mean())
        se = stat["stderr"]
        z = (stat["mean"] - theory) / se if se and not math.isnan(se) else float("inf")
        rows.append(
            ComparisonRow(
                cluster=c,
                empirical_mean=stat["mean"],
                theory_value=theory,
                stderr=se,
                z_score=float(z),
                flagged=abs(z) > 3.0,
            )
        )
    return rows


def _write_comparison_csv(path, rows):
    columns = [np.array([getattr(row, name) for row in rows]) for name in ComparisonRow._fields]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ComparisonRow._fields) + "\r\n")
        write_rows(fh, "%d,%.17g,%.17g,%.17g,%.17g,%d\r\n", columns)


def with_overrides(config, **overrides):
    """Copy a config with some fields replaced (CLI flag overrides)."""
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})
