"""Monte Carlo experiment runner: seeded replicates, error probabilities,
and theory-versus-simulation comparison."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, learning
from .exceptions import DeltaOutOfRange, MismatchedConfig
from .graphs import BlockModel, Network, SbmParams, load_network, sample_sbm
from .learning import (
    BeliefState,
    Trace,
    llr_table,
    log_ratio_chunks,
    pair_ratio,
    ratio_estimates,
    ratio_log_beliefs,
    run,  # noqa: F401 - part of this module's namespace, which perfbench/tracing.py wraps
    trace_metadata,
    write_rows,
)
from .models import (
    LikelihoodProfile,
    bernoulli_profile,
    load_profile,
    random_multinomial_profile,
)

__all__ = [
    "ExperimentConfig",
    "ErrorReport",
    "ExperimentResult",
    "resolve_inputs",
    "run_experiment",
    "compare_theory",
    "ComparisonRow",
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
        if self.strategy not in ("asl", "traditional"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "asl":
            if self.delta is None or not 0.0 < self.delta < 1.0:
                raise DeltaOutOfRange(f"asl strategy needs delta in (0, 1), got {self.delta}")
        if self.burn_in is None:
            self.burn_in = math.ceil(5.0 / self.delta) if self.strategy == "asl" else 0
        if self.horizon < self.burn_in:
            raise ValueError(f"horizon {self.horizon} must be at least burn_in {self.burn_in}")
        if self.estimator not in ("mu", "psi"):
            raise ValueError(f"estimator must be 'mu' or 'psi', got {self.estimator!r}")
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
                return {"kind": "blocks", "sizes": list(value.sizes), "probs": value.probs.tolist()}
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

    The source is a fixed Network (a network file or object), or the
    SbmParams/BlockModel law each replicate draws its own graph from.
    """
    source = _resolve_network_source(config.network)
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
        p, se = self.p_err, self.stderr
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["agent", "cluster", "p_err", "stderr"])
            for k in range(self.counts.shape[0]):
                writer.writerow([k, int(self.clusters[k]), f"{p[k]:.17g}", f"{se[k]:.17g}"])


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
            outputs.append(name)

        if comparison is not None:
            _write_comparison_csv(out / "theory_comparison.csv", comparison)
            outputs.append("theory_comparison.csv")

        with open(out / "manifest.json", "w") as fh:
            json.dump({"version": __version__, "outputs": outputs}, fh, indent=2)
        return outputs


# Replicates stepped together by one recursion.  Blocks are reduced in
# replicate order, so equal seeds give bitwise-equal aggregates.
BLOCK_SIZE = 64


def _draw_block(indices, source, profile, config):
    """Graphs and observation symbols of one block of replicates.

    Returns ``(replicates, networks, symbols, failures)``: the replicates
    whose inputs could be drawn, their networks, their symbols as one
    ``(horizon, B, N)`` array, and a record of each replicate that failed.
    """
    n = profile.n_agents
    # the smallest unsigned type that holds every symbol
    dtype = np.min_scalar_type(profile.alphabet_size - 1)
    symbols = np.empty((config.horizon, len(indices), n), dtype=dtype)
    replicates, networks, failures = [], [], []
    for r in indices:
        seed = config.base_seed + r
        try:
            network = source if isinstance(source, Network) else sample_sbm(source, seed=seed)
            if network.size != n:
                raise ValueError("network and profile disagree on the number of agents")
            # looked up on the module at call time, so it can be wrapped
            symbols[:, len(replicates)] = learning.observation_matrix(profile, config.horizon, seed).T
        except Exception as exc:  # noqa: BLE001 - collect per-replicate failures
            failures.append({"replicate": r, "error": f"{type(exc).__name__}: {exc}"})
            continue
        replicates.append(r)
        networks.append(network)
    return replicates, networks, symbols[:, : len(replicates)], failures


def run_experiment(config):
    """Execute all replicates of an experiment and aggregate the results.

    Replicate r uses seed ``base_seed + r`` for both its graph draw (unless
    the graph is fixed) and its observation streams.  Replicates run in
    blocks of ``BLOCK_SIZE`` through one batched log-ratio recursion, and
    each iteration is reduced as it is produced; per-replicate traces are
    kept only with ``store_traces``.  Failed replicates are recorded and
    skipped.
    """
    source, clusters, profile = resolve_inputs(config)
    if isinstance(source, (SbmParams, BlockModel)) and config.fixed_graph:
        source = sample_sbm(source, seed=config.base_seed)
    fixed_t = np.ascontiguousarray(source.combination.T) if isinstance(source, Network) else None
    law_metadata = {}
    if isinstance(source, SbmParams):
        law_metadata["sbm_params"] = source.to_dict()
    elif isinstance(source, BlockModel):
        law_metadata["sbm_params"] = {"sizes": list(source.sizes), "probs": source.probs.tolist()}

    n, h = profile.n_agents, profile.n_hypotheses
    horizon, burn_in, pair = config.horizon, config.burn_in, config.pair
    window = horizon - burn_in
    w_like, w_prior = (config.delta, 1.0 - config.delta) if config.strategy == "asl" else (1.0, 1.0)
    table = llr_table(profile)
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
        size = len(replicates)
        if fixed_t is not None:
            combination_t = fixed_t
        else:
            combination_t = np.stack([net.combination.T for net in networks])
        if config.store_traces:
            # iteration 0 is the uniform initial state: log-ratios zero, estimate 0
            trace_psi = np.zeros((size, horizon + 1, n))
            trace_mu = np.zeros((size, horizon + 1, n))
            trace_est = np.zeros((size, horizon + 1, n), dtype=np.int64)
        psi_sum = np.zeros((size, n))
        mu_sum = np.zeros((size, n))
        last_psi = last_mu = np.zeros((size, n, h - 1))

        for start, x_psi, x_mu in log_ratio_chunks(combination_t, table, symbols, w_like, w_prior):
            rows = slice(start + 1, start + 1 + x_psi.shape[0])
            psi = pair_ratio(x_psi, pair)  # (K, B, N)
            mu = pair_ratio(x_mu, pair)
            est = ratio_estimates(x_mu if config.estimator == "mu" else x_psi)
            iter_sum[rows] += psi.sum(axis=1)
            iter_sq[rows] += (psi * psi).sum(axis=1)
            if config.store_traces:
                trace_psi[:, rows] = psi.transpose(1, 0, 2)
                trace_mu[:, rows] = mu.transpose(1, 0, 2)
                trace_est[:, rows] = est.transpose(1, 0, 2)
                last_psi, last_mu = x_psi[-1].copy(), x_mu[-1].copy()
            # steady-state window: iterations burn_in + 1 .. horizon
            in_window = slice(max(burn_in - start, 0), None)
            psi, mu, est = psi[in_window], mu[in_window], est[in_window]
            psi_sum += psi.sum(axis=0)
            mu_sum += mu.sum(axis=0)
            psi_sq += (psi * psi).sum(axis=(0, 1))
            mu_sq += (mu * mu).sum(axis=(0, 1))
            counts += np.bincount((est + count_index).ravel(), minlength=n * h)

        if window:
            rep_psi.append(psi_sum / window)
            rep_mu.append(mu_sum / window)
        else:
            rep_psi.append(np.full((size, n), np.nan))
            rep_mu.append(np.full((size, n), np.nan))
        if config.store_traces:
            for j, (r, network) in enumerate(zip(replicates, networks)):
                seed = config.base_seed + r
                extra = {"burn_in": burn_in, "replicate": r, **law_metadata}
                traces.append(
                    Trace(
                        log_ratio=trace_psi[j],
                        estimates=trace_est[j],
                        clusters=network.clusters.copy(),
                        metadata=trace_metadata(network, profile, seed, config.strategy,
                                                config.delta, horizon, pair, config.estimator,
                                                extra),
                        mu_log_ratio=trace_mu[j],
                        observations=(symbols[:, j].T.astype(np.int64)
                                      if config.record_observations else None),
                        final_state=BeliefState(
                            log_private=ratio_log_beliefs(last_mu[j]),
                            log_public=ratio_log_beliefs(last_psi[j]),
                            iteration=horizon,
                        ),
                    )
                )

    n_ok = sum(block.shape[0] for block in rep_mu)
    if n_ok == 0:
        raise RuntimeError(f"all {config.replicates} replicates failed: {failures}")

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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "empirical_mean", "theory_value", "stderr", "z_score", "flagged"])
        for row in rows:
            writer.writerow(
                [
                    row.cluster,
                    f"{row.empirical_mean:.17g}",
                    f"{row.theory_value:.17g}",
                    f"{row.stderr:.17g}",
                    f"{row.z_score:.17g}",
                    int(row.flagged),
                ]
            )


def with_overrides(config, **overrides):
    """Copy a config with some fields replaced (CLI flag overrides)."""
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})
