"""Monte Carlo experiment runner: seeded replicates, error probabilities,
and theory-versus-simulation comparison.  ``blocklearn.config`` parses the
configs and resolves their networks and profiles."""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, learning
from .config import ExperimentConfig, resolve_inputs
from .exceptions import AllReplicatesFailed, MalformedConfig, MismatchedConfig, check_memory
from .graphs import Network, sample_sbm
from .learning import (
    run,  # noqa: F401 - part of this module's namespace, which perfbench/tracing.py wraps
)
from .models import LikelihoodProfile, seed_words
from .writers import (ROWS_PER_WRITE, TRACE_NAME, TraceWriter, iteration_prefix, remove_outputs,
                      text_column, write_directory, write_rows, write_table)

__all__ = [
    "ErrorReport",
    "ExperimentResult",
    "run_experiment",
    "compare_theory",
    "ComparisonRow",
]


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
        return {int(c): float(p[self.clusters == c].mean())
                for c in sorted(set(self.clusters.tolist()))}

    def to_csv(self, path):
        write_table(path, ["agent", "cluster", "p_err", "stderr"],
                    [np.arange(self.counts.shape[0]), self.clusters, self.p_err, self.stderr])


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
    # the names of the trace files written into config.out_dir during the run
    streamed: list = field(default_factory=list, repr=False)
    # the Network every replicate used (fixed graph or network file), or the
    # BlockModel law each replicate drew its own graph from
    network: object = field(default=None, repr=False)
    profile: LikelihoodProfile = field(default=None, repr=False)

    @property
    def n_ok(self):
        return self.rep_means_mu.shape[0]

    def cluster_statistics(self, series="mu"):
        """Per-cluster steady-state mean, standard error (over replicates),
        and pooled variance of the chosen log-ratio series, ``"mu"`` or
        ``"psi"``."""
        if series not in ("mu", "psi"):
            raise ValueError(f"series must be 'mu' or 'psi', got {series!r}")
        rep = getattr(self, f"rep_means_{series}")
        pooled = getattr(self, f"pooled_var_{series}")
        stats = {}
        for c in sorted(set(self.clusters.tolist())):
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
        """Write the run's files and a ``manifest.json`` listing them, in place
        of an earlier ``simulate``'s; returns the names of the files written,
        apart from the manifest.  Streamed traces are listed, so any
        ``out_dir`` but theirs raises ValueError."""
        if not self.streamed:
            remove_outputs(out_dir, "simulate")
        elif Path(out_dir).resolve() != Path(self.config.out_dir).resolve():
            raise ValueError(f"this run's traces are in {self.config.out_dir}, not {out_dir}")
        files = [
            ("summary.json", json.dumps(_nulled(self.summary_dict()), indent=2, sort_keys=True)),
            ("error_report.csv", self.error_report.to_csv),
            ("iteration_stats.csv",
             partial(_write_iteration_stats, mean=self.iter_mean, std=self.iter_std)),
            *[(name, None) for name in self.streamed],
        ]
        if comparison is not None:
            files.append(("theory_comparison.csv", partial(_write_comparison_csv, rows=comparison)))
        return write_directory(out_dir, "simulate", files)


def _nulled(value):
    """``value`` with each NaN or infinite float made None, which JSON writes
    as null: bare NaN is not JSON."""
    if isinstance(value, dict):
        return {key: _nulled(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulled(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


# Replicates stepped together by one recursion.  Blocks are reduced in
# replicate order, so equal seeds give bitwise-equal aggregates.
BLOCK_SIZE = 64

# the smallest integer dtype that counts the iterations of one chunk
_CHUNK_COUNT = np.min_scalar_type(learning.STEPS_PER_CHUNK)


def _chunk_sums(n_agents):
    """Three functions that sum a ``(K, B, N)`` chunk ``x``: ``x`` and
    ``x * x`` over the replicates, to ``(K, N)``, and ``x * x`` over the
    iterations and replicates, to ``(N,)``.

    Their results are bitwise those of ``sum(axis=1)`` and
    ``sum(axis=(0, 1))``.  Over axes that are not the innermost, ``sum`` and
    ``einsum`` both add in order, and ``einsum`` is faster; its two-operand
    form squares as it adds, with no array of squares.  With one agent those
    axes are contiguous and ``sum`` adds pairwise, so that case keeps
    ``sum``.
    """
    if n_agents == 1:
        return (partial(np.sum, axis=1), lambda x: np.sum(x * x, axis=1),
                lambda x: np.sum(x * x, axis=(0, 1)))
    return (partial(np.einsum, "kbn->kn"), lambda x: np.einsum("kbn,kbn->kn", x, x),
            lambda x: np.einsum("kbn,kbn->n", x, x))


def _run_block(first, stop, source, clusters, profile, config, n_ok, totals):
    """Draw, step, write and reduce replicates ``first .. stop - 1``.

    One ``sample_sbm`` and one ``observation_matrix`` call draw the block;
    ``learning.simulate_block`` steps the kept replicates, and each chunk it
    yields is written (with ``store_traces``, to traces numbered from
    ``n_ok``) and reduced before the next is built.  ``totals`` holds the
    run's running sums: iteration sums and squares, window squares and
    estimate counts; None until a block makes them.  Returns ``(failures,
    sums, names, totals)``, ``sums`` being the kept replicates' ``(2, B, N)``
    window sums of psi and mu.
    """
    seeds = [config.base_seed + r for r in range(first, stop)]
    # sample_sbm and learning.observation_matrix are looked up at call time,
    # so they can be wrapped
    block = None if isinstance(source, Network) else sample_sbm(source, seeds)
    kept, failures = [], []
    for i, seed in enumerate(seeds):
        exc = None if block is None else block.failures.get(i)
        if exc is None:
            try:
                seed_words(seed)  # a seed the streams cannot take fails this replicate only
            except ValueError as error:
                exc = error
        if exc is None:
            kept.append(i)
        else:
            failures.append({"replicate": first + i, "error": f"{type(exc).__name__}: {exc}"})
    horizon, burn_in = config.horizon, config.burn_in
    symbols = learning.observation_matrix(profile, horizon, [seeds[i] for i in kept])
    n, h, size = profile.n_agents, profile.n_hypotheses, len(kept)
    if not size:
        return failures, np.zeros((2, 0, n)), [], totals
    if totals is None:
        # made once the first draw has freed its buffers
        totals = (*np.zeros((2, horizon + 1, n)), np.zeros(n), np.zeros(n),
                  np.zeros((n, h), dtype=np.int64))
    iter_sum, iter_sq, psi_sq, mu_sq, counts = totals
    if block is None:
        combination_t = np.ascontiguousarray(source.combination.T)
    else:
        kept_combination = block.combination if size == len(seeds) else block.combination[kept]
        # the transposed view, not a contiguous copy: the stacked matmul's
        # BLAS path, and so its last bits, follow the strides
        combination_t = kept_combination.transpose(0, 2, 1)
    sum_replicates, square_replicates, square_samples = _chunk_sums(n)
    sums = np.zeros((2, size, n))
    psi_sum, mu_sum = sums
    # how often each hypothesis h >= 1 is the estimate in the window, per
    # (replicate, agent); hypothesis 0 takes the rest of the window
    hits = np.zeros((h - 1, size, n), dtype=np.int64)

    stream = Path(config.out_dir) if config.store_traces else None
    record = TraceWriter([stream / TRACE_NAME.format(n_ok + j) for j in range(size)],
                         clusters, h, symbols if config.record_observations else None
                         ) if stream else None
    names = []
    # a chunk that fails closes the writer's files too
    with record or nullcontext():
        # the writer needs the estimates of every chunk
        chunks = learning.simulate_block(combination_t, profile, symbols, config.strategy,
                                         config.delta, config.pair, config.estimator,
                                         burn_in=0 if stream else burn_in)
        for start, psi, mu, est in chunks:
            if record:
                record(start, psi, mu, est)
            rows = slice(start + 1, start + 1 + psi.shape[0])
            iter_sum[rows] += sum_replicates(psi)
            iter_sq[rows] += square_replicates(psi)
            # steady-state window: iterations burn_in + 1 .. horizon; a chunk
            # that ends before it may come with mu and est None
            first_in = max(burn_in - start, 0)
            if first_in < psi.shape[0]:
                psi, mu, est = psi[first_in:], mu[first_in:], est[first_in:]
                psi_sum += psi.sum(axis=0)
                mu_sum += mu.sum(axis=0)
                psi_sq += square_samples(psi)
                mu_sq += square_samples(mu)
                for hyp in range(1, h):
                    hits[hyp - 1] += (est == hyp).sum(axis=0, dtype=_CHUNK_COUNT)
            # the generator builds the next chunk while these names hold this one
            del psi, mu, est
        if stream:
            law = {} if block is None else {"sbm_params": source.to_dict()}
            names = record.close([learning.trace_metadata(
                clusters, source.retries if block is None else block.redraws[i], profile,
                config.base_seed + first + i, config.strategy, config.delta, horizon, config.pair,
                config.estimator, {"burn_in": burn_in, "replicate": first + i, **law})
                for i in kept])
    block_hits = hits.sum(axis=1)  # (H-1, N)
    counts[:, 1:] += block_hits.T
    counts[:, 0] += size * (horizon - burn_in) - block_hits.sum(axis=0)
    return failures, sums, names, totals


def run_experiment(config):
    """Execute all replicates of an experiment and aggregate the results.

    Replicate r uses seed ``base_seed + r`` for both its graph draw (unless
    the graph is fixed) and its observation streams.  Replicates run in
    blocks of ``BLOCK_SIZE`` through ``_run_block``, which draws, steps,
    writes and reduces one block, and the blocks fold in replicate order;
    ``store_traces`` without an ``out_dir`` raises MalformedConfig before
    any graph is drawn.
    Failed replicates are recorded and skipped.
    """
    if config.store_traces and not config.out_dir:
        raise MalformedConfig("config field 'store_traces' needs an 'out_dir' to write the "
                              "traces into")
    source, clusters, profile = resolve_inputs(config)
    # a block's graph draws (for a law), its (B, N, T) symbols and the
    # (T + 1, N) iteration sums and squares
    size = min(BLOCK_SIZE, config.replicates)
    graphs = 0 if isinstance(source, Network) else source.draw_bytes(size)
    cells = size * profile.n_agents * config.horizon
    check_memory(graphs + cells * np.min_scalar_type(profile.alphabet_size - 1).itemsize
                 + 2 * (config.horizon + 1) * profile.n_agents * 8, MalformedConfig,
                 f"config fields 'network' ({profile.n_agents} agents) and 'horizon' = "
                 f"{config.horizon}: a block's graphs, symbols and iteration sums")
    if config.store_traces:
        # an earlier simulate's files go first, and write_outputs writes the
        # manifest last: a directory without one holds an unfinished run
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        remove_outputs(config.out_dir, "simulate")

    totals = None
    sums, streamed, failures = [], [], []
    n_ok = 0  # replicates run so far: the number of the next trace, when stored
    for first in range(0, config.replicates, BLOCK_SIZE):
        block_failures, block_sums, names, totals = _run_block(
            first, min(first + BLOCK_SIZE, config.replicates), source, clusters, profile,
            config, n_ok, totals)
        failures += block_failures
        sums.append(block_sums)
        streamed += names
        n_ok += block_sums.shape[1]
    if n_ok == 0:
        raise AllReplicatesFailed(f"all {config.replicates} replicates failed: {failures}")

    iter_sum, iter_sq, psi_sq, mu_sq, counts = totals
    window = config.horizon - config.burn_in
    samples = window * n_ok
    # an empty window divides its zero sums to NaN
    sums = np.concatenate(sums, axis=1)
    sums /= window or np.nan
    rep_psi, rep_mu = sums
    # in place: the (horizon + 1, N) sums are the largest arrays left
    iter_mean = np.divide(iter_sum, n_ok, out=iter_sum)
    iter_std = np.divide(iter_sq, n_ok, out=iter_sq)
    iter_std -= iter_mean**2
    np.sqrt(np.clip(iter_std, 0.0, None, out=iter_std), out=iter_std)
    pooled_var_psi = psi_sq / (samples or np.nan) - rep_psi.mean(axis=0) ** 2
    pooled_var_mu = mu_sq / (samples or np.nan) - rep_mu.mean(axis=0) ** 2

    return ExperimentResult(
        config=config,
        clusters=clusters,
        true_state=profile.true_state,
        error_report=ErrorReport(counts, clusters, profile.true_state, samples),
        iter_mean=iter_mean,
        iter_std=iter_std,
        rep_means_psi=rep_psi,
        rep_means_mu=rep_mu,
        pooled_var_psi=np.clip(pooled_var_psi, 0.0, None),
        pooled_var_mu=np.clip(pooled_var_mu, 0.0, None),
        failures=failures,
        streamed=streamed,
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


def compare_theory(result, prediction):
    """Compare per-cluster empirical steady-state means of the private
    log-ratio against a prediction.

    Returns one row per cluster with the z-score of the empirical mean
    (standard error taken across replicates); rows with |z| > 3 are flagged.
    With fewer than two replicates, or no steady-state samples (``burn_in ==
    horizon``), the standard error is NaN and there is nothing to test: the
    z-score is NaN and the row is not flagged.  A zero standard error gives
    an infinite z-score when the means differ, and zero when they agree.

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
    stats = result.cluster_statistics("mu")
    rows = []
    for c, stat in stats.items():
        theory = float(prediction.values[result.clusters == c].mean())
        se, gap = stat["stderr"], stat["mean"] - theory
        if math.isnan(se) or math.isnan(gap):
            z = float("nan")
        elif se > 0.0:
            z = gap / se
        else:
            z = float("inf") if gap else 0.0
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


def _write_iteration_stats(path, mean, std):
    """Write ``iteration_stats.csv`` a window of ``ROWS_PER_WRITE`` rows (or
    one iteration) at a time."""
    agents = text_column([str(k) for k in range(mean.shape[1])])
    step = max(ROWS_PER_WRITE // len(agents), 1)
    with open(path, "wb") as fh:
        fh.write(b"iter,agent,mean_log_ratio,std_log_ratio\r\n")
        for first in range(0, len(mean), step):
            rows = slice(first, first + step)
            write_rows(fh, [iteration_prefix(first, min(first + step, len(mean)), agents),
                            mean[rows].ravel(), std[rows].ravel()])


def _write_comparison_csv(path, rows):
    write_table(path, ComparisonRow._fields,
                [np.array([getattr(row, name) for row in rows]) for name in ComparisonRow._fields])
