"""Monte Carlo experiment runner: seeded replicates, error probabilities,
and theory-versus-simulation comparison."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import partial
from numbers import Integral, Real
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, learning
from .exceptions import AllReplicatesFailed, MalformedConfig, MismatchedConfig
from .graphs import BlockModel, Network, SbmParams, load_network, sample_sbm
from .learning import (
    check_pair,
    check_strategy,
    run,  # noqa: F401 - part of this module's namespace, which perfbench/tracing.py wraps
)
from .models import (
    LikelihoodProfile,
    bernoulli_profile,
    load_profile,
    random_multinomial_profile,
    seed_words,
)
from .writers import trace_files, write_directory, write_table

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

    ``network`` may be a BlockModel law (SbmParams is its two-community
    form), a Network, a network-file path, or a dict spec (kinds "sbm",
    "blocks", "file").  ``profile`` may be a LikelihoodProfile, a
    profile-file path, or a dict spec (kinds "bernoulli", "multinomial",
    "file").  A null ``burn_in`` defaults to
    ``ceil(5 / delta)`` for the step-size strategy and 0 otherwise.
    Construction checks the scalar field types, ``pair``, ``replicates >= 1``
    and ``0 <= burn_in <= horizon``, raising MalformedConfig naming the field,
    and stores integer and real fields as plain ``int`` and ``float``.
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
        for f in fields(self):
            kind = _FIELD_KINDS.get(f.type)
            value = getattr(self, f.name)
            if kind is not None and not (value is None and f.default is None):
                _check_field(f.name, value, kind)
                # a numpy scalar passes the check; keep the plain type JSON writes
                if kind is Integral:
                    setattr(self, f.name, int(value))
                elif kind is Real:
                    setattr(self, f.name, float(value))
        if not isinstance(self.pair, (list, tuple)) or len(self.pair) != 2:
            raise MalformedConfig(f"config field 'pair' must be two integers, got {self.pair!r}")
        for value in self.pair:
            _check_field("pair", value, Integral)
        if self.replicates < 1:
            raise MalformedConfig(f"config field 'replicates' must be at least 1, "
                                  f"got {self.replicates}")
        check_strategy(self.strategy, self.delta, self.estimator)
        if self.burn_in is None:
            self.burn_in = math.ceil(5.0 / self.delta) if self.strategy == "asl" else 0
        if self.burn_in < 0:
            raise MalformedConfig(f"config field 'burn_in' must be at least 0, got {self.burn_in}")
        if self.horizon < self.burn_in:
            raise MalformedConfig(f"config field 'horizon' must be at least burn_in "
                                  f"{self.burn_in}, got {self.horizon}")
        self.pair = (int(self.pair[0]), int(self.pair[1]))

    @classmethod
    def from_dict(cls, data, **overrides):
        """Build a config from its JSON form, with non-None ``overrides``
        applied first.  A document that is not a JSON object, a ``version``
        other than the integer 1, or an unknown or missing field, raises
        MalformedConfig naming it; the field values are checked as for any
        config."""
        if not isinstance(data, dict):
            found = _JSON_TYPES.get(type(data), type(data).__name__)
            raise MalformedConfig(f"a config must be a JSON object, got {found}")
        data = dict(data)
        version = data.pop("version", cls.SCHEMA_VERSION)
        if not _fits(version, Integral) or version != cls.SCHEMA_VERSION:
            raise MalformedConfig(f"config field 'version' must be {cls.SCHEMA_VERSION}, "
                                  f"got {version!r}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise MalformedConfig(f"unknown config field {', '.join(map(repr, unknown))}")
        for name in ("network", "profile"):
            if name not in data:
                raise MalformedConfig(f"config field {name!r} is missing")
        return cls(**data)

    @classmethod
    def from_json(cls, path, **overrides):
        with open(path) as fh:
            return cls.from_dict(json.load(fh), **overrides)

    def to_dict(self):
        def _spec(value):
            if isinstance(value, BlockModel):
                kind = "sbm" if isinstance(value, SbmParams) else "blocks"
                return {"kind": kind, **value.to_dict()}
            if isinstance(value, Network):
                return {"kind": "network", "size": value.size}
            if isinstance(value, LikelihoodProfile):
                return {"kind": "profile", "reference": value.reference}
            if isinstance(value, Path):
                return str(value)
            return _plain(value)

        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(network=_spec(self.network), profile=_spec(self.profile), pair=list(self.pair))
        return {"version": self.SCHEMA_VERSION, **data}


# the JSON values a scalar field of each annotated type takes; a field whose
# default is None also takes null
_FIELD_KINDS = {"str": str, "int": Integral, "float": Real, "bool": bool}
# a one-tuple (kind,) stands for a list of values of that kind
_KIND_NAMES = {str: "a string", Integral: "an integer", Real: "a number", bool: "true or false",
               (Integral,): "a list of integers", (Real,): "a list of numbers",
               ((Real,),): "a list of lists of numbers"}
# the JSON name of each type a parsed JSON document other than an object has
_JSON_TYPES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}
# the kind of each field of an "sbm" network spec
_SBM_KINDS = {name: Integral if name in ("n0", "n1") else Real for name in SbmParams.FIELDS}


def _plain(value):
    """A spec dict's value with numpy scalars as the plain types JSON writes."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def _fits(value, kind):
    if isinstance(kind, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, kind[0]) for v in value)
    # bool is an Integral, but true is not a replicate count
    return isinstance(value, bool) == (kind is bool) and isinstance(value, kind)


def _check_field(name, value, kind, owner="config field"):
    if not _fits(value, kind):
        raise MalformedConfig(f"{owner} {name!r} must be {_KIND_NAMES[kind]}, got {value!r}")


def _spec_values(spec, section, kinds, optional=None):
    """The values of the fields named in ``kinds`` in a network or profile
    spec dict, then those named in ``optional`` (None when missing or null),
    each checked against its kind.  A field that neither names, other than
    ``kind``, is refused."""
    fields = {**kinds, **(optional or {})}
    missing = [name for name in kinds if name not in spec]
    if missing:
        raise MalformedConfig(f"{section} spec of kind {spec['kind']!r} is missing "
                              f"{', '.join(map(repr, missing))}")
    unknown = [name for name in spec if name != "kind" and name not in fields]
    if unknown:
        raise MalformedConfig(f"{section} spec of kind {spec['kind']!r} has unknown "
                              f"field(s) {', '.join(map(repr, unknown))}")
    for name, kind in fields.items():
        if name in kinds or spec.get(name) is not None:
            _check_field(name, spec[name], kind, f"{section} spec field")
    return [spec.get(name) for name in fields]


def _resolve_network_source(spec):
    """Return either a sampling law (a BlockModel) or a fixed Network."""
    if isinstance(spec, (BlockModel, Network)):
        return spec
    if isinstance(spec, (str, Path)):
        return load_network(spec)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "sbm":
            return SbmParams(*_spec_values(spec, "network", _SBM_KINDS))
        if kind == "blocks":
            sizes, probs = _spec_values(spec, "network", {"sizes": (Integral,),
                                                          "probs": ((Real,),)})
            return BlockModel(sizes=tuple(sizes), probs=np.asarray(probs))
        if kind == "file":
            return load_network(*_spec_values(spec, "network", {"path": str}))
        raise MalformedConfig(f"unknown network spec kind {kind!r}")
    raise MalformedConfig(f"cannot interpret network spec of type {type(spec).__name__}")


def _resolve_profile(spec, clusters):
    if isinstance(spec, LikelihoodProfile):
        return spec
    if isinstance(spec, (str, Path)):
        return load_profile(spec)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "bernoulli":
            return bernoulli_profile(clusters,
                                     *_spec_values(spec, "profile", {"success_probs": (Real,)}))
        if kind == "multinomial":
            alphabet, seed, n_hypotheses = _spec_values(
                spec, "profile", {"alphabet": Integral, "seed": Integral},
                optional={"n_hypotheses": Integral})
            return random_multinomial_profile(clusters, alphabet_size=alphabet, seed=seed,
                                              n_hypotheses=n_hypotheses)
        if kind == "file":
            return load_profile(*_spec_values(spec, "profile", {"path": str}))
        raise MalformedConfig(f"unknown profile spec kind {kind!r}")
    raise MalformedConfig(f"cannot interpret profile spec of type {type(spec).__name__}")


def resolve_inputs(config):
    """The network source, cluster labels and likelihood profile of a config.

    The source is a fixed Network (a network file or object, or with
    ``fixed_graph`` the law's draw at ``base_seed``), or the BlockModel law
    each replicate draws its own graph from.
    """
    source = _resolve_network_source(config.network)
    if config.fixed_graph and not isinstance(source, Network):
        source = sample_sbm(source, seed=config.base_seed)
    clusters = source.clusters if isinstance(source, Network) else source.labels()
    profile = _resolve_profile(config.profile, clusters)
    if profile.n_agents != clusters.size:
        raise ValueError(f"the network has {clusters.size} agents, "
                         f"the profile {profile.n_agents}")
    check_pair(config.pair, profile.n_hypotheses)
    return source, clusters, profile


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
    traces: list = field(default_factory=list, repr=False)
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
        """Write the run's files and a ``manifest.json`` listing them; returns
        the names of the files written, apart from the manifest."""
        files = [
            ("summary.json", json.dumps(self.summary_dict(), indent=2, sort_keys=True)),
            ("error_report.csv", self.error_report.to_csv),
            ("iteration_stats.csv", lambda path: write_table(
                path, ["iter", "agent", "mean_log_ratio", "std_log_ratio"],
                [*np.indices(self.iter_mean.shape).reshape(2, -1), self.iter_mean.ravel(),
                 self.iter_std.ravel()])),
            *trace_files(self.traces),
        ]
        if comparison is not None:
            files.append(("theory_comparison.csv", partial(_write_comparison_csv, rows=comparison)))
        return write_directory(out_dir, "simulate", files)


# Replicates stepped together by one recursion.  Blocks are reduced in
# replicate order, so equal seeds give bitwise-equal aggregates.
BLOCK_SIZE = 64

# the smallest integer dtype that counts the iterations of one chunk
_CHUNK_COUNT = np.min_scalar_type(learning.STEPS_PER_CHUNK)


def _chunk_sums(n_agents):
    """Two functions that sum a ``(K, B, N)`` chunk over its replicates, to
    ``(K, N)``, and over its iterations and replicates, to ``(N,)``.

    Their results are bitwise those of ``sum(axis=1)`` and
    ``sum(axis=(0, 1))``.  Over axes that are not the innermost, ``sum`` and
    ``einsum`` both add in order, and ``einsum`` is faster.  With one agent
    those axes are contiguous and ``sum`` adds pairwise, so that case keeps
    ``sum``.
    """
    if n_agents == 1:
        return partial(np.sum, axis=1), partial(np.sum, axis=(0, 1))
    return partial(np.einsum, "kbn->kn"), partial(np.einsum, "kbn->n")


def _draw_block(indices, source, profile, config):
    """Graphs and observation symbols of one block of replicates.

    Returns ``(kept, block, symbols, failures)``: the positions in
    ``indices`` of the replicates whose inputs could be drawn, the law's
    NetworkBlock for the whole block (None for a fixed Network), the kept
    replicates' symbols as one ``(B, N, horizon)`` array, and a record of
    each replicate that failed.  The graphs are drawn in one ``sample_sbm``
    call; the symbols of every replicate that got one are then drawn in one
    ``observation_matrix`` call.
    """
    seeds = [config.base_seed + r for r in indices]
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
            failures.append({"replicate": indices[i], "error": f"{type(exc).__name__}: {exc}"})
    symbols = learning.observation_matrix(profile, config.horizon, [seeds[i] for i in kept])
    return kept, block, symbols, failures


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
    sum_replicates, sum_samples = _chunk_sums(n)

    iter_sum = np.zeros((horizon + 1, n))
    iter_sq = np.zeros((horizon + 1, n))
    counts = np.zeros((n, h), dtype=np.int64)
    psi_sq = np.zeros(n)
    mu_sq = np.zeros(n)
    rep_psi, rep_mu, traces, failures = [], [], [], []

    for first in range(0, config.replicates, BLOCK_SIZE):
        indices = range(first, min(first + BLOCK_SIZE, config.replicates))
        kept, block, symbols, block_failures = _draw_block(indices, source, profile, config)
        failures += block_failures
        if not kept:
            continue
        if block is None:
            combination_t = fixed_t
        else:
            kept_combination = (block.combination if len(kept) == len(indices)
                                else block.combination[kept])
            # the transposed view, not a contiguous copy: the stacked matmul's
            # BLAS path, and so its last bits, follow the strides
            combination_t = kept_combination.transpose(0, 2, 1)
        size = len(kept)
        psi_sum = np.zeros((size, n))
        mu_sum = np.zeros((size, n))
        # how often each hypothesis h >= 1 is the estimate in the window, per
        # (replicate, agent); hypothesis 0 takes the rest of the window
        hits = np.zeros((h - 1, size, n), dtype=np.int64)

        def reduce_chunk(start, psi, mu, est):
            nonlocal psi_sq, mu_sq, psi_sum, mu_sum
            sq = psi * psi
            rows = slice(start + 1, start + 1 + psi.shape[0])
            iter_sum[rows] += sum_replicates(psi)
            iter_sq[rows] += sum_replicates(sq)
            # steady-state window: iterations burn_in + 1 .. horizon; a chunk
            # that ends before it comes with mu and est None
            first_in = max(burn_in - start, 0)
            if first_in >= psi.shape[0]:
                return
            mu, est = mu[first_in:], est[first_in:]
            psi_sum += psi[first_in:].sum(axis=0)
            mu_sum += mu.sum(axis=0)
            psi_sq += sum_samples(sq[first_in:])
            mu_sq += sum_samples(mu * mu)
            for hyp in range(1, h):
                hits[hyp - 1] += (est == hyp).sum(axis=0, dtype=_CHUNK_COUNT)

        record = None
        if config.store_traces:
            record = [(source if block is None else block.network(i), config.base_seed + indices[i],
                       {"burn_in": burn_in, "replicate": indices[i], **law_metadata})
                      for i in kept]
        traces += learning.simulate_block(
            combination_t, profile, symbols, config.strategy, config.delta, config.pair,
            config.estimator, on_chunk=reduce_chunk, record=record,
            record_observations=config.record_observations, burn_in=burn_in,
        )
        block_hits = hits.sum(axis=1)  # (H-1, N)
        counts[:, 1:] += block_hits.T
        counts[:, 0] += size * window - block_hits.sum(axis=0)
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
        counts=counts,
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


def _write_comparison_csv(path, rows):
    write_table(path, ComparisonRow._fields,
                [np.array([getattr(row, name) for row in rows]) for name in ComparisonRow._fields])
