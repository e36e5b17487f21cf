"""Social-learning recursions in the log domain.

One iteration is an update step (full Bayesian or step-size-discounted) that
turns private beliefs into public beliefs, followed by geometric averaging of
neighbors' public beliefs through the combination matrix.

``bayesian_update``, ``asl_update`` and ``geometric_combine`` keep beliefs as
per-agent rows of log-probabilities, renormalized by log-sum-exp.  The
simulator steps an equivalent recursion instead: under geometric averaging the
log-ratios of the beliefs against hypothesis 0 evolve linearly and need no
normalization (Bordignon, Matta & Sayed, "Adaptive Social Learning", IEEE
Trans. Inf. Theory 67(9), 2021)::

    x_psi = w_like * l + w_prior * x_mu,        x_mu = A^T x_psi

where ``l`` holds the log-likelihood ratios of the observed symbols against
hypothesis 0.  ``log_ratio_chunks`` steps a block of replicates at once and
``simulate_block`` drives it for every caller; the log-domain functions are
its oracle in ``blocklearn verify``.
"""

from __future__ import annotations

import json
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .exceptions import DeltaOutOfRange, WindowTooLarge
from .models import observation_matrix

__all__ = [
    "BeliefState",
    "Trace",
    "check_strategy",
    "log_normalize",
    "bayesian_update",
    "asl_update",
    "geometric_combine",
    "estimate_state",
    "llr_table",
    "log_ratio_chunks",
    "pair_ratio",
    "ratio_estimates",
    "ratio_log_beliefs",
    "run",
    "simulate_block",
    "windowed_mean_log_ratio",
]


def log_normalize(log_values):
    """Shift each row so it exponentiates to a probability vector."""
    log_values = np.asarray(log_values, dtype=float)
    peak = log_values.max(axis=-1, keepdims=True)
    norm = peak + np.log(np.exp(log_values - peak).sum(axis=-1, keepdims=True))
    return log_values - norm


@dataclass
class BeliefState:
    """Log-domain private (post-combination) and public (post-update) beliefs."""

    log_private: np.ndarray
    log_public: np.ndarray = None
    iteration: int = 0

    @classmethod
    def uniform(cls, n_agents, n_hypotheses):
        return cls(log_private=np.full((n_agents, n_hypotheses), -np.log(n_hypotheses)))


def _gather_log_likelihoods(profile, observations):
    idx = np.arange(profile.n_agents)
    return profile.log_likelihoods[idx, :, np.asarray(observations, dtype=int)]


def bayesian_update(state, observations, profile):
    """Full Bayesian update: public belief proportional to likelihood times prior.

    Returns the new public log-beliefs; the caller decides what to do with
    the state.
    """
    log_like = _gather_log_likelihoods(profile, observations)
    return log_normalize(log_like + state.log_private)


def asl_update(state, observations, profile, delta):
    """Step-size update: likelihood tempered by ``delta``, prior by ``1 - delta``.

    The step size discounts history, which lets the recursion track changes
    instead of hardening around early evidence.
    """
    if not 0.0 < delta < 1.0:
        raise DeltaOutOfRange(f"delta must be in (0, 1), got {delta}")
    log_like = _gather_log_likelihoods(profile, observations)
    return log_normalize(delta * log_like + (1.0 - delta) * state.log_private)


def geometric_combine(log_public, combination):
    """Geometric averaging of neighbors' public beliefs.

    Agent k's private belief is proportional to the product of its neighbors'
    public beliefs raised to the trust weights, i.e. the combination matrix
    transposed acting on the log-beliefs, renormalized per agent.
    """
    return log_normalize(np.asarray(combination).T @ np.asarray(log_public))


def estimate_state(log_beliefs):
    """Per-agent argmax hypothesis; ties go to the lowest index."""
    return np.argmax(log_beliefs, axis=-1)


@dataclass
class Trace:
    """Time-indexed record of one seeded run.

    Row 0 holds the initial (uniform) private beliefs; row i >= 1 holds
    iteration i.  ``log_ratio`` is the public-belief log-ratio for the
    configured hypothesis pair (the initial row uses the private beliefs,
    since no public belief exists before the first update).
    """

    log_ratio: np.ndarray
    estimates: np.ndarray
    clusters: np.ndarray
    metadata: dict
    mu_log_ratio: np.ndarray = None
    observations: np.ndarray = None
    final_state: BeliefState = field(default=None, repr=False)

    @property
    def horizon(self):
        return self.log_ratio.shape[0] - 1

    @property
    def n_agents(self):
        return self.log_ratio.shape[1]

    def to_csv(self, path, sidecar=True):
        """Write rows ``iter, agent, cluster, log_ratio, estimate[, obs]`` and
        a JSON metadata sidecar next to the CSV.

        Rows are formatted ``ROWS_PER_WRITE`` at a time, in the text a
        ``csv.writer`` row loop gives (``%.17g`` log-ratios, CRLF endings).
        """
        n, steps = self.n_agents, self.horizon + 1
        columns = [
            np.repeat(np.arange(steps), n),
            np.tile(np.arange(n), steps),
            np.tile(np.asarray(self.clusters, dtype=np.int64), steps),
            self.log_ratio.ravel(),
            self.estimates.ravel(),
        ]
        header = "iter,agent,cluster,log_ratio,estimate"
        row = "%d,%d,%d,%.17g,%d"
        if self.observations is not None:
            obs = np.empty((steps, n), dtype=object)
            obs[0] = ""  # no observation before the first update
            obs[1:] = self.observations.T
            columns.append(obs.ravel())
            header += ",obs"
            row += ",%s"
        with open(path, "w", newline="") as fh:
            fh.write(header + "\r\n")
            write_rows(fh, row + "\r\n", columns)
        if sidecar:
            with open(str(path) + ".meta.json", "w") as fh:
                json.dump(self.metadata, fh, indent=2, default=str)


ROWS_PER_WRITE = 4096


def write_rows(fh, row_format, columns):
    """Write equal-length columns as text rows, ``ROWS_PER_WRITE`` at a time.

    ``row_format`` is a %-format for one row; it is applied to many rows by
    a single string operation, which is what keeps large CSVs cheap.
    """
    total = len(columns[0])
    for start in range(0, total, ROWS_PER_WRITE):
        part = [col[start : start + ROWS_PER_WRITE].tolist() for col in columns]
        fh.write((row_format * len(part[0])) % tuple(chain.from_iterable(zip(*part))))


# -- the log-ratio engine ------------------------------------------------------

# Iterations handed to the caller at once: callers reduce or record a chunk
# with a few array operations instead of a few per iteration.
STEPS_PER_CHUNK = 16


def llr_table(profile):
    """``(N, m, H-1)`` log-likelihood ratios of every symbol against hypothesis 0."""
    log_like = profile.log_likelihoods
    return np.ascontiguousarray(np.moveaxis(log_like[:, 1:] - log_like[:, :1], 1, 2))


def log_ratio_chunks(combination_t, table, symbols, w_like, w_prior):
    """Step the normalization-free log-ratio recursion for a block of replicates.

    Parameters
    ----------
    combination_t : ndarray, shape (N, N) or (B, N, N)
        Transposed combination matrix shared by every replicate, or one per
        replicate.
    table : ndarray, shape (N, m, H-1)
        Log-likelihood ratios from ``llr_table``.
    symbols : ndarray, shape (T, B, N)
        Observed symbols of each replicate, one row per iteration (any
        integer dtype; a transposed view of ``observation_matrix``'s
        ``(B, N, T)`` block is fine).
    w_like, w_prior : float
        Weights of the likelihood and of the prior: ``(delta, 1 - delta)``
        for the step-size update, ``(1, 1)`` for the Bayesian one.

    Yields
    ------
    (start, x_psi, x_mu)
        Public and private log-ratios against hypothesis 0, each of shape
        ``(K, B, N, H-1)``, for iterations ``start + 1 .. start + K``.  The
        recursion starts from uniform beliefs (all log-ratios zero).  The
        arrays are overwritten by the next chunk.
    """
    horizon, n_reps, n = symbols.shape
    alphabet, n_ratios = table.shape[1:]
    weighted = (table * w_like).reshape(n * alphabet, n_ratios)
    offsets = np.arange(n) * alphabet
    x_psi = np.empty((min(STEPS_PER_CHUNK, horizon), n_reps, n, n_ratios))
    x_mu = np.empty_like(x_psi)
    prev_mu = np.zeros((n_reps, n, n_ratios))
    for start in range(0, horizon, STEPS_PER_CHUNK):
        size = min(STEPS_PER_CHUNK, horizon - start)
        # w_like * l for the whole chunk, in one gather
        like = weighted.take(offsets + symbols[start : start + size], axis=0)
        for i in range(size):
            psi = x_psi[i]
            np.multiply(prev_mu, w_prior, out=psi)
            psi += like[i]
            prev_mu = np.matmul(combination_t, psi, out=x_mu[i])
        yield start, x_psi[:size], x_mu[:size]


def pair_ratio(x, pair):
    """``log(belief_a / belief_b)`` from log-ratios against hypothesis 0
    (the last axis of ``x``)."""
    a, b = pair
    ratio = np.zeros(x.shape[:-1])
    if a:
        ratio += x[..., a - 1]
    if b:
        ratio -= x[..., b - 1]
    return ratio


def ratio_estimates(x):
    """Argmax hypothesis from log-ratios against hypothesis 0; ties go to the
    lowest index, as in ``estimate_state``."""
    estimates = np.zeros(x.shape[:-1], dtype=np.int64)
    best = np.zeros(x.shape[:-1])  # hypothesis 0
    for h in range(x.shape[-1]):
        ratio = x[..., h]
        estimates[ratio > best] = h + 1
        np.maximum(best, ratio, out=best)
    return estimates


def ratio_log_beliefs(x):
    """Normalized log-beliefs ``log_normalize([0, x])`` from log-ratios."""
    return log_normalize(np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1))


def trace_metadata(network, profile, seed, strategy, delta, horizon, pair, estimator, extra=None):
    """Metadata a trace records about the run that produced it."""
    metadata = {
        "seed": int(seed),
        "strategy": strategy,
        "delta": delta,
        "horizon": int(horizon),
        "pair": [int(pair[0]), int(pair[1])],
        "estimator": estimator,
        "n_agents": int(profile.n_agents),
        "cluster_sizes": np.bincount(network.clusters).tolist(),
        "network_retries": int(network.retries),
        "profile": profile.reference,
        "version": __version__,
    }
    if extra:
        metadata.update(extra)
    return metadata


def check_strategy(strategy, delta, estimator):
    """Reject an unknown strategy or estimator, and a step size outside
    (0, 1) for the step-size strategy."""
    if strategy not in ("asl", "traditional"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "asl" and (delta is None or not 0.0 < delta < 1.0):
        raise DeltaOutOfRange(f"asl strategy needs delta in (0, 1), got {delta}")
    if estimator not in ("mu", "psi"):
        raise ValueError(f"estimator must be 'mu' or 'psi', got {estimator!r}")


def simulate_block(combination_t, profile, symbols, strategy, delta, pair, estimator,
                   on_chunk=None, record=None, record_observations=False):
    """Step a block of replicates through the log-ratio recursion.

    Every simulation goes through here: ``run`` is its one-replicate case,
    and ``harness.run_experiment`` calls it once per block of replicates.

    Parameters
    ----------
    combination_t : ndarray, shape (N, N) or (B, N, N)
        Transposed combination matrix shared by every replicate, or one per
        replicate.
    profile : LikelihoodProfile
    symbols : ndarray, shape (B, N, T)
        Observed symbols of each replicate, as ``observation_matrix`` draws
        them for B seeds.
    strategy, delta, pair, estimator
        As in ``run``; ``check_strategy`` has accepted them.
    on_chunk : callable, optional
        Called as ``on_chunk(start, psi, mu, est)`` for iterations
        ``start + 1 .. start + K``: the public and private log-ratios of
        ``pair`` and the state estimates, each of shape ``(K, B, N)``.
    record : sequence of (network, seed, extra), optional
        One entry per replicate: its network, its seed and the metadata its
        trace adds to ``trace_metadata``.  When given, the series of every
        replicate are recorded and returned as traces.
    record_observations : bool
        Whether the recorded traces keep their symbols.

    Returns
    -------
    list of Trace
        One per replicate when ``record`` is given, else empty.
    """
    n_reps, n, horizon = symbols.shape
    w_like, w_prior = (delta, 1.0 - delta) if strategy == "asl" else (1.0, 1.0)
    if record is not None:
        # iteration 0 is the uniform initial state: log-ratios zero, estimate 0
        trace_psi = np.zeros((n_reps, horizon + 1, n))
        trace_mu = np.zeros((n_reps, horizon + 1, n))
        trace_est = np.zeros((n_reps, horizon + 1, n), dtype=np.int64)
    # the last iteration's log-ratios; with no iterations, the initial state
    x_psi = x_mu = np.zeros((1, n_reps, n, profile.n_hypotheses - 1))
    chunks = log_ratio_chunks(combination_t, llr_table(profile), symbols.transpose(2, 0, 1),
                              w_like, w_prior)
    for start, x_psi, x_mu in chunks:
        psi = pair_ratio(x_psi, pair)  # (K, B, N)
        mu = pair_ratio(x_mu, pair)
        est = ratio_estimates(x_mu if estimator == "mu" else x_psi)
        if record is not None:
            rows = slice(start + 1, start + 1 + psi.shape[0])
            trace_psi[:, rows] = psi.transpose(1, 0, 2)
            trace_mu[:, rows] = mu.transpose(1, 0, 2)
            trace_est[:, rows] = est.transpose(1, 0, 2)
        if on_chunk is not None:
            on_chunk(start, psi, mu, est)
    if record is None:
        return []
    return [
        Trace(
            log_ratio=trace_psi[j],
            estimates=trace_est[j],
            clusters=network.clusters.copy(),
            metadata=trace_metadata(network, profile, seed, strategy, delta, horizon, pair,
                                    estimator, extra),
            mu_log_ratio=trace_mu[j],
            observations=symbols[j].astype(np.int64) if record_observations else None,
            final_state=BeliefState(
                log_private=ratio_log_beliefs(x_mu[-1, j]),
                log_public=ratio_log_beliefs(x_psi[-1, j]),
                iteration=horizon,
            ),
        )
        for j, (network, seed, extra) in enumerate(record)
    ]


def run(
    network,
    profile,
    strategy="asl",
    delta=None,
    horizon=100,
    seed=0,
    pair=(0, 1),
    estimator="mu",
    record_observations=False,
):
    """Run one seeded social-learning trajectory: ``simulate_block`` for a
    block of one replicate.

    Parameters
    ----------
    network : Network
    profile : LikelihoodProfile
    strategy : {"asl", "traditional"}
        Update rule applied before each combination step.
    delta : float
        Step size in (0, 1); required for the "asl" strategy.
    horizon : int
        Number of iterations after the initial state.
    seed : int
        Drives the per-agent observation substreams; equal seeds give
        bitwise-identical traces.
    pair : (int, int)
        Hypothesis pair (a, b) whose log-ratio log(psi_a / psi_b) is recorded.
    estimator : {"mu", "psi"}
        Whether state estimates argmax the private or the public beliefs.
    record_observations : bool
        Whether the trace keeps the observed symbols.
    """
    if network.size != profile.n_agents:
        raise ValueError("network and profile disagree on the number of agents")
    check_strategy(strategy, delta, estimator)
    (trace,) = simulate_block(
        np.ascontiguousarray(network.combination.T),
        profile,
        observation_matrix(profile, horizon, [seed]),
        strategy,
        delta,
        pair,
        estimator,
        record=[(network, seed, None)],
        record_observations=record_observations,
    )
    return trace


def windowed_mean_log_ratio(trace, window):
    """Trailing mean of the recorded log-ratios over ``window`` entries.

    Positions with fewer than ``window`` trailing entries are NaN.  Accepts a
    Trace or a bare array (time along the first axis).
    """
    series = np.asarray(getattr(trace, "log_ratio", trace), dtype=float)
    length = series.shape[0]
    if window < 1:
        raise ValueError("window must be at least 1")
    if window > length:
        raise WindowTooLarge(f"window {window} exceeds series length {length}")
    flat = series.reshape(length, -1)
    csum = np.vstack([np.zeros((1, flat.shape[1])), np.cumsum(flat, axis=0)])
    out = np.full_like(flat, np.nan)
    out[window - 1 :] = (csum[window:] - csum[:-window]) / window
    return out.reshape(series.shape)
