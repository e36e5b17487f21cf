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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, writers
from .exceptions import check_delta, check_pair, check_strategy
from .models import observation_matrix

__all__ = [
    "BeliefState",
    "Trace",
    "log_normalize",
    "bayesian_update",
    "asl_update",
    "geometric_combine",
    "estimate_state",
    "llr_table",
    "log_ratio_chunks",
    "pair_ratio",
    "ratio_estimates",
    "run",
    "simulate_block",
]


def log_normalize(log_values):
    """Shift each row so it exponentiates to a probability vector."""
    log_values = np.asarray(log_values, dtype=float)
    peak = log_values.max(axis=-1, keepdims=True)
    norm = peak + np.log(np.exp(log_values - peak).sum(axis=-1, keepdims=True))
    return log_values - norm


@dataclass
class BeliefState:
    """Log-domain private (post-combination) beliefs."""

    log_private: np.ndarray

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
    check_delta(delta)
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

    ``estimates`` are stored in the smallest unsigned dtype that holds the
    hypothesis indices (``uint8`` for up to 256 hypotheses), and
    ``observations``, shape ``(N, T)``, is a view of the block of symbols the
    run drew, in ``observation_matrix``'s dtype.  Cast them before integer
    arithmetic that can leave that range.
    """

    log_ratio: np.ndarray
    estimates: np.ndarray
    clusters: np.ndarray
    metadata: dict
    mu_log_ratio: np.ndarray = None
    observations: np.ndarray = None

    @property
    def horizon(self):
        return self.log_ratio.shape[0] - 1

    @property
    def n_agents(self):
        return self.log_ratio.shape[1]

    def to_csv(self, path):
        """Write the trace CSV and its JSON metadata sidecar, in a directory
        made if missing: a ``writers.TraceWriter`` of one file, fed a window
        of rows at a time."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        obs = None if self.observations is None else self.observations[None]
        # iteration 0 joins the first window
        step = max(writers.ROWS_PER_WRITE // self.n_agents - 1, 1)
        with writers.TraceWriter([path], self.clusters, int(self.estimates.max()) + 1,
                                 obs) as writer:
            for start in range(0, self.horizon, step):
                rows = slice(start + 1, start + 1 + step)
                writer(start, self.log_ratio[rows, None], None, self.estimates[rows, None])
            writer.close([self.metadata])


# -- the log-ratio engine ------------------------------------------------------

# Iterations handed to the caller at once: callers reduce or record a chunk
# with a few array operations instead of a few per iteration.
STEPS_PER_CHUNK = 16

# Bytes of stacked combination matrices the recursion steps together: about
# the share of a per-core L2 cache that leaves room for the log-ratios.
STACK_BYTES = 1 << 20


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
    chunk = min(STEPS_PER_CHUNK, horizon)
    x_psi = np.empty((chunk, n_reps, n, n_ratios))
    # every chunk but the last has `chunk` steps, so step 0 of a chunk reads
    # the previous chunk's last x_mu from row -1: zero before the first
    x_mu = np.zeros_like(x_psi)
    index = np.empty((chunk, n_reps, n), dtype=np.intp)
    # a stack of matrices over STACK_BYTES steps in sub-blocks that fit it,
    # each through all the chunk's steps before the next; every replicate's
    # product sees the same operands and strides, so the split changes no bit
    split = combination_t.ndim == 3 and combination_t.nbytes > STACK_BYTES
    span = max(STACK_BYTES // combination_t[0].nbytes, 1) if split else max(n_reps, 1)
    scratch = np.empty((min(span, n_reps), n, n_ratios))
    blocks = []
    for lo in range(0, n_reps, span):
        rows = slice(lo, lo + span)
        steps = [(x_psi[t, rows], x_mu[t - 1, rows], x_mu[t, rows]) for t in range(chunk)]
        blocks.append((combination_t[rows] if split else combination_t, scratch[: n_reps - lo],
                       steps))
    for start in range(0, horizon, STEPS_PER_CHUNK):
        size = min(STEPS_PER_CHUNK, horizon - start)
        # w_like * l for the whole chunk, in one gather; every index is in
        # range, and "clip" lets take write straight into the buffer
        np.add(offsets, symbols[start : start + size], out=index[:size])
        weighted.take(index[:size], axis=0, out=x_psi[:size], mode="clip")
        for matrices, prior, steps in blocks:
            for psi, prev_mu, mu in steps[:size]:
                psi += np.multiply(prev_mu, w_prior, out=prior)
                np.matmul(matrices, psi, out=mu)
        yield start, x_psi[:size], x_mu[:size]


def pair_ratio(x, pair):
    """``log(belief_a / belief_b)`` from log-ratios against hypothesis 0
    (the last axis of ``x``).

    The result is ``0.0 + x_a - x_b`` with the terms of hypothesis 0 left
    out, so a zero comes out as +0.0 wherever that sum gives it.
    """
    a, b = pair
    if a and b:
        ratio = np.add(x[..., a - 1], 0.0)
        return np.subtract(ratio, x[..., b - 1], out=ratio)
    if a:
        return np.add(x[..., a - 1], 0.0)
    if b:
        return np.subtract(0.0, x[..., b - 1])
    return np.zeros(x.shape[:-1])


def ratio_estimates(x):
    """Argmax hypothesis from log-ratios against hypothesis 0; ties go to the
    lowest index, as in ``estimate_state``.  The estimates are in
    ``np.min_scalar_type(H - 1)``."""
    n_ratios = x.shape[-1]
    dtype = np.min_scalar_type(n_ratios)
    # hypothesis 1 against hypothesis 0, whose log-ratio is zero
    estimates = (x[..., 0] > 0.0).astype(dtype)
    if n_ratios > 1:
        best = np.maximum(x[..., 0], 0.0)
        for h in range(1, n_ratios):
            ratio = x[..., h]
            # estimates = where(ratio > best, h + 1, estimates), in the
            # estimates' dtype: np.where with a scalar takes a slow loop
            estimates += (ratio > best).view(np.uint8) * (dtype.type(h + 1) - estimates)
            np.maximum(best, ratio, out=best)
    return estimates


def trace_metadata(clusters, retries, profile, seed, strategy, delta, horizon, pair, estimator,
                   extra=None):
    """Metadata a trace records about the run that produced it, on a network
    with these cluster labels that took ``retries`` redraws."""
    metadata = {
        "seed": int(seed),
        "strategy": strategy,
        "delta": delta,
        "horizon": int(horizon),
        "pair": [int(pair[0]), int(pair[1])],
        "estimator": estimator,
        "n_agents": int(profile.n_agents),
        "cluster_sizes": np.bincount(clusters).tolist(),
        "network_retries": int(retries),
        "profile": profile.reference,
        "version": __version__,
    }
    if extra:
        metadata.update(extra)
    return metadata


def simulate_block(combination_t, profile, symbols, strategy, delta, pair, estimator,
                   burn_in=0):
    """Step a block of replicates through the log-ratio recursion.

    Every simulation goes through here: ``run`` is its one-replicate case,
    and ``harness.run_experiment`` steps one block of replicates at a time.

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
    burn_in : int
        Iterations whose ``mu`` and ``est`` the caller does not need.  A
        caller that keeps every iteration (``run``, or a
        ``writers.TraceWriter``) passes 0.

    Yields
    ------
    (start, psi, mu, est)
        For iterations ``start + 1 .. start + K``: the public and private
        log-ratios of ``pair`` and the state estimates, each a new
        ``(K, B, N)`` array.  ``mu`` and ``est`` are None on a chunk that
        ends at or before ``burn_in``.  The next chunk is built while the
        caller still holds this one, so a caller that keeps no chunk drops
        its names before asking for the next.
    """
    w_like, w_prior = (delta, 1.0 - delta) if strategy == "asl" else (1.0, 1.0)
    chunks = log_ratio_chunks(combination_t, llr_table(profile), symbols.transpose(2, 0, 1),
                              w_like, w_prior)
    for start, x_psi, x_mu in chunks:
        psi = pair_ratio(x_psi, pair)  # (K, B, N)
        if start + psi.shape[0] <= burn_in:
            yield start, psi, None, None
        else:
            yield (start, psi, pair_ratio(x_mu, pair),
                   ratio_estimates(x_mu if estimator == "mu" else x_psi))


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
    check_pair(pair, profile.n_hypotheses)
    symbols = observation_matrix(profile, horizon, [seed])
    # iteration 0 is the uniform initial state: log-ratios zero, estimate 0
    log_ratio, mu_log_ratio = np.zeros((2, horizon + 1, network.size))
    estimates = np.zeros(log_ratio.shape, dtype=np.min_scalar_type(profile.n_hypotheses - 1))
    for start, *chunk in simulate_block(np.ascontiguousarray(network.combination.T), profile,
                                        symbols, strategy, delta, pair, estimator):
        rows = slice(start + 1, start + 1 + chunk[0].shape[0])
        for series, values in zip((log_ratio, mu_log_ratio, estimates), chunk):
            series[rows] = values[:, 0]
    return Trace(log_ratio=log_ratio, estimates=estimates, clusters=network.clusters.copy(),
                 metadata=trace_metadata(network.clusters, network.retries, profile, seed,
                                         strategy, delta, horizon, pair, estimator),
                 mu_log_ratio=mu_log_ratio,
                 observations=symbols[0] if record_observations else None)
