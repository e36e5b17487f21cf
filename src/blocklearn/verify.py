"""Built-in property and oracle suites (the ``verify`` CLI subcommand).

Each check pits an implementation path against an independent oracle:
closed forms against brute-force matrix powers, block expectations against
exact binomial-convolution sums, estimators against the recursions that
generated their inputs.
"""

from __future__ import annotations

from collections import Counter
from io import BytesIO
from typing import NamedTuple

import numpy as np

from .exceptions import NotStronglyConnected, ZeroColumn
from .graphs import (
    BlockModel,
    SbmParams,
    _binomial_pmf,
    averaging_combination,
    closed_form_power,
    expected_combination,
    expected_perron,
    inverse_binomial_moment,
    perron_vector,
    sample_adjacency,
    sample_sbm,
)
from .inverse import (
    BeliefSeries,
    estimate_log_likelihoods,
    fit_error,
    recursion_series,
    scan_delta,
)
from .learning import (
    BeliefState,
    asl_update,
    bayesian_update,
    estimate_state,
    geometric_combine,
    llr_table,
    log_ratio_chunks,
    ratio_estimates,
)
from .models import (
    BUCKETS,
    COUNT_ALPHABET,
    LikelihoodProfile,
    bernoulli_profile,
    divergence_table,
    observation_matrix,
)
from .theory import expected_log_ratio, symmetric_log_ratio_closed_form
from .writers import ROWS_PER_WRITE, text_column, write_rows

__all__ = ["CheckResult", "all_checks", "run_all"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _random_profile(rng, n_agents, n_hypotheses, alphabet):
    raw = rng.random((n_agents, n_hypotheses, alphabet)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    truth = rng.integers(0, n_hypotheses, size=n_agents)
    return LikelihoodProfile(likelihoods=raw, true_state=truth)


def _random_combination(rng, n_agents):
    adjacency = (rng.random((n_agents, n_agents)) < 0.4).astype(int)
    np.fill_diagonal(adjacency, 1)  # no zero columns
    return averaging_combination(adjacency)


def check_simplex_conservation(steps=10_000, seed=20240501, tol=1e-10):
    """Every update/combine output must exponentiate to a probability vector."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < steps:
        n, h, m = int(rng.integers(3, 20)), int(rng.integers(2, 6)), int(rng.integers(2, 8))
        profile = _random_profile(rng, n, h, m)
        combination = _random_combination(rng, n)
        raw = rng.random((n, h)) + 1e-3
        state = BeliefState(log_private=np.log(raw / raw.sum(axis=1, keepdims=True)))
        burst = min(200, steps - done)
        for _ in range(burst):
            obs = rng.integers(0, m, size=n)
            if rng.random() < 0.5:
                log_psi = bayesian_update(state, obs, profile)
            else:
                log_psi = asl_update(state, obs, profile, delta=float(rng.uniform(0.01, 0.99)))
            log_mu = geometric_combine(log_psi, combination)
            worst = max(
                worst,
                float(np.abs(np.exp(log_psi).sum(axis=1) - 1.0).max()),
                float(np.abs(np.exp(log_mu).sum(axis=1) - 1.0).max()),
            )
            state = BeliefState(log_private=log_mu)
            done += 1
    return (
        worst <= tol,
        f"max |sum(beliefs) - 1| = {worst:.3e} over {done} steps (tol {tol:g})",
    )


def check_power_identity(tol=1e-10, max_power=50):
    """Symmetric closed-form powers against repeated dense multiplication."""
    worst = 0.0
    for p, q, n in [(0.8, 0.1, 15), (0.5, 0.2, 10), (0.9, 0.05, 4)]:
        base = closed_form_power(p, q, n, 1)
        acc = base.copy()
        for t in range(2, max_power + 1):
            acc = acc @ base
            worst = max(worst, float(np.abs(closed_form_power(p, q, n, t) - acc).max()))
    return (
        worst <= tol,
        f"max closed-form vs multiplied deviation = {worst:.3e} (tol {tol:g}, t <= {max_power})",
    )


def check_inverse_binomial(slope_limit=-1.18, seed=7):
    """Exact inverse binomial moments dominate the plug-in value, and the gap
    decays at least like n^(-4/3)."""
    rng = np.random.default_rng(seed)
    jensen_ok = True
    for _ in range(200):
        c = float(rng.uniform(0.1, 5.0))
        n = int(rng.integers(1, 60))
        p = float(rng.uniform(0.05, 1.0))
        t = int(rng.integers(1, 4))
        exact = inverse_binomial_moment(c, n, p, t, mode="exact")
        approx = inverse_binomial_moment(c, n, p, t, mode="approx")
        jensen_ok = jensen_ok and exact >= approx - 1e-15

    sizes = np.array([10, 40, 160])
    gaps = np.array(
        [
            inverse_binomial_moment(1.0, n, 0.5, 1, mode="exact")
            - inverse_binomial_moment(1.0, n, 0.5, 1, mode="approx")
            for n in sizes
        ]
    )
    slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
    passed = jensen_ok and slope <= slope_limit
    return (
        passed,
        f"jensen_ok={jensen_ok}, log-log slope = {slope:.3f} (limit {slope_limit})",
    )


def check_perron_closed_form(tol=1e-9):
    """Block closed-form Perron vector against the linear solve on the dense
    expected matrix."""
    worst = 0.0
    for params in [
        SbmParams(n0=20, n1=15, p0=0.8, p1=0.9, q0=0.1, q1=0.1),
        SbmParams(n0=10, n1=8, p0=0.8, p1=0.8, q0=0.2, q1=0.2),
        SbmParams(n0=7, n1=23, p0=0.6, p1=0.45, q0=0.08, q1=0.15),
    ]:
        dense = expected_combination(params).dense()
        solved = perron_vector(dense)
        worst = max(worst, float(np.abs(solved - expected_perron(params)).max()))
    return (
        worst <= tol,
        f"max |solve - closed form| = {worst:.3e} (tol {tol:g})",
    )


def check_delta_interpolation(tol=1e-12, seed=11, steps=300):
    """Per-step identity: public log-ratio equals delta times the likelihood
    log-ratio plus (1 - delta) times the private log-ratio."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        n, h, m = 12, 3, 5
        profile = _random_profile(rng, n, h, m)
        combination = _random_combination(rng, n)
        state = BeliefState.uniform(n, h)
        delta = float(rng.uniform(0.05, 0.95))
        for _ in range(steps):
            obs = rng.integers(0, m, size=n)
            log_psi = asl_update(state, obs, profile, delta)
            log_like = profile.log_likelihoods[np.arange(n), :, obs]
            for a, b in [(0, 1), (1, 2)]:
                lhs = log_psi[:, a] - log_psi[:, b]
                rhs = delta * (log_like[:, a] - log_like[:, b]) + (1 - delta) * (
                    state.log_private[:, a] - state.log_private[:, b]
                )
                worst = max(worst, float(np.abs(lhs - rhs).max()))
            state = BeliefState(log_private=geometric_combine(log_psi, combination))
    return (
        worst <= tol,
        f"max per-step identity deviation = {worst:.3e} (tol {tol:g})",
    )


def check_engine_vs_log_domain(tol=1e-12, tie_tol=1e-9, seed=29, trials=24, steps=40):
    """The batched log-ratio engine against the log-domain recursion.

    Random profiles (N <= 12, H <= 5) and blocks of up to four replicates,
    on one shared graph or one graph per replicate, for both strategies.
    The oracle steps each replicate through ``asl_update`` or
    ``bayesian_update`` and ``geometric_combine``.  Log-ratios must agree to
    ``tol``; estimates must agree except where the oracle's top two
    log-beliefs are within ``tie_tol``.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    compared = mismatches = 0
    for trial in range(trials):
        n, h, m = int(rng.integers(2, 13)), int(rng.integers(2, 6)), int(rng.integers(2, 7))
        reps = int(rng.integers(1, 5))
        profile = _random_profile(rng, n, h, m)
        shared = trial % 2 == 0
        combinations = [_random_combination(rng, n) for _ in range(1 if shared else reps)]
        combination_t = combinations[0].T if shared else np.stack([c.T for c in combinations])
        asl = trial % 4 < 2
        delta = float(rng.uniform(0.05, 0.95))
        weights = (delta, 1.0 - delta) if asl else (1.0, 1.0)
        symbols = rng.integers(0, m, size=(steps, reps, n))
        psi_chunks, mu_chunks = [], []
        for _, x_psi, x_mu in log_ratio_chunks(combination_t, llr_table(profile), symbols, *weights):
            psi_chunks.append(x_psi.copy())
            mu_chunks.append(x_mu.copy())
        engine_psi, engine_mu = np.concatenate(psi_chunks), np.concatenate(mu_chunks)
        for r in range(reps):
            state = BeliefState.uniform(n, h)
            combination = combinations[0 if shared else r]
            for t in range(steps):
                if asl:
                    log_psi = asl_update(state, symbols[t, r], profile, delta)
                else:
                    log_psi = bayesian_update(state, symbols[t, r], profile)
                log_mu = geometric_combine(log_psi, combination)
                for log_beliefs, engine in ((log_psi, engine_psi[t, r]), (log_mu, engine_mu[t, r])):
                    oracle = log_beliefs[:, 1:] - log_beliefs[:, :1]
                    worst = max(worst, float(np.abs(engine - oracle).max()))
                top2 = np.sort(log_mu, axis=1)[:, -2:]
                clear = top2[:, 1] - top2[:, 0] >= tie_tol
                differ = estimate_state(log_mu) != ratio_estimates(engine_mu[t, r])
                mismatches += int((differ & clear).sum())
                compared += n
                state = BeliefState(log_private=log_mu)
    return (
        worst <= tol and mismatches == 0,
        f"max log-ratio deviation = {worst:.3e} (tol {tol:g}); {mismatches} estimate "
        f"mismatches outside near ties in {compared} agent-steps over {trials} blocks",
    )


def _bucket_edge_profile(alphabet):
    """Four agents whose true cdf thresholds sit on bucket edges, each inside
    a bucket, several inside one bucket, and (the last) end below one."""
    step = 1.0 / BUCKETS
    on_edges = np.full(alphabet, step)
    on_edges[-1] = 1.0 - (alphabet - 1) * step
    inside = on_edges.copy()  # every threshold half a bucket above an edge
    inside[0] += step / 2
    inside[-1] -= step / 2
    clustered = np.full(alphabet, 1e-12)  # 0.3 * BUCKETS = 1228.8
    clustered[0] = 0.3
    clustered[-1] = 1.0 - clustered[:-1].sum()
    short = np.full(alphabet, 1.0 / alphabet)
    short[-1] -= 5e-10
    rows = np.stack([on_edges, inside, clustered, short])
    likelihoods = np.stack([rows, np.full_like(rows, 1.0 / alphabet)], axis=1)
    return LikelihoodProfile(likelihoods=likelihoods, true_state=np.zeros(4, dtype=int))


def check_streams_vs_numpy(horizon=600, seed=31):
    """The block observation sampler against NumPy's per-agent streams.

    The oracle draws agent k of seed s from
    ``default_rng(SeedSequence(s).spawn(N)[k]).random(T)`` and maps the
    uniforms with ``np.searchsorted(cdf, u, side="right")`` clipped to the
    last symbol.  Symbols must be equal: tolerance 0.  Seeds cover one,
    two, three and five 32-bit words (more than the four-word pool) and a
    random draw; alphabets 2, 3 (mapped by counting), 25 and 256 (by the
    bucket table), plus a 25-symbol profile with thresholds on and inside
    bucket edges; blocks of one and several seeds.  The detail counts the
    draws that fell in a bucket holding a threshold, which the table sends
    to the exact count.
    """
    rng = np.random.default_rng(seed)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 5, int(rng.integers(0, 2**63))]
    profiles = [_random_profile(rng, int(rng.integers(2, 13)), 3, alphabet)
                for alphabet in (2, 3, 25, 256)]
    profiles.append(_bucket_edge_profile(25))
    mismatches = compared = ambiguous = 0
    for profile in profiles:
        alphabet = profile.alphabet_size
        cdf = np.cumsum(profile.likelihoods[np.arange(profile.n_agents), profile.true_state], axis=1)
        blocks = [[s] for s in seeds] + [seeds[:3], seeds[3:]]
        for block in blocks:
            symbols = observation_matrix(profile, horizon, block)
            for b, s in enumerate(block):
                children = np.random.SeedSequence(s).spawn(profile.n_agents)
                for k, child in enumerate(children):
                    u = np.random.default_rng(child).random(horizon)
                    oracle = np.minimum(np.searchsorted(cdf[k], u, side="right"), alphabet - 1)
                    mismatches += int(np.count_nonzero(symbols[b, k] != oracle))
                    compared += horizon
                    if alphabet > COUNT_ALPHABET:
                        bucket = np.floor(u * BUCKETS)[:, None]
                        scaled = cdf[k, :-1] * BUCKETS
                        ambiguous += int(((bucket < scaled) & (scaled < bucket + 1)).any(axis=1).sum())
    return (
        mismatches == 0,
        f"{mismatches} symbol mismatches in {compared} draws (tolerance 0) over seeds "
        f"{seeds}, alphabets 2/3/25/256 and a bucket-edge profile, blocks of 1, 3 and 4 "
        f"seeds; {ambiguous} draws took the exact count in an ambiguous bucket",
    )


def _per_seed_draw(model, seed, max_retries):
    """One seed's network the slow way: ``(adjacency, combination, retries)``
    or the exception of its last rejected draw.  Reachability comes from
    boolean matrix powers: ``(I + E)^(N-1)`` has no zero entry exactly when
    every agent reaches every other."""
    try:
        rng = np.random.default_rng(seed)
    except ValueError as exc:
        return exc
    failure = None
    for attempt in range(max_retries):
        adjacency = sample_adjacency(model, rng)
        try:
            combination = averaging_combination(adjacency)
        except ZeroColumn as exc:
            failure = exc
            continue
        n = adjacency.shape[0]
        reach = (adjacency > 0) | np.eye(n, dtype=bool)
        for _ in range(max(n - 1, 1).bit_length()):
            reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if reach.all() and adjacency.diagonal().any():
            return adjacency, combination, attempt
        failure = NotStronglyConnected(f"no strongly connected draw within {max_retries} retries")
    return failure


def check_graphs_block_vs_per_seed():
    """The block graph sampler against per-seed draws.

    The oracle draws each seed alone with ``default_rng`` and
    ``sample_adjacency``, tests reachability by boolean matrix powers
    instead of a breadth-first search, and builds the combination with
    ``averaging_combination``.  Adjacency, combination, retry count and the
    type and message of a failure must be equal, seed by seed.  Laws: VB1,
    the sparse law (whose seeds redraw), the three-community law, a
    one-agent law, and a law that fails on both zero columns and
    connectivity within two retries.
    """
    vb1 = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
    sparse = SbmParams(n0=15, n1=15, p0=0.25, p1=0.25, q0=0.1, q1=0.1)
    three = BlockModel(sizes=(20, 25, 30),
                       probs=[[0.9, 0.05, 0.05], [0.05, 0.8, 0.05], [0.05, 0.05, 0.9]])
    cases = [
        (vb1, range(42, 58), 100),
        (sparse, range(2024, 2044), 100),
        (three, range(777, 793), 100),
        (BlockModel(sizes=(1,), probs=[[0.5]]), range(0, 12), 3),
        (SbmParams(2, 2, 0.6, 0.6, 0.3, 0.3), range(0, 60), 2),
    ]
    mismatches, kinds = [], Counter()
    for model, seeds, max_retries in cases:
        block = sample_sbm(model, seeds, max_retries=max_retries)
        for i, seed in enumerate(seeds):
            expected = _per_seed_draw(model, seed, max_retries)
            if isinstance(expected, Exception):
                got = block.failures.get(i)
                same = (type(got) is type(expected) and str(got) == str(expected))
                kind = type(expected).__name__
            else:
                adjacency, combination, retries = expected
                same = (i not in block.failures
                        and np.array_equal(block.adjacency[i], adjacency)
                        and np.array_equal(block.combination[i], combination)
                        and block.redraws[i] == retries)
                kind = "drawn"
            kinds[kind] += 1
            if not same:
                mismatches.append((model.sizes, seed))
    summary = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
    return (
        not mismatches,
        f"{len(mismatches)} seeds differ from the per-seed oracle (tolerance 0) over "
        f"{sum(kinds.values())} seeds of 5 laws: {summary}"
        + (f"; first {mismatches[:3]}" if mismatches else ""),
    )


def check_inverse_round_trip(tol=1e-10, seed=3):
    """Noiseless recursion: the estimator recovers the injected log-likelihood
    ratios at the true step size, which also minimizes the fit error."""
    rng = np.random.default_rng(seed)
    n = 12
    combination = _random_combination(rng, n)
    truth = rng.normal(0.0, 1.0, size=n)
    delta_true = 0.375
    series = BeliefSeries.from_array(recursion_series(truth, combination, delta_true, steps=80))
    recovered = estimate_log_likelihoods(series, combination, delta_true)
    recovery_gap = float(np.abs(recovered - truth).max())
    r_true = fit_error(series, combination, delta_true, recovered)
    grid = np.arange(0.025, 0.98, 0.025)
    scan = scan_delta(series, combination, grid)
    passed = recovery_gap <= tol and r_true <= scan.best_error + 1e-12
    return (
        passed,
        f"recovery gap = {recovery_gap:.3e} (tol {tol:g}), "
        f"r(true)={r_true:.3e} <= grid min {scan.best_error:.3e}",
    )


def check_scan_recovery(
    n_seeds=50,
    required=0.90,
    delta_true=0.5,
    horizon=80,
    split=40,
    window=0.05,
    seed0=1000,
):
    """Step-size scans on synthetic recursion series must place the argmin
    near the generating step size for at least the required fraction of seeds.

    Each seed draws a fresh network and fresh per-agent expected
    log-likelihood ratios, feeds them through the noiseless recursion at the
    generator step size, and scans the grid.  (Scoring against
    single-trajectory time averages instead of injected expectations cannot
    identify the step size: the validation-mean residual of the fit error is
    nearly flat in it once the series reaches steady state.)
    """
    params = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
    grid = np.arange(0.025, 0.98, 0.025)
    rng = np.random.default_rng(seed0)
    hits = 0
    for s in range(n_seeds):
        network = sample_sbm(params, seed=seed0 + s)
        truth = np.where(network.clusters == 0, 0.368, -0.511) + rng.normal(0.0, 0.2, network.size)
        series = BeliefSeries.from_array(
            recursion_series(truth, network.combination, delta_true, steps=horizon),
            split_index=split,
        )
        scan = scan_delta(series, network.combination, grid)
        if abs(scan.best_delta - delta_true) <= window + 1e-12:
            hits += 1
    rate = hits / n_seeds
    return (
        rate >= required,
        f"argmin within +-{window} of {delta_true} for {hits}/{n_seeds} seeds ({rate:.0%})",
    )


def exact_block_expectation(params):
    """Exact entrywise expectation of the averaging-rule combination matrix,
    by direct summation over the binomial in-degree distribution.

    Returns the 2x2 matrix of block values (entries are constant within each
    block).  Serves as the independent oracle for the block approximation.
    """
    def conv_pmf(n_a, p_a, n_b, p_b):
        return np.convolve(_binomial_pmf(n_a, p_a), _binomial_pmf(n_b, p_b))

    def moment(prob, n_same, p_same, n_other, p_other):
        # entry present with `prob`; the rest of the column sums two binomials
        pmf = conv_pmf(n_same, p_same, n_other, p_other)
        support = np.arange(pmf.size)
        return prob * float(np.sum(pmf / (1.0 + support)))

    n0, n1 = params.n0, params.n1
    p0, p1, q0, q1 = params.p0, params.p1, params.q0, params.q1
    return np.array(
        [
            [moment(p0, n0 - 1, p0, n1, q1), moment(q0, n0 - 1, q0, n1, p1)],
            [moment(q1, n0, p0, n1 - 1, q1), moment(p1, n0, q0, n1 - 1, p1)],
        ]
    )


def check_expected_matrix_trend(seed=42, samples=400):
    """The block approximation's bias against the exact expectation shrinks
    with community size, and sampled combination matrices agree with the
    exact expectation within Monte Carlo error."""
    p, q = 0.5, 0.1
    biases = []
    for n in (10, 20, 40):
        params = SbmParams(n0=n, n1=n, p0=p, p1=p, q0=q, q1=q)
        exact = exact_block_expectation(params)
        approx = expected_combination(params).block_values
        biases.append(float(np.abs(exact - approx).max()))
    decreasing = biases[0] > biases[1] > biases[2]

    params = SbmParams(n0=10, n1=10, p0=p, p1=p, q0=q, q1=q)
    exact_intra = exact_block_expectation(params)[0, 0]
    rng = np.random.default_rng(seed)
    block_means = np.empty(samples)
    for s in range(samples):
        adjacency = sample_adjacency(params, rng)
        sums = adjacency.sum(axis=0)
        combo = np.divide(adjacency, sums, out=np.zeros(adjacency.shape), where=sums > 0)
        block_means[s] = combo[:10, :10].mean()
    mc_mean = block_means.mean()
    mc_se = block_means.std(ddof=1) / np.sqrt(samples)
    mc_ok = abs(mc_mean - exact_intra) <= 3 * mc_se
    return (
        decreasing and mc_ok,
        f"bias at n=10/20/40: {biases[0]:.2e}/{biases[1]:.2e}/{biases[2]:.2e} "
        f"(decreasing={decreasing}); MC intra mean {mc_mean:.6f} vs exact {exact_intra:.6f} "
        f"within 3 s.e. = {3 * mc_se:.2e}: {mc_ok}",
    )


def check_series_vs_closed_form(tol=1e-9):
    """The steady-state solve against two oracles: the block-law solve
    against the symmetric closed form, and the solve on one sampled graph's
    combination matrix against the noiseless recursion iterated until
    ``(1 - delta)^t < 1e-14``."""
    params = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
    clusters = np.repeat([0, 1], 15)
    profile = bernoulli_profile(clusters, (0.1, 0.5))
    table = divergence_table(profile)
    d0 = float(table[0, 1])
    d1 = float(table[-1, 0])
    combination = sample_sbm(params, seed=5).combination
    nu = table[:, 1] - table[:, 0]
    block_gap = explicit_gap = 0.0
    for delta in (0.01, 0.1, 0.3, 0.7):
        means = expected_log_ratio(params, profile, delta).cluster_means(clusters)
        closed0, closed1 = symmetric_log_ratio_closed_form(d0, d1, 0.8, 0.1, delta)
        block_gap = max(block_gap, abs(means[0] - closed0), abs(means[1] - closed1))
        steps = int(np.ceil(np.log(1e-14) / np.log1p(-delta)))
        iterated = recursion_series(nu @ combination, combination, delta, steps)[-1]
        solved = expected_log_ratio(combination, profile, delta).values
        explicit_gap = max(explicit_gap, float(np.abs(solved - iterated).max()))
    return (
        max(block_gap, explicit_gap) <= tol,
        f"max |block solve - closed form| = {block_gap:.3e}, "
        f"max |explicit solve - iterated recursion| = {explicit_gap:.3e} (tol {tol:g})",
    )


def slot_key_values(seed=53, per_key=12):
    """Doubles whose ``%.17g`` text is in fixed notation, built from decimal
    strings: for both signs, every exponent -4..15 and every count 0..16 of
    trailing zeros in the 17 significant digits, ``per_key`` random strings
    of a leading 1, random digits and a nonzero digit before the zeros (or,
    with 16 zeros, the nine one-digit strings).

    A string's double prints it back when the double lies within half a
    17th-digit unit of it, so many of them reach the float kernel's table
    row of their sign, exponent and zeros.  The leading 1 keeps that share
    near one half: next to ``1 * 10**e`` the doubles are densest against the
    17th digit.
    """
    rng = np.random.default_rng(seed)
    values = []
    for exponent in range(-4, 16):
        for zeros in range(16):
            inner = rng.integers(0, 10, (per_key, 15 - zeros))
            last = rng.integers(1, 10, per_key)
            values += [f"1{''.join(map(str, row))}{end}{'0' * zeros}e{exponent - 16}"
                       for row, end in zip(inner, last)]
        values += [f"{lead}e{exponent}" for lead in range(1, 10)]
    values = np.array([float(text) for text in values])
    return np.concatenate([values, -values])


def check_csv_text_vs_printf(seed=47, steps=300, n_agents=30):
    """The byte-matrix CSV writer against a ``row_format % row`` loop.

    Random columns over ``steps * n_agents`` rows (several
    ``ROWS_PER_WRITE`` windows): floats log-uniform over 1e-6..1e18, where
    the exact kernel works, and over 1e-320..1e300, with both signs, zeros,
    subnormals, nan and infinities; integers of either sign up to 13 digits;
    codes into a table of strings, as a text column.  The columns are
    written alone and behind a trace file's ``iter,agent,cluster`` integer
    columns, and the bytes must equal the loop's.  A third write is one
    column of ``slot_key_values``, which reach every row of the float
    kernel's slot tables.
    """
    rng = np.random.default_rng(seed)
    rows = steps * n_agents
    signs = rng.choice([-1.0, 1.0], size=(2, rows))
    floats = signs * 10.0 ** np.stack([rng.uniform(-6, 18, rows), rng.uniform(-320, 300, rows)])
    specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e-4, 1e16, 0.1, 1.0]
    floats[:, rng.choice(rows, size=len(specials), replace=False)] = specials
    ints = rng.integers(-10**13, 10**13, rows) // 10 ** rng.integers(0, 13, rows)
    table = ["", "0", "1,7", "word", "x" * 12]
    codes = rng.integers(0, len(table), rows)
    clusters = rng.integers(0, 3, n_agents)
    row_format = "%.17g,%d,%s,%.17g\r\n"
    columns = [floats[0], ints, text_column(table)[codes], floats[1]]
    loop = [row_format % (floats[0, i], ints[i], table[codes[i]], floats[1, i])
            for i in range(rows)]
    prefixes = ["%d,%d,%d," % (i // n_agents, i % n_agents, clusters[i % n_agents])
                for i in range(rows)]
    iters, agents = np.indices((steps, n_agents)).reshape(2, -1)
    keyed = slot_key_values()
    mismatches = []
    for name, written, expected in (
            ("plain columns", columns, "".join(loop)),
            ("iter,agent,cluster columns", [iters, agents, clusters[agents]] + columns,
             "".join(p + row for p, row in zip(prefixes, loop))),
            ("slot-table values", [keyed], "".join("%.17g\r\n" % v for v in keyed.tolist()))):
        bulk = BytesIO()
        write_rows(bulk, written)
        if bulk.getvalue() != expected.encode("ascii"):
            got = bulk.getvalue().decode("ascii").splitlines()
            first = next(i for i, (a, b) in enumerate(zip(got, expected.splitlines()))
                         if a != b)
            mismatches.append(f"{name}: row {first}")
    fast = int(((np.abs(floats) >= 1e-4) & (np.abs(floats) < 1e16)).sum())
    return (
        not mismatches,
        f"{len(mismatches)} of 3 writes differ from the row loop over {rows} rows "
        f"({-(-rows // ROWS_PER_WRITE)} windows; {fast} of {floats.size} floats in the "
        f"fixed-notation range) and over {keyed.size} slot-table values"
        + (f"; {', '.join(mismatches)}" if mismatches else ""),
    )


# Each check returns ``(passed, detail)``; ``verify`` prints and selects it
# by its name here.
SUITES = {
    "simplex-conservation": check_simplex_conservation,
    "power-identity": check_power_identity,
    "inverse-binomial-moment": check_inverse_binomial,
    "perron-closed-form": check_perron_closed_form,
    "delta-interpolation": check_delta_interpolation,
    "engine-vs-log-domain": check_engine_vs_log_domain,
    "streams-vs-numpy": check_streams_vs_numpy,
    "graphs-block-vs-per-seed": check_graphs_block_vs_per_seed,
    "inverse-round-trip": check_inverse_round_trip,
    "scan-delta-recovery": check_scan_recovery,
    "expected-matrix-trend": check_expected_matrix_trend,
    "series-vs-closed-form": check_series_vs_closed_form,
    "csv-text-vs-printf": check_csv_text_vs_printf,
}


def all_checks():
    return list(SUITES.values())


def run_all(names=None):
    """Run the selected suites (all by default) and return their results."""
    return [CheckResult(name, *check()) for name, check in SUITES.items()
            if not names or name in names]
