"""Independent recomputation of blocklearn outputs.

Nothing here calls the simulator, the aggregators, the theory or the inverse
code of ``blocklearn``.  Every check recomputes the expected value from the
raw inputs with the linear, normalization-free form of the step-size
recursion.  For log-belief ratios against hypothesis 0,

    x_psi = w_like * l + w_prior * x_mu,        x_mu = A^T x_psi,

where ``l`` holds the per-agent log-likelihood ratios of the observed symbol.
Each check raises ``CheckFailed`` with a one-line reason on the first
disagreement.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TIE_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent recomputation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def close(name, actual, expected, atol, rtol=0.0):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(actual.shape == expected.shape, f"{name}: shape {actual.shape} != {expected.shape}")
    err = np.abs(actual - expected)
    limit = atol + rtol * np.abs(expected)
    bad = ~(err <= limit)
    if bad.any():
        i = np.unravel_index(int(np.argmax(np.where(bad, err, -1.0))), err.shape)
        raise CheckFailed(
            f"{name}: {int(bad.sum())} value(s) off; at {tuple(int(j) for j in i)} "
            f"got {actual[i]!r}, expected {expected[i]!r}"
        )


# -- the recursion ------------------------------------------------------------


def column_normalize(adjacency):
    adjacency = np.asarray(adjacency, dtype=float)
    return adjacency / adjacency.sum(axis=-2, keepdims=True)


def bernoulli_likelihoods(n_agents, success_probs):
    """(N, H, 2) table: hypothesis h makes every agent observe Bernoulli(s_h)."""
    probs = np.asarray(success_probs, dtype=float)
    rows = np.stack([1.0 - probs, probs], axis=1)
    return np.broadcast_to(rows, (n_agents, *rows.shape)).copy()


def symbol_llr(likelihoods, symbols):
    """Log-likelihood ratios against hypothesis 0 for observed symbols.

    ``likelihoods`` is (N, H, m); ``symbols`` is (R, N, T).  Returns
    (R, T, N, H-1).
    """
    log_l = np.log(np.asarray(likelihoods, dtype=float))
    ratio = log_l[:, 1:, :] - log_l[:, :1, :]  # (N, H-1, m)
    n = ratio.shape[0]
    gathered = ratio[np.arange(n)[None, :, None], :, symbols]  # (R, N, T, H-1)
    return np.ascontiguousarray(np.moveaxis(gathered, 2, 1))


def replay(combinations, llr, delta):
    """Step the step-size recursion for a batch of replicates.

    ``combinations`` is (R, N, N) column-stochastic; ``llr`` is
    (R, T, N, H-1).  Returns ``(x_psi, x_mu)``, each (R, T+1, N, H-1), with
    row 0 the uniform initial state.
    """
    r, t, n, g = llr.shape
    comb_t = np.ascontiguousarray(np.transpose(combinations, (0, 2, 1)))
    x_psi = np.zeros((r, t + 1, n, g))
    x_mu = np.zeros((r, t + 1, n, g))
    for i in range(t):
        x_psi[:, i + 1] = delta * llr[:, i] + (1.0 - delta) * x_mu[:, i]
        x_mu[:, i + 1] = comb_t @ x_psi[:, i + 1]
    return x_psi, x_mu


def with_reference(x):
    """Prepend the hypothesis-0 log-ratio (0) along the last axis."""
    return np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1)


def pair_ratio(x, pair):
    full = with_reference(x)
    return full[..., pair[0]] - full[..., pair[1]]


def estimates_and_ties(x):
    """Argmax hypothesis (ties to the lowest index) and a mask of near ties."""
    full = with_reference(x)
    est = np.argmax(full, axis=-1)
    top2 = np.sort(full, axis=-1)[..., -2:]
    return est, (top2[..., 1] - top2[..., 0]) < TIE_TOL


def expected_llr(likelihoods, true_state, pair):
    """Per-agent expected log-likelihood ratio log L(a)/L(b) under the truth."""
    lik = np.asarray(likelihoods, dtype=float)
    n = lik.shape[0]
    truth = lik[np.arange(n), true_state]  # (N, m)
    a, b = pair
    return np.sum(truth * (np.log(lik[:, a]) - np.log(lik[:, b])), axis=1)


def steady_state_prediction(combination, nu, delta):
    """delta (I - (1-delta) A^T)^{-1} A^T nu, by one linear solve."""
    a_t = np.asarray(combination, dtype=float).T
    n = a_t.shape[0]
    return delta * np.linalg.solve(np.eye(n) - (1.0 - delta) * a_t, a_t @ nu)


def fit_errors(y, combination, split, deltas):
    """Closed form of the inverse fit error on validation-segment means.

    With ``m`` the validation mean, ``u = m - mean(y[1:k])`` and
    ``v = (m - mean(y[:k-1])) A`` the error at step size delta is
    ``||(u - v) + delta v|| / N``; delta = 0 gives the traditional fit.
    """
    y = np.asarray(y, dtype=float)
    m = y[split:].mean(axis=0)
    u = m - y[1:split].mean(axis=0)
    v = (m - y[: split - 1].mean(axis=0)) @ np.asarray(combination, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    resid = (u - v)[None, :] + deltas[:, None] * v[None, :]
    return np.linalg.norm(resid, axis=1) / y.shape[1]


# -- in-process batteries -------------------------------------------------------


def check_battery(result, *, adjacencies, symbols, likelihoods, delta, burn_in, pair=(0, 1)):
    """Recompute every replicate of one ``run_experiment`` result.

    ``adjacencies`` (R, N, N) and ``symbols`` (R, N, T) are the regenerated
    inputs of replicates 0..R-1.  Checks per-replicate steady-state means to
    1e-9, pooled variances and per-iteration means, and the estimate
    histogram exactly up to near ties.
    """
    require(not result.failures, f"replicates failed: {result.failures}")
    llr = symbol_llr(likelihoods, symbols)
    x_psi, x_mu = replay(column_normalize(adjacencies), llr, delta)
    psi = pair_ratio(x_psi, pair)  # (R, T+1, N)
    mu = pair_ratio(x_mu, pair)
    window = slice(burn_in + 1, psi.shape[1])
    close("rep_means_psi", result.rep_means_psi, psi[:, window].mean(axis=1), 1e-9)
    close("rep_means_mu", result.rep_means_mu, mu[:, window].mean(axis=1), 1e-9)
    close("iter_mean", result.iter_mean, psi.mean(axis=0), 1e-9)
    close("pooled_var_psi", result.pooled_var_psi, psi[:, window].var(axis=(0, 1)), 1e-9, 1e-7)
    close("pooled_var_mu", result.pooled_var_mu, mu[:, window].var(axis=(0, 1)), 1e-9, 1e-7)

    est, ties = estimates_and_ties(x_mu[:, window])  # (R, W, N)
    n_hyp = likelihoods.shape[1]
    counts = np.stack([(est == h).sum(axis=(0, 1)) for h in range(n_hyp)], axis=1)
    slack = 2 * ties.sum(axis=(0, 1))
    diff = np.abs(np.asarray(result.error_report.counts) - counts).sum(axis=1)
    require(
        np.all(diff <= slack),
        f"estimate counts differ beyond near ties at agents {np.flatnonzero(diff > slack)[:5].tolist()}",
    )
    require(
        result.error_report.samples == est.shape[0] * est.shape[1],
        f"steady-state sample count {result.error_report.samples} != {est.shape[0] * est.shape[1]}",
    )


def majority_recovery(report, clusters, true_state):
    """Per-cluster share of agents whose modal estimate is their own truth."""
    ok = np.asarray(report.modal_estimate) == np.asarray(true_state)
    return [float(ok[clusters == c].mean()) for c in np.unique(clusters)]


def check_two_community_properties(results, sparse):
    """Criteria 2 and 6: sign reproduction, growth with delta, sparse recovery."""
    psi = {d: r.cluster_statistics("psi") for d, r in results.items()}
    lo, mid, hi = psi[0.01], psi[0.1], psi[0.3]
    require(lo[0]["mean"] < 0 and lo[1]["mean"] < 0,
            f"delta=0.01 means {lo[0]['mean']:+.4f}, {lo[1]['mean']:+.4f} are not both < 0")
    require(mid[0]["mean"] > 0 > mid[1]["mean"],
            f"delta=0.1 means {mid[0]['mean']:+.4f}, {mid[1]['mean']:+.4f} do not split in sign")
    gap_mid, gap_hi = mid[0]["mean"] - mid[1]["mean"], hi[0]["mean"] - hi[1]["mean"]
    require(gap_hi > gap_mid, f"gap does not grow from delta=0.1 ({gap_mid:.4f}) to 0.3 ({gap_hi:.4f})")
    var_mid = np.mean([mid[c]["pooled_var"] for c in (0, 1)])
    var_hi = np.mean([hi[c]["pooled_var"] for c in (0, 1)])
    require(var_hi > var_mid, f"pooled variance does not grow ({var_mid:.5f} -> {var_hi:.5f})")
    fractions = majority_recovery(sparse.error_report, sparse.clusters, sparse.true_state)
    require(all(f > 0.5 for f in fractions), f"sparse majority recovery {fractions} not > 0.5")


def check_three_community_properties(results):
    """Criterion 5: recovery at delta=0.1, a cluster lost at delta=0.01."""
    res = results[0.1]
    fractions = majority_recovery(res.error_report, res.clusters, res.true_state)
    require(all(f >= 0.9 for f in fractions), f"delta=0.1 modal recovery {fractions} not >= 0.9")
    small = results[0.01]
    counts = np.asarray(small.error_report.counts)
    majority = [int(np.argmax(counts[small.clusters == c].sum(axis=0))) for c in range(counts.shape[1])]
    require(any(m != c for c, m in enumerate(majority)),
            f"delta=0.01 majority estimates {majority} all equal their own truths")


# -- CLI outputs ------------------------------------------------------------------


def parse_network(path):
    """Adjacency and cluster labels from a network text file."""
    lines = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    header = [int(tok) for tok in lines[0]]
    n = header[0]
    sizes = header[1:] if len(header) == 3 else header[2:]
    adjacency = np.array([[int(tok) for tok in row] for row in lines[1:]], dtype=float)
    require(adjacency.shape == (n, n), f"network adjacency shape {adjacency.shape} != ({n}, {n})")
    require(sum(sizes) == n, f"network sizes {sizes} do not sum to {n}")
    return adjacency, np.repeat(np.arange(len(sizes)), sizes)


def read_trace(path, n_agents):
    """(log_ratio, estimate, obs) arrays of a trace CSV, shaped (T+1, N);
    ``obs`` is (T, N).  Rows must be complete and in (iter, agent) order."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    require(header[:5] == ["iter", "agent", "cluster", "log_ratio", "estimate"], f"{path}: header {header}")
    require(len(body) % n_agents == 0, f"{path}: {len(body)} rows is not a multiple of {n_agents} agents")
    steps = len(body) // n_agents
    it = np.array([int(r[0]) for r in body])
    agent = np.array([int(r[1]) for r in body])
    require(np.array_equal(it, np.repeat(np.arange(steps), n_agents))
            and np.array_equal(agent, np.tile(np.arange(n_agents), steps)),
            f"{path}: rows are not one per (iter, agent) in order")
    log_ratio = np.array([float(r[3]) for r in body]).reshape(steps, n_agents)
    estimate = np.array([int(r[4]) for r in body]).reshape(steps, n_agents)
    obs = np.array([int(r[5]) for r in body[n_agents:]]).reshape(steps - 1, n_agents)
    return log_ratio, estimate, obs


def read_csv_columns(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns = {name: [] for name in reader.fieldnames}
        for row in reader:
            for name, value in row.items():
                columns[name].append(value)
    return {name: np.array(values, dtype=float) for name, values in columns.items()}


def check_simulate_outputs(sim_dir, adjacency, clusters, config):
    """Replay each stored trace and recompute every aggregate file from them.

    Returns ``(traces, mu_stats)``: the trace log-ratios (R, T+1, N) and the
    per-cluster (mean, stderr) of the private log-ratio recomputed here.
    """
    sim_dir = Path(sim_dir)
    n = adjacency.shape[0]
    delta, burn_in = config["delta"], config["burn_in"]
    likelihoods = bernoulli_likelihoods(n, config["profile"]["success_probs"])
    reps = config["replicates"]
    paths = sorted(sim_dir.glob("trace_*.csv"))
    require(len(paths) == reps, f"{len(paths)} trace files for {reps} replicates")
    parsed = [read_trace(p, n) for p in paths]
    psi = np.stack([p[0] for p in parsed])  # (R, T+1, N)
    est = np.stack([p[1] for p in parsed])
    obs = np.stack([p[2].T for p in parsed])  # (R, N, T)
    require(psi.shape[1] == config["horizon"] + 1, f"traces hold {psi.shape[1]} rows, horizon is {config['horizon']}")

    comb = column_normalize(adjacency)
    x_psi, x_mu = replay(np.broadcast_to(comb, (reps, n, n)), symbol_llr(likelihoods, obs), delta)
    close("trace log_ratio", psi, pair_ratio(x_psi, (0, 1)), 1e-9)
    oracle_est, ties = estimates_and_ties(x_mu)
    require(np.all((est == oracle_est) | ties), "trace estimate column disagrees with the replay")

    mu = psi @ comb  # the pair ratio is linear, so private = A^T public per step
    mu[:, 0] = psi[:, 0]
    window = slice(burn_in + 1, config["horizon"] + 1)

    stats = read_csv_columns(sim_dir / "iteration_stats.csv")
    close("iteration_stats mean", stats["mean_log_ratio"].reshape(-1, n), psi.mean(axis=0), 1e-9)
    close("iteration_stats std", stats["std_log_ratio"].reshape(-1, n), psi.std(axis=0), 1e-7)

    west = est[:, window]
    truth = clusters  # Bernoulli profile: cluster c follows hypothesis c
    samples = west.shape[0] * west.shape[1]
    p_err = 1.0 - (west == truth).sum(axis=(0, 1)) / samples
    report = read_csv_columns(sim_dir / "error_report.csv")
    close("error_report p_err", report["p_err"], p_err, 1e-12)
    close("error_report stderr", report["stderr"], np.sqrt(p_err * (1 - p_err) / samples), 1e-12)

    summary = json.loads((sim_dir / "summary.json").read_text())
    require(summary["replicates_ok"] == reps, f"summary replicates_ok {summary['replicates_ok']} != {reps}")
    require(summary["steady_state_samples"] == samples,
            f"summary steady_state_samples {summary['steady_state_samples']} != {samples}")
    mu_stats = {}
    for key, series in (("cluster_log_ratio_psi", psi), ("cluster_log_ratio_mu", mu)):
        win = series[:, window]
        for c in np.unique(clusters):
            cols = win[:, :, clusters == c].mean(axis=1).mean(axis=1)
            mean, se = cols.mean(), cols.std(ddof=1) / math.sqrt(cols.size)
            pooled = win[:, :, clusters == c].var(axis=(0, 1)).mean()
            got = summary[key][str(c)]
            close(f"summary {key}[{c}]", [got["mean"], got["stderr"], got["pooled_var"]],
                  [mean, se, pooled], 1e-9, 1e-7)
            if key == "cluster_log_ratio_mu":
                mu_stats[int(c)] = (mean, se)
    for c in np.unique(clusters):
        close(f"summary cluster_p_err[{c}]", summary["cluster_p_err"][str(c)], p_err[clusters == c].mean(), 1e-12)
    return psi, mu_stats


def check_prediction(prediction_path, adjacency, clusters, config):
    """``predict`` on an explicit network equals the linear solve; returns it."""
    n = adjacency.shape[0]
    likelihoods = bernoulli_likelihoods(n, config["profile"]["success_probs"])
    nu = expected_llr(likelihoods, clusters, (0, 1))
    expected = steady_state_prediction(column_normalize(adjacency), nu, config["delta"])
    got = json.loads(Path(prediction_path).read_text())
    require(got["delta"] == config["delta"], f"prediction delta {got['delta']} != {config['delta']}")
    close("predict values", got["values"], expected, 1e-9)
    return expected


def check_fit_delta(scan_path, trace_psi, adjacency):
    """Every ``fit-delta`` row (delta 0 = traditional) equals the closed form."""
    cols = read_csv_columns(scan_path)
    split = trace_psi.shape[0] // 2
    expected = fit_errors(trace_psi, column_normalize(adjacency), split, cols["delta"])
    close("fit-delta errors", cols["fit_error"], expected, 1e-12, 1e-9)
    return len(expected)


def check_theory_rows(comparison_path, prediction, clusters, mu_stats):
    """Simulated means against the graph-conditioned prediction.

    Returns the number of flagged rows of ``theory_comparison.csv``; each is
    an operation the program reports as a theory mismatch.  The empirical
    means themselves must sit within 3 standard errors of the prediction for
    the drawn graph.
    """
    for c, (mean, se) in mu_stats.items():
        theory = prediction[clusters == c].mean()
        require(abs(mean - theory) <= 3 * se,
                f"cluster {c}: mean {mean:+.5f} is {abs(mean - theory) / se:.1f} se from "
                f"the graph-conditioned prediction {theory:+.5f}")
    rows = read_csv_columns(comparison_path)
    require(len(rows["cluster"]) == len(mu_stats), f"{len(rows['cluster'])} comparison rows")
    for c, mean in zip(rows["cluster"].astype(int), rows["empirical_mean"]):
        close(f"theory_comparison empirical_mean[{c}]", mean, mu_stats[c][0], 1e-12)
    return int(rows["flagged"].sum())
