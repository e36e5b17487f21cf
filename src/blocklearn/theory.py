"""Closed-form predictions for social learning over SBM networks.

Covers the network divergence and the consensus set of the traditional
recursion, the steady-state expected log-belief ratios of the step-size
recursion (one linear solve with the expected or an explicit combination
matrix, for any number of communities, plus the symmetric-community closed
form), the step-size thresholds that let each community keep its own
hypothesis, and the information-theoretic exact-recovery margin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import (
    InvalidRegime,
    PreconditionFailed,
    ZeroInformativeness,
)
from .graphs import BlockModel, Network, expected_combination
from .learning import check_delta, check_pair
from .models import divergence_table

__all__ = [
    "LogRatioPrediction",
    "ThresholdReport",
    "RecoveryCheck",
    "mean_log_likelihood_ratios",
    "network_divergence",
    "optimal_hypothesis_set",
    "OptimalSet",
    "expected_log_ratio",
    "symmetric_log_ratio_closed_form",
    "symmetric_delta_threshold",
    "asymmetric_delta_thresholds",
    "exact_recovery_infeasible",
]


def mean_log_likelihood_ratios(profile, pair=(0, 1)):
    """Expected per-agent log-likelihood ratio for a hypothesis pair.

    For pair (a, b) and observations drawn from each agent's true model,
    ``E log(L_k(. | a) / L_k(. | b))`` equals the KL from the true model to
    hypothesis b minus the KL to hypothesis a.
    """
    check_pair(pair, profile.n_hypotheses)
    a, b = pair
    table = divergence_table(profile)
    return table[:, b] - table[:, a]


def network_divergence(profile, perron, theta, theta_prime):
    """Perron-weighted divergence gap between two hypotheses.

    Positive values mean the network as a whole favors ``theta`` over
    ``theta_prime`` under the traditional recursion.
    """
    perron = np.asarray(perron, dtype=float)
    if isinstance(theta, str):
        theta = profile.hypotheses.index(theta)
    if isinstance(theta_prime, str):
        theta_prime = profile.hypotheses.index(theta_prime)
    return float(perron @ mean_log_likelihood_ratios(profile, (theta, theta_prime)))


class OptimalSet(NamedTuple):
    indices: tuple
    labels: tuple
    objective: np.ndarray


def optimal_hypothesis_set(profile, perron, tol=1e-12):
    """Hypotheses minimizing the Perron-weighted divergence objective.

    The traditional recursion drives every agent's belief onto this set.
    Ties within ``tol`` of the minimum are all included; each member beats
    every excluded hypothesis by a strictly positive network divergence.
    """
    perron = np.asarray(perron, dtype=float)
    objective = perron @ divergence_table(profile)
    best = objective.min()
    indices = tuple(int(i) for i in np.flatnonzero(objective <= best + tol))
    labels = tuple(profile.hypotheses.labels[i] for i in indices)
    return OptimalSet(indices=indices, labels=labels, objective=objective)


@dataclass
class LogRatioPrediction:
    """Steady-state expected log-belief ratios under the step-size recursion.

    ``values[k]`` predicts the long-run mean of agent k's private log-belief
    ratio for the configured pair.
    """

    values: np.ndarray
    delta: float
    pair: tuple
    matrix_kind: str
    inputs: dict

    # Not a field: the prediction is a linear solve, so no series terms are
    # summed.  perfbench/tracing.py reads this attribute on every traced
    # cli_roundtrip round.
    truncation_steps = 0

    SCHEMA_VERSION = 2

    def cluster_means(self, clusters):
        clusters = np.asarray(clusters)
        return {int(c): float(self.values[clusters == c].mean()) for c in np.unique(clusters)}

    def to_json(self):
        return {
            "schema_version": self.SCHEMA_VERSION,
            "values": self.values.tolist(),
            "delta": self.delta,
            "pair": list(self.pair),
            "matrix_kind": self.matrix_kind,
            "inputs": self.inputs,
        }


def expected_log_ratio(network_law, profile, delta, pair=(0, 1)):
    """Per-agent steady-state expected log-belief ratio.

    The prediction is ``delta * sum_t (1-delta)^t * (M^(t+1))^T nu``, which
    is the solution of one linear system,
    ``delta * (I - (1-delta) M^T)^(-1) M^T nu`` (Bordignon, Matta & Sayed,
    "Adaptive Social Learning", IEEE T-IT 67(9), 2021).  ``nu`` holds the
    expected per-agent log-likelihood ratios and ``M`` is either the
    expected combination matrix of an SBM law (averaging over graph draws)
    or an explicit combination matrix, given as such or as a Network's
    (conditioning on one realized graph).

    For a law with k communities the solution is constant within each
    community, so the system is solved on the community sums: with block
    values ``V``, sizes ``n`` and ``S_c = sum_{l in c} nu_l``,
    ``z = delta * solve(I - (1-delta) (n[:, None] * V)^T, V^T S)`` and agent
    k gets ``z`` of its community.  An explicit matrix gets the N x N solve.

    Parameters
    ----------
    network_law : BlockModel (SbmParams included), Network or ndarray
    profile : LikelihoodProfile
    delta : float in (0, 1)
    pair : (int, int)
    """
    check_delta(delta)
    nu = mean_log_likelihood_ratios(profile, pair)
    if isinstance(network_law, Network):
        network_law = network_law.combination

    if isinstance(network_law, BlockModel):
        if profile.n_agents != network_law.size:
            raise ValueError("profile size does not match the SBM law")
        expected = expected_combination(network_law)
        values, labels = expected.block_values, expected.labels()
        sizes = np.array(expected.sizes)
        cluster_nu = np.bincount(labels, weights=nu, minlength=sizes.size)
        step_t = (sizes[:, None] * values).T
        z = delta * np.linalg.solve(np.eye(sizes.size) - (1.0 - delta) * step_t,
                                    values.T @ cluster_nu)
        per_agent = z[labels]
        kind = "expected-block"
        inputs = {"params": network_law.to_dict(), "profile": profile.reference}
    else:
        matrix = np.asarray(network_law, dtype=float)
        if matrix.shape != (profile.n_agents, profile.n_agents):
            raise ValueError("combination matrix does not match the profile size")
        mt = matrix.T
        per_agent = delta * np.linalg.solve(np.eye(matrix.shape[0]) - (1.0 - delta) * mt, mt @ nu)
        kind = "explicit-matrix"
        inputs = {"matrix_shape": list(matrix.shape), "profile": profile.reference}

    return LogRatioPrediction(
        values=per_agent,
        delta=float(delta),
        pair=(int(pair[0]), int(pair[1])),
        matrix_kind=kind,
        inputs=inputs,
    )


def symmetric_log_ratio_closed_form(d0, d1, p, q, delta):
    """Closed-form steady-state means for symmetric communities.

    Returns the (cluster-0, cluster-1) expected log-belief ratios:
    ``(d0 - d1)/2 +- (delta * (d0 + d1) * (p - q)) / (2 * (p + q - (1 - delta)(p - q)))``.
    """
    check_delta(delta)
    base = 0.5 * (d0 - d1)
    swing = 0.5 * delta * (d0 + d1) * (p - q) / (p + q - (1.0 - delta) * (p - q))
    return base + swing, base - swing


def symmetric_delta_threshold(d0, d1, p, q):
    """Smallest step size letting both symmetric communities keep their truth.

    Equals ``max((d1 - d0)/d0, (d0 - d1)/d1) * q / (p - q)``, floored at 0.

    Raises
    ------
    InvalidRegime
        If ``p <= q`` (no community structure to exploit).
    ZeroInformativeness
        If either cluster has no informativeness.
    """
    if p <= q:
        raise InvalidRegime(f"requires p > q, got p={p}, q={q}")
    if d0 <= 0 or d1 <= 0:
        raise ZeroInformativeness(f"requires d0, d1 > 0, got d0={d0}, d1={d1}")
    return max(0.0, max((d1 - d0) / d0, (d0 - d1) / d1) * q / (p - q))


@dataclass
class ThresholdReport:
    """Step-size thresholds for two (possibly asymmetric) communities.

    ``delta_c0``/``delta_c1`` are the per-cluster lower bounds; the cluster
    whose hypothesis already dominates the network needs none (threshold 0).
    ``delta_min`` is the sharper symmetric-case bound, present only when the
    parameters are fully symmetric.  ``delta0`` is the overall requirement.
    """

    delta_c0: float
    delta_c1: float
    delta0: float
    delta_min: float
    prevalence_margin: float
    prevalent_cluster: int
    precondition_values: dict
    feasible: bool
    inputs: dict

    def to_json(self):
        return {
            "delta_c0": self.delta_c0,
            "delta_c1": self.delta_c1,
            "delta0": self.delta0,
            "delta_min_symmetric": self.delta_min,
            "prevalence_margin": self.prevalence_margin,
            "prevalent_cluster": self.prevalent_cluster,
            "precondition_values": self.precondition_values,
            "feasible": self.feasible,
            "inputs": self.inputs,
        }

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=2)


def asymmetric_delta_thresholds(params, d0, d1):
    """Per-cluster step-size thresholds for asymmetric communities.

    Requires the internal-dominance inequalities ``p0*n0*d0 > q1*n1*d1`` and
    ``p1*n1*d1 > q0*n0*d0``.  The sign of
    ``s = q1*n1*r1*d1 - q0*n0*r0*d0`` decides which hypothesis is prevalent
    in the network; the non-prevalent cluster's threshold follows from the
    dominance margins, the prevalent cluster needs none.

    Raises
    ------
    PreconditionFailed
        Naming the violated dominance inequality.
    """
    n0, n1 = params.n0, params.n1
    p0, p1, q0, q1 = params.p0, params.p1, params.q0, params.q1
    lhs0 = p0 * n0 * d0 - q1 * n1 * d1
    lhs1 = p1 * n1 * d1 - q0 * n0 * d0
    if lhs0 <= 0:
        raise PreconditionFailed("p0*n0*d0 - q1*n1*d1 > 0", lhs0)
    if lhs1 <= 0:
        raise PreconditionFailed("p1*n1*d1 - q0*n0*d0 > 0", lhs1)

    r0 = p0 * n0 + q1 * n1
    r1 = q0 * n0 + p1 * n1
    weight = q0 * n0 * r0 + q1 * n1 * r1
    margin = q1 * n1 * r1 * d1 - q0 * n0 * r0 * d0

    if margin > 0:  # the cluster-1 hypothesis dominates; cluster 0 needs delta
        delta_c0 = r0 * margin / (lhs0 * weight + r0 * margin)
        delta_c1 = 0.0
        prevalent = 1
    elif margin < 0:  # the cluster-0 hypothesis dominates; cluster 1 needs delta
        delta_c1 = r1 * (-margin) / (lhs1 * weight + r1 * (-margin))
        delta_c0 = 0.0
        prevalent = 0
    else:
        delta_c0 = delta_c1 = 0.0
        prevalent = None

    delta_min = None
    if params.is_symmetric and p0 > q0 and d0 > 0 and d1 > 0:
        delta_min = symmetric_delta_threshold(d0, d1, p0, q0)

    delta0 = max(delta_c0, delta_c1)
    return ThresholdReport(
        delta_c0=delta_c0,
        delta_c1=delta_c1,
        delta0=delta0,
        delta_min=delta_min,
        prevalence_margin=margin,
        prevalent_cluster=prevalent,
        precondition_values={
            "p0*n0*d0 - q1*n1*d1": lhs0,
            "p1*n1*d1 - q0*n0*d0": lhs1,
        },
        feasible=delta0 < 1.0,
        inputs={"params": params.to_dict(), "d0": d0, "d1": d1},
    )


class RecoveryCheck(NamedTuple):
    infeasible: bool
    margin: float


def exact_recovery_infeasible(n_per_cluster, p, q):
    """Information-theoretic exact-recovery test for symmetric communities.

    Computes the margin ``|sqrt(n*p / log n) - sqrt(n*q / log n)|`` with
    ``n`` the per-cluster size; community labels cannot be exactly recovered
    from a single graph draw when the margin is below ``sqrt(2)``.
    """
    if n_per_cluster < 2:
        raise ValueError("need at least 2 agents per cluster")
    log_n = math.log(n_per_cluster)
    margin = abs(
        math.sqrt(n_per_cluster * p / log_n) - math.sqrt(n_per_cluster * q / log_n)
    )
    return RecoveryCheck(infeasible=margin < math.sqrt(2.0), margin=margin)
