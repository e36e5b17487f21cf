"""
Sampling SBM networks and checking the combination-matrix theory
================================================================

Draws a two-community network, inspects its averaging-rule combination
matrix, and compares the sampled object against its closed-form expectation:
block values, matrix powers, and the Perron eigenvector.
"""

import numpy as np

from blocklearn import (
    SbmParams,
    closed_form_power,
    expected_combination,
    expected_perron,
    perron_vector,
    sample_sbm,
)

# The running two-community configuration: 15 agents per side, dense inside
# (p = 0.8), sparse across (q = 0.1).
params = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
network = sample_sbm(params, seed=7)
print(f"sampled {network.size} agents, redraws needed: {network.retries}")

# Every column of the combination matrix sums to one: each agent splits its
# attention equally over its in-neighbors.
print("max column-sum error:", np.abs(network.combination.sum(axis=0) - 1).max())

intra = network.adjacency[:15, :15].mean()
cross = network.adjacency[:15, 15:].mean()
print(f"edge densities: intra {intra:.3f} (p=0.8), cross {cross:.3f} (q=0.1)")

# The expected combination matrix has just four distinct block values.
expected = expected_combination(params)
print("expected block values:\n", expected.block_values)

# For symmetric communities the t-th power of the expected matrix is known in
# closed form; check it against brute-force multiplication.
base = closed_form_power(0.8, 0.1, 15, 1)
brute = np.linalg.matrix_power(base, 12)
print("power formula error at t=12:",
      np.abs(closed_form_power(0.8, 0.1, 15, 12) - brute).max())

# Perron eigenvector: one linear solve on the dense matrix agrees with the
# two-value closed form.
u_solved = perron_vector(expected.dense())
u_closed = expected_perron(params)
print("perron closed form vs solve:", np.abs(u_solved - u_closed).max())

# On the sampled network the Perron weights fluctuate around uniform; their
# sum over cluster 0 controls which hypothesis the traditional recursion
# favors (see demo 02).
u_net = perron_vector(network.combination)
print(f"cluster-0 Perron mass on this draw: {u_net[:15].sum():.4f} (uniform would be 0.5)")
