"""Stochastic Block Model networks and combination-matrix analysis.

Generates directed SBM graphs, builds averaging-rule (column normalized)
combination matrices, and evaluates the closed-form network theory: the
expected combination matrix in block form, its exact powers in the symmetric
case, Perron eigenvectors, and inverse-moment approximations for binomial
in-degrees.

Conventions
-----------
Adjacency entry ``E[l, k] = 1`` means agent ``k`` receives from agent ``l``,
so column ``k`` lists the in-neighbors of ``k``.  For two communities the
edge-probability matrix has blocks ``[[p0, q0], [q1, p1]]`` indexed by
(source cluster, target cluster): ``q0`` is the probability of an edge from a
cluster-0 agent into a cluster-1 column, ``q1`` the reverse.  Diagonal
(self-loop) entries are sampled like any other intra-cluster entry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .exceptions import (
    DegenerateBlock,
    InvalidRegimeWarning,
    MalformedFile,
    NotStronglyConnected,
    ZeroColumn,
    reading,
)

__all__ = [
    "SbmParams",
    "BlockModel",
    "Network",
    "NetworkBlock",
    "check_combination",
    "ExpectedMatrix",
    "sample_adjacency",
    "sample_sbm",
    "averaging_combination",
    "expected_combination",
    "expected_perron",
    "closed_form_power",
    "perron_vector",
    "is_strongly_connected",
    "inverse_binomial_moment",
    "save_network",
    "load_network",
    "save_matrix_csv",
    "load_matrix_csv",
]

COLUMN_SUM_TOL = 1e-12


def _check_probability(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True, eq=False)
class BlockModel:
    """General k-community SBM law: community sizes plus a k x k probability matrix.

    ``probs[i, j]`` is the probability of an edge from a cluster-i agent into
    a cluster-j column.
    """

    sizes: tuple
    probs: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        probs = np.asarray(self.probs, dtype=float)
        k = len(sizes)
        if k < 1 or any(s < 1 for s in sizes):
            raise ValueError("need at least one community, each of size >= 1")
        if probs.shape != (k, k):
            raise ValueError(f"probs must be {k}x{k}, got {probs.shape}")
        if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails too
            raise ValueError("edge probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", probs)

    @property
    def size(self):
        return sum(self.sizes)

    @property
    def n_communities(self):
        return len(self.sizes)

    def draw_bytes(self, graphs=1):
        """The bytes ``sample_sbm`` holds at once to draw ``graphs`` networks
        of this law: per entry, 16 for the probability matrix and one draw's
        uniforms, and per graph 12 for its adjacency, its edges and the
        connectivity search's float32 copies."""
        return (16 + 12 * graphs) * self.size ** 2

    def labels(self):
        """Per-agent cluster label, communities laid out contiguously."""
        return np.repeat(np.arange(self.n_communities), self.sizes)

    def probability_matrix(self):
        """Dense N x N matrix of per-entry edge probabilities."""
        lab = self.labels()
        return self.probs[np.ix_(lab, lab)]

    def to_dict(self):
        return {"sizes": list(self.sizes), "probs": self.probs.tolist()}


def _block(i, j):
    return property(lambda self: float(self.probs[i, j]))


class SbmParams(BlockModel):
    """Two-community SBM law: the BlockModel with ``sizes=(n0, n1)`` and
    ``probs=[[p0, q0], [q1, p1]]``.

    Parameters
    ----------
    n0, n1 : int
        Community sizes (each at least 1).
    p0, p1 : float
        Intra-community edge probabilities.
    q0 : float
        Probability of an edge from a cluster-0 agent into a cluster-1 column.
    q1 : float
        Probability of an edge from a cluster-1 agent into a cluster-0 column.
    """

    FIELDS = ("n0", "n1", "p0", "p1", "q0", "q1")

    def __init__(self, n0, n1, p0, p1, q0, q1):
        super().__init__(sizes=(n0, n1), probs=[[p0, q0], [q1, p1]])

    n0 = property(lambda self: self.sizes[0])
    n1 = property(lambda self: self.sizes[1])
    p0, q0, q1, p1 = _block(0, 0), _block(0, 1), _block(1, 0), _block(1, 1)

    @property
    def is_symmetric(self):
        return self.n0 == self.n1 and self.p0 == self.p1 and self.q0 == self.q1

    def to_dict(self):
        return {k: getattr(self, k) for k in self.FIELDS}


@dataclass
class Network:
    """A realized network: binary adjacency, left-stochastic combination, labels.

    ``combination[l, k]`` is the trust agent ``k`` puts in neighbor ``l``;
    every column sums to one.  ``retries`` records how many redraws the
    sampler needed before this realization was accepted.
    """

    adjacency: np.ndarray
    combination: np.ndarray
    clusters: np.ndarray
    retries: int = 0

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency)
        self.combination = np.asarray(self.combination, dtype=float)
        self.clusters = np.asarray(self.clusters)
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n) or self.combination.shape != (n, n):
            raise ValueError("adjacency and combination must be square and same size")
        if self.clusters.shape != (n,):
            raise ValueError("clusters must have one label per agent")
        check_combination(self.combination)
        if np.any((self.combination > 0) != (self.adjacency > 0)):
            raise ValueError("combination support must match adjacency support")

    @property
    def size(self):
        return self.adjacency.shape[0]


def check_combination(matrix):
    """``matrix`` as a float array, once it is a combination matrix: square,
    nonempty, nonnegative and column-stochastic, every column summing to 1
    within 1e-9.  Raises ValueError otherwise, naming the first bad column;
    a NaN fails both tests."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
        raise ValueError(f"need a square, nonnegative, column-stochastic matrix, got shape "
                         f"{matrix.shape}")
    bad = ~(matrix >= 0).all(axis=0) | ~(np.abs(matrix.sum(axis=0) - 1.0) <= 1e-9)
    if bad.any():
        raise ValueError(f"column {bad.argmax()} is not a combination column: its entries must "
                         "be nonnegative and sum to 1 (column-stochastic)")
    return matrix


@dataclass
class NetworkBlock:
    """The networks ``sample_sbm`` draws for a block of B seeds, stacked.

    ``adjacency[i]`` (int8) and ``combination[i]`` (float, the stack
    C-contiguous) are seed i's accepted draw; both are zero for a seed in
    ``failures``, which maps its position in the block to the exception
    the int form raises for it.  ``redraws[i]`` counts seed i's rejected
    draws: all ``max_retries`` of them for a seed that failed on its graphs.
    """

    adjacency: np.ndarray  # (B, N, N)
    combination: np.ndarray  # (B, N, N)
    clusters: np.ndarray
    redraws: np.ndarray  # (B,)
    failures: dict

    @property
    def retries(self):
        """Rejected draws of the whole block."""
        return int(self.redraws.sum())

    def network(self, i):
        """Seed i's draw as a Network."""
        return Network(adjacency=self.adjacency[i], combination=self.combination[i],
                       clusters=self.clusters, retries=int(self.redraws[i]))


def sample_adjacency(model, rng):
    """Draw a raw adjacency matrix: every entry (diagonal included) is an
    independent Bernoulli with its block probability.  No connectivity
    conditioning is applied."""
    prob = model.probability_matrix()
    return (rng.random(prob.shape) < prob).astype(np.int8)


def averaging_combination(adjacency):
    """Column-normalize a binary adjacency matrix (the averaging rule).

    Entry ``(l, k)`` becomes ``E[l, k] / sum_l E[l, k]`` so each agent gives
    equal confidence to each of its in-neighbors.

    Raises
    ------
    ZeroColumn
        If some column has no nonzero entry; the offending agent index is
        attached to the exception.
    """
    adjacency = np.asarray(adjacency)
    col_sums = adjacency.sum(axis=0)
    zero = np.flatnonzero(col_sums == 0)
    if zero.size:
        raise ZeroColumn(int(zero[0]))
    return adjacency / col_sums


def sample_sbm(model, seed, max_retries=100):
    """Sample SBM networks with averaging-rule combination matrices.

    Each seed's graph is redrawn whole until the realization has no isolated
    column and is strongly connected with at least one self-loop (so the
    combination matrix is primitive).  Seed ``s`` draws from
    ``default_rng(s)``, one ``(N, N)`` block of uniforms per attempt, so a
    seed's network does not depend on the other seeds of its block.

    Parameters
    ----------
    model : BlockModel (SbmParams included)
    seed : int or sequence of int
        One seed, or the seeds of a block of replicates; equal seeds give
        identical networks.
    max_retries : int
        Redraw budget per seed (at least 1).

    Returns
    -------
    Network for an int seed, NetworkBlock for a sequence of seeds.  The
    block is checked in one pass per attempt: every seed still pending draws,
    their zero columns, self-loops and connectivity are tested together, and
    only the rejected ones draw again.

    Raises
    ------
    ZeroColumn
        For an int seed whose final attempt still contains an agent without
        in-neighbors.
    NotStronglyConnected
        For an int seed that exhausts its retries on connectivity.
    ValueError
        For a negative int seed.  A block records these three per seed in
        ``failures`` instead.
    """
    if np.ndim(seed) == 0:
        block = sample_sbm(model, [seed], max_retries)
        if block.failures:
            raise block.failures[0]
        return block.network(0)
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    prob = model.probability_matrix()
    n = prob.shape[0]
    seeds = list(seed)
    rngs, failures = {}, {}
    for i, s in enumerate(seeds):
        try:
            rngs[i] = np.random.default_rng(s)
        except ValueError as exc:  # a negative seed fails alone
            failures[i] = exc
    size = len(seeds)
    adjacency = np.zeros((size, n, n), dtype=np.int8)
    redraws = np.zeros(size, dtype=np.int64)
    # first zero column of each seed's last rejected draw, -1 if it had none
    last_zero = np.full(size, -1)
    uniforms = np.empty((n, n))
    edge_buffer = np.empty((len(rngs), n, n), dtype=bool)
    pending = np.fromiter(rngs, dtype=np.intp, count=len(rngs))
    for attempt in range(max_retries):
        if not pending.size:
            break
        edges = edge_buffer[: pending.size]
        for row, i in zip(edges, pending.tolist()):
            np.less(rngs[i].random(out=uniforms), prob, out=row)
        zero = ~edges.any(axis=1)  # (P, N): columns without in-neighbors
        has_zero = zero.any(axis=1)
        connected, has_loop = _primitive_flags(edges)
        accept = ~has_zero & connected & has_loop
        adjacency[pending[accept]] = edges[accept]
        redraws[pending[accept]] = attempt
        last_zero[pending] = np.where(has_zero, zero.argmax(axis=1), -1)
        pending = pending[~accept]
    redraws[pending] = max_retries
    for i in pending.tolist():
        failures[i] = (ZeroColumn(int(last_zero[i])) if last_zero[i] >= 0 else
                       NotStronglyConnected(f"no strongly connected draw within {max_retries} retries"))
    column_sums = adjacency.sum(axis=1, keepdims=True)
    column_sums[column_sums == 0] = 1  # the all-zero draws of failed seeds
    return NetworkBlock(
        adjacency=adjacency,
        combination=adjacency / column_sums,
        clusters=model.labels(),
        redraws=redraws,
        failures=dict(sorted(failures.items())),
    )


def _primitive_flags(edges):
    """Strong connectivity and self-loop presence of each matrix in a
    ``(B, N, N)`` boolean stack.

    Every matrix is searched from agent 0 along its edges and against them,
    all in one breadth-first pass; a matrix is connected when both searches
    reach every agent.
    """
    count, n = edges.shape[:2]
    has_loop = edges.diagonal(axis1=1, axis2=2).any(axis=1)
    # 0/1 entries in float32, so that matmul sums through BLAS; the sums are exact
    both = np.concatenate([edges, edges.transpose(0, 2, 1)]).astype(np.float32)
    reached = np.zeros((2 * count, 1, n), dtype=bool)
    reached[:, :, 0] = True
    frontier = reached.copy()
    while frontier.any():
        # out-neighbors of the frontier: columns hit by any frontier row
        frontier = (np.matmul(frontier.astype(np.float32), both) > 0) & ~reached
        reached |= frontier
    connected = reached.all(axis=(1, 2)).reshape(2, count).all(axis=0)
    return connected, has_loop


def is_strongly_connected(adjacency):
    """Directed strong connectivity plus self-loop presence.

    Returns
    -------
    (connected, has_self_loop) : tuple of bool
        ``connected`` is established by two reachability passes (forward and
        reverse from agent 0); primitivity in the usual sense requires both
        flags true.
    """
    connected, has_loop = _primitive_flags(np.asarray(adjacency)[None] > 0)
    return bool(connected[0]), bool(has_loop[0])


@dataclass(frozen=True, eq=False)
class ExpectedMatrix:
    """Block form of the expected combination matrix of an SBM law.

    ``block_values[i, j]`` is the constant entry of the (source-i, target-j)
    block; ``sizes`` are the community sizes.  ``dense()`` expands to the full
    N x N matrix, which is left-stochastic by construction.
    """

    block_values: np.ndarray
    sizes: tuple

    def dense(self):
        lab = self.labels()
        out = self.block_values[np.ix_(lab, lab)]
        col_sums = out.sum(axis=0)
        if np.any(np.abs(col_sums - 1.0) > COLUMN_SUM_TOL):
            raise DegenerateBlock("expected matrix is not left-stochastic")
        return out

    def labels(self):
        return np.repeat(np.arange(len(self.sizes)), self.sizes)


def expected_combination(model):
    """Expected combination matrix of an SBM law, in block form.

    The block values are ``V[i, j] = probs[i, j] / r[j]`` with
    ``r[j] = sum_i probs[i, j] * n_i``, the expected in-degree of a column in
    community j.  For two communities these are ``p0/r0``, ``q0/r1``,
    ``q1/r0``, ``p1/r1`` with ``r0 = p0*n0 + q1*n1`` and
    ``r1 = q0*n0 + p1*n1``.  This approximates the true entrywise expectation
    up to a residual of order ``min(sizes)**(-4/3)``.

    Parameters
    ----------
    model : BlockModel (SbmParams included)

    Raises
    ------
    DegenerateBlock
        If some community's expected in-degree ``r[j]`` is zero.
    """
    in_degree = (np.array(model.sizes)[:, None] * model.probs).sum(axis=0)
    if np.any(in_degree <= 0):
        raise DegenerateBlock(f"zero expected in-degree (r={in_degree.tolist()})")
    return ExpectedMatrix(block_values=model.probs / in_degree, sizes=model.sizes)


def expected_perron(params):
    """Closed-form Perron eigenvector of the expected combination matrix.

    With ``r0 = p0*n0 + q1*n1`` and ``r1 = q0*n0 + p1*n1`` the per-agent
    entries are ``q0*r0 / (q0*r0*n0 + q1*r1*n1)`` in cluster 0 and
    ``q1*r1 / (q0*r0*n0 + q1*r1*n1)`` in cluster 1.

    Raises
    ------
    DegenerateBlock
        If the clusters are decoupled (``q0`` or ``q1`` is zero), in which
        case no strictly positive eigenvector exists.
    """
    if not isinstance(params, SbmParams):
        raise TypeError("expected_perron is defined for two-community SbmParams")
    if params.q0 <= 0 or params.q1 <= 0:
        raise DegenerateBlock("decoupled clusters: Perron vector is not strictly positive")
    r0 = params.p0 * params.n0 + params.q1 * params.n1
    r1 = params.q0 * params.n0 + params.p1 * params.n1
    total = params.q0 * r0 * params.n0 + params.q1 * r1 * params.n1
    u0 = params.q0 * r0 / total
    u1 = params.q1 * r1 / total
    return np.concatenate([np.full(params.n0, u0), np.full(params.n1, u1)])


def closed_form_power(p, q, n, t):
    """Exact t-th power of the expected combination matrix for symmetric
    communities (equal sizes ``n``, intra probability ``p``, cross ``q``).

    Returns the ``2n x 2n`` matrix whose intra-block entries are
    ``(1 + r**t) / (2n)`` and cross-block entries ``(1 - r**t) / (2n)``
    with ratio ``r = (p - q) / (p + q)``.

    A warning is emitted when ``q >= p``: the expression still evaluates but
    the community structure it describes is inverted or absent.
    """
    if n < 1:
        raise ValueError("community size must be at least 1")
    if t < 1:
        raise ValueError("power must be at least 1")
    _check_probability("p", p)
    _check_probability("q", q)
    if p + q <= 0:
        raise DegenerateBlock("p + q must be positive")
    if q >= p:
        warnings.warn(
            f"closed-form power assumes q < p (got p={p}, q={q})",
            InvalidRegimeWarning,
            stacklevel=2,
        )
    ratio = ((p - q) / (p + q)) ** t
    block = np.array([[1 + ratio, 1 - ratio], [1 - ratio, 1 + ratio]]) / (2 * n)
    return np.kron(block, np.ones((n, n)))


def perron_vector(matrix):
    """Perron eigenvector of an irreducible column-stochastic matrix.

    The unique ``u`` with ``A u = u`` and ``sum(u) = 1``, from one linear
    solve: ``A - I`` has rank ``N - 1``, so its last row is replaced by the
    normalization.  A periodic matrix is solved like any other.

    Raises
    ------
    ValueError
        If ``check_combination`` refuses the matrix.
    DegenerateBlock
        If the matrix is reducible, so that its Perron vector is not unique.
    """
    matrix = check_combination(matrix)
    if not is_strongly_connected(matrix)[0]:
        raise DegenerateBlock("reducible matrix: the Perron vector is not unique")
    n = matrix.shape[0]
    system = matrix - np.eye(n)
    system[-1] = 1.0
    return np.linalg.solve(system, np.eye(n)[-1])


def _binomial_pmf(n, p):
    """Probabilities of ``0..n`` under Binomial(n, p), computed in log space
    from log-gamma; ``p = 0`` and ``p = 1`` put all the mass on 0 and on n."""
    pmf = np.zeros(n + 1)
    if p == 0.0 or p == 1.0:
        pmf[0 if p == 0.0 else n] = 1.0
        return pmf
    k = np.arange(n + 1)
    log_factorial = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    log_choose = log_factorial[n] - log_factorial - log_factorial[::-1]
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def inverse_binomial_moment(c, n, p, t=1, mode="approx"):
    """Inverse moment ``E 1/(c + B)**t`` for ``B ~ Binomial(n, p)``.

    ``mode='approx'`` returns the plug-in value ``1/(c + n*p)**t``, which
    underestimates the exact moment (Jensen) by a term of order
    ``n**-(t + 1/3)``.  ``mode='exact'`` sums the binomial pmf directly.
    ``n`` must be a non-negative integer.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if not isinstance(n, Integral) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if t < 1:
        raise ValueError("t must be at least 1")
    _check_probability("p", p)
    if mode == "approx":
        return 1.0 / (c + n * p) ** t
    if mode == "exact":
        return float(np.sum(_binomial_pmf(n, p) / (c + np.arange(n + 1)) ** t))
    raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")


# -- text formats -----------------------------------------------------------
#
# Network file: a header line, then N rows of N space-separated adjacency
# bits (0 or 1).  The header is "N k s0 ... s_{k-1}" for k communities of
# sizes s0..s_{k-1}, except that two communities are written "N n0 n1".  A
# three-token header "N a b" is therefore two communities when a + b = N and
# one community (a = 1, b = N) otherwise; the two cases cannot coincide.
# Lines starting with '#' are comments.


def save_network(path, network):
    """Write adjacency and cluster layout as a plain-text matrix file.

    The header holds community sizes only, so the clusters must be labeled
    ``0..k-1`` contiguously and in order; any other labeling raises
    ValueError rather than loading back as a different one.
    """
    sizes = np.bincount(network.clusters)
    if not np.array_equal(network.clusters, np.repeat(np.arange(len(sizes)), sizes)):
        raise ValueError("a network file holds contiguous communities 0..k-1 in order, "
                         f"not the labels {network.clusters.tolist()}")
    with open(path, "w") as fh:
        if len(sizes) == 2:
            fh.write(f"{network.size} {sizes[0]} {sizes[1]}\n")
        else:
            fh.write(f"{network.size} {len(sizes)} " + " ".join(map(str, sizes)) + "\n")
        np.savetxt(fh, network.adjacency, fmt="%d")


def _community_sizes(header):
    """Agent count and community sizes from a network-file header."""
    if len(header) < 3:
        raise MalformedFile(f"network header {header} needs at least 3 fields")
    n = header[0]
    if len(header) == 3 and header[1] + header[2] == n:
        sizes = header[1:]
    else:
        k, sizes = header[1], header[2:]
        if len(sizes) != k:
            raise MalformedFile(f"network header {header} declares {k} communities")
    if sum(sizes) != n or min(sizes) < 0:
        raise MalformedFile(f"community sizes {sizes} do not split {n} agents")
    return n, sizes


def load_network(path):
    """Read a network file and rebuild the averaging-rule combination matrix.

    Raises
    ------
    MalformedFile
        If the file is a directory or not text, or the header, the shape of
        the adjacency block or one of its entries does not follow the format.
    """
    with reading(path), open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise MalformedFile(f"{path}: empty network file")
    try:
        header = [int(tok) for tok in lines[0]]
    except ValueError:
        raise MalformedFile(f"{path}: network header {lines[0]} is not all integers") from None
    n, sizes = _community_sizes(header)
    rows = lines[1:]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise MalformedFile(f"{path}: adjacency block is not {n} rows of {n} entries")
    entries = np.array(rows)
    if not np.isin(entries, ("0", "1")).all():
        raise MalformedFile(f"{path}: adjacency entries must be 0 or 1")
    adjacency = (entries == "1").astype(np.int8)
    clusters = np.repeat(np.arange(len(sizes)), sizes)
    return Network(
        adjacency=adjacency,
        combination=averaging_combination(adjacency),
        clusters=clusters,
    )


def save_matrix_csv(path, matrix):
    """Write a dense matrix as CSV with 17 significant digits (lossless for
    double precision)."""
    with open(path, "w") as fh:
        np.savetxt(fh, np.asarray(matrix, dtype=float), delimiter=",", fmt="%.17g")


def load_matrix_csv(path):
    """Read a matrix CSV; a directory, a file that is not text, a cell that is
    not a number, or ragged rows raise MalformedFile."""
    with reading(path):
        try:
            return np.atleast_2d(np.loadtxt(path, delimiter=","))
        except ValueError as exc:
            raise MalformedFile(f"{path}: not a matrix of numbers ({exc})") from None
