"""Hypothesis sets, per-agent discrete likelihood models, KL utilities, and
the per-agent observation streams."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .exceptions import MalformedFile, SupportMismatch, reading

__all__ = [
    "HypothesisSet",
    "LikelihoodProfile",
    "InformativenessReport",
    "bernoulli_profile",
    "random_multinomial_profile",
    "kl_divergence",
    "cluster_informativeness",
    "check_global_identifiability",
    "observation_matrix",
    "seed_words",
    "save_profile",
    "load_profile",
]

MIN_LIKELIHOOD = 1e-12


@dataclass(frozen=True)
class HypothesisSet:
    """Ordered, immutable collection of hypothesis labels."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if len(labels) < 2:
            raise ValueError("need at least two hypotheses")
        if len(set(labels)) != len(labels):
            raise ValueError("hypothesis labels must be unique")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def numbered(cls, count):
        return cls(tuple(f"theta{i}" for i in range(count)))

    def index(self, label):
        return self.labels.index(label)

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


@dataclass
class LikelihoodProfile:
    """Per-agent, per-hypothesis distributions over a finite alphabet.

    Attributes
    ----------
    likelihoods : ndarray, shape (N, H, m)
        ``likelihoods[k, h]`` is the distribution of agent k's observation
        under hypothesis h.  Every row must sum to one and every entry must
        be strictly positive (at least 1e-12) so log-likelihood ratios stay
        finite.
    true_state : ndarray, shape (N,)
        Index of the hypothesis generating each agent's observations.
    hypotheses : HypothesisSet
    """

    likelihoods: np.ndarray
    true_state: np.ndarray
    hypotheses: HypothesisSet = None
    reference: str = "inline"
    log_likelihoods: np.ndarray = field(init=False, repr=False)
    _true_cdf: np.ndarray = field(init=False, repr=False)
    _symbol_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.likelihoods = np.asarray(self.likelihoods, dtype=float)
        self.true_state = np.asarray(self.true_state, dtype=int)
        if self.likelihoods.ndim != 3:
            raise ValueError("likelihoods must have shape (agents, hypotheses, alphabet)")
        n, h, _ = self.likelihoods.shape
        if self.hypotheses is None:
            self.hypotheses = HypothesisSet.numbered(h)
        if len(self.hypotheses) != h:
            raise ValueError("hypothesis labels do not match likelihood axis")
        if self.true_state.shape != (n,):
            raise ValueError("true_state must assign one hypothesis per agent")
        if np.any(self.true_state < 0) or np.any(self.true_state >= h):
            raise ValueError("true_state indices out of range")
        # written so that NaN fails both checks
        if not np.all(self.likelihoods >= MIN_LIKELIHOOD):
            raise ValueError(
                f"likelihood entries must be at least {MIN_LIKELIHOOD} "
                "(log-likelihood ratios must stay finite)"
            )
        row_sums = self.likelihoods.sum(axis=2)
        if not np.all(np.abs(row_sums - 1.0) <= 1e-9):
            raise ValueError("each likelihood row must sum to one")
        self.log_likelihoods = np.log(self.likelihoods)
        true_rows = self.likelihoods[np.arange(n), self.true_state]
        self._true_cdf = np.cumsum(true_rows, axis=1)
        self._symbol_table = (_bucket_table(self._true_cdf)
                              if self.alphabet_size > COUNT_ALPHABET else None)

    @property
    def n_agents(self):
        return self.likelihoods.shape[0]

    @property
    def n_hypotheses(self):
        return self.likelihoods.shape[1]

    @property
    def alphabet_size(self):
        return self.likelihoods.shape[2]


def _normalize_rows(raw):
    raw = np.clip(raw, MIN_LIKELIHOOD, None)
    return raw / raw.sum(axis=-1, keepdims=True)


def bernoulli_profile(clusters, success_probs):
    """Profile where hypothesis h makes every agent observe Bernoulli(s_h).

    ``clusters`` doubles as the true state: agents in cluster c follow
    hypothesis c.
    """
    clusters = np.asarray(clusters, dtype=int)
    probs = np.asarray(success_probs, dtype=float)
    rows = np.stack([1.0 - probs, probs], axis=1)  # (H, 2)
    likelihoods = _normalize_rows(np.broadcast_to(rows, (clusters.size, *rows.shape)).copy())
    return LikelihoodProfile(
        likelihoods=likelihoods,
        true_state=clusters,
        reference=f"bernoulli{tuple(float(p) for p in probs)}",
    )


def random_multinomial_profile(clusters, alphabet_size, seed, n_hypotheses=None):
    """Per-agent random multinomial likelihoods: entries drawn uniform(0, 1)
    and normalized.  Agents in cluster c follow hypothesis c."""
    clusters = np.asarray(clusters, dtype=int)
    if n_hypotheses is None:
        n_hypotheses = int(clusters.max()) + 1
    rng = np.random.default_rng(seed)
    raw = rng.random((clusters.size, n_hypotheses, alphabet_size))
    return LikelihoodProfile(
        likelihoods=_normalize_rows(raw),
        true_state=clusters,
        reference=f"multinomial(m={alphabet_size}, seed={seed})",
    )


def kl_divergence(p, q):
    """Kullback-Leibler divergence ``sum p_i log(p_i / q_i)`` in nats.

    Zero-mass entries of ``p`` contribute nothing; a zero in ``q`` facing
    positive mass in ``p`` raises SupportMismatch.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have equal length")
    support = p > 0
    if np.any(q[support] <= 0):
        raise SupportMismatch("q has zero mass on the support of p")
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


def divergence_table(profile):
    """Per-agent KL from the agent's true model to every hypothesis: (N, H).

    One array expression over the ``(N, H, m)`` likelihoods, whose entries
    are all positive, so every symbol is in every support.
    """
    like = profile.likelihoods
    truth = like[np.arange(profile.n_agents), profile.true_state][:, None, :]
    return (truth * np.log(truth / like)).sum(axis=-1)


@dataclass
class InformativenessReport:
    """Cluster-level informativeness summary.

    ``d0``/``d1`` hold the two-cluster pairwise values (KL from each
    cluster's true model to the other cluster's truth); they are None when
    the layout is not two clusters with distinct truths.  ``summed_d[c]``
    averages, over cluster-c agents, the total divergence to all competing
    hypotheses.  ``per_agent[k, h]`` is the KL from agent k's true model to
    hypothesis h.  Deviations are within-cluster ranges (max minus min).
    """

    per_agent: np.ndarray
    clusters: np.ndarray
    d0: float
    d1: float
    summed_d: np.ndarray
    homogeneous: bool
    max_deviation: float
    variant_used: str = "pairwise (d0, d1); summed_d is the multi-hypothesis sum"


def cluster_informativeness(profile, clusters, tol=1e-9):
    """Summarize per-cluster informativeness and check within-cluster homogeneity."""
    clusters = np.asarray(clusters, dtype=int)
    table = divergence_table(profile)
    labels = sorted(set(clusters.tolist()))

    max_dev = 0.0
    for c in labels:
        rows = table[clusters == c]
        max_dev = max(max_dev, float((rows.max(axis=0) - rows.min(axis=0)).max()))
    homogeneous = max_dev <= tol

    others = table.sum(axis=1)  # own-truth column is zero, so the row sum is the competitor sum
    summed = np.array([others[clusters == c].mean() for c in labels])

    d0 = d1 = None
    if len(labels) == 2:
        truth0 = profile.true_state[clusters == labels[0]]
        truth1 = profile.true_state[clusters == labels[1]]
        if truth0.size and truth1.size and np.all(truth0 == truth0[0]) and np.all(truth1 == truth1[0]):
            t0, t1 = int(truth0[0]), int(truth1[0])
            if t0 != t1:
                d0 = float(table[clusters == labels[0], t1].mean())
                d1 = float(table[clusters == labels[1], t0].mean())

    return InformativenessReport(
        per_agent=table,
        clusters=clusters,
        d0=d0,
        d1=d1,
        summed_d=summed,
        homogeneous=homogeneous,
        max_deviation=max_dev,
    )


def check_global_identifiability(profile, theta_star):
    """Check that every competing hypothesis is distinguishable by someone.

    Returns ``(identifiable, witnesses)`` where ``witnesses[h]`` lists the
    agents with strictly positive KL between hypothesis ``theta_star`` and
    hypothesis ``h``.
    """
    if isinstance(theta_star, str):
        theta_star = profile.hypotheses.index(theta_star)
    like = profile.likelihoods
    star = like[:, theta_star, None, :]
    distinguishes = (star * np.log(star / like)).sum(axis=-1) > 0  # (N, H) KL from theta_star
    witnesses = {h: np.flatnonzero(distinguishes[:, h]).tolist()
                 for h in range(profile.n_hypotheses) if h != theta_star}
    return all(witnesses.values()), witnesses


# -- observation streams -------------------------------------------------------
#
# Agent k of seed s draws from ``default_rng(SeedSequence(s).spawn(N)[k])``.
# Building that SeedSequence and Generator per agent costs more than the
# draws, so ``observation_matrix`` runs NumPy's documented SeedSequence hash
# itself, for every (seed, agent) at once on uint32 arrays: ``mix_entropy``
# over the seed's words (zero-padded to the pool size, since a spawned child
# has a spawn key) followed by the key ``(k,)``, then
# ``generate_state(4, uint64)``.  It seeds one reused PCG64 from those words
# as ``PCG64(child)`` does.  The streams are NumPy's, draw for draw.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_words(seed):
    """The 32-bit words ``SeedSequence`` reads from an integer seed, least
    significant first.

    Raises
    ------
    ValueError
        If the seed is negative.
    TypeError
        If the seed is not an integer.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _hashmix(value, const):
    """SeedSequence's ``hashmix`` on a uint32 array; returns the hashed
    value and the next hash constant."""
    const_next = (const * _MULT_A) & _MASK32
    value = (value ^ const) * np.uint32(const_next)
    return value ^ (value >> 16), const_next


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> 16)


def _spawned_states(entropy, n_agents):
    """``generate_state(4, uint64)`` of ``SeedSequence(words).spawn(n_agents)``.

    ``entropy`` holds the words of G seeds that have the same word count,
    zero-padded to at least the pool size: shape (G, W), uint32.  Returns
    shape (G, n_agents, 4), uint64.
    """
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word, const = _hashmix(entropy[:, i], const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    # the words beyond the pool, then the spawn key (the agent index)
    tail = [entropy[:, i, None] for i in range(_POOL_SIZE, entropy.shape[1])]
    tail.append(np.arange(n_agents, dtype=np.uint32)[None, :])
    pool = [word[:, None] for word in pool]
    for word in tail:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)

    const = _INIT_B
    state = []
    for i in range(8):  # four uint64 words, as little-endian uint32 halves
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([low | (high << np.uint64(32)) for low, high in zip(state[::2], state[1::2])],
                    axis=-1)


def _child_states(seeds, n_agents):
    """``SeedSequence(s).spawn(n_agents)[k].generate_state(4, np.uint64)`` for
    every seed s and agent k: shape (len(seeds), n_agents, 4)."""
    words = [seed_words(s) for s in seeds]
    states = np.empty((len(words), n_agents, 4), dtype=np.uint64)
    for count in sorted(set(map(len, words))):
        rows = [i for i, w in enumerate(words) if len(w) == count]
        entropy = np.zeros((len(rows), max(count, _POOL_SIZE)), dtype=np.uint32)
        entropy[:, :count] = [words[i] for i in rows]
        states[rows] = _spawned_states(entropy, n_agents)
    return states


def _pcg64_state(words):
    """The PCG64 state ``PCG64`` seeds from ``generate_state(4, uint64)``."""
    initstate = (words[0] << 64) | words[1]
    inc = ((((words[2] << 64) | words[3]) << 1) | 1) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


# Alphabets up to this size map draws by counting, which is one or two passes;
# larger ones look the symbol up in a table over BUCKETS equal buckets of u.
COUNT_ALPHABET = 3
BUCKETS = 4096


def _bucket_table(cdf):
    """Per-agent symbol of every bucket ``[b, b + 1) / BUCKETS`` of u:
    shape (N, BUCKETS), in ``np.min_scalar_type(m)``.

    Scaling by a power of two is exact, so a threshold ``c = cdf[k, j]``
    (``j < m - 1``) with ``c * BUCKETS <= b`` counts for every u in bucket
    b, and one with ``c * BUCKETS >= b + 1`` for none.  The entry is that
    count unless some threshold lies strictly inside the bucket; such an
    ambiguous bucket holds m, which no symbol takes.  N * BUCKETS bytes for
    alphabets up to 255 (300 KiB at N = 75), twice that above.
    """
    n, m = cdf.shape
    scaled = cdf[:, :-1] * BUCKETS
    # edges[k, j + 1] is the first bucket threshold j counts in (BUCKETS for
    # none); the rows are sorted, so symbol j fills the buckets
    # edges[k, j] .. edges[k, j + 1] - 1
    edges = np.full((n, m + 1), BUCKETS, dtype=np.intp)
    edges[:, 0] = 0
    edges[:, 1:-1] = np.minimum(np.ceil(scaled), BUCKETS)
    symbols = np.tile(np.arange(m, dtype=np.min_scalar_type(m)), n)
    table = np.repeat(symbols, np.diff(edges, axis=1).ravel()).reshape(n, BUCKETS)
    agents, j = np.nonzero((scaled < BUCKETS) & (scaled != np.floor(scaled)))
    table[agents, np.floor(scaled[agents, j]).astype(np.intp)] = m
    return table


def _symbols_from_uniforms(cdf, table, u, out, index=None):
    """Map uniform draws ``u`` (N, T) in [0, 1) to symbols through the
    per-agent cdf rows ``cdf`` (N, m), writing into ``out`` (N, T).

    A symbol counts the entries ``cdf[k, j] <= u`` over ``j < m - 1``: the
    same as ``searchsorted(cdf[k], u, side="right")`` clipped to ``m - 1``
    (the last cdf entry can round below one), because each row is sorted.
    Without a ``table`` the count takes m - 1 passes over ``u``.  With the
    ``_bucket_table`` of ``cdf`` a draw is one gather at its bucket
    ``floor(u * BUCKETS)``, through ``index``, an (N, T) intp buffer; only
    draws in ambiguous buckets (about (m - 1) / BUCKETS of them) are counted.
    """
    n, m = cdf.shape
    if table is None:
        out[...] = 0
        for j in range(m - 1):
            out += cdf[:, j, None] <= u
        return out
    # u * BUCKETS is exact and truncates to its floor, since u >= 0
    np.multiply(u, BUCKETS, out=index, casting="unsafe")
    index += np.arange(0, n * BUCKETS, BUCKETS)[:, None]
    # the gather needs a dtype that holds the ambiguous mark m
    symbols = out if out.dtype == table.dtype else np.empty(u.shape, table.dtype)
    table.take(index, out=symbols, mode="clip")
    agents, steps = np.divmod(np.flatnonzero(symbols == m), u.shape[1])
    symbols[agents, steps] = (cdf[agents, :-1] <= u[agents, steps, None]).sum(axis=1)
    if symbols is not out:
        out[...] = symbols
    return out


def observation_matrix(profile, horizon, seed):
    """Draw observation symbols, one independent substream per agent.

    Agent k of seed s draws its uniforms from
    ``default_rng(SeedSequence(s).spawn(N)[k])``, so the draws of agent k do
    not depend on the network size, and maps them through its true cdf
    (``_symbols_from_uniforms``: a lookup in the profile's bucket table for
    alphabets above ``COUNT_ALPHABET``, a count otherwise).

    Parameters
    ----------
    seed : int or sequence of int
        One non-negative seed, or the seeds of a block of replicates.

    Returns
    -------
    ndarray
        ``(N, horizon)`` int64 symbols for one seed; ``(B, N, horizon)``
        symbols in the smallest unsigned dtype that holds the alphabet for a
        sequence of B seeds.  Each replicate fills one ``(N, horizon)``
        buffer of uniforms and, for the table lookup, one of bucket
        indices; both are reused across the block.
    """
    if np.ndim(seed) == 0:
        return observation_matrix(profile, horizon, [seed])[0].astype(np.int64)
    n = profile.n_agents
    states = _child_states(seed, n)
    out = np.empty((len(states), n, horizon), dtype=np.min_scalar_type(profile.alphabet_size - 1))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    uniforms = np.empty((n, horizon))
    table = profile._symbol_table
    index = None if table is None else np.empty((n, horizon), dtype=np.intp)
    for block_row, agent_states in zip(out, states):
        for row, words in zip(uniforms, agent_states.tolist()):
            bit_generator.state = _pcg64_state(words)
            generator.random(out=row)
        _symbols_from_uniforms(profile._true_cdf, table, uniforms, block_row, index)
    return out


# -- text format -------------------------------------------------------------
#
# Header "N H m", one line of hypothesis labels, one line of per-agent true
# state indices, then N*H probability rows (agent-major).  '#' starts a
# comment line.


def save_profile(path, profile):
    n, h, m = profile.likelihoods.shape
    with open(path, "w") as fh:
        fh.write(f"{n} {h} {m}\n")
        fh.write(" ".join(profile.hypotheses.labels) + "\n")
        fh.write(" ".join(str(int(t)) for t in profile.true_state) + "\n")
        np.savetxt(fh, profile.likelihoods.reshape(n * h, m), fmt="%.17g")


def load_profile(path):
    """Read a profile file.

    Raises
    ------
    MalformedFile
        If the file is a directory or not text, is shorter than its header
        declares, a line has the wrong number of fields, or the entries do
        not make a profile.
    """
    with reading(path), open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    try:
        n, h, m = (int(tok) for tok in lines[0])
        true_state = np.array([int(tok) for tok in lines[2]])
        rows = np.array(lines[3:], dtype=float)
    except (IndexError, ValueError):
        raise MalformedFile(f"{path}: not a profile file (header 'N H m', labels, states, rows)") from None
    labels = tuple(lines[1])
    if len(labels) != h or true_state.shape != (n,) or rows.shape != (n * h, m):
        raise MalformedFile(
            f"{path}: expected {h} labels, {n} true states and {n * h} rows of {m} "
            f"probabilities, found {len(labels)}, {true_state.size} and {len(lines) - 3} rows"
        )
    try:  # a row that does not sum to one, a true state out of range, repeated labels
        return LikelihoodProfile(likelihoods=rows.reshape(n, h, m), true_state=true_state,
                                 hypotheses=HypothesisSet(labels), reference=str(path))
    except ValueError as exc:
        raise MalformedFile(f"{path}: {exc}") from None
