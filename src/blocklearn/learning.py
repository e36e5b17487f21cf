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

import functools
import json
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import __version__
from .exceptions import DeltaOutOfRange, InvalidPair
from .models import observation_matrix

__all__ = [
    "BeliefState",
    "Trace",
    "check_pair",
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
    "RowPrefix",
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

    def to_csv(self, path, prefix=None):
        """Write rows ``iter, agent, cluster, log_ratio, estimate[, obs]`` and
        a JSON metadata sidecar next to the CSV.

        The text is that of a ``csv.writer`` row loop (``%.17g``
        log-ratios, CRLF endings), written by ``write_rows`` from two
        columns: the float log-ratios, and the ``estimate[,obs]`` text as a
        ``(table, codes)`` pair over the strings this trace can hold.  The
        ``iter,agent,cluster,`` text comes from ``prefix``, a ``RowPrefix``
        that the traces of one run share (by default, one for this trace
        alone).
        """
        steps = self.horizon + 1
        if prefix is None:
            prefix = RowPrefix(steps, self.n_agents, self.clusters)
        elif not prefix.fits(steps, self.clusters):
            raise ValueError("row prefix does not match the trace's shape and clusters")
        header = b"iter,agent,cluster,log_ratio,estimate"
        n_estimates = int(self.estimates.max()) + 1
        if self.observations is None:
            tails = [str(e) for e in range(n_estimates)]
            codes = self.estimates
        else:
            header += b",obs"
            # code e * (m + 1) for row 0, which has no observation, and
            # e * (m + 1) + s + 1 for symbol s
            m = int(self.observations.max()) + 1 if self.observations.size else 0
            tails = [f"{e},{s}" for e in range(n_estimates) for s in [""] + list(range(m))]
            codes = self.estimates.astype(np.intp) * (m + 1)
            codes[1:] += self.observations.T
            codes[1:] += 1
        with open(path, "wb") as fh:
            fh.write(header + b"\r\n")
            write_rows(fh, [self.log_ratio.ravel(), (tails, codes.ravel())], prefix=prefix)
        with open(str(path) + ".meta.json", "w") as fh:
            json.dump(self.metadata, fh, indent=2, default=str)


# -- CSV text --------------------------------------------------------------------

# Rows turned into text and written at once by ``write_rows``.
ROWS_PER_WRITE = 4096

# Veltkamp's constant 2**27 + 1 splits a double into two halves whose
# pairwise products are exact.
_SPLIT = 134217729.0


@functools.cache
def _float_tables():
    """Lookup tables of the float kernel, built on first use (read-only,
    117 KB).

    A text slot is 40 bytes: ``-0.000`` (sign, and the ``0.`` and zeros of a
    value below 1), then the 17 digits each followed by a point, ``d.d.``.
    Returns

    - ``words``, ``(10010,)`` uint64: ``d.d.d.d.`` for each 4-digit group
      ``0..9999``, then the slot's first 8 bytes, ``-0.000d.``, for each
      leading digit ``d`` at ``10000 + d``;
    - ``trailing``, ``(10000,)`` uint8: the trailing zeros of each group (4
      for 0);
    - ``masks``, ``(2 * 20 * 17, 5)`` uint64: 0xff on the bytes of the slot
      that the ``%.17g`` text uses and 0 elsewhere, at row ``(negative * 20
      + exponent + 4) * 17 + zeros`` for exponents -4..15 and 0..16
      trailing zeros;
    - ``powers``, ``(3, 21)``: ``10**q`` for q in 0..20 (exact in binary64
      up to q = 22) and its two Veltkamp halves.
    """
    ascii_digits = np.arange(10, dtype=np.uint8) + ord("0")
    words = np.full((10010, 8), ord("."), dtype=np.uint8)
    words[:10000, ::2] = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"),
                                  axis=-1).reshape(-1, 4)
    words[10000:, :6] = np.frombuffer(b"-0.000", dtype=np.uint8)
    words[10000:, 6] = ascii_digits
    trailing = np.zeros(10000, dtype=np.uint8)
    for power in (10, 100, 1000, 10000):
        trailing[::power] += 1
    negative, exponent, zeros, col = np.ix_(np.arange(2), np.arange(-4, 16), np.arange(17),
                                            np.arange(40))
    digit = (col - 6) // 2  # the digit at byte 6 + 2i, or the point after it at 7 + 2i
    last = np.where(exponent >= 0, np.maximum(exponent, 16 - zeros), 16 - zeros)
    masks = (((col == 0) & (negative == 1))
             | ((exponent < 0) & (col >= 1) & (col <= 1 - exponent))
             | ((col >= 6) & (col % 2 == 0) & (digit <= last))
             | ((col >= 7) & (col % 2 == 1) & (exponent >= 0) & (digit == exponent)
                & (16 - zeros > exponent)))
    masks = (masks.reshape(-1, 40) * np.uint8(0xFF)).view(np.uint64)
    power = 10.0 ** np.arange(21)
    high = power * _SPLIT - (power * _SPLIT - power)
    tables = words.view(np.uint64).ravel(), trailing, masks, np.stack([power, high, power - high])
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a, exponent):
    """``a * 10**(16 - exponent)`` as ``p + e`` with no rounding error:
    Dekker's two-product on Veltkamp halves (no fused multiply-add needed),
    ``e = ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo``."""
    q = 16 - exponent
    b, b_hi, b_lo = (row.take(q) for row in _float_tables()[3])
    p = a * b
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    e = a_hi * b_hi
    e -= p
    a_hi *= b_lo
    e += a_hi
    b_hi *= a_lo
    e += b_hi
    b_lo *= a_lo
    e += b_lo
    return p, e


def _digits17(a):
    """The 17 significant decimal digits of each ``a`` in ``[1e-4, 1e16)``,
    correctly rounded (ties to even) as ``%.17g`` rounds them.

    Returns ``(digits, exponent)``: ``a`` rounds to ``digits * 10**(exponent
    - 16)`` with ``10**16 <= digits < 10**17``.
    """
    exponent = np.floor(np.log10(a)).astype(np.intp)
    p, e = _scaled(a, exponent)
    # the exact scaled value p + e must lie in [1e16, 1e17); log10 can put
    # the exponent one off next to a power of ten
    off = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    while off.size:
        p_off, e_off = p[off], e[off]
        low = (p_off < 1e16) | ((p_off == 1e16) & (e_off < 0))
        high = (p_off > 1e17) | ((p_off == 1e17) & (e_off >= 0))
        off = off[low | high]
        exponent[off] += np.where(high, 1, -1)[low | high]
        p[off], e[off] = _scaled(a[off], exponent[off])
    # p is an even integer above 2**53, so rounding p + e to an integer
    # half-to-even is rounding e.  No double in [1e-4, 1e16) rounds up to
    # 10**17 here: the one below each power of ten 10**-3 .. 10**16 prints
    # below it (0.099999999999999992), and 1e-4 itself lies above 10**-4.
    digits = p.astype(np.int64)
    digits += np.rint(e).astype(np.int64)
    return digits, exponent


def _float_text(values):
    """``%.17g`` text of a float column, as an ``(n, 40)`` uint8 matrix whose
    row i is the text of value i with NUL bytes in and after it.

    Finite values with ``1e-4 <= |x| < 1e16``, where ``%.17g`` prints fixed
    notation, are converted by ``_digits17``; every other value (zeros,
    subnormals, tiny and huge values, nan, infinities) by ``'%.17g' % v``.
    """
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    # 2.0 stands in for the other values: it needs no exponent correction
    digits, exponent = _digits17(np.where(fast, a, 2.0))
    words, trailing, masks, _ = _float_tables()
    # the leading digit, then four groups of four, one row of words per
    # value: a C-ordered index makes the gather several times faster
    groups = np.empty((x.size, 5), dtype=np.int64)
    quotient = np.empty_like(digits)
    for i, power in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(digits, power, out=quotient)
        groups[:, i] = quotient
        quotient *= power
        digits -= quotient
    groups[:, 4] = digits
    zeros = trailing[digits].astype(np.intp)
    groups[:, 0] += 10000
    slot = words.take(groups)
    # a group of zeros passes the trailing-zero count on to the group before it
    rows = np.flatnonzero(digits == 0)
    for group in groups.T[3:0:-1]:
        if not rows.size:
            break
        zeros[rows] += trailing[group[rows]]
        rows = rows[group[rows] == 0]
    exponent += 4
    exponent += 20 * np.signbit(x)
    exponent *= 17
    exponent += zeros
    slot &= masks.take(exponent, axis=0)
    chars = slot.view(np.uint8)
    for i in np.flatnonzero(~fast):
        text = b"%.17g" % x[i]
        chars[i] = 0
        chars[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return chars


def _int_text(values):
    """``%d`` text of an integer (or boolean) column, right-aligned in a
    slot as wide as the widest value, with NUL bytes before it."""
    v = np.asarray(values).astype(np.int64)
    magnitude = np.abs(v).view(np.uint64)  # |int64 min| wraps to 2**63, as wanted
    width = len(str(int(magnitude.max()))) if v.size else 1
    powers = np.uint64(10) ** np.arange(width - 1, -1, -1, dtype=np.uint64)
    chars = (magnitude[:, None] // powers % np.uint64(10)).astype(np.uint8) + ord("0")
    # a place is written when its power does not exceed the value, and the
    # ones place always
    unused = magnitude[:, None] < powers
    unused[:, -1] = False
    chars[unused] = 0
    negative = v < 0
    if negative.any():
        sign = np.where(negative, np.uint8(ord("-")), np.uint8(0))
        chars = np.concatenate([sign[:, None], chars], axis=1)
    return chars


def _table_text(table):
    """The strings of a table column, one per row, padded with NUL.  NUL
    marks the unused bytes of a slot, so a string may not hold it."""
    if any("\0" in text for text in table):
        raise ValueError(f"CSV text may not hold NUL: {table!r}")
    encoded = [text.encode("ascii") for text in table]
    chars = np.zeros((len(encoded), max(map(len, encoded), default=0)), dtype=np.uint8)
    for row, text in zip(chars, encoded):
        row[: len(text)] = np.frombuffer(text, dtype=np.uint8)
    return chars


class RowPrefix:
    """The fixed ``iter,agent,`` text, or ``iter,agent,cluster,`` given the
    agents' clusters, that starts each row of a table with one row per
    (iteration, agent), iteration-major.

    ``write_rows`` takes the prefix of one ``ROWS_PER_WRITE`` window at a
    time from it, as a byte matrix of one row per table row (NUL bytes
    mark the unused ones).  A window is built on first use and kept, so the
    tables of one shape written through one prefix (a run's traces) convert
    only their own columns.
    """

    def __init__(self, steps, n_agents, clusters=None):
        self.steps = steps
        self.n_agents = n_agents
        self.clusters = None if clusters is None else np.asarray(clusters)
        self._windows = {}

    def fits(self, steps, clusters):
        return steps == self.steps and np.array_equal(clusters, self.clusters)

    def window(self, start):
        """The prefix bytes of rows ``start .. start + ROWS_PER_WRITE - 1``."""
        if start not in self._windows:
            index = np.arange(start, min(start + ROWS_PER_WRITE, self.steps * self.n_agents))
            columns = list(np.divmod(index, self.n_agents))
            if self.clusters is not None:
                columns.append(self.clusters[columns[1]])
            comma = np.full((index.size, 1), ord(","), dtype=np.uint8)
            self._windows[start] = np.concatenate(
                [part for col in columns for part in (_int_text(col), comma)], axis=1)
        return self._windows[start]


def _column_text(column):
    """A ``write_rows`` column's data and the function that converts it to
    a text matrix, a window of rows at a time, as ``(convert, data)``."""
    if isinstance(column, tuple):
        table, codes = column
        return functools.partial(_table_text(table).take, axis=0), np.asarray(codes)
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return _float_text, column
    if column.dtype.kind in "iub":
        return _int_text, column
    raise ValueError(f"write_rows cannot write a column of dtype {column.dtype}")


_COMMA = np.frombuffer(b",", dtype=np.uint8)
_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)


def write_rows(fh, columns, prefix=None):
    """Write equal-length columns as comma-separated rows with CRLF endings
    to a binary file, one ``write`` per ``ROWS_PER_WRITE`` rows.

    A float column is written as ``%.17g``, an integer or boolean column as
    ``%d``, and a pair ``(table, codes)`` (a sequence of ASCII strings and,
    per row, the index of its string) as the string.  The bytes are those
    of a ``csv.writer`` row loop over such text.  With a ``RowPrefix``,
    every row starts with the prefix's fixed text.

    No Python object is made per value.  A window of rows is a ``uint8``
    matrix of one slot per field: the prefix from its cache, floats from an
    exact vectorised kernel, integers from digit arithmetic, strings from
    the table's rows, and the separators.  NUL bytes fill what a slot does
    not use, and deleting them leaves the window's text.
    """
    fields = [_column_text(column) for column in columns]
    lengths = {data.size for _, data in fields}
    if len(lengths) != 1:
        raise ValueError("write_rows needs at least one column, all of one length")
    total = lengths.pop()
    for start in range(0, total, ROWS_PER_WRITE):
        stop = min(start + ROWS_PER_WRITE, total)
        parts = [] if prefix is None else [prefix.window(start)]
        for convert, data in fields:
            parts += [convert(data[start:stop]), np.broadcast_to(_COMMA, (stop - start, 1))]
        parts[-1] = np.broadcast_to(_CRLF, (stop - start, 2))
        text = bytearray((stop - start) * sum(part.shape[1] for part in parts))
        np.concatenate(parts, axis=1, out=np.frombuffer(text, dtype=np.uint8).reshape(stop - start, -1))
        fh.write(text.translate(None, b"\0"))


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
    chunk = min(STEPS_PER_CHUNK, horizon)
    x_psi = np.empty((chunk, n_reps, n, n_ratios))
    x_mu = np.empty_like(x_psi)
    index = np.empty((chunk, n_reps, n), dtype=np.intp)
    like = np.empty_like(x_psi)
    steps = list(zip(x_psi, x_mu, like))
    prev_mu = np.zeros((n_reps, n, n_ratios))
    for start in range(0, horizon, STEPS_PER_CHUNK):
        size = min(STEPS_PER_CHUNK, horizon - start)
        # w_like * l for the whole chunk, in one gather; every index is in
        # range, and "clip" lets take write straight into the buffer
        np.add(offsets, symbols[start : start + size], out=index[:size])
        weighted.take(index[:size], axis=0, out=like[:size], mode="clip")
        for psi, mu, step_like in steps[:size]:
            np.multiply(prev_mu, w_prior, out=psi)
            psi += step_like
            prev_mu = np.matmul(combination_t, psi, out=mu)
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


def check_delta(delta):
    """Raise DeltaOutOfRange unless the step size, or every entry of an array
    of them, lies strictly inside (0, 1).  None and NaN are rejected."""
    values = np.asarray(np.nan if delta is None else delta)
    inside = (values > 0.0) & (values < 1.0)
    if not inside.all():
        bad = delta if values.ndim == 0 else values[~inside][0]
        raise DeltaOutOfRange(f"delta must be in (0, 1), got {bad}")


def check_strategy(strategy, delta, estimator):
    """Reject an unknown strategy or estimator, and a step size outside
    (0, 1), or none, for the step-size strategy."""
    if strategy not in ("asl", "traditional"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "asl":
        check_delta(delta)
    if estimator not in ("mu", "psi"):
        raise ValueError(f"estimator must be 'mu' or 'psi', got {estimator!r}")


def check_pair(pair, n_hypotheses):
    """Raise InvalidPair unless ``pair`` names two of the ``n_hypotheses``
    hypotheses by index (negative indices are rejected, not wrapped)."""
    if len(pair) != 2 or not all(isinstance(h, Integral) and 0 <= h < n_hypotheses for h in pair):
        raise InvalidPair(f"pair {list(pair)} must be two hypothesis indices in "
                          f"0..{n_hypotheses - 1}")


def simulate_block(combination_t, profile, symbols, strategy, delta, pair, estimator,
                   on_chunk=None, record=None, record_observations=False, burn_in=0):
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
        ``mu`` and ``est`` are None on a chunk that ends at or before
        ``burn_in`` when nothing is recorded.
    record : sequence of (network, seed, extra), optional
        One entry per replicate: its network, its seed and the metadata its
        trace adds to ``trace_metadata``.  When given, the series of every
        replicate are recorded and returned as traces.
    record_observations : bool
        Whether the recorded traces keep their symbols, as views of
        ``symbols``.
    burn_in : int
        Iterations whose ``mu`` and ``est`` the caller does not need, unless
        it records traces.

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
        trace_est = np.zeros((n_reps, horizon + 1, n),
                             dtype=np.min_scalar_type(profile.n_hypotheses - 1))
    chunks = log_ratio_chunks(combination_t, llr_table(profile), symbols.transpose(2, 0, 1),
                              w_like, w_prior)
    for start, x_psi, x_mu in chunks:
        psi = pair_ratio(x_psi, pair)  # (K, B, N)
        if record is None and start + psi.shape[0] <= burn_in:
            mu = est = None
        else:
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
            observations=symbols[j] if record_observations else None,
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
    check_pair(pair, profile.n_hypotheses)
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
