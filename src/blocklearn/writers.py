"""The layout of every file blocklearn writes: CSV text, trace files, and a
command's output directory with its manifest."""

import functools
import json
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["ROWS_PER_WRITE", "TRACE_NAME", "TraceWriter", "iteration_prefix", "remove_outputs",
           "text_column", "write_directory", "write_rows", "write_table", "write_traces"]


# Rows turned into text and written at once by ``write_rows``.
ROWS_PER_WRITE = 4096

# The name of the i-th trace CSV of a run.
TRACE_NAME = "trace_{:04d}.csv"

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
    subnormals, tiny and huge values, nan, infinities) by ``_value_text``.
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
    rest = np.flatnonzero(~fast)
    if rest.size:
        text = _value_text("%.17g", x[rest])
        chars[rest] = 0
        chars[rest, :text.shape[1]] = text
    return chars


def _value_text(template, values):
    """``template % value`` for each value of a 1-D column, as a text column.
    Each distinct bit pattern is formatted once (so ``-0.0`` keeps its sign),
    and its text row is repeated for every value that has it."""
    bits, codes = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    return text_column([template % v for v in bits.view(values.dtype).tolist()])[codes]


def text_column(strings):
    """A text column of ``write_rows``: one row of ASCII bytes per string,
    padded with NUL.  NUL marks the unused bytes of a row, so a string may
    not hold it.  Indexing its rows repeats them: ``text_column(table)[codes]``."""
    if "\0" in "".join(strings):
        raise ValueError(f"CSV text may not hold NUL: {strings!r}")
    encoded = np.array(strings, dtype=bytes)  # UnicodeEncodeError unless ASCII
    return encoded.view(np.uint8).reshape(len(strings), encoded.itemsize)


def _column_text(column):
    """A ``write_rows`` column's data and the function that converts a window
    of its rows to a text matrix, as ``(convert, data)``."""
    column = np.asarray(column)
    if column.ndim == 2 and column.dtype == np.uint8:
        return np.asarray, column  # a text column's rows are its text
    if column.dtype.kind == "f":
        return _float_text, column
    if column.dtype.kind in "iub":
        return functools.partial(_value_text, "%d"), column
    raise ValueError(f"write_rows cannot write a column of dtype {column.dtype}")


def write_rows(fh, columns):
    """Write equal-length columns as comma-separated rows with CRLF endings
    to a binary file, one ``write`` per ``ROWS_PER_WRITE`` rows.

    A float column is written as ``%.17g``, an integer or boolean column as
    ``%d``, and a text column (a 2-D ``uint8`` array, as ``text_column``
    makes) as its rows' bytes up to their NUL padding.  The bytes are those
    of a ``csv.writer`` row loop over such text.

    A window of rows is a ``uint8`` matrix of one slot per field, of two
    kinds besides text columns' rows: floats in fixed notation from an exact
    vectorised kernel, and every other field from a table of its column's
    distinct values in the window, each formatted once by Python.  NUL bytes
    fill what a slot does not use, and deleting them leaves the window's
    text.
    """
    fields = [_column_text(column) for column in columns]
    lengths = {len(data) for _, data in fields}
    if len(lengths) != 1:
        raise ValueError("write_rows needs at least one column, all of one length")
    total = lengths.pop()
    separators = [b","] * (len(fields) - 1) + [b"\r\n"]
    for start in range(0, total, ROWS_PER_WRITE):
        stop = min(start + ROWS_PER_WRITE, total)
        parts = [convert(data[start:stop]) for convert, data in fields]
        width = sum(part.shape[1] for part in parts) + sum(map(len, separators))
        text = bytearray((stop - start) * width)
        window = np.frombuffer(text, dtype=np.uint8).reshape(stop - start, width)
        col = 0
        for part, separator in zip(parts, separators):
            window[:, col:col + part.shape[1]] = part
            col += part.shape[1]
            for byte in separator:
                window[:, col] = byte
                col += 1
        fh.write(text.translate(None, b"\0"))


def iteration_prefix(first, stop, agents):
    """The leading text columns of the CSV rows of iterations ``first ..
    stop - 1``, one row per agent each: the iteration, and the agent's row
    of the text table ``agents``."""
    iters = text_column([str(i) for i in range(first, stop)])
    return [iters.repeat(len(agents), axis=0), np.tile(agents, (stop - first, 1))]


def write_table(path, header, *blocks):
    """Write a CSV file: the ``header`` line, then the rows of each block of
    columns through ``write_rows``."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode("ascii") + b"\r\n")
        for columns in blocks:
            write_rows(fh, columns)


class TraceWriter:
    """The recording hook of ``learning.simulate_block`` that writes the trace
    CSVs ``paths`` of a block of replicates as the recursion produces their
    rows, ``iter, agent, cluster, log_ratio, estimate[, obs]``.  A call takes
    the public log-ratios and the estimates of iterations ``start + 1 ..
    start + K``, ``(K, B, N)`` arrays the caller does not reuse.  Rows wait
    until about ``ROWS_PER_WRITE`` per file, then are converted and appended
    through ``write_rows`` one file at a time.  ``observations``, the block's
    ``(B, N, T)`` symbols or None, fill the ``obs`` column; ``n_estimates``
    bounds the estimates."""

    def __init__(self, paths, clusters, n_estimates, observations=None):
        self.paths = [Path(path) for path in paths]
        self.observations = observations
        self.agents = text_column([f"{k},{c}" for k, c in enumerate(clusters.tolist())])
        header = b"iter,agent,cluster,log_ratio,estimate"
        if observations is None:
            self.tails = text_column([str(e) for e in range(n_estimates)])
        else:
            header += b",obs"
            # code e * (m + 1) for iteration 0, which has no observation, and
            # e * (m + 1) + s + 1 for symbol s, of the m symbols 0 .. m - 1
            m = int(observations.max(initial=0)) + 1
            self.tails = text_column([f"{e},{s}" for e in range(n_estimates)
                                      for s in [""] + list(range(m))])
            self.stride = m + 1
        zeros = np.zeros((1, len(self.paths), clusters.size))
        # the rows waiting, of iterations first .. stop - 1
        self.pending, self.first, self.stop = [(zeros, zeros.astype(np.uint8))], 0, 1
        for path in self.paths:
            path.write_bytes(header + b"\r\n")

    def __call__(self, start, psi, mu, est):
        self.pending.append((psi, est))
        self.stop = start + 1 + psi.shape[0]
        # write before another chunk of this size would take them past
        # ROWS_PER_WRITE
        if (self.stop - self.first + psi.shape[0]) * len(self.agents) > ROWS_PER_WRITE:
            self._write()

    def _write(self):
        first, stop = self.first, self.stop
        pending, self.pending, self.first = self.pending, [], stop
        prefix = iteration_prefix(first, stop, self.agents)
        observed = max(first, 1)  # iteration i >= 1 observed symbol i - 1
        # one file's rows at a time: its log-ratios and estimate[,obs] codes
        for j, path in enumerate(self.paths):
            psi = np.concatenate([chunk[:, j] for chunk, _ in pending])
            codes = np.concatenate([chunk[:, j] for _, chunk in pending], dtype=np.intp)
            if self.observations is not None:
                codes *= self.stride
                codes[observed - first:] += self.observations[j, :, observed - 1:stop - 1].T
                codes[observed - first:] += 1
            with open(path, "ab") as fh:
                write_rows(fh, prefix + [psi.ravel(), self.tails[codes.ravel()]])

    def close(self, metadata):
        """Write the waiting rows, then each file's JSON sidecar from its
        ``metadata`` dict; returns the names written."""
        if self.pending:
            self._write()
        names = []
        for path, meta in zip(self.paths, metadata, strict=True):
            names += [path.name, path.name + ".meta.json"]
            path.with_name(names[-1]).write_text(json.dumps(meta, indent=2, default=str))
        return names


def write_traces(paths, traces):
    """Write ``learning.Trace``s of one shape and one set of clusters as the
    CSVs ``paths``, in a directory made if missing, with their metadata
    sidecars: one TraceWriter fed the traces as a block, a window of rows at
    a time.  Returns the names written."""
    if not traces:
        return []
    Path(paths[0]).parent.mkdir(parents=True, exist_ok=True)
    trace = traces[0]
    obs = None if trace.observations is None else np.stack([t.observations for t in traces])
    writer = TraceWriter(paths, trace.clusters, max(int(t.estimates.max()) for t in traces) + 1,
                         obs)
    step = max(ROWS_PER_WRITE // trace.n_agents - 1, 1)  # iteration 0 joins the first window
    for start in range(0, trace.horizon, step):
        rows = slice(start + 1, start + 1 + step)
        writer(start, np.stack([t.log_ratio[rows] for t in traces], axis=1), None,
               np.stack([t.estimates[rows] for t in traces], axis=1))
    return writer.close([t.metadata for t in traces])


def remove_outputs(out_dir, command):
    """Delete ``out_dir``'s ``manifest.json`` and, when a ``command`` run
    wrote it, the files it lists; nothing else is touched."""
    manifest = Path(out_dir) / "manifest.json"
    try:
        old = json.loads(manifest.read_text())
    except (OSError, ValueError):  # no manifest, or one cut short
        old = {}
    if isinstance(old, dict) and old.get("command") == command:
        for name in old.get("outputs", []):
            if Path(name).name == name:  # a name in out_dir, not a path out of it
                (manifest.parent / name).unlink(missing_ok=True)
    manifest.unlink(missing_ok=True)


def write_directory(out_dir, command, files):
    """Write a command's ``(name, content)`` files into ``out_dir``, made if
    missing, then ``manifest.json`` with the package version, the command and
    the names written, which it returns.  A content is the file's text, a
    function that writes the file given its path, or None for a file that
    is already there."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files:
        if callable(content):
            content(out / name)
        elif content is not None:
            (out / name).write_text(content)
    names = [name for name, _ in files]
    manifest = {"version": __version__, "command": command, "outputs": names}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return names
