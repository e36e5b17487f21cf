"""The layout of every file blocklearn writes: CSV text, trace files, and a
command's output directory with its manifest."""

import functools
import json
import os
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import UsageError

__all__ = ["ROWS_PER_WRITE", "TRACE_NAME", "TraceWriter", "check_out_dir", "iteration_prefix",
           "remove_outputs", "text_column", "write_directory", "write_rows", "write_table"]


# Rows turned into text and written at once by ``write_rows``.
ROWS_PER_WRITE = 2048

# The name of the i-th trace CSV of a run.
TRACE_NAME = "trace_{:04d}.csv"

# Veltkamp's constant 2**27 + 1 splits a double into two halves whose
# pairwise products are exact.
_SPLIT = 134217729.0


@functools.cache
def _float_tables():
    """Lookup tables of the float kernel, built on first use (read-only,
    97 KB).

    A text slot is 24 bytes, three uint64 words.  The 17 digits sit at bytes
    7..23 (``U``), and a copy shifted one byte left (``S``) has them at 6..22.
    For an exponent ``e >= 0`` the text is the sign at byte 5, S bytes 6 ..
    6 + e, a point at 7 + e and U bytes 8 + e .. 7 + last, where ``last =
    max(e, 16 - zeros)``; there is no point when ``last == e``.  For ``e <
    0`` it is the sign, then ``0.`` and the leading zeros ending at byte 6,
    then U bytes 7 .. 7 + last.  Returns

    - ``words``, ``(10010,)`` uint32: the four ASCII digits of each group
      ``0..9999``, then each leading digit ``d`` as the last of four bytes at
      ``10000 + d``;
    - ``trailing``, ``(10000,)`` uint8: the trailing zeros of each group (4
      for 0);
    - ``slots``, ``(3, 2 * 20 * 17, 3)`` uint64: the mask of S, the mask of
      U and the constant bytes of the slot, at row ``(negative * 20 +
      exponent + 4) * 17 + zeros`` for exponents -4..15 and 0..16 trailing
      zeros, so that ``slot = S & mask_S | U & mask_U | constant``;
    - ``powers``, ``(3, 21)``: ``10**q`` for q in 0..20 (exact in binary64
      up to q = 22) and its two Veltkamp halves.
    """
    ascii_digits = np.arange(10, dtype=np.uint8) + ord("0")
    words = np.zeros((10010, 4), dtype=np.uint8)
    words[:10000] = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"),
                             axis=-1).reshape(-1, 4)
    words[10000:, 3] = ascii_digits
    trailing = np.zeros(10000, dtype=np.uint8)
    for power in (10, 100, 1000, 10000):
        trailing[::power] += 1
    negative, exponent, zeros, col = np.ix_(np.arange(2), np.arange(-4, 16), np.arange(17),
                                            np.arange(24))
    fixed = exponent >= 0
    last = np.where(fixed, np.maximum(exponent, 16 - zeros), 16 - zeros)
    mask_s = fixed & (col >= 6) & (col <= 6 + exponent)
    mask_u = (col >= np.where(fixed, 8 + exponent, 7)) & (col <= 7 + last)
    # below 1: "0." and the leading zeros end at byte 6, the sign before them
    const = np.where(~fixed & (col >= 6 + exponent) & (col <= 6),
                     np.where(col == 7 + exponent, ord("."), ord("0")), 0)
    const = np.where(fixed & (col == 7 + exponent) & (last > exponent), ord("."), const)
    const = np.where((negative == 1) & (col == np.where(fixed, 5, 5 + exponent)), ord("-"),
                     const)
    slots = np.stack(np.broadcast_arrays(mask_s * 0xFF, mask_u * 0xFF, const)).astype(np.uint8)
    slots = slots.reshape(3, -1, 24).view(np.uint64)
    power = 10.0 ** np.arange(21)
    high = power * _SPLIT - (power * _SPLIT - power)
    tables = (words.view(np.uint32).ravel(), trailing, slots,
              np.stack([power, high, power - high]))
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a, exponent):
    """``a * 10**(16 - exponent)`` as ``p + e`` with no rounding error:
    Dekker's two-product on Veltkamp halves (no fused multiply-add needed),
    ``e = ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo``."""
    q = 16 - exponent
    b, b_hi, b_lo = _float_tables()[3].take(q, axis=1)
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
    """``%.17g`` text of a float column, as an ``(n, 24)`` uint8 matrix whose
    row i is the text of value i with NUL bytes around it.

    Finite values with ``1e-4 <= |x| < 1e16``, where ``%.17g`` prints fixed
    notation, are converted by ``_digits17``; every other value (zeros,
    subnormals, tiny and huge values, nan, infinities) by ``_value_text``,
    whose longest text, ``-2.2250738585072014e-308``, fills the slot.
    """
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    # 2.0 stands in for the other values: it needs no exponent correction
    digits, exponent = _digits17(np.where(fast, a, 2.0))
    words, trailing, slots, _ = _float_tables()
    # the leading digit, then four groups of four; each row of ``quotients``
    # is contiguous, where integer division by a constant is fastest
    quotients = np.empty((5, x.size), dtype=np.intp)
    for i, power in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(digits, power, out=quotients[i])
    quotients[4] = digits
    quotients[1:] -= quotients[:4] * 10000
    quotients[0] += 10000
    # U is a zero word, then the words of those five: one row per value
    buffer = np.zeros(3 * x.size + 1, dtype=np.uint64)
    unshifted = buffer[:-1]
    unshifted.view(np.uint32).reshape(x.size, 6)[:, 1:] = words.take(quotients).T
    # S is read unaligned once, into the mask gathered for it
    shifted = buffer.view(np.uint8)[1:1 + unshifted.nbytes].view(np.uint64)
    # each value's row of the slot tables: (negative * 20 + exponent + 4) *
    # 17 + trailing zeros
    key = exponent
    key *= 17
    key += trailing.take(quotients[4])
    # a group of zeros passes the trailing-zero count on to the group before it
    rows = np.flatnonzero(quotients[4] == 0)
    for group in quotients[3:0:-1]:
        if not rows.size:
            break
        key[rows] += trailing[group[rows]]
        rows = rows[group[rows] == 0]
    key += np.where(x < 0, 20 * 17 + 4 * 17, 4 * 17)
    # one gather per table keeps each operand below contiguous
    mask_s, mask_u, const = (table.take(key, axis=0).ravel() for table in slots)
    mask_s &= shifted
    unshifted &= mask_u
    unshifted |= mask_s
    unshifted |= const
    chars = unshifted.view(np.uint8).reshape(x.size, 24)
    if not fast.all():
        rest = np.flatnonzero(~fast)
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
    makes) as its rows' bytes less their NUL bytes.  The bytes are those of
    a ``csv.writer`` row loop over such text.

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
        # every row starts as NUL slots and the separators after them
        row = b"".join(bytes(part.shape[1]) + sep for part, sep in zip(parts, separators))
        text = bytearray(row) * (stop - start)
        window = np.frombuffer(text, dtype=np.uint8).reshape(stop - start, len(row))
        col = 0
        for part, separator in zip(parts, separators):
            # a row's slot as one item: one copy per row, not per byte
            slot = np.dtype((np.void, part.shape[1]))
            window[:, col:col + slot.itemsize].view(slot)[:, 0] = (
                np.ascontiguousarray(part).view(slot)[:, 0])
            col += slot.itemsize + len(separator)
        # a raw file may write less than it was given, and says how much
        text = memoryview(text.translate(None, b"\0"))
        while text:
            text = text[fh.write(text):]


def iteration_prefix(first, stop, agents):
    """The text column that leads the CSV rows of iterations ``first .. stop
    - 1``, one row per agent each: the iteration, a comma and the agent's row
    of the text table ``agents``."""
    iters = text_column([f"{i}," for i in range(first, stop)]).repeat(len(agents), axis=0)
    return np.concatenate([iters, np.tile(agents, (stop - first, 1))], axis=1)


def write_table(path, header, *blocks):
    """Write a CSV file: the ``header`` line, then the rows of each block of
    columns through ``write_rows``."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode("ascii") + b"\r\n")
        for columns in blocks:
            write_rows(fh, columns)


class TraceWriter:
    """Writes the trace CSVs ``paths`` of a block of replicates as the
    recursion produces their rows, ``iter, agent, cluster, log_ratio,
    estimate[, obs]``.  A call takes a chunk that ``learning.simulate_block``
    yields: the public log-ratios and the estimates of iterations ``start +
    1 .. start + K``, ``(K, B, N)`` arrays the caller does not reuse.

    Chunks wait while another of their size would still fit in
    ``ROWS_PER_WRITE`` rows per file, then are converted and appended
    through ``write_rows`` one file at a time; the iteration and agent text
    and the estimate[,obs] codes are made once for all the files.
    ``observations``, the block's ``(B, N, T)`` symbols or None, fill the
    ``obs`` column; ``n_estimates`` bounds the estimates.

    The files stay open, unbuffered, from their header to ``close``; as a
    context manager the writer also closes them when the block fails.
    """

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
        self.code_type = np.min_scalar_type(-len(self.tails))
        zeros = np.zeros((1, len(self.paths), clusters.size))
        # the rows waiting, of iterations first .. stop - 1
        self.pending, self.first, self.stop = [(zeros, zeros.astype(np.uint8))], 0, 1
        with ExitStack() as opened:
            self.files = [opened.enter_context(open(path, "wb", buffering=0))
                          for path in self.paths]
            for fh in self.files:
                fh.write(header + b"\r\n")
            opened.pop_all()  # open until close or __exit__

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for fh in self.files:
            fh.close()

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
        # every file's estimate[,obs] codes at once, (K, B, N) small integers
        codes = np.concatenate([est for _, est in pending], dtype=self.code_type)
        if self.observations is not None:
            observed = max(first, 1)  # iteration i >= 1 observed symbol i - 1
            symbols = self.observations[:, :, observed - 1:stop - 1]
            codes *= self.stride
            codes[observed - first:] += symbols.transpose(2, 0, 1)
            codes[observed - first:] += 1
        # one file's rows at a time: its log-ratios and codes
        for j, fh in enumerate(self.files):
            psi = np.concatenate([chunk[:, j] for chunk, _ in pending])
            write_rows(fh, [prefix, psi.ravel(), self.tails.take(codes[:, j].ravel(), axis=0)])

    def close(self, metadata):
        """Write the waiting rows and close the files, then write each file's
        JSON sidecar from its ``metadata`` dict; returns the names written."""
        with self:
            if self.pending:
                self._write()
        names = []
        for path, meta in zip(self.paths, metadata, strict=True):
            names += [path.name, path.name + ".meta.json"]
            path.with_name(names[-1]).write_text(json.dumps(meta, indent=2, default=str))
        return names


def _read_manifest(out_dir):
    """``out_dir``'s ``manifest.json`` as a dict: empty when there is none,
    or when it is cut short or not an object."""
    try:
        manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    except (OSError, ValueError):
        return {}
    return manifest if isinstance(manifest, dict) else {}


def check_out_dir(out_dir, command):
    """Raise UsageError unless ``command`` may write into ``out_dir``: a
    directory, or a path not made yet, whose ``manifest.json`` names no
    other command.  A directory holds one command's run, so that its
    manifest lists every output in it."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise UsageError("the output directory (--out or the config's out_dir) must be a "
                         f"directory, got the file {str(out_dir)!r}")
    owner = _read_manifest(out_dir).get("command")
    if owner not in (None, command):
        raise UsageError(f"the output directory {str(out_dir)!r} holds the outputs of a "
                         f"{owner!r} run, which its manifest.json lists; {command} writes "
                         "into another directory")


def remove_outputs(out_dir, command):
    """Delete ``out_dir``'s ``manifest.json`` and, when a ``command`` run
    wrote it, the files it lists; nothing else is touched.  A manifest of
    another command raises UsageError, as in ``check_out_dir``."""
    check_out_dir(out_dir, command)
    old = _read_manifest(out_dir)
    if old.get("command") == command:
        for name in old.get("outputs", []):
            if Path(name).name == name:  # a name in out_dir, not a path out of it
                (Path(out_dir) / name).unlink(missing_ok=True)
    (Path(out_dir) / "manifest.json").unlink(missing_ok=True)


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
