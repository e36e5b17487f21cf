import csv
import io
import math
import os
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklearn.graphs import BlockModel, SbmParams, sample_sbm
from blocklearn.harness import ExperimentConfig, run_experiment
from blocklearn.learning import run
from blocklearn.models import bernoulli_profile, random_multinomial_profile
from blocklearn.writers import ROWS_PER_WRITE, TraceWriter, text_column, write_rows

VB1 = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
CRITERION_5 = BlockModel(sizes=(20, 25, 30),
                         probs=[[0.9, 0.05, 0.05], [0.05, 0.8, 0.05], [0.05, 0.05, 0.9]])


def row_loop_csv(trace, path):
    """Reference trace writer: one csv.writer row per (iteration, agent)."""
    with_obs = trace.observations is not None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "agent", "cluster", "log_ratio", "estimate"]
                        + (["obs"] if with_obs else []))
        for i in range(trace.horizon + 1):
            for k in range(trace.n_agents):
                row = [i, k, int(trace.clusters[k]), f"{trace.log_ratio[i, k]:.17g}",
                       int(trace.estimates[i, k])]
                if with_obs:
                    row.append(int(trace.observations[k, i - 1]) if i >= 1 else "")
                writer.writerow(row)


class TestTraceCsv:
    @pytest.mark.parametrize("record_observations", [False, True])
    def test_bytes_match_row_loop(self, tmp_path, record_observations):
        network = sample_sbm(VB1, seed=3)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        # at horizon 1005, iterations 999 and 1000 share a write: one
        # iteration table holds 3- and 4-digit rows
        for horizon in (150, 1005):
            trace = run(network, profile, strategy="asl", delta=0.2, horizon=horizon, seed=4,
                        record_observations=record_observations)
            # values whose %.17g text is easy to get wrong
            trace.log_ratio[1, :4] = [-0.0, 1e-300, 123456789.123, -2.5e16]
            trace.to_csv(tmp_path / "bulk.csv")
            row_loop_csv(trace, tmp_path / "loop.csv")
            assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize("record_observations", [False, True])
    def test_criterion_5_trace(self, tmp_path, record_observations):
        # three hypotheses, 25 symbols (two-digit obs), 121 x 75 rows (three
        # ROWS_PER_WRITE chunks)
        network = sample_sbm(CRITERION_5, seed=777)
        profile = random_multinomial_profile(network.clusters, alphabet_size=25, seed=10)
        trace = run(network, profile, strategy="asl", delta=0.1, horizon=120, seed=777,
                    pair=(0, 2), record_observations=record_observations)
        assert set(np.unique(trace.estimates)) == {0, 1, 2}
        if record_observations:
            assert trace.observations.max() >= 10
        trace.to_csv(tmp_path / "bulk.csv")
        row_loop_csv(trace, tmp_path / "loop.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize("record_observations", [False, True])
    def test_zero_horizon(self, tmp_path, record_observations):
        network = sample_sbm(VB1, seed=3)
        profile = bernoulli_profile(network.clusters, (0.1, 0.5))
        trace = run(network, profile, strategy="asl", delta=0.2, horizon=0, seed=4,
                    record_observations=record_observations)
        trace.to_csv(tmp_path / "bulk.csv")
        row_loop_csv(trace, tmp_path / "loop.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_shared_prefix_gives_each_trace_its_own_bytes(self, tmp_path):
        config = ExperimentConfig(network=VB1, profile={"kind": "bernoulli",
                                  "success_probs": [0.1, 0.5]}, delta=0.2, horizon=150,
                                  burn_in=50, replicates=4, base_seed=5, store_traces=True,
                                  record_observations=True)
        result = run_experiment(config)
        # write_outputs writes the run's traces as the files of one
        # directory, Trace.to_csv each trace alone
        result.write_outputs(tmp_path / "run")
        for i, trace in enumerate(result.traces):
            trace.to_csv(tmp_path / f"alone_{i}.csv")
            shared = (tmp_path / "run" / f"trace_{i:04d}.csv").read_bytes()
            assert shared == (tmp_path / f"alone_{i}.csv").read_bytes()
            assert ((tmp_path / "run" / f"trace_{i:04d}.csv.meta.json").read_bytes()
                    == (tmp_path / f"alone_{i}.csv.meta.json").read_bytes())
        assert len({(tmp_path / f"alone_{i}.csv").read_bytes() for i in range(4)}) == 4


class TestTraceWriter:
    def test_memory_is_one_window_of_one_file(self, tmp_path):
        # a criterion-5 block of 64 replicates, with observations; the peak
        # is one write's, and 208 iterations make four writes
        b, n, horizon = 64, 75, 208
        rng = np.random.default_rng(5)
        psi = rng.normal(size=(horizon, b, n))
        est = rng.integers(0, 3, size=(horizon, b, n), dtype=np.uint8)
        observations = rng.integers(0, 25, size=(b, n, horizon), dtype=np.uint8)
        # the 64 files would fill 30 MB of disk: the rows go to the null device
        paths = [tmp_path / f"trace_{j:04d}.csv" for j in range(b)]
        for path in paths:
            path.symlink_to(os.devnull)
        tracemalloc.start()
        try:
            writer = TraceWriter(paths, np.repeat([0, 1, 2], [20, 25, 30]), 3, observations)
            for start in range(0, horizon, 16):
                writer(start, psi[start:start + 16], None, est[start:start + 16])
            writer.close([{}] * b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one write's log-ratios of all 64 files alone take 1.9 MB
        assert peak < 1_500_000


def printf_text(values):
    return b"".join(b"%.17g\r\n" % v for v in values)


def kernel_text(values):
    fh = io.BytesIO()
    write_rows(fh, [np.asarray(values, dtype=np.float64)])
    return fh.getvalue()


def dyadic_values(seed=70):
    """``k / 2**j`` for j up to 70, with ties: an odd ``k / 2**j`` has j
    fractional digits, the last a 5, so in ``[10**(17-j), 10**(18-j))`` it
    has 18 significant digits and lies halfway between two 17-digit texts."""
    rng = np.random.default_rng(seed)
    values = []
    for j in range(71):
        low = math.ceil(Fraction(10) ** (17 - j) * 2**j)
        high = min(math.ceil(Fraction(10) ** (18 - j) * 2**j), 2**53)
        if low < high:
            values += [int(k) / 2**j for k in rng.integers(low, high, 40) | 1]
        values += [int(k) / 2**j for k in rng.integers(1, 2**53, 10) | 1]
    return values


class TestFloatKernel:
    """``write_rows``'s ``%.17g`` text against Python's own formatting."""

    FIXED = [1e-4, 9.9999999999999995e-05, 1e16, 9999999999999998.0, -0.0, 5e-324,
             # the values TestTraceCsv marks as easy to get wrong
             1e-300, 123456789.123, -2.5e16,
             # values the kernel leaves to a table of distinct values: 0.0
             # equals -0.0, so that table must tell values apart by their bits
             0.0, np.nan, np.uint64(0x7FF4000000000001).view(np.float64), np.inf, -np.inf]

    def test_powers_of_ten_and_their_neighbours(self):
        powers = 10.0 ** np.arange(-5, 18)
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        values = np.concatenate([values, -values, self.FIXED])
        assert kernel_text(values) == printf_text(values)

    def test_dyadic_ties(self):
        values = dyadic_values()
        ties = sum(len(Decimal(v).as_tuple().digits) == 18 for v in values)
        assert ties >= 500
        assert kernel_text(values) == printf_text(values)
        assert kernel_text(np.negative(values)) == printf_text(np.negative(values))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_any_float(self, values):
        assert kernel_text(values) == printf_text(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert kernel_text(values) == printf_text(values)


class CountingFile:
    def __init__(self):
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))


class TestWriteRows:
    def test_one_write_per_window(self):
        rows = 1_000_000
        values = np.random.default_rng(8).normal(scale=5.0, size=rows)
        # values the kernel leaves to Python's formatting, here and there
        values[::997] = np.resize([0.0, -1e-300, np.nan, 1e300], values[::997].size)
        fh = CountingFile()
        tracemalloc.start()
        try:
            write_rows(fh, [values])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fh.sizes) == -(-rows // ROWS_PER_WRITE)
        # the widest %.17g text is 24 bytes ("-2.2250738585072014e-308")
        assert max(fh.sizes) <= ROWS_PER_WRITE * (24 + 2)
        # nothing as large as the column (8 MB) is made
        assert peak < 2_000_000

    def test_columns_must_match_the_format(self):
        fh = io.BytesIO()
        with pytest.raises(ValueError, match="one length"):
            write_rows(fh, [np.zeros(3), np.zeros(2, dtype=int)])
        with pytest.raises(ValueError, match="one length"):
            write_rows(fh, [])
        with pytest.raises(ValueError, match="dtype <U1"):
            write_rows(fh, [np.zeros(3), np.array(["a", "b", "c"])])
        with pytest.raises(ValueError, match="dtype object"):
            write_rows(fh, [np.array([1.0, "a", None], dtype=object)])
        with pytest.raises(ValueError, match="NUL"):
            write_rows(fh, [text_column(["a\0"])[np.zeros(3, dtype=int)]])
        assert fh.getvalue() == b""

    def test_ints_and_table_strings(self):
        table = ["", "a", "%%", "x,y"]
        for ints in (np.array([0, 7, -7, 10, -10, 99, 2**63 - 1, -2**63, 1000000]),
                     # more distinct values than rows in a write: the
                     # column's tables span several writes
                     np.arange(-ROWS_PER_WRITE, 2 * ROWS_PER_WRITE) * 7919):
            codes = np.arange(ints.size) % len(table)
            flags = ints > 0
            fh = io.BytesIO()
            write_rows(fh, [ints, text_column(table)[codes], flags])
            expected = "".join("%d,%s,%d\r\n" % (i, table[c], f)
                               for i, c, f in zip(ints.tolist(), codes, flags.tolist()))
            assert fh.getvalue() == expected.encode()
