"""Inverse analysis of public-belief sequences.

Given a per-agent series of public log-belief ratios and a combination
matrix, estimate the expected log-likelihood ratios implied by an assumed
step size, score how well the pair fits the recursion on held-out steps, and
scan a step-size grid for the best fit.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InsufficientSteps, MalformedFile, check_delta

__all__ = [
    "BeliefSeries",
    "estimate_log_likelihoods",
    "fit_error",
    "traditional_fit",
    "scan_delta",
    "DeltaScan",
    "recursion_series",
]


@dataclass
class BeliefSeries:
    """Per-step, per-agent public log-belief ratios with a train/validation split.

    ``values[i, k]`` is agent k's log-ratio at step i; rows before
    ``split_index`` are the fitting segment, the rest the validation segment.
    Gaps (NaNs) are forward-filled at ingestion: an agent that is silent at a
    step keeps its previous value, and leading gaps fall back to 0 (the
    uniform-belief ratio).  ``from_array`` builds one from a ``(steps,
    agents)`` array and ``from_trace_csv`` from a CSV with ``iter`` (or
    ``step``), ``agent`` and ``log_ratio`` columns.
    """

    values: np.ndarray
    split_index: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be (steps, agents)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series contains non-finite values after ingestion")
        if not 1 <= self.split_index < self.values.shape[0]:
            raise InsufficientSteps(
                f"split index {self.split_index} must satisfy 1 <= split < {self.values.shape[0]}"
            )

    @property
    def n_agents(self):
        return self.values.shape[1]

    @classmethod
    def from_array(cls, values, split_index=None):
        values = np.array(values, dtype=float)
        filled = _forward_fill(values)
        if split_index is None:
            split_index = filled.shape[0] // 2
        return cls(values=filled, split_index=split_index)

    @classmethod
    def from_trace_csv(cls, path, split_index=None):
        """Load a trace CSV, or any long-format CSV with ``step``, ``agent``
        and ``log_ratio`` columns in any order: the step column is ``iter``
        if the header has one, else ``step``.  The three columns are parsed
        in one ``np.loadtxt`` call.

        Raises
        ------
        MalformedFile
            If the header lacks one of the columns, a cell of one is not a
            number, a step or agent id is not a non-negative integer, or a
            log-ratio is infinite.
        InsufficientSteps
            If the file has no data rows.
        """
        with open(path, newline="") as fh:
            header = next(csv.reader([fh.readline()]), [])
            names = ("iter" if "iter" in header else "step", "agent", "log_ratio")
            missing = [name for name in names if name not in header]
            if missing:
                raise MalformedFile(f"{path}: no {', '.join(missing)} column in header {header}")
            usecols = [header.index(name) for name in names]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows: reported below
                try:
                    data = np.loadtxt(fh, delimiter=",", usecols=usecols, ndmin=2)
                except ValueError as exc:
                    name = next(name for name, col in zip(names, usecols)
                                if not _parses(path, col))
                    raise MalformedFile(f"{path}: column {name!r}: {exc}") from None
        if not data.size:
            raise InsufficientSteps(f"no rows in {path}")
        for name, ids in zip(names, data[:, :2].T):
            bad = ~(np.isfinite(ids) & (ids >= 0) & (ids == np.floor(ids)))
            if bad.any():
                raise MalformedFile(f"{path}: column {name!r} must hold non-negative integers, "
                                    f"got {ids[bad][0]:g}")
        infinite = np.isinf(data[:, 2])
        if infinite.any():
            # a NaN is a gap and is forward-filled; an infinity has no fill
            raise MalformedFile(f"{path}: column 'log_ratio' must hold finite values or gaps, "
                                f"got {data[infinite, 2][0]:g}")
        steps, agents = data[:, 0].astype(np.int64), data[:, 1].astype(np.int64)
        values = np.full((steps.max() + 1, agents.max() + 1), np.nan)
        values[steps, agents] = data[:, 2]
        return cls.from_array(values, split_index)


def _parses(path, col):
    """Whether column ``col`` of a CSV file parses as numbers below its header."""
    try:
        np.loadtxt(path, delimiter=",", skiprows=1, usecols=col)
    except ValueError:
        return False
    return True


def _forward_fill(values):
    """Replace each NaN with the last value above it in its column; NaNs
    before a column's first value become 0.0 (the uniform-belief log-ratio)."""
    padded = np.vstack([np.zeros((1, values.shape[1])), values])
    # per entry, the row of the last non-NaN value at or above it (row 0 is the zero pad)
    source = np.where(np.isnan(padded), 0, np.arange(padded.shape[0])[:, None])
    np.maximum.accumulate(source, axis=0, out=source)
    return padded[source, np.arange(values.shape[1])][1:]


def _implied_log_likelihoods(series, combination, w_like, w_prior):
    """The mean over the fitting steps of ``(y_i - w_prior * A^T y_{i-1}) /
    w_like``: the log-likelihood ratios that the recursion
    ``y_i = w_like * nu_i + w_prior * A^T y_{i-1}`` implies."""
    k = series.split_index
    if k < 2:
        raise InsufficientSteps("need at least 2 fitting steps to form one increment")
    y = series.values
    residual = y[1:k] - w_prior * (y[: k - 1] @ np.asarray(combination, dtype=float))
    return residual.mean(axis=0) / w_like


def _validation_error(series, combination, estimates, w_like, w_prior):
    """``sqrt(sum_k (m_k - w_prior (A^T m)_k - w_like e_k)^2) / N`` for the
    validation-segment mean log-ratios ``m`` and the estimates ``e``."""
    m = series.values[series.split_index :].mean(axis=0)
    residual = (m - w_prior * (m @ np.asarray(combination, dtype=float))
                - w_like * np.asarray(estimates, dtype=float))
    return float(np.linalg.norm(residual) / series.n_agents)


def estimate_log_likelihoods(series, combination, delta):
    """Estimate expected log-likelihood ratios from the fitting segment.

    Inverts the per-step recursion identity
    ``y_i = delta * nu_i + (1 - delta) * A^T y_{i-1}``:
    for each agent the estimate averages
    ``(y_i - (1 - delta) * A^T y_{i-1}) / delta`` over the fitting steps.
    """
    check_delta(delta)
    return _implied_log_likelihoods(series, combination, delta, 1.0 - delta)


def fit_error(series, combination, delta, estimates):
    """Recursion-fit error on the validation segment.

    Uses the validation-segment mean log-ratios ``m`` and returns
    ``sqrt(sum_k (m_k - (1 - delta) (A^T m)_k - delta * e_k)^2) / N``.
    """
    check_delta(delta)
    return _validation_error(series, combination, estimates, delta, 1.0 - delta)


def traditional_fit(series, combination):
    """Fit quality of the step-size-free (full Bayesian) recursion.

    The identity ``y_i = nu_i + A^T y_{i-1}`` has no step size: it is the
    step-size fit with both weights equal to 1.  Returns ``(estimates,
    error)``.
    """
    estimates = _implied_log_likelihoods(series, combination, 1.0, 1.0)
    return estimates, _validation_error(series, combination, estimates, 1.0, 1.0)


class DeltaScan(NamedTuple):
    deltas: np.ndarray
    errors: np.ndarray
    best_delta: float
    best_error: float
    traditional_error: float


def scan_delta(series, combination, grid, include_traditional=False):
    """Evaluate the fit error over a step-size grid.

    Each grid point estimates log-likelihood ratios on the fitting segment
    and scores them on the validation segment.  ``best_delta`` is the grid
    argmin; when ``include_traditional`` is set, the step-size-free fit is
    reported alongside (conventionally plotted in place of delta = 0) but
    does not participate in the argmin.

    The fit residual is affine in the step size.  With fitting segment
    ``y[:k]``, validation mean ``m``, ``u = m - mean(y[1:k])`` and
    ``v = (m - mean(y[:k-1])) A``, the residual of
    ``fit_error(estimate_log_likelihoods(delta))`` is ``(u - v) + delta v``
    and that of ``traditional_fit`` is ``u - v``, so the whole grid is one
    broadcast.  A combination matrix that is not ``N x N`` for the series'
    N agents raises ValueError.
    """
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("empty delta grid")
    check_delta(grid)
    k = series.split_index
    if k < 2:
        raise InsufficientSteps("need at least 2 fitting steps to form one increment")
    combination = np.asarray(combination, dtype=float)
    if combination.shape != (series.n_agents, series.n_agents):
        raise ValueError(f"a {'x'.join(map(str, combination.shape))} combination matrix does not "
                         f"match the trace's {series.n_agents} agents")
    y = series.values
    m = y[k:].mean(axis=0)
    u = m - y[1:k].mean(axis=0)
    v = (m - y[: k - 1].mean(axis=0)) @ combination
    errors = np.linalg.norm((u - v) + grid[:, None] * v, axis=1) / series.n_agents
    best = int(np.argmin(errors))
    traditional_error = None
    if include_traditional:
        traditional_error = float(np.linalg.norm(u - v) / series.n_agents)
    return DeltaScan(
        deltas=grid,
        errors=errors,
        best_delta=float(grid[best]),
        best_error=float(errors[best]),
        traditional_error=traditional_error,
    )


def recursion_series(log_likelihood_ratios, combination, delta, steps):
    """Generate a noiseless log-ratio series from the recursion itself.

    Feeds constant per-agent log-likelihood ratios through
    ``y_i = delta * c + (1 - delta) * A^T y_{i-1}`` starting from zeros (the
    uniform belief).  Useful as a round-trip oracle for the estimators.
    """
    check_delta(delta)
    c = np.asarray(log_likelihood_ratios, dtype=float)
    combination = np.asarray(combination, dtype=float)
    out = np.zeros((steps + 1, c.size))
    for i in range(1, steps + 1):
        out[i] = delta * c + (1.0 - delta) * (out[i - 1] @ combination)
    return out
