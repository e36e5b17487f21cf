"""Exception types shared across the package, and the argument checks that
raise them."""

import os
from contextlib import contextmanager
from numbers import Integral

import numpy as np


class BlocklearnError(Exception):
    """Base class for all package-specific errors."""


class ZeroColumn(BlocklearnError):
    """An agent has no in-neighbors, so its combination column cannot be normalized."""

    def __init__(self, agent, message=None):
        self.agent = agent
        super().__init__(message or f"agent {agent} has no in-neighbors (zero column)")


class NotStronglyConnected(BlocklearnError):
    """Graph sampling exhausted its retries without a strongly connected draw."""


class DegenerateBlock(BlocklearnError):
    """A block of the expected combination matrix has a zero normalizer, or a
    matrix is reducible, so that its Perron vector is not unique."""


class InvalidRegime(BlocklearnError):
    """Parameters fall outside the regime where a formula is meaningful."""


class InvalidRegimeWarning(UserWarning):
    """A formula was evaluated outside its nominal regime (result still returned)."""


class SupportMismatch(BlocklearnError):
    """KL divergence is infinite: q assigns zero mass where p does not."""


class DeltaOutOfRange(BlocklearnError):
    """Adaptation step-size must lie strictly inside (0, 1)."""


class InsufficientSteps(BlocklearnError):
    """A belief series does not contain enough steps for the requested split."""


class MalformedFile(BlocklearnError, ValueError):
    """An input file is a directory, is not text, or does not follow its format."""


class UsageError(BlocklearnError, ValueError):
    """A command-line flag is missing or has a value its command does not take."""


class MalformedConfig(BlocklearnError, ValueError):
    """An experiment config has an unknown, missing or wrong-typed field."""


class InvalidPair(BlocklearnError, ValueError):
    """A hypothesis pair does not name two of the profile's hypotheses."""


class InvalidStrategy(BlocklearnError, ValueError):
    """A belief-update strategy or state estimator is not one the recursion knows."""


class AllReplicatesFailed(BlocklearnError, RuntimeError):
    """Every replicate of an experiment failed, so there is nothing to aggregate."""


class MismatchedConfig(BlocklearnError):
    """Empirical results and theoretical prediction were produced for different setups."""


class PreconditionFailed(BlocklearnError):
    """A dominance inequality required by the asymmetric threshold analysis fails."""

    def __init__(self, inequality, value):
        self.inequality = inequality
        self.value = value
        super().__init__(f"precondition violated: {inequality} (got {value:.6g})")


class ZeroInformativeness(BlocklearnError):
    """A cluster has zero KL informativeness, so no threshold exists."""


@contextmanager
def reading(path):
    """Raise MalformedFile naming ``path`` when the file read inside is a
    directory or not text in the expected encoding; a missing file stays
    FileNotFoundError, which names it."""
    try:
        yield
    except IsADirectoryError:
        raise MalformedFile(f"{path}: is a directory, not a file") from None
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not a text file ({exc})") from None


def check_memory(nbytes, error, what):
    """Raise ``error`` when ``what`` would take ``nbytes`` bytes, more than
    this machine's physical memory or this process's address-space limit
    (``RLIMIT_AS``); a bound that ``os.sysconf`` or ``resource`` cannot tell
    is not checked."""
    bounds = []
    try:
        bounds.append((os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
                       "physical memory"))
    except (AttributeError, ValueError, OSError):
        pass
    try:
        import resource
    except ImportError:
        pass
    else:
        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        if limit != resource.RLIM_INFINITY:
            bounds.append((limit, "address space this process may map"))
    bound, name = min(bounds, default=(nbytes, None))
    if nbytes > bound:
        raise error(f"{what} would take {nbytes} bytes, more than the {bound} bytes of {name}")


def check_delta(delta):
    """Raise DeltaOutOfRange unless the step size, or every entry of an array
    of them, lies strictly inside (0, 1).  None and NaN are rejected."""
    values = np.asarray(np.nan if delta is None else delta)
    inside = (values > 0.0) & (values < 1.0)
    if not inside.all():
        bad = delta if values.ndim == 0 else values[~inside][0]
        raise DeltaOutOfRange(f"delta must be in (0, 1), got {bad}")


def check_pair(pair, n_hypotheses):
    """Raise InvalidPair unless ``pair`` names two of the ``n_hypotheses``
    hypotheses by index (negative indices are rejected, not wrapped)."""
    if len(pair) != 2 or not all(isinstance(h, Integral) and 0 <= h < n_hypotheses for h in pair):
        raise InvalidPair(f"pair {list(pair)} must be two hypothesis indices in "
                          f"0..{n_hypotheses - 1}")


def check_strategy(strategy, delta, estimator):
    """Raise InvalidStrategy for an unknown strategy or estimator, and
    DeltaOutOfRange unless the step-size strategy has a step size in (0, 1)."""
    if strategy not in ("asl", "traditional"):
        raise InvalidStrategy(f"unknown strategy {strategy!r}")
    if strategy == "asl":
        check_delta(delta)
    if estimator not in ("mu", "psi"):
        raise InvalidStrategy(f"estimator must be 'mu' or 'psi', got {estimator!r}")
