"""Exception types shared across the package."""


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
    """A block of the expected combination matrix has a zero normalizer."""


class InvalidRegime(BlocklearnError):
    """Parameters fall outside the regime where a formula is meaningful."""


class InvalidRegimeWarning(UserWarning):
    """A formula was evaluated outside its nominal regime (result still returned)."""


class NoConvergence(BlocklearnError):
    """Power iteration failed to converge within the iteration budget."""


class SupportMismatch(BlocklearnError):
    """KL divergence is infinite: q assigns zero mass where p does not."""


class DeltaOutOfRange(BlocklearnError):
    """Adaptation step-size must lie strictly inside (0, 1)."""


class WindowTooLarge(BlocklearnError):
    """Sliding window exceeds the recorded series length."""


class InsufficientSteps(BlocklearnError):
    """A belief series does not contain enough steps for the requested split."""


class MalformedFile(BlocklearnError, ValueError):
    """A network or profile file does not follow its text format."""


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
