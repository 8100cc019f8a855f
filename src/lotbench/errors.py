"""The errors lotbench raises for malformed input.

Every input error is a `LotbenchError`, which is a `ValueError`: the input
is malformed and the CLI exits 2.  The two subclasses exist because callers
tell them apart.
"""


class LotbenchError(ValueError):
    """Malformed input; the message names the failed check."""


class PreconditionViolation(LotbenchError):
    """Raised with a message naming the specific failed inequality."""


class ConvexityHypothesisFailed(LotbenchError):
    """Carries the list of utility types whose grid view fails convexity."""

    def __init__(self, failing):
        self.failing = list(failing)
        super().__init__(f"convexity fails for utility types: {self.failing}")
