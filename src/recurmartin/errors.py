"""Exception types shared across the package."""


class RecurMartinError(Exception):
    """Base class for package-specific failures."""


class PathBudgetExceededError(RecurMartinError):
    """Path enumeration would produce more paths than the configured cap."""

    def __init__(self, produced: int, cap: int):
        self.produced = produced
        self.cap = cap
        super().__init__(
            f"path enumeration exceeded the configured budget of {cap} paths "
            f"(stopped after {produced})"
        )


class MissingPredecessorsError(RecurMartinError):
    """The chain does not expose predecessors, so the check cannot run."""


class RunawayRunError(RecurMartinError):
    """A Monte Carlo trajectory exceeded the step cap without terminating.

    The cap counts draws: steps, or jumps on the line and planar lanes
    with an escape box. ``completed_runs`` counts the runs that had ended
    when the error was raised, over every ensemble the call ran: for
    ``green_mc_grid``, the runs of the whole grid (see its docstring).
    """

    def __init__(self, cap: int, completed_runs: int):
        self.cap = cap
        self.completed_runs = completed_runs
        super().__init__(
            f"trajectory exceeded the step cap of {cap} draws without reaching "
            f"the stopping state ({completed_runs} runs had completed); raise the "
            f"cap or use on_cap='truncate'"
        )


class UnsupportedBasePointError(RecurMartinError):
    """Closed forms are only available at the chain's distinguished base point."""


class ZeroDenominatorError(RecurMartinError):
    """Martin kernel ratio rejected because the denominator is (numerically) zero."""


class SingularSystemError(RecurMartinError):
    """The truncated linear system is singular; the window is unusable."""


class NotInConeError(RecurMartinError):
    """The profile is not a nonnegative combination of the boundary profiles."""


class RowSumViolationError(RecurMartinError):
    """A constructed transition row failed to sum to one exactly."""


class PreconditionViolationError(RecurMartinError):
    """An input function failed its window validation; lists the bad states."""

    def __init__(self, message: str, violations: list):
        self.violations = violations
        shown = "; ".join(f"{state}: {detail}" for state, detail in violations[:8])
        more = "" if len(violations) <= 8 else f" (+{len(violations) - 8} more)"
        super().__init__(f"{message}: {shown}{more}")
