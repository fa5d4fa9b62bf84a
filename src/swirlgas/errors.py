"""Exception types shared across the package.

Domain errors (bad parameters, collapsed scale, degenerate orbits, ...) all
derive from SwirlgasError so callers and the CLI can separate them from
genuine bugs or I/O problems.
"""


class SwirlgasError(Exception):
    """Base class for all structured errors raised by this package."""


class InvalidParams(SwirlgasError, ValueError):
    """A parameter record violates one or more of its constraints.

    ``violations`` lists every violated constraint, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class CollapsedState(SwirlgasError, ValueError):
    """The scale factor is <= 0, which is never a valid evaluation state."""


class NonPositiveTime(SwirlgasError, ValueError):
    """Operation requires t > 0."""


class CollapsedAtOrBefore(SwirlgasError, ValueError):
    """Closed-form scale factor hits zero at or before the requested time."""

    def __init__(self, t_collapse, message=None):
        self.t_collapse = float(t_collapse)
        super().__init__(message or f"scale factor vanishes at t = {t_collapse!r}")


class ZeroRotation(SwirlgasError, ValueError):
    """Classification requires a nonzero rotation constant."""


class NoBracket(SwirlgasError, RuntimeError):
    """Turning-point root bracketing failed (hypotheses violated numerically)."""


class DegenerateOrbit(SwirlgasError, ValueError):
    """The orbit is a single point (a_min == a_max); it has no period."""


class CertificationMismatch(SwirlgasError, RuntimeError):
    """Symbolic classification and direct integration disagree."""

    def __init__(self, symbolic, numeric, message=""):
        self.symbolic = symbolic
        self.numeric = numeric
        super().__init__(message or f"classified {symbolic!r} but integration saw {numeric!r}")


class GridTouchesSupportBoundary(SwirlgasError, ValueError):
    """A sampling grid (with its stencil margin) leaves the smooth interior."""


class TrajectoryTooShort(SwirlgasError, ValueError):
    """The trajectory does not cover the time-stencil span needed."""


class IntegrationFailed(SwirlgasError, RuntimeError):
    """An integration ended in a step failure before the time that was needed."""

    def __init__(self, t, reason):
        self.t, self.reason = float(t), reason
        super().__init__(f"integration ended with step_failure at t = {t}: {reason}")


class StepBudgetExceeded(SwirlgasError, RuntimeError):
    """A time-stepping run needs more steps than its budget."""


class NonFiniteState(SwirlgasError, RuntimeError):
    """NaN or Inf detected in the evolving solver state."""


class BoxOutsideSupport(SwirlgasError, ValueError):
    """The benchmark box is not strictly inside the density support."""


class LadderTooShort(SwirlgasError, ValueError):
    """A convergence study has too few rungs for an order estimate.

    The residual ladder needs at least three step sizes, the finite-volume
    study at least two resolutions.
    """
