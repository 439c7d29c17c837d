"""Exception types shared across the package."""


class ScenarioError(ValueError):
    """A scenario file or builtin name could not be parsed or resolved."""


class SpecValidationError(ValueError):
    """A problem specification violates its structural invariants."""

    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(report.violations))


class IntegrationError(RuntimeError):
    """An ODE integration, a quadrature or the tree oracle produced a non-finite value."""


class ConsistencyError(RuntimeError):
    """Two forms of one quantity that agree analytically disagree."""


class ConvexityError(RuntimeError):
    """A problem that must be convex has a negative Hessian eigenvalue."""


class SingularityError(RuntimeError):
    """A matrix that must be invertible is numerically singular."""


class PositivityError(RuntimeError):
    """A matrix that must be (semi)definite failed its eigenvalue check."""


class ReductionError(RuntimeError):
    """The control-weight block is not positive definite, so the
    cross-term elimination is not well defined, or the constant shift of
    the reduction is not finite."""


class SimulationError(RuntimeError):
    """A simulated trajectory or its summary statistics are not finite."""
