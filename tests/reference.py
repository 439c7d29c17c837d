"""Reference integrators for the tests: RK4 written against ``rhs(t, y)``.

They drive :func:`bslq.ode.integrate` through a right-hand side that looks
its time up in :func:`bslq.ode.rk4_stages`, so a test can state an equation
as a function of time instead of as an evaluation-indexed table.
"""

from __future__ import annotations

from bslq.ode import DEFAULT_SUBSTEPS, OdeProblem, integrate, rk4_stages


def integrate_forward(grid, rhs, y0, substeps: int = DEFAULT_SUBSTEPS, post_step=None):
    """Integrate ``rhs(t, y)`` forward from y(0) = y0 at the RK4 stage times."""
    times, index = rk4_stages(grid, "forward", substeps)
    return integrate(OdeProblem(grid, lambda e, y: rhs(times[index[e]], y), "forward",
                                substeps), y0, post_step)


def integrate_backward(grid, rhs, yT, substeps: int = DEFAULT_SUBSTEPS, post_step=None):
    """Integrate ``rhs(t, y)`` backward from y(T) = yT at the RK4 stage times."""
    times, index = rk4_stages(grid, "backward", substeps)
    return integrate(OdeProblem(grid, lambda e, y: rhs(times[index[e]], y), "backward",
                                substeps), yT, post_step)
