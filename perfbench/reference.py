"""Reference kernels that measure the host's current speed.

On a shared host the speed of the same code drifts. On a shared 2-vCPU
x86_64 virtual machine (OpenBLAS 0.3.31, Python 3.11), ``verify
builtin:S5`` took about 1.2 s or about 2.0 s, in stretches of 15 to 40 s.
Both vCPUs showed it, and no steal time was reported. Over ten runs the
raw pass times of a workload spread by up to 60 % between quartiles.

The worker therefore times a fixed reference kernel before and after every
operation. It reports the operation's time multiplied by
``NOMINAL_S / mean(reference before, reference after)``. This is the time
the operation would take on a host where the kernel takes ``NOMINAL_S``.
The kernel does the same kind of work as the workload:

* ``interpreter``: small-array numpy calls in a Python loop, like the ODE
  right-hand sides and per-node evaluations.
* ``lapack``: a dense symmetric eigensolve and solve, like the oracle.

Both are sized to take about ``NOMINAL_S`` on that machine. Neither calls
``bslq``, so no change to the library moves them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.1
INTERPRETER_STEPS = 12000
LAPACK_DIM = 1000


class Reference:
    """One reference kernel, timed on demand."""

    def __init__(self, kind: str):
        if kind not in ("interpreter", "lapack"):
            raise ValueError(f"unknown reference kernel {kind!r}")
        self.kind = kind
        if kind == "lapack":
            rng = np.random.default_rng(0)
            m = rng.standard_normal((LAPACK_DIM, LAPACK_DIM))
            self.spd = m @ m.T + LAPACK_DIM * np.eye(LAPACK_DIM)
            self.rhs = rng.standard_normal(LAPACK_DIM)

    def time(self) -> float:
        """Seconds the kernel takes now."""
        t0 = perf_counter()
        if self.kind == "lapack":
            np.linalg.eigvalsh(self.spd)
            np.linalg.solve(self.spd, self.rhs)
        else:
            a, b, y = np.eye(2), np.ones(2), np.zeros(2)
            acc = 0.0
            for j in range(INTERPRETER_STEPS):
                y = a @ y + 0.001 * b
                acc += float(np.clip(0.5 * j, 0.0, 100.0))
        return perf_counter() - t0


def normalise(seconds: float, reference_s: float) -> float:
    """``seconds`` at the speed where the reference kernel takes NOMINAL_S."""
    return seconds * NOMINAL_S / reference_s
