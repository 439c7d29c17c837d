"""The forward LQ branch: Riccati feedback, adjoint pair, closed-loop value.

The scalar forward fixture SF has dynamics dX = v dt, terminal weight 1 and
control weight 1 on [0, 1].  Its Riccati solution is P(t) = 1/(2 - t), the
optimal feedback is v = -P X, and the value from x is <P(0) x, x> = x^2/2.
With a nonzero terminal slope gTilde the affine adjoint pair (eta, zeta)
switches on; for gTilde = 1 it has the closed form eta(t) = 1/(2 - t).
Nonhomogeneous data add 2 <eta(0), x> and a running integral to the value
(``bslq.forward_value_formula``): with a constant drift b it is
(x + b)^2 / 2, 0.845 for x = 1 and b = 0.3.
"""

import numpy as np

import bslq

sf = bslq.builtin_scenario("SF", x0=1.0)
psol = bslq.solve_forward_riccati(sf)
t = sf.grid.nodes
print("max |P(t) - 1/(2 - t)| =", np.max(np.abs(psol.P[:, 0, 0] - 1 / (2 - t))))

adjoint = bslq.solve_eta_zeta(sf, psol)
brownian = bslq.BrownianEnsemble.generate(11, 5000, sf.grid)
loop = bslq.simulate_forward_closed_loop(sf, psol, adjoint, brownian)
report = bslq.forward_value(sf, psol, adjoint, loop)
print(f"value formula             = {report.formula:.6f}")
print(f"closed-loop Monte Carlo   = {report.mc.estimate:.6f} "
      f"+- {report.mc.stderr:.2e}")

print()
print("closed-loop state is deterministic here (no diffusion feeds it):")
print("  X(t) at t = 0, 0.5, 1:", loop["X"][0, [0, 100, 200], 0],
      " (closed form (2 - t)/2)")
print("  v(t) is constant -1/2:", loop["v"][0, [0, 100, 200], 0])

print()
print("quadratic scaling of the value in the initial state:")
for x0 in (0.0, 1.0, 2.0):
    sfx = bslq.builtin_scenario("SF", x0=x0)
    print(f"  x = {x0}: <P(0) x, x> = {float(sfx.x0 @ psol.P[0] @ sfx.x0):.3f}")

print()
print("adjoint pair with gTilde = 1 (closed form eta = 1/(2 - t)):")
sf1 = sf.replace(gTilde=np.array([1.0]))
adj1 = bslq.solve_eta_zeta(sf1, bslq.solve_forward_riccati(sf1))
eta = adj1.phi.a.node_values()[:, 0]
print("  max |eta - 1/(2 - t)| =", np.max(np.abs(eta - 1 / (2 - t))))

print()
print("constant drift b = 0.3 (closed form (x + b)^2 / 2 = 0.845):")
sfb = sf.replace(b=bslq.AffineProcess.of_constants([0.3], [0.0], sf.grid))
psol_b = bslq.solve_forward_riccati(sfb)
adj_b = bslq.solve_eta_zeta(sfb, psol_b)
rep_b = bslq.forward_value(sfb, psol_b, adj_b,
                           bslq.simulate_forward_closed_loop(sfb, psol_b, adj_b, brownian))
print(f"  value formula = {rep_b.formula:.6f}, closed-loop Monte Carlo = {rep_b.mc.estimate:.6f}")
