"""Indefinite weights: negative running weights can still give a solvable
problem, and the toolkit can certify when they do not.

S5 puts the weight -1/2 on the martingale integrand Z.  Pointwise the
integrand can be made arbitrarily negative, yet the functional as a whole
stays uniformly convex (the dynamics couple Z back into the control), the
optimal value is -log 2 < 0, and both the convexity probe and the tree
Hessian confirm solvability.  Flipping the control weight to R22 = -1
destroys convexity, and both detectors say so.
"""

import numpy as np

import bslq
from bslq.grid import MatrixPath

spec = bslq.builtin_scenario("S5")
value = bslq.solve_value(spec)[0]
print(f"S5 (R11 = -1/2): optimal value = {value:.6f} (= -log 2)")

probe = bslq.convexity_probe(spec, trials=32, seed=7)
print(f"convexity probe over 32 random controls: delta_hat = {probe.delta_hat:.4f} "
      f"(exact in expectation)")
print(f"counterexample certificate: {probe.certificate}")

sol = bslq.solve_discrete(spec, 8)
print(f"tree Hessian minimum eigenvalue at N = 8: {sol.hessian_min_eig:.6f} "
      f"(convex: {sol.convex})")

print()
print("now flip the control weight to R22 = -1:")
bad = spec.replace(R22=MatrixPath.constant([[-1.0]], spec.grid))
probe_bad = bslq.convexity_probe(bad, trials=8, seed=7)
print(f"probe: delta_hat = {probe_bad.delta_hat:.4f}, "
      f"certificate = {probe_bad.certificate}")
sol_bad = bslq.solve_discrete(bad, 6)
print(f"tree Hessian minimum eigenvalue: {sol_bad.hessian_min_eig:.4f} "
      f"(convex: {sol_bad.convex})")
print("a negative delta_hat, exact in expectation, plus an indefinite tree")
print("Hessian certify that no optimal control exists for this weight.")
