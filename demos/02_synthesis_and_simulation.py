"""Synthesizing the optimal control and simulating the closed loop.

The optimal pair of a backward LQ problem is parameterised by a forward
"dual" SDE.  The pipeline, all inside ``bslq.synthesize_optimal``, is:

    reduce -> solve Sigma -> solve (phi, beta) -> simulate X -> read outputs,

where the outputs (X*, Y, Z, u) are one map M applied to (X, W, 1) at each
node, so they are pointwise algebraic functions of X.  The ensemble keeps
X as ``ens.state`` and forms an output when it is first read, as
``ens["Y"]``.  Two exact
structural facts make the synthesis easy to sanity-check on every run:

* Y(T) equals the prescribed terminal value, path by path, bitwise;
* the first-order optimality relation
      S2 Y + R21 Z - B^T X + R22 u + rho2 = 0
  holds at every node to rounding error, whatever the time step.
"""

import numpy as np

import bslq

spec = bslq.builtin_scenario("S4", steps=200)
brownian = bslq.BrownianEnsemble.generate(seed=42, paths=5000, grid=spec.grid)
synth = bslq.synthesize_optimal(spec, brownian)
ens = synth.ensemble
Y, u = ens["Y"], ens["u"]

print(f"simulated {brownian.paths} paths x {spec.grid.steps} steps")

xi = spec.xi.sample(brownian.W)[:, -1, :]
print("max |Y(T) - xi| over all paths:",
      np.max(np.abs(Y[:, -1, :] - xi)))

stat = bslq.stationarity_residual(spec, ens)
print(f"stationarity residual: sup = {stat.sup:.2e}, rms = {stat.rms:.2e}")

cost = bslq.evaluate_cost(spec, ens)
value = bslq.value_formula(spec, synth.reduced, synth.sigma, synth.bsde)
print(f"cost of the synthesized control: {cost.estimate:.6f} "
      f"+- {cost.stderr:.6f} (MC)")
print(f"closed-form optimal value:       {value:.6f}")

print()
print("ensemble statistics at a few times (t, mean u, std u, mean Y, std Y):")
for k in (0, 50, 100, 150, 200):
    t = spec.grid.nodes[k]
    print(f"  t = {t:4.2f}   {u[:, k, 0].mean():+8.4f} {u[:, k, 0].std():8.4f}"
          f"   {Y[:, k, 0].mean():+8.4f} {Y[:, k, 0].std():8.4f}")

print()
print("the same seed reproduces the run bitwise, path by path:")
again = bslq.synthesize_optimal(
    spec, bslq.BrownianEnsemble.generate(seed=42, paths=5000, grid=spec.grid))
print("  identical:", np.array_equal(again.ensemble["u"], u))
