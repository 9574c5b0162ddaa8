"""
Reading curvature and torsion off short-time distances
======================================================

Neither coefficient needs derivatives to be measured.  Over a short window
dt the midpoint psi(dt) lies off the geodesic segment from psi(0) to
psi(2 dt); its least squared distance to that segment shrinks like dt^4,
with prefactor (mu4 - mu2^2)/4 in the squared-distance normalization used
here.  That least distance needs no search: the segment lies in a real
2-plane, and the distance is the smallest eigenvalue of a 2 x 2 real
symmetric matrix built from the midpoint's overlaps with the plane.  The
distance of psi(2 dt) from the plane spanned by psi(0) and psi(dt) shrinks
like dt^4 as well, with prefactor tau^2 mu2^2.  Fitting those quartics and
dividing by mu2^2 gives an independent, derivative-free measurement of the
same numbers the moment formulas produce.  Both fits read the same snapshots
psi(dt) and psi(2 dt), so one call, ``fit_coefficients``, returns one
``FitResult`` with both: ``kappa_sq``, ``tau_sq``, each fit's misfit and the
grid.

This demo shows the fits, their scaling diagnostics, and the planar
counterexample where the torsion fit correctly returns zero.
"""

import numpy as np

from qucurve import (
    EvolutionProblem,
    central_moments,
    fit_coefficients,
    single_qubit,
    two_qubit_nonlocal,
)

problem = EvolutionProblem(two_qubit_nonlocal(0.0, 0.0, 1.0, 1.0), [1, 0, 0, 0])
mom = central_moments(problem.hamiltonian, problem.initial_state)
speed = float(np.sqrt(mom.mu2))

# %%
# Geodesic-deviation fit.  For the crossed-fields problem mu4 - mu2^2 = 4,
# so the quartic coefficient should come out at 4; divided by mu2^2 = 4 it
# is kappa^2 = 1.  The residual is the relative misfit of the dt^4 law on
# the grid -- a direct check that the law holds.

fit = fit_coefficients(problem)  # the default grid {1, 2, 4} x 1e-3 / v
print("geodesic-deviation fit (crossed fields)")
print(f"  dt grid          = {fit.dt_grid}")
print(f"  kappa^2          = {fit.kappa_sq!r}   (moments say {mom.kappa_sq!r})")
print(f"  fit residual     = {fit.fit_residual_kappa:.2e}")

# %%
# Plane-deviation fit for the torsion on the same problem and snapshots,
# returned by the same call.

print("\nplane-deviation fit (crossed fields)")
print(f"  tau^2            = {fit.tau_sq!r}   (moments say {mom.tau_sq!r})")
print(f"  fit residual     = {fit.fit_residual_tau:.2e}")

# %%
# Convergence: halving the base step should leave the fitted kappa^2 alone
# while the truncation error in each per-dt estimate falls.  Watch it lock
# onto 1 as dt shrinks -- and note the library warns on the coarsest grid,
# where dt * speed > 0.1 puts the quartic law in doubt.

print("\nstep-size scan (curvature fit)")
print(f"{'base dt':>10s} {'kappa^2':>18s} {'residual':>12s}")
for base in (4e-2, 2e-2, 1e-2, 5e-3):
    f = fit_coefficients(problem, tuple(k * base / speed for k in (1.0, 2.0, 4.0)))
    print(f"{base:10.0e} {f.kappa_sq:18.12f} {f.fit_residual_kappa:12.2e}")

# %%
# The planar counterexample: any single qubit.  The geodesic fit still sees
# curvature, but the plane fit collapses to numerical zero because a
# two-level curve never leaves the plane of its own great circle.

qubit = EvolutionProblem(single_qubit([0.6, 0.0, 0.8]), [1, 0])
qfit = fit_coefficients(qubit)
print("\nsingle qubit (planar)")
print(f"  kappa^2 from the fit     = {qfit.kappa_sq!r}")
print(f"  kappa^2 from moments     = {central_moments(qubit.hamiltonian, qubit.initial_state).kappa_sq!r}")
print(f"  tau^2 from the fit       = {qfit.tau_sq:.2e}  (exactly planar)")
