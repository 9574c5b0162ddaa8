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
like dt^4 as well, with prefactor tau^2 mu2^2.  Fitting those quartics gives
an independent, derivative-free measurement of the same numbers the moment
formulas produce.  Both fits read the same snapshots psi(dt) and psi(2 dt),
so one call, ``fit_coefficients``, returns the pair.

This demo shows the raw fits, their scaling diagnostics, and the planar
counterexample where the torsion fit correctly returns zero.
"""

import numpy as np

from qucurve import (
    EvolutionProblem,
    central_moments,
    curvature_from_moments,
    fit_coefficients,
    single_qubit,
    torsion_from_moments,
    two_qubit_nonlocal,
)

problem = EvolutionProblem(two_qubit_nonlocal(0.0, 0.0, 1.0, 1.0), [1, 0, 0, 0])
mom = central_moments(problem.hamiltonian, problem.initial_state)
speed = float(np.sqrt(mom.mu2))
mu2_sq = mom.mu2**2

# %%
# Geodesic-deviation fit.  For the crossed-fields problem mu4 - mu2^2 = 4,
# so the raw quartic coefficient should come out at 4; dividing by mu2^2
# turns it into kappa^2 = 1.  The residual is the relative scatter of the
# per-dt coefficient estimates -- a direct check that the dt^4 law holds.

fit, tfit = fit_coefficients(problem)  # the default grid {1, 2, 4} x 1e-3 / v
print("geodesic-deviation fit (crossed fields)")
print(f"  dt grid          = {fit.dt_grid}")
print(f"  raw coefficient  = {fit.coefficient!r}   (moments say {mom.mu4 - mom.mu2**2!r})")
print(f"  normalized       = {fit.coefficient / mu2_sq!r}   "
      f"(kappa^2 = {curvature_from_moments(mom)!r})")
print(f"  fit residual     = {fit.residual:.2e}")

# %%
# Plane-deviation fit for the torsion on the same problem and snapshots,
# returned by the same call.

print("\nplane-deviation fit (crossed fields)")
print(f"  raw coefficient  = {tfit.coefficient!r}")
print(f"  normalized       = {tfit.coefficient / mu2_sq!r}   "
      f"(tau^2 = {torsion_from_moments(mom)!r})")
print(f"  fit residual     = {tfit.residual:.2e}")

# %%
# Convergence: halving the base step should leave the extracted coefficient
# alone while the truncation error in each per-dt estimate falls.  Watch
# the normalized value lock onto 1 as dt shrinks -- and note the library
# warns on the coarsest grid, where dt * speed > 0.1 puts the quartic law
# in doubt.

print("\nstep-size scan (normalized curvature coefficient)")
print(f"{'base dt':>10s} {'normalized':>18s} {'residual':>12s}")
for base in (4e-2, 2e-2, 1e-2, 5e-3):
    g = tuple(k * base / speed for k in (1.0, 2.0, 4.0))
    f = fit_coefficients(problem, g)[0]
    print(f"{base:10.0e} {f.coefficient / mu2_sq:18.12f} {f.residual:12.2e}")

# %%
# The planar counterexample: any single qubit.  The geodesic fit still sees
# curvature, but the plane fit collapses to numerical zero because a
# two-level curve never leaves the plane of its own great circle.

qubit = EvolutionProblem(single_qubit([0.6, 0.0, 0.8]), [1, 0])
qmom = central_moments(qubit.hamiltonian, qubit.initial_state)
qfit, qtfit = fit_coefficients(qubit)
print("\nsingle qubit (planar)")
print(f"  normalized curvature fit = {qfit.coefficient / qmom.mu2**2!r}")
print(f"  kappa^2 from moments     = {curvature_from_moments(qmom)!r}")
print(f"  raw torsion coefficient  = {qtfit.coefficient:.2e}  (exactly planar)")
