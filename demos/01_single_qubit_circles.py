"""
Single-qubit evolution: every curve is a circle
===============================================

A qubit precessing under a static field traces a circle on the Bloch
sphere.  Circles never twist, so the torsion coefficient vanishes
identically, and the curvature coefficient has a closed form in terms of
the angle between the state's Bloch vector and the field axis.

This script walks the closed form against the moment pipeline and shows
the two limiting cases: a great circle (geodesic, zero curvature) and a
tight circle near a pole (curvature blowing up).
"""

import numpy as np

from qucurve import (
    EvolutionProblem,
    bloch_to_state,
    central_moments,
    curvature_bloch,
    geodesic_efficiency,
    single_qubit,
    torsion_bloch,
)

# %%
# A field along +z and a state tilted 60 degrees away from it.  The squared
# curvature is 4 cot^2(angle) -- here 4 * (1/3) because cot(60deg)^2 = 1/3.

axis = np.array([0.0, 0.0, 1.0])
tilt = np.pi / 3
bloch = np.array([np.sin(tilt), 0.0, np.cos(tilt)])

closed = curvature_bloch(bloch, axis)
print("tilted 60 degrees off the field axis")
print(f"  closed-form kappa^2      = {closed!r}")

problem = EvolutionProblem(single_qubit(axis), bloch_to_state(bloch))
moments = central_moments(problem.hamiltonian, problem.initial_state)
print(f"  moment-pipeline kappa^2  = {moments.kappa_sq!r}")
print(f"  moment-pipeline tau^2    = {moments.tau_sq!r}")
print(f"  closed-form tau^2        = {torsion_bloch(bloch, axis)!r}")
assert np.isclose(closed, moments.kappa_sq, rtol=1e-12)

# %%
# Great circle: start on the equator, field along z.  The state follows a
# geodesic of projective Hilbert space, so kappa^2 = 0 and the transport is
# maximally efficient (eta = 1 at every time).

equator = np.array([1.0, 0.0, 0.0])
geodesic = EvolutionProblem(single_qubit(axis), bloch_to_state(equator))
m_geo = central_moments(geodesic.hamiltonian, geodesic.initial_state)
print("\nequatorial start (great circle)")
print(f"  kappa^2 = {m_geo.kappa_sq!r}")
for t in (0.3, 0.9, 1.5):
    eta = geodesic_efficiency(geodesic, t)
    print(f"  efficiency at t={t}: {eta!r}")

# %%
# Small circles: as the state approaches the pole the circle tightens and
# the curvature coefficient diverges like 4 cot^2(angle).  The speed of the
# curve (sqrt mu2) shrinks at the same time -- tight circles are slow.

print("\napproaching the pole")
print(f"{'angle':>8s} {'kappa^2':>14s} {'speed':>12s}")
for angle in (1.2, 0.8, 0.4, 0.2, 0.1):
    a = np.array([np.sin(angle), 0.0, np.cos(angle)])
    prob = EvolutionProblem(single_qubit(axis), bloch_to_state(a))
    mom = central_moments(prob.hamiltonian, prob.initial_state)
    kappa = mom.kappa_sq
    print(f"{angle:8.2f} {kappa:14.6f} {np.sqrt(mom.mu2):12.6f}")
