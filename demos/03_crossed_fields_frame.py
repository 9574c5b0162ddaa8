"""
A genuinely twisting curve and its moving frame
===============================================

Two qubits coupled by crossed two-body terms, H = XZ + ZX, starting from
|00>.  This is the smallest example whose curve actually leaves every
plane: kappa^2 = tau^2 = 1, and the moving frame closes on a third vector
(the binormal, here |11> at s = 0).  The singlet is the one direction of
C^4 the curve never reaches: it is orthogonal to all three frame rows.

The script computes the geometry three independent ways -- moment
formulas, projector geometry, and the frame's structure matrix -- and
prints the frame explicitly at a few arc-length stations.
"""

import numpy as np

from qucurve import (
    EvolutionProblem,
    build_frame,
    central_moments,
    two_qubit_nonlocal,
)

problem = EvolutionProblem(two_qubit_nonlocal(0.0, 0.0, 1.0, 1.0), [1, 0, 0, 0])

# %%
# Path one: central moments of the energy distribution.  The eigenvalues
# are (-2, 0, 0, 2) with weights (1/4, 1/2, 1/4), so mu2 = 2, mu4 = 8,
# kurtosis alpha4 = 2, and both coefficients are exactly 1.

mom = central_moments(problem.hamiltonian, problem.initial_state)
print("moment path")
print(f"  mean = {mom.mean!r}, mu2 = {mom.mu2!r}, mu3 = {mom.mu3!r}, mu4 = {mom.mu4!r}")
print(f"  kappa^2 = {mom.kappa_sq!r}")
print(f"  tau^2   = {mom.tau_sq!r}")

# %%
# Path two: projector geometry.  Differentiate the transported state twice,
# project the acceleration off the curve for kappa, then off the tangent as
# well for tau.  The frame at each station carries both as named fields;
# they should reproduce the moment numbers at every station.

print("\nprojector path along the curve")
print(f"{'s':>6s} {'kappa^2':>22s} {'tau^2':>22s}")
for s in (0.0, 0.7, 1.4):
    station = build_frame(problem, s)
    print(f"{s:6.2f} {station.kappa_sq:22.15f} {station.tau_sq:22.15f}")

# %%
# The frame itself.  At s = 0 the tangent mixes |01> and |10> and the
# binormal sits on |11>; the singlet (|01> - |10>)/sqrt(2) never couples to
# the dynamics, so no frame row has any overlap with it.  Transporting along
# the curve rotates the frame but leaves the structure matrix constant, and
# its only nonzero entries are the +/-1 couplings of neighbours in the
# frame -- the signature of constant curvature and torsion with no
# skewness term.

frame = build_frame(problem, 0.0)
labels = ("position", "tangent", "binormal")
print("\nframe at s = 0 (rows = frame vectors, basis |00>,|01>,|10>,|11>)")
for label, vec in zip(labels, frame.rows):
    pretty = ", ".join(f"{z.real:+.3f}{z.imag:+.3f}j" for z in vec)
    print(f"  {label:9s} [{pretty}]")

print("\nstructure matrix (constant in s)")
with np.printoptions(precision=3, suppress=True):
    print(np.round(frame.cartan.real, 12))

singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
print("\noverlap of the singlet with each frame row")
for label, vec in zip(labels, frame.rows):
    overlap = float(abs(np.vdot(vec, singlet)))
    print(f"  |<{label}|singlet>| = {overlap!r}")
    assert np.isclose(overlap, 0.0, atol=1e-12)
