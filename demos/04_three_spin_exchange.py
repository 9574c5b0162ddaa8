"""
Three exchange-coupled spins: GHZ twists, W stays flat
======================================================

Three qubits with anisotropic pairwise exchange (Jx, Jy, Jz) in a
transverse field h.  Launched from the GHZ state the curve explores a
three-dimensional invariant subspace and picks up genuine torsion; the W
state, by contrast, only ever mixes with one partner level, so its curve
is planar for every coupling choice.

Both facts come out of closed-form coefficient functions, which this
script checks against the moment pipeline, ending with the isotropic trap:
at Jx = Jy the GHZ curve degenerates to a geodesic.
"""

import numpy as np

from qucurve import (
    StationaryStateError,
    central_moments,
    ghz_state,
    heisenberg3,
    heisenberg_ghz_coefficients,
    heisenberg_w_coefficients,
    w_state,
)

# %%
# A generic anisotropic point.  The GHZ curve's torsion is strictly
# positive whenever both the field and the exchange anisotropy are alive.

jx, jy, jz, h = 1.4, 0.3, 0.6, 0.9
ham = heisenberg3(jx, jy, jz, h)

kappa_formula, tau_formula = heisenberg_ghz_coefficients(jx, jy, jz, h)
mom = central_moments(ham, ghz_state())
print(f"GHZ under (Jx, Jy, Jz, h) = ({jx}, {jy}, {jz}, {h})")
print(f"  kappa^2: formula = {kappa_formula!r}")
print(f"           moments = {mom.kappa_sq!r}")
print(f"  tau^2:   formula = {tau_formula!r}")
print(f"           moments = {mom.tau_sq!r}")

# %%
# The W state on the same Hamiltonian: nonzero curvature, identically zero
# torsion.  Its energy distribution has only two points, which pins the
# kurtosis to 1 + skewness^2 and closes the Pearson gap.

kappa_w, tau_w = heisenberg_w_coefficients(jx, jy, jz, h)
mom_w = central_moments(ham, w_state())
print("\nW state, same couplings")
print(f"  kappa^2: formula = {kappa_w!r}")
print(f"           moments = {mom_w.kappa_sq!r}")
print(f"  tau^2:   formula = {tau_w!r}")
print(f"           moments = {mom_w.tau_sq:.2e}")

# %%
# Sweep the anisotropy at fixed field.  The W state only moves at all
# because of the exchange anisotropy, so the isotropic point Jy = Jx leaves
# it frozen -- the coefficient function refuses the question there.

print(f"\n{'Jy':>6s} {'GHZ kappa^2':>14s} {'GHZ tau^2':>14s} {'W kappa^2':>14s}")
for jy_sweep in (0.4, 0.8, 1.0, 1.2, 1.6):
    k_g, t_g = heisenberg_ghz_coefficients(1.0, jy_sweep, 0.5, 0.7)
    try:
        k_w, _ = heisenberg_w_coefficients(1.0, jy_sweep, 0.5, 0.7)
        w_cell = f"{k_w:14.6f}"
    except StationaryStateError:
        w_cell = f"{'(stationary)':>14s}"
    print(f"{jy_sweep:6.2f} {k_g:14.6f} {t_g:14.6f} {w_cell}")

# %%
# The isotropic trap.  At Jx = Jy the GHZ state couples to a single partner
# level with no skewness, i.e. a geodesic: both coefficients collapse to
# exactly zero even though the state is still moving.

k_iso, t_iso = heisenberg_ghz_coefficients(1.0, 1.0, 0.5, 0.7)
mom_iso = central_moments(heisenberg3(1.0, 1.0, 0.5, 0.7), ghz_state())
print("\nisotropic point Jx = Jy = 1")
print(f"  formula  (kappa^2, tau^2) = ({k_iso!r}, {t_iso!r})")
print(f"  pipeline  kappa^2 = {mom_iso.kappa_sq:.2e}, "
      f"speed = {float(np.sqrt(mom_iso.mu2))!r}")
