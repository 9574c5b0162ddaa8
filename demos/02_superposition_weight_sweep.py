"""
Sweeping the superposition weight of a two-level state
======================================================

With H = sigma_z and the initial state  xi|0> + sqrt(1-xi^2)|1>,  every
geometric quantity reduces to a rational function of the weight xi.  The
energy distribution has only two points, so its skewness and kurtosis are
locked together: kappa^2 = alpha3^2 = alpha4 - 1, which forces the torsion
to vanish for every xi -- these curves are all planar.

The sweep below exercises the closed forms against the moment pipeline and
highlights the two special weights:

* xi = 1/sqrt(2): the balanced superposition follows a geodesic
  (kappa^2 = 0) and transports at unit efficiency;
* xi0 = sqrt(2 + sqrt 2)/2: the weight where kappa^2 passes through 4,
  mirroring the 45-degree small circle on the Bloch sphere.
"""

import numpy as np

from qucurve import (
    EvolutionProblem,
    central_moments,
    geodesic_efficiency,
    single_qubit,
    xi_curvature,
    xi_efficiency,
    xi_kurtosis,
    xi_state,
)

SIGMA_Z = single_qubit([0.0, 0.0, 1.0])

# %%
# The sweep.  alpha4 - 1 - alpha3^2 (the Pearson-inequality gap) is the
# squared torsion; for a two-point energy distribution the inequality is
# saturated so the gap prints as rounding noise.

print(f"{'xi':>6s} {'kappa^2 (formula)':>18s} {'kappa^2 (moments)':>18s} "
      f"{'kurtosis':>10s} {'pearson gap':>12s}")
for xi in (0.30, 0.45, 0.60, 1 / np.sqrt(2), 0.80, 0.92):
    mom = central_moments(SIGMA_Z, xi_state(xi))
    print(f"{xi:6.3f} {xi_curvature(xi):18.10f} {mom.kappa_sq:18.10f} "
          f"{xi_kurtosis(xi):10.6f} {mom.tau_sq:12.2e}")

# %%
# The balanced weight is a geodesic: kappa^2 = 0 exactly, and the transport
# efficiency equals 1 for all times.

balanced = 1 / np.sqrt(2)
prob = EvolutionProblem(SIGMA_Z, xi_state(balanced))
print("\nbalanced superposition")
print(f"  kappa^2    = {float(xi_curvature(balanced))!r}")
print(f"  eta(t=0.7) = {geodesic_efficiency(prob, 0.7)!r}")

# %%
# Away from balance the curve wanders off the geodesic and the efficiency
# decays.  The closed form tracks arccos of the survival amplitude.

xi = 0.82
prob = EvolutionProblem(SIGMA_Z, xi_state(xi))
print(f"\nunbalanced weight xi = {xi}")
print(f"{'t':>6s} {'eta (pipeline)':>16s} {'eta (closed form)':>18s}")
for t in (0.25, 0.75, 1.25):
    got = geodesic_efficiency(prob, t)
    want = xi_efficiency(t, xi)
    print(f"{t:6.2f} {got:16.10f} {want:18.10f}")
    assert np.isclose(got, want, rtol=1e-10)

# %%
# The weight where kappa^2 crosses 4: xi0^2 = (2 + sqrt 2)/4.  At this value
# the quantum curve has the same bending coefficient as the 45-degree
# circle of a classical sphere.

xi0 = float(np.sqrt(2 + np.sqrt(2)) / 2)
print(f"\nxi0 = {xi0!r}")
print(f"kappa^2(xi0) = {xi_curvature(xi0)!r}")
