"""
Calibrating against classical curves
====================================

The same curvature/torsion language applies to ordinary space curves, and
this demo carries a classical extractor for exactly that reason: it anchors
the quantum coefficients to numbers you can check with a ruler.  The
extractor lives here, not in the package; tests load it from this file.

Part one runs the discrete Frenet-Serret pipeline on a circle and a helix.
Part two closes the loop: a qubit whose Bloch vector rides a small circle
of colatitude theta has squared quantum curvature 4 cot^2(theta), which is
exactly (2R)^2 times the squared geodesic curvature of that circle drawn
on a radius-R sphere -- the factor 4R^2 converting between the projective
metric and the sphere's.
"""

import numpy as np

from qucurve import curvature_bloch


def classical_frenet_serret(t, points):
    """Pointwise curvature and torsion of a curve in R^3 sampled at parameters ``t``.

    Second-order central-difference stencils applied directly to the raw
    samples give r', r'', r''' at interior points (two samples trimmed at
    each end, where the five-point stencil for r''' does not fit), and the
    classical formulas

        kappa = |r' x r''| / |r'|^3
        tau   = (r' x r'') . r''' / |r' x r''|^2

    are evaluated there.  The parameter grid must be strictly increasing and
    uniform: classical central stencils lose their error cancellation on
    irregular spacing.

    Returns
    -------
    (parameter, kappa, tau) : three aligned 1-d arrays over interior samples.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(points, dtype=float)
    if t.ndim != 1 or r.shape != (t.shape[0], 3):
        raise ValueError(f"expected (n,) parameters and (n, 3) points, got {t.shape}, {r.shape}")
    if t.shape[0] < 5:
        raise ValueError("need at least 5 samples for third-order differences")
    steps = np.diff(t)
    if np.any(steps <= 0):
        raise ValueError("parameter grid must be strictly increasing")
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise ValueError("parameter grid must be uniformly spaced")

    d1 = (r[3:-1] - r[1:-3]) / (2.0 * h)
    d2 = (r[3:-1] - 2.0 * r[2:-2] + r[1:-3]) / h**2
    d3 = (r[4:] - 2.0 * r[3:-1] + 2.0 * r[1:-3] - r[:-4]) / (2.0 * h**3)

    cross = np.cross(d1, d2)
    cross_norm = np.linalg.norm(cross, axis=1)
    speed = np.linalg.norm(d1, axis=1)
    # The second-difference stencil carries rounding of order eps*|r|/h^2, so
    # a cross product at that level (or a speed at the first-difference analog)
    # is indistinguishable from a straight or stalled curve and the division
    # below would amplify pure noise.
    noise = 64.0 * np.finfo(float).eps * float(np.max(np.abs(r)) + 1.0) / h**2
    if np.any(speed <= noise * h) or np.any(cross_norm <= speed * noise):
        raise ValueError("degenerate samples: vanishing speed or curvature")
    kappa = cross_norm / speed**3
    tau = np.einsum("ij,ij->i", cross, d3) / cross_norm**2
    return t[2:-2], kappa, tau


if __name__ == "__main__":
    # %%
    # A circle of radius 1.7: curvature 1/1.7, torsion 0, everywhere.

    R = 1.7
    t = np.linspace(0.0, 2.0 * np.pi, 2001)
    circle = np.stack([R * np.cos(t), R * np.sin(t), np.zeros_like(t)], axis=1)
    _, kappa, tau = classical_frenet_serret(t, circle)
    print("circle, R = 1.7")
    print(f"  kappa: max deviation from 1/R = {np.max(np.abs(kappa - 1 / R)):.2e}")
    print(f"  tau:   max |tau|              = {np.max(np.abs(tau)):.2e}")

    # %%
    # A helix x = a cos t, y = a sin t, z = b t: constant curvature
    # a/(a^2+b^2) and constant torsion b/(a^2+b^2).

    a, b = 2.0, 0.5
    t = np.linspace(0.0, 4.0 * np.pi, 4001)
    helix = np.stack([a * np.cos(t), a * np.sin(t), b * t], axis=1)
    _, kappa, tau = classical_frenet_serret(t, helix)
    denom = a * a + b * b
    print("\nhelix, a = 2, b = 0.5")
    print(f"  kappa: mean = {np.mean(kappa):.10f}   expected {a / denom:.10f}")
    print(f"  tau:   mean = {np.mean(tau):.10f}   expected {b / denom:.10f}")

    # %%
    # The quantum/classical dictionary.  For each colatitude theta, compare the
    # qubit's curvature coefficient (Bloch vector tilted theta from the field
    # axis) with the geodesic curvature cot(theta)/R of the matching circle on
    # a sphere of radius R.  Their ratio is 4R^2 for every theta and every R.

    print("\nsphere dictionary: kappa^2_quantum / kappa_geo^2")
    axis = np.array([0.0, 0.0, 1.0])
    print(f"{'theta':>8s} {'R=0.5':>12s} {'R=1':>12s} {'R=2':>12s}")
    for theta in (0.4, 0.9, 1.3, 2.0, 2.6):
        bloch = np.array([np.sin(theta), 0.0, np.cos(theta)])
        kq = curvature_bloch(bloch, axis)
        cells = []
        for radius in (0.5, 1.0, 2.0):
            kg = 1.0 / (np.tan(theta) * radius)
            cells.append(f"{kq / kg**2:12.8f}")
        print(f"{theta:8.2f} {' '.join(cells)}")
    print("expected ratios: 4 R^2 =", [4 * r * r for r in (0.5, 1.0, 2.0)])
