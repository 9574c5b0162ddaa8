"""Independent numerical checks of the curvature and torsion coefficients.

The moment formulas and the projector construction share code paths with the
rest of the library, so this module derives the same quantities a third way,
from physically measurable data only:

* curvature -- how fast the true evolution peels away from the Fubini-Study
  geodesic segment from psi(0) to psi(2 dt); the minimal squared distance
  of psi(dt) from it, at unit metric prefactor, grows as
  (mu4 - mu2^2) / 4 * dt^4.  The segment lies on a great circle in a real
  2-plane, so that minimum is the smallest eigenvalue of a 2 x 2 real
  symmetric matrix, taken in closed form with no search;
* torsion -- how fast the state leaves the plane spanned by two earlier
  snapshots; the out-of-plane weight grows as tau^2 * mu2^2 * dt^4.

Fitting the quartic coefficients on a small grid of time steps and dividing
by mu2^2 recovers the dimensionless kappa^2 and tau^2.  A column of fitted
values that is all rounding noise reports a misfit of exactly 0.

A sampled-space-curve Frenet-Serret extractor is included so the quantum
quantities can be checked against ordinary curves in R^3 (e.g. circles on a
sphere, whose geodesic curvature the quantum curvature reproduces up to a
factor 4R^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .evolution import EvolutionProblem
from .hilbert import _as_vector, _project_off
from .moments import NumericalError, _require_moving

__all__ = [
    "FitResult",
    "SpaceCurveSamples",
    "fubini_study_sq",
    "fit_coefficients",
    "classical_frenet_serret",
    "sphere_geodesic_curvature",
]

_OVERLAP_TOL = 1e-10

# Squared distances of unit vectors up to (64 eps)^2 ~ 2e-28 are rounding noise:
# an exact zero reads at most 2.4 eps^2 at d <= 256, while kappa^2 or tau^2 >= 1e-3
# on the default grid dt v = 1e-3 gives values above 1e-16.
_ROUNDING_FLOOR = (64 * np.finfo(float).eps) ** 2

# Smallest accepted step dt v: there kappa^2 = 1e-3 gives deviations of kappa^2 (dt v)^4 / 4
# = 2.5e-24 (tau^2 (dt v)^4 = 1e-23 for tau^2), about 1e4 times _ROUNDING_FLOOR.
_MIN_STEP = 1e-5


@dataclass(frozen=True)
class FitResult:
    """Outcome of a through-origin quartic fit y = C * dt^4.

    ``coefficient`` is already converted to the physical constant named by
    the fitting routine (see its docstring), ``residual`` is the relative
    L2 misfit of the quartic model on the grid.
    """

    coefficient: float
    residual: float
    dt_grid: tuple[float, ...]


@dataclass(frozen=True)
class SpaceCurveSamples:
    """A curve in R^3 sampled on a strictly increasing parameter grid."""

    parameter: np.ndarray
    points: np.ndarray  # shape (n, 3)

    def __post_init__(self):
        t = np.asarray(self.parameter, dtype=float)
        p = np.asarray(self.points, dtype=float)
        if t.ndim != 1 or p.shape != (t.shape[0], 3):
            raise ValueError(f"expected (n,) parameters and (n, 3) points, got {t.shape}, {p.shape}")
        if t.shape[0] < 5:
            raise ValueError("need at least 5 samples for third-order differences")
        if np.any(np.diff(t) <= 0):
            raise ValueError("parameter grid must be strictly increasing")
        object.__setattr__(self, "parameter", t)
        object.__setattr__(self, "points", p)


def fubini_study_sq(psi1, psi2) -> float:
    """Squared chordal Fubini-Study distance 1 - |<psi1|psi2>|^2, at unit metric prefactor.

    Computed as the squared norm of psi2 minus its projection onto psi1,
    which is algebraically identical for unit vectors but does not lose
    precision when the states nearly coincide -- near-zero distances come out
    at the 1e-30 level instead of drowning in 1e-16 cancellation noise.
    """
    r = _project_off(_as_vector(psi2), _as_vector(psi1))
    return float(np.vdot(r, r).real)


def _min_geodesic_deviation(a: np.ndarray, p: np.ndarray, b: np.ndarray) -> float:
    """Minimal squared Fubini-Study distance, at unit prefactor, from p to the segment a -> b.

    With b phase-aligned to a, the segment is g(θ) = cos θ a + sin θ e for
    θ in [0, θ_b], where e is the unit part of b orthogonal to a and
    cos θ_b = |<a|b>|.  With x = <a|p> and y = <e|p>, |<g(θ)|p>|^2 is the
    quadratic form of M = [[|x|^2, Re x̄y], [Re x̄y, |y|^2]] at (cos θ, sin θ),
    so over the whole circle the squared distance is least at the top
    eigenvector of M, where it is

        1 - λ_max = ||r||^2 + λ_min,   λ_min = Im(x̄y)^2 / λ_max,

    with r the part of p outside span{a, e}.  The right-hand form has no
    1 - λ cancellation.  If that eigenvector's angle lies outside [0, θ_b],
    the segment's minimum is at one of its endpoints.
    """
    z = complex(np.vdot(a, b))
    if abs(z) <= _OVERLAP_TOL:
        raise NumericalError("geodesic undefined: endpoint states psi(0) and psi(2 dt) are orthogonal")
    # second Gram-Schmidt pass: <a|e> ~ eps, not eps / sin θ_b
    e = _project_off((b - z * a) * (z.conjugate() / abs(z)), a)
    sin_b = float(np.linalg.norm(e))
    if sin_b == 0.0:
        return fubini_study_sq(a, p)
    e /= sin_b
    x = complex(np.vdot(a, p))
    y = complex(np.vdot(e, p))
    r = p - x * a - y * e
    xx, yy, xy = abs(x) ** 2, abs(y) ** 2, x.conjugate() * y
    theta = 0.5 * np.arctan2(2.0 * xy.real, xx - yy)
    if not 0.0 <= theta <= np.arctan2(sin_b, abs(z)):
        return min(fubini_study_sq(a, p), fubini_study_sq(b, p))
    lam_max = 0.5 * (xx + yy + np.hypot(xx - yy, 2.0 * xy.real))
    return float(np.vdot(r, r).real + xy.imag**2 / lam_max)


def _fit_quartic(dt_grid, values) -> tuple[float, float]:
    """Least-squares C for y = C dt^4 through the origin, plus relative misfit.

    A column whose values all lie within ``_ROUNDING_FLOOR`` of zero holds
    no signal, so its misfit is reported as exactly 0.0.  A coefficient or
    misfit that is not finite (dt^4 overflows) raises ``NumericalError``.
    """
    x = np.asarray(dt_grid, dtype=float) ** 4
    y = np.asarray(values, dtype=float)
    coeff = float(np.dot(x, y) / np.dot(x, x))
    noise = np.all(np.abs(y) <= _ROUNDING_FLOOR)
    residual = 0.0 if noise else float(np.linalg.norm(y - coeff * x) / np.linalg.norm(y))
    if not (np.isfinite(coeff) and np.isfinite(residual)):
        raise NumericalError(f"dt_grid: quartic fit gives coefficient {coeff!r}, residual {residual!r}")
    return coeff, residual


def _snapshots(problem: EvolutionProblem, dt_grid) -> tuple[tuple[float, ...], dict[float, np.ndarray]]:
    """The checked steps, and psi(t) for every distinct t in {dt, 2 dt}, evolved in one walk."""
    _require_moving(problem.moments)  # before the step floor, which reads the speed
    dts = tuple(float(dt) for dt in dt_grid)
    if len(dts) < 2 or any(dt <= 0 for dt in dts):
        raise ValueError("dt_grid must contain at least two positive steps")
    least = min(dts) * problem.speed
    if least < _MIN_STEP:
        raise NumericalError(f"dt_grid: smallest dt*v = {least:.3g} is below {_MIN_STEP:.0e}, where fits see rounding")
    worst = max(dts) * problem.speed
    if worst > 0.1:
        warnings.warn(
            f"largest step has dt*v = {worst:.3g} > 0.1; quartic scaling may not dominate",
            stacklevel=3,
        )
    times = list(dict.fromkeys(t for dt in dts for t in (dt, 2.0 * dt)))
    return dts, dict(zip(times, problem._evolve_rows(times)))


def fit_coefficients(problem: EvolutionProblem, dt_grid) -> tuple[FitResult, FitResult]:
    """Curvature constant mu4 - mu2^2 and torsion constant tau^2 mu2^2, from
    one grid check and one walk for the snapshots psi(dt) and psi(2 dt).

    Curvature: for each step dt the evolved midpoint psi(dt) is compared
    against the geodesic segment from psi(0) to psi(2 dt); the minimal
    squared distance at unit metric prefactor is fitted to C dt^4, and the
    first result's coefficient is 4 C, which approaches mu4 - mu2^2 as
    dt -> 0.  Dividing by mu2^2 gives kappa^2.

    Torsion: the plane is spanned by the snapshots psi(0) and psi(dt); the
    weight of psi(2 dt) outside it, computed as an explicit residual norm,
    is fitted to C dt^4, and the second result's coefficient is C itself,
    which approaches tau^2 mu2^2.  For any single-qubit problem the plane is
    the whole space and the coefficient vanishes identically.

    Raises
    ------
    NumericalError
        If the curvature fit misfits by more than 5%, either fit is not
        finite, the smallest dt v is below 1e-5, or psi(0) and psi(2 dt)
        are orthogonal.
    StationaryStateError
        For an eigenstate input.
    """
    dts, states = _snapshots(problem, dt_grid)
    psi0 = problem.initial_state.amplitudes
    values = [_min_geodesic_deviation(psi0, states[dt], states[2.0 * dt]) for dt in dts]
    coeff, residual = _fit_quartic(dts, values)
    if residual > 0.05:
        raise NumericalError(f"fit_residual_kappa: quartic fit residual {residual:.3g} exceeds 5%")
    kappa_fit = FitResult(coefficient=4.0 * coeff, residual=residual, dt_grid=dts)

    q0 = psi0 / np.linalg.norm(psi0)
    values = []
    for dt in dts:
        u = _project_off(states[dt], q0, q0)  # the second pass keeps u orthogonal to q0
        r = _project_off(states[2.0 * dt], q0, u / np.linalg.norm(u))
        values.append(float(np.vdot(r, r).real))
    tau_fit = FitResult(*_fit_quartic(dts, values), dt_grid=dts)
    return kappa_fit, tau_fit


def classical_frenet_serret(samples: SpaceCurveSamples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise curvature and torsion of a sampled space curve.

    Second-order central-difference stencils applied directly to the raw
    samples give r', r'', r''' at interior points (two samples trimmed at
    each end, where the five-point stencil for r''' does not fit), and the
    classical formulas

        kappa = |r' x r''| / |r'|^3
        tau   = (r' x r'') . r''' / |r' x r''|^2

    are evaluated there.  The parameter grid must be uniform: classical
    central stencils lose their error cancellation on irregular spacing.

    Returns
    -------
    (parameter, kappa, tau) : three aligned 1-d arrays over interior samples.
    """
    t = samples.parameter
    r = samples.points
    steps = np.diff(t)
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise ValueError("parameter grid must be uniformly spaced")

    sl = slice(2, -2)
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
    return t[sl], kappa, tau


def sphere_geodesic_curvature(theta: float, radius: float) -> float:
    """Geodesic curvature cot(theta)/R of the colatitude-theta circle on a
    radius-R sphere; zero at the equator (a great circle)."""
    if not 0.0 < theta < np.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    return 1.0 / (np.tan(theta) * radius)
