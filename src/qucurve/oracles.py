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

``_fit`` checks the grid, evolves and fits both laws in one call; it calls nothing of the projector route.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .evolution import EvolutionProblem
from .hilbert import _norm, _project_off
from .moments import NumericalError

__all__ = ["FitResult", "fubini_study_sq", "fit_coefficients"]

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
    """kappa^2 and tau^2 from the through-origin quartic fits y = C * dt^4 on ``dt_grid``.

    ``fit_residual_kappa`` and ``fit_residual_tau`` are the relative L2
    misfits of the two quartic models on the grid.  The fields are the keys
    of a report's ``oracle`` block, in its order.
    """

    kappa_sq: float
    tau_sq: float
    fit_residual_kappa: float
    fit_residual_tau: float
    dt_grid: tuple[float, ...]


def fubini_study_sq(psi1, psi2) -> float:
    """Squared chordal Fubini-Study distance 1 - |<psi1|psi2>|^2, at unit metric prefactor.

    Computed as the squared norm of psi2 minus its projection onto psi1,
    which is algebraically identical for unit vectors but does not lose
    precision when the states nearly coincide -- near-zero distances come out
    at the 1e-30 level instead of drowning in 1e-16 cancellation noise.
    """
    r = _project_off(np.asarray(psi2, dtype=complex), np.asarray(psi1, dtype=complex))
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
    sin_b = _norm(e)
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
    y = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below reports it
        x = np.asarray(dt_grid, dtype=float) ** 4
        coeff = float(x.dot(y) / x.dot(x))
        noise = np.all(np.abs(y) <= _ROUNDING_FLOOR)  # so that ||y|| > 0 below
        r = y - coeff * x
        residual = 0.0 if noise else math.sqrt(r.dot(r)) / math.sqrt(y.dot(y))  # NumPy 2's norm, minus its dispatch
    if not (np.isfinite(coeff) and np.isfinite(residual)):
        raise NumericalError(f"dt_grid: quartic fit gives coefficient {coeff!r}, residual {residual!r}")
    return coeff, residual


def _fit(problem: EvolutionProblem, dt_grid, notes: list[str]) -> tuple[FitResult, dict[float, np.ndarray]]:
    """The two quartic fits on ``dt_grid`` (default {1, 2, 4} * 1e-3 / v) and their snapshots psi(t), t in {dt, 2 dt},
    from one grid check and one walk; a coarse grid's note joins ``notes`` before any fit can raise."""
    if dt_grid is None:
        dt_grid = [k * 1e-3 / problem.speed for k in (1.0, 2.0, 4.0)]
    dts = tuple(float(dt) for dt in dt_grid)
    if len(set(dts)) < 2 or not all(0 < dt < math.inf for dt in dts):  # also refuses NaN
        raise ValueError("dt_grid must contain at least two distinct positive steps, all finite")
    if (least := min(dts) * problem.speed) < _MIN_STEP:
        raise NumericalError(f"dt_grid: smallest dt*v = {least:.3g} is below {_MIN_STEP:.0e}, where fits see rounding")
    if (worst := max(dts) * problem.speed) > 0.1:
        notes.append(f"largest step has dt*v = {worst:.3g} > 0.1; quartic scaling may not dominate")
    times = list(dict.fromkeys(t for dt in dts for t in (dt, 2.0 * dt)))
    states = dict(zip(times, problem.evolve(times)))

    psi0 = problem.initial_state
    values = [_min_geodesic_deviation(psi0, states[dt], states[2.0 * dt]) for dt in dts]
    kappa_c, kappa_residual = _fit_quartic(dts, values)
    if kappa_residual > 0.05:
        raise NumericalError(f"fit_residual_kappa: quartic fit residual {kappa_residual:.3g} exceeds 5%")

    q0 = psi0 / _norm(psi0)
    values = []
    for dt in dts:
        u = _project_off(states[dt], q0, q0)  # the second pass keeps u orthogonal to q0
        r = _project_off(states[2.0 * dt], q0, u / _norm(u))
        values.append(float(np.vdot(r, r).real))
    tau_c, tau_residual = _fit_quartic(dts, values)
    mu2 = problem.moments.mu2
    return FitResult(4.0 * kappa_c / mu2**2, tau_c / mu2**2, kappa_residual, tau_residual, dts), states


def fit_coefficients(problem: EvolutionProblem, dt_grid=None) -> FitResult:
    """kappa^2 and tau^2 from one grid check and one walk for the snapshots
    psi(dt) and psi(2 dt), on ``dt_grid`` (default {1, 2, 4} * 1e-3 / v).

    Curvature: for each step dt the evolved midpoint psi(dt) is compared
    against the geodesic segment from psi(0) to psi(2 dt); the minimal
    squared distance at unit metric prefactor is fitted to C dt^4, and 4 C
    approaches mu4 - mu2^2 as dt -> 0.  ``kappa_sq`` is 4 C / mu2^2.

    Torsion: the plane is spanned by the snapshots psi(0) and psi(dt); the
    weight of psi(2 dt) outside it, computed as an explicit residual norm,
    is fitted to C dt^4, and C approaches tau^2 mu2^2.  ``tau_sq`` is
    C / mu2^2, with the moment pass's mu2.  For any single-qubit problem
    the plane is the whole space and tau_sq vanishes identically.

    Raises
    ------
    NumericalError
        If the curvature fit misfits by more than 5%, either fit is not
        finite, the smallest dt v is below 1e-5, or psi(0) and psi(2 dt)
        are orthogonal.
    """
    notes: list[str] = []
    try:
        return _fit(problem, dt_grid, notes)[0]
    finally:
        for note in notes:
            warnings.warn(note, stacklevel=2)
