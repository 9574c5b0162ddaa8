"""Central moments of a Hamiltonian in a state, and the geometry they encode.

The route's one entry point, ``central_moments``, returns a ``MomentSet``:
the mean and central moments of the energy, and the curve's ``kappa_sq`` and
``tau_sq``.  With dh = (H - <H>)/sqrt(mu2) the standardized energy
fluctuation, those two are pure moment combinations:

    kappa^2 = <(dh)^4> - 1           = alpha4 - 1
    tau^2   = alpha4 - 1 - alpha3^2

where alpha3 = mu3 / mu2^(3/2) is the skewness and alpha4 = mu4 / mu2^2 the
kurtosis of the energy distribution.  The Pearson inequality
alpha4 >= 1 + alpha3^2 therefore guarantees tau^2 >= 0, and its gap equals
the torsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import HermitianOperator, _unit_state

__all__ = [
    "StationaryStateError",
    "NumericalError",
    "MomentSet",
    "central_moments",
]

# A state is treated as an eigenstate (zero-speed curve) when the energy
# variance is negligible relative to the mean squared eigenvalue
# ||H||_F^2 / d, a scale that moves with H -> cH and not with d.
_STATIONARY_MU2_TOL = 1e-10

# tau^2 values this far below zero are rounding noise on a planar curve and
# are clamped in displayed reports; anything lower indicates a real bug.
_CLAMP_FLOOR = -1e-9


class StationaryStateError(ValueError):
    """The initial state is an eigenstate: the curve degenerates to a point."""


class NumericalError(ValueError):
    """A computed quantity failed its own accuracy check; the message names it."""


@dataclass(frozen=True)
class MomentSet:
    """Central moments mu_r = <(H - <H>)^r> up to r = 4, standardized ratios and the curve's geometry.

    Only a moving state has one (``central_moments`` refuses an eigenstate),
    so mu2 > 0 and the ratios ``alpha3`` and ``alpha4`` are finite.

    ``kappa_sq`` = alpha4 - 1 is nonnegative because the variance of
    (H-<H>)^2 is mu4 - mu2^2 >= 0; rounding may produce values as low as
    -1e-12 near zero.  ``tau_sq`` = alpha4 - 1 - alpha3^2 is also the slack
    in the Pearson inequality, which reports quote as ``pearson_gap``.  It
    is kept raw: negative values down to ``_CLAMP_FLOOR`` are rounding noise
    on exactly-zero torsion and are left to display layers to clamp.
    """

    mean: float
    mu2: float
    mu3: float
    mu4: float
    alpha3: float
    alpha4: float
    kappa_sq: float
    tau_sq: float


def central_moments(hamiltonian: HermitianOperator, state) -> MomentSet:
    """<H>, central moments mu2..mu4, kappa^2 and tau^2 of H in a pure state, given by its amplitudes.

    Uses two products ``H.apply`` with (H - <H> I): with
    w1 = (H-<H>)psi and w2 = (H-<H>)w1,

        mu2 = <w1|w1>,  mu3 = <w1|w2>,  mu4 = <w2|w2>,

    so mu2 and mu4 are nonnegative by construction and mu3 is real up to
    rounding.  This never forms matrix powers, nor a matrix for a
    Pauli-backed H.

    Raises
    ------
    ValueError
        For amplitudes that are not a unit vector in C^d, d = ``hamiltonian.dim``.
    StationaryStateError
        For an eigenstate, mu2 <= 1e-10 ||H||_F^2 / d: the curve is a point.
    NumericalError
        For an H out of floating-point range, where alpha4 has no finite value.
    """
    return _moment_pass(hamiltonian, state)[0]


def _moment_pass(hamiltonian: HermitianOperator, state) -> tuple[MomentSet, np.ndarray, np.ndarray]:
    """``central_moments``, psi as ``_unit_state`` keeps it, and w1 = (H - <H>) psi: the one place H meets psi."""
    psi = _unit_state(state)
    if hamiltonian.dim != len(psi):
        raise ValueError(f"dimension mismatch: hamiltonian {hamiltonian.dim}, state {len(psi)}")
    fro_sq = hamiltonian.frobenius_sq
    if not math.isfinite(fro_sq):  # else the stationary test below always holds
        raise NumericalError(f"alpha4 is out of floating-point range: hamiltonian ||H||_F^2 = {fro_sq!r}")
    h_psi = hamiltonian.apply(psi)
    mean = float(np.vdot(psi, h_psi).real)
    w1 = h_psi - mean * psi
    w2 = hamiltonian.apply(w1) - mean * w1
    mu2 = float(np.vdot(w1, w1).real)
    mu3 = float(np.vdot(w1, w2).real)
    mu4 = float(np.vdot(w2, w2).real)

    if mu2 <= _STATIONARY_MU2_TOL * fro_sq / hamiltonian.dim:
        raise StationaryStateError("stationary state: arc length undefined")
    try:
        alpha3, alpha4 = mu3 / mu2**1.5, mu4 / mu2**2
    except (OverflowError, ZeroDivisionError):  # mu2 powers out of floating-point range
        alpha3 = alpha4 = math.inf
    if not (math.isfinite(alpha3) and math.isfinite(alpha4)):
        raise NumericalError(f"alpha4 = mu4 / mu2^2 is out of floating-point range: mu2 = {mu2!r}, mu4 = {mu4!r}")
    kappa_sq, tau_sq = alpha4 - 1.0, alpha4 - 1.0 - alpha3**2
    return MomentSet(mean, mu2, mu3, mu4, alpha3, alpha4, kappa_sq, tau_sq), psi, w1

