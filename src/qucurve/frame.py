"""Moving frame along a quantum evolution curve.

The frame is built from the parallel-transported state Psi(s), the unit
tangent T(s), and the normalized binormal N(s) obtained by projecting the
acceleration T'(s) off the span of {Psi, T}:

    Nbar(s) = P_T P_Psi T'(s),   kappa^2 = ||P_Psi T'||^2,   tau^2 = ||Nbar||^2.

Squared curvature and torsion computed this way agree with the moment
formulas; both paths are exposed so they can cross-check each other.

The frame's structure matrix C (the analogue of the classical Frenet-Serret
coefficient matrix) collects C[i][j] = <frame_j | d/ds frame_i>.  It is
skew-Hermitian, with |C[1][2]| = tau and |C[1][1]| = sqrt(kappa^2 - tau^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evolution import EvolutionProblem, state_at_arclength, tangent, tangent_derivative
from .hilbert import StateVector, _as_vector
from .moments import central_moments

__all__ = [
    "QuantumFrame",
    "curvature_geometric",
    "binormal_raw",
    "torsion_geometric",
    "build_frame",
    "cartan_matrix",
]

# Below this norm the raw binormal is rounding noise on an exactly planar
# curve and no normalized binormal is emitted.
_BINORMAL_NORM_TOL = 1e-8


@dataclass(frozen=True)
class QuantumFrame:
    """Orthonormal moving frame at a fixed arc length.

    ``binormal`` is None for planar (zero-torsion) curves, where the raw
    binormal vector is numerically zero and cannot be normalized.  ``extra``
    completes {psi, tangent, binormal} to a full orthonormal basis of C^d.
    ``cartan`` is the 3x3 structure matrix of frame derivatives; when the
    binormal is absent only its leading 2x2 block is populated.
    """

    s: float
    psi: StateVector
    tangent: StateVector
    binormal_raw: np.ndarray
    binormal: StateVector | None
    extra: list[StateVector] = field(default_factory=list)
    kappa_sq: float = 0.0
    tau_sq: float = 0.0
    cartan: np.ndarray = None

    def vectors(self) -> list[StateVector]:
        """All frame members in order: psi, tangent, binormal (if any), extra."""
        out = [self.psi, self.tangent]
        if self.binormal is not None:
            out.append(self.binormal)
        out.extend(self.extra)
        return out


def _project_off(vec: np.ndarray, *units: np.ndarray) -> np.ndarray:
    """Residual of vec after removing components along given unit vectors."""
    r = vec.copy()
    for u in units:
        r -= u * np.vdot(u, r)
    return r


def _binormal_present(tau_sq: float) -> bool:
    """Whether a squared torsion is large enough to normalize the binormal."""
    return bool(np.sqrt(max(tau_sq, 0.0)) > _BINORMAL_NORM_TOL)


def _curvature_torsion(problem: EvolutionProblem, s: float) -> tuple[float, float]:
    """(kappa^2, tau^2) at arc length s from one state evaluation.

    With T = -i dh Psi and T' = -i dh T, kappa^2 = ||P_Psi T'||^2 and
    tau^2 = ||P_T P_Psi T'||^2.
    """
    psi = state_at_arclength(problem, s).amplitudes
    tan = -1j * problem._apply_delta_h(psi)
    perp = _project_off(-1j * problem._apply_delta_h(tan), psi)
    nbar = _project_off(perp, tan)
    return float(np.vdot(perp, perp).real), float(np.vdot(nbar, nbar).real)


def curvature_geometric(problem: EvolutionProblem, s: float) -> float:
    """Squared curvature as ||P_Psi T'(s)||^2, the acceleration component
    orthogonal to the curve point itself."""
    return _curvature_torsion(problem, s)[0]


def binormal_raw(problem: EvolutionProblem, s: float) -> np.ndarray:
    """Unnormalized binormal Nbar(s) = P_T P_Psi T'(s).

    The projections are applied as vector operations in sequence, never as
    assembled projector matrices.
    """
    psi = state_at_arclength(problem, s).amplitudes
    tan = tangent(problem, s).amplitudes
    tprime = tangent_derivative(problem, s)
    return _project_off(_project_off(tprime, psi), tan)


def torsion_geometric(problem: EvolutionProblem, s: float) -> float:
    """Squared torsion as ||Nbar(s)||^2; exactly zero for planar curves up to
    rounding (~1e-30 in the squared norm)."""
    return _curvature_torsion(problem, s)[1]


def cartan_matrix(problem: EvolutionProblem, s: float) -> np.ndarray:
    """Structure matrix C[i][j] = <frame_j | d/ds frame_i> at arc length s.

    All derivatives are analytic.  For the first two rows,
    dPsi/ds = T and dT/ds = -(dh)^2 Psi.  For the binormal row, note that
    Nbar(s) = [ -(dh)^2 + <(dh)^2> + alpha3 * dh ] Psi(s) is a fixed operator
    acting on Psi(s) (the Gram coefficients <Psi|T'> = -1 and
    <T|T'> = -i*alpha3 are s-independent), so with constant norm tau

        N'(s) = ( T''(s) + T(s) + i*alpha3*T'(s) ) / tau,
        T''(s) = i (dh)^3 Psi(s).

    When the curve is planar the binormal row and column are zero and only
    the 2x2 principal block is meaningful.
    """
    psi = state_at_arclength(problem, s).amplitudes
    tan = tangent(problem, s).amplitudes
    tprime = tangent_derivative(problem, s)
    nbar = _project_off(_project_off(tprime, psi), tan)
    tau = float(np.linalg.norm(nbar))

    mom = central_moments(problem.hamiltonian, problem.initial_state)
    alpha3 = mom.alpha3

    cart = np.zeros((3, 3), dtype=complex)
    frame = [psi, tan]
    derivs = [tan, tprime]
    if tau > _BINORMAL_NORM_TOL:
        tsecond = -1j * problem._apply_delta_h(tprime)
        nprime = (tsecond + tan + 1j * alpha3 * tprime) / tau
        frame.append(nbar / tau)
        derivs.append(nprime)
    for i, dv in enumerate(derivs):
        for j, fv in enumerate(frame):
            cart[i, j] = np.vdot(fv, dv)
    return cart


def build_frame(problem: EvolutionProblem, s: float, completion_seed=None) -> QuantumFrame:
    """Assemble the full orthonormal frame at arc length s.

    Parameters
    ----------
    problem : EvolutionProblem
    s : float
        Arc length at which to evaluate the frame.
    completion_seed : sequence of array_like, optional
        Candidate vectors used to extend {psi, tangent, binormal} to a basis
        of C^d.  Defaults to the canonical basis vectors in index order;
        candidates that are (numerically) inside the span already built are
        skipped rather than rejected.

    Returns
    -------
    QuantumFrame
    """
    psi_sv = state_at_arclength(problem, s)
    tan_sv = tangent(problem, s)
    tprime = tangent_derivative(problem, s)

    psi = psi_sv.amplitudes
    tan = tan_sv.amplitudes
    perp = _project_off(tprime, psi)
    kappa_sq = float(np.vdot(perp, perp).real)
    nbar = _project_off(perp, tan)
    tau_sq = float(np.vdot(nbar, nbar).real)

    binormal = None
    core = [psi, tan]
    if _binormal_present(tau_sq):
        binormal = StateVector(nbar / np.linalg.norm(nbar))
        core.append(binormal.amplitudes)

    dim = problem.dim
    if completion_seed is None:
        completion_seed = list(np.eye(dim, dtype=complex))
    extra: list[StateVector] = []
    basis = list(core)
    for cand in completion_seed:
        if len(basis) == dim:
            break
        u = _as_vector(cand).copy()
        for _ in range(2):
            for q in basis:
                u -= q * np.vdot(q, u)
        nrm = np.linalg.norm(u)
        if nrm < 1e-10:  # candidate already in the span; try the next one
            continue
        u /= nrm
        basis.append(u)
        extra.append(StateVector(u))

    return QuantumFrame(
        s=s,
        psi=psi_sv,
        tangent=tan_sv,
        binormal_raw=nbar,
        binormal=binormal,
        extra=extra,
        kappa_sq=kappa_sq,
        tau_sq=tau_sq,
        cartan=cartan_matrix(problem, s),
    )
