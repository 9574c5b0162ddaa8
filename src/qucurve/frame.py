"""Moving frame along a quantum evolution curve.

In arc-length parametrization the transported state Psi(s) =
``problem.transported([s / v])[0]`` has unit tangent and acceleration

    T(s) = -i dh Psi(s),   T'(s) = -i dh T(s),   dh = (H - E) / v,

where E = <H> and v is the speed.  The frame is Psi(s), T(s) and the
normalized binormal N(s) obtained by projecting T'(s) off the span of
{Psi, T}:

    Nbar(s) = P_T P_Psi T'(s),   kappa^2 = ||P_Psi T'||^2,   tau^2 = ||Nbar||^2.

Squared curvature and torsion computed this way agree with the moment
formulas, which read the energy distribution and never this frame.

The frame's structure matrix C (the analogue of the classical Frenet-Serret
coefficient matrix) collects C[i][j] = <frame_j | d/ds frame_i>.  Since
Psi(s) = exp(-i s dh) psi_0 and the Gram coefficients that build T and N
from Psi are constant along the curve, every frame vector is a fixed
polynomial in dh applied to Psi(s), so d/ds f = -i dh f.  With the frame
vectors as the columns of F, C is therefore the transpose of the compression
F^dagger (-i dh) F of -i dh onto the frame: row i lists the frame components
of d/ds f_i, as in the classical d/ds (T, N, B) = C (T, N, B).  The frame
is the Lanczos basis of (dh, Psi) up to phases, so |C| is the leading 3x3
block of its Jacobi matrix (Parker et al., PRX 9, 041017, 2019).  C is
skew-Hermitian, with |C[1][2]| = tau and |C[1][1]| = sqrt(kappa^2 - tau^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import EvolutionProblem
from .hilbert import _norm, _project_off

__all__ = ["QuantumFrame", "build_frame"]

# Below this norm the raw binormal is rounding noise on an exactly planar
# curve and no normalized binormal is emitted.
_BINORMAL_NORM_TOL = 1e-8


@dataclass(frozen=True)
class QuantumFrame:
    """Orthonormal moving frame at arc length s: ``rows`` is one read-only
    complex k x d array (Psi, T[, N]), not completed to a basis of C^d, with
    k = 3 exactly when ``_binormal_present(tau_sq)``.  ``cartan`` is the 3x3
    structure matrix, of which only the leading k x k block is populated."""

    s: float
    rows: np.ndarray
    kappa_sq: float
    tau_sq: float
    cartan: np.ndarray


def _binormal_present(tau_sq: float) -> bool:
    """Whether a squared torsion is large enough to normalize the binormal."""
    return bool(np.sqrt(max(tau_sq, 0.0)) > _BINORMAL_NORM_TOL)


def _dh(problem: EvolutionProblem, vec: np.ndarray) -> np.ndarray:
    """(H - E) vec / v, without forming the centered matrix: one ``H.apply``."""
    return (problem.hamiltonian.apply(vec) - problem.energy * vec) / problem.speed


def _vectors_from(problem: EvolutionProblem, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """(T, T', Nbar, kappa^2, tau^2) from the state Psi alone, with two dh products.

    With T = -i dh Psi and T' = -i dh T, the projections are applied as
    vector operations in sequence, never as assembled projector matrices;
    kappa^2 = ||P_Psi T'||^2 and tau^2 = ||Nbar||^2 are formed here and nowhere else.
    """
    tan = -1j * _dh(problem, psi)
    accel = -1j * _dh(problem, tan)
    perp = _project_off(accel, psi)
    nbar = _project_off(perp, tan)
    return tan, accel, nbar, float(np.vdot(perp, perp).real), float(np.vdot(nbar, nbar).real)


def _curvature_torsion_at(problem: EvolutionProblem, psi: np.ndarray) -> tuple[float, float]:
    """(kappa^2, tau^2) = (||P_Psi T'||^2, ||P_T P_Psi T'||^2) at the state Psi, from two dh products."""
    return _vectors_from(problem, psi)[3:]


def build_frame(problem: EvolutionProblem, s: float) -> QuantumFrame:
    """The moving frame at arc length s, its curvature, torsion and structure matrix.

    ``rows`` holds the first k <= 3 Lanczos rows f = (Psi, T[, N]) of
    (dh, Psi(s)), up to phases: N is present (k = 3) only when the curve
    twists, and ``rows[0]`` is ``problem.transported([s / problem.speed])[0]``.
    ``kappa_sq`` and ``tau_sq`` are ``_curvature_torsion_at`` that state, bit
    for bit; a planar curve's tau^2 is about 1e-30.  The structure matrix is
    C[i][j] = <f_j | d/ds f_i> = <f_j | -i dh f_i>, zero-padded to 3x3, so on
    a planar curve only the 2x2 principal block is meaningful.  Its first two
    rows read -i dh Psi = T and -i dh T = T', already formed, so one state
    evaluation and k dh products make the frame: O(d) work.
    """
    psi = problem.transported([s / problem.speed])[0]
    tan, accel, nbar, kappa_sq, tau_sq = _vectors_from(problem, psi)
    rows, moved = [psi, tan], [tan, accel]
    if _binormal_present(tau_sq):
        binormal = nbar / _norm(nbar)
        rows.append(binormal)
        moved.append(-1j * _dh(problem, binormal))
    rows = np.array(rows)
    rows.setflags(write=False)
    k = len(rows)
    cartan = np.zeros((3, 3), dtype=complex)
    cartan[:k, :k] = np.array(moved) @ rows.conj().T
    return QuantumFrame(s=s, rows=rows, kappa_sq=kappa_sq, tau_sq=tau_sq, cartan=cartan)
