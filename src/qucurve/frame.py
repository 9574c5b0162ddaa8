"""Moving frame along a quantum evolution curve.

The frame is built from the parallel-transported state Psi(s), the unit
tangent T(s), and the normalized binormal N(s) obtained by projecting the
acceleration T'(s) off the span of {Psi, T}:

    Nbar(s) = P_T P_Psi T'(s),   kappa^2 = ||P_Psi T'||^2,   tau^2 = ||Nbar||^2.

Squared curvature and torsion computed this way agree with the moment
formulas; both paths are exposed so they can cross-check each other.

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
from .hilbert import _project_off

__all__ = [
    "QuantumFrame",
    "curvature_torsion_geometric",
    "build_frame",
]

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


def _vectors_from(problem: EvolutionProblem, psi: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Psi, T, P_Psi T', Nbar) from the state Psi alone.

    With T = -i dh Psi and T' = -i dh T, the projections are applied as
    vector operations in sequence, never as assembled projector matrices.
    """
    tan = -1j * problem._apply_delta_h(psi)
    perp = _project_off(-1j * problem._apply_delta_h(tan), psi)
    nbar = _project_off(perp, tan)
    return psi, tan, perp, nbar


def _curvature_torsion_at(problem: EvolutionProblem, psi: np.ndarray) -> tuple[float, float]:
    """(kappa^2, tau^2) = (||P_Psi T'||^2, ||P_T P_Psi T'||^2) at the state Psi, from two dh products."""
    _, _, perp, nbar = _vectors_from(problem, psi)
    return float(np.vdot(perp, perp).real), float(np.vdot(nbar, nbar).real)


def curvature_torsion_geometric(problem: EvolutionProblem, s_points) -> list[tuple[float, float]]:
    """``_curvature_torsion_at`` each arc length in ``s_points``, evolved in one walk; each
    pair depends only on its own arc length, bit for bit.  A planar curve's tau^2 is about 1e-30."""
    rows = problem.transported(np.asarray(s_points, dtype=float) / problem.speed)
    return [_curvature_torsion_at(problem, psi) for psi in rows]


def build_frame(problem: EvolutionProblem, s: float) -> QuantumFrame:
    """The moving frame at arc length s and its structure matrix.

    ``rows`` holds the first k <= 3 Lanczos rows f = (Psi, T[, N]) of
    (dh, Psi(s)), up to phases: N is present (k = 3) only when the curve
    twists, and ``rows[0]`` is ``problem.transported([s / problem.speed])[0]``.
    Its structure matrix is
    C[i][j] = <f_j | d/ds f_i> = <f_j | -i dh f_i>, zero-padded to 3x3, so on
    a planar curve only the 2x2 principal block is meaningful.  One state
    evaluation and k + 2 dh products: O(d) work.
    """
    psi, tan, perp, nbar = _vectors_from(problem, problem.transported([s / problem.speed])[0])
    tau_sq = float(np.vdot(nbar, nbar).real)
    rows = np.array([psi, tan, nbar / np.linalg.norm(nbar)] if _binormal_present(tau_sq) else [psi, tan])
    rows.setflags(write=False)
    k = len(rows)
    cartan = np.zeros((3, 3), dtype=complex)
    cartan[:k, :k] = np.array([-1j * problem._apply_delta_h(f) for f in rows]) @ rows.conj().T
    return QuantumFrame(s=s, rows=rows, kappa_sq=float(np.vdot(perp, perp).real), tau_sq=tau_sq, cartan=cartan)
