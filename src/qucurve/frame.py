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

from .evolution import EvolutionProblem, _transported_rows, state_at_arclength
from .hilbert import StateVector, _project_off
from .moments import _require_moving

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
    """Orthonormal moving frame {psi, tangent, binormal} at a fixed arc length.

    ``binormal`` is None for planar (zero-torsion) curves, where the raw
    binormal vector is numerically zero and cannot be normalized.  The frame
    is these k <= 3 rows only; it is not completed to a basis of C^d.
    ``cartan`` is the 3x3 structure matrix of frame derivatives; when the
    binormal is absent only its leading 2x2 block is populated.
    """

    s: float
    psi: StateVector
    tangent: StateVector
    binormal_raw: np.ndarray
    binormal: StateVector | None
    kappa_sq: float
    tau_sq: float
    cartan: np.ndarray

    def vectors(self) -> list[StateVector]:
        """The frame rows in order: psi, tangent, binormal (if any)."""
        out = [self.psi, self.tangent]
        if self.binormal is not None:
            out.append(self.binormal)
        return out


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


def curvature_torsion_geometric(problem: EvolutionProblem, s_points) -> list[tuple[float, float]]:
    """(kappa^2, tau^2) = (||P_Psi T'||^2, ||P_T P_Psi T'||^2) at each arc
    length in ``s_points``, evolved together in one walk; each pair depends
    only on its own arc length, bit for bit.  A planar curve's tau^2 is
    rounding, about 1e-30."""
    _require_moving(problem.moments)
    out = []
    for psi in _transported_rows(problem, np.asarray(s_points, dtype=float) / problem.speed):
        _, _, perp, nbar = _vectors_from(problem, psi)
        out.append((float(np.vdot(perp, perp).real), float(np.vdot(nbar, nbar).real)))
    return out


def build_frame(problem: EvolutionProblem, s: float) -> QuantumFrame:
    """The moving frame at arc length s and its structure matrix.

    The frame is the first k <= 3 Lanczos rows f = (Psi, T[, N]) of
    (dh, Psi(s)), up to phases: N is present (k = 3) only when the curve
    twists.  Its structure matrix is C[i][j] = <f_j | d/ds f_i> =
    <f_j | -i dh f_i>, zero-padded to 3x3, so on a planar curve only the 2x2
    principal block is meaningful.  One state evaluation and k + 2 dh
    products: O(d) work.
    """
    state = state_at_arclength(problem, s)
    psi, tan, perp, nbar = _vectors_from(problem, state.amplitudes)
    tau_sq = float(np.vdot(nbar, nbar).real)
    rows = [psi, tan]
    if _binormal_present(tau_sq):
        rows.append(nbar / np.linalg.norm(nbar))
    rows = np.array(rows)
    k = rows.shape[0]
    cartan = np.zeros((3, 3), dtype=complex)
    cartan[:k, :k] = np.array([-1j * problem._apply_delta_h(f) for f in rows]) @ rows.conj().T
    return QuantumFrame(
        s=s,
        psi=state,
        tangent=StateVector(rows[1]),
        binormal_raw=nbar,
        binormal=StateVector(rows[2]) if k == 3 else None,
        kappa_sq=float(np.vdot(perp, perp).real),
        tau_sq=tau_sq,
        cartan=cartan,
    )
