"""Unitary evolution under a stationary Hamiltonian, in the parallel-transport gauge.

Throughout, hbar = 1.  A problem instance pairs a Hamiltonian H with an
initial pure state psi_0.  The physically evolved state is
psi(t) = exp(-iHt) psi_0; multiplying by exp(+iEt) with E = <H> removes the
dynamical phase and yields the parallel-transported representative Psi(t),
which satisfies <Psi|dPsi/dt> = 0.

Arc length along the projective-space curve is s = v t, where the speed v is
the energy uncertainty, v^2 = <(H - E)^2>.  In arc-length parametrization the
curve has unit-norm tangent

    T(s) = -i (dh) Psi(s),      dh = (H - E) / v,

and second derivative T'(s) = -(dh)^2 Psi(s), whose squared norm <(dh)^4> is
constant in s.  ``frame`` builds both from one state evaluation.

States are evolved in the Krylov space of (H - E, psi_0) (Hochbruck and
Lubich, SIAM J. Numer. Anal. 34, 1997): a Lanczos basis V_m with tridiagonal
T_m = V_m^dagger (H - E) V_m gives exp(-iHt) psi_0 ~ exp(-iEt) V_m
exp(-itT_m) e_1, at the cost of m products ``H.apply(v)``, so a Pauli-backed
H is never formed as a matrix.  The basis grows by quarters (16, 20, 25,
31, ...), and many times share one walk up these sizes.  Nothing here
diagonalizes H itself: only the m x m tridiagonal T_m is diagonalized.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import _NORM_TOL, HermitianOperator, StateVector
from .moments import NumericalError, _moment_pass, _require_moving

__all__ = [
    "EvolutionProblem",
    "evolve",
    "parallel_transported_state",
    "state_at_arclength",
]

# A Krylov state is accepted once the a-posteriori estimate
# |t| beta_m |e_m^T exp(-itT_m) e_1| of its error is at most this.  The error
# is the integral over [0, t] of beta_m |e_m^T exp(-isT_m) e_1|, whose
# integrand grows with s once the basis resolves t; the factor |t| also keeps
# the estimate unchanged under H -> cH, t -> t/c.
_KRYLOV_TOL = 1e-14

# Krylov bases are evaluated only at the sizes 16, 20, 25, 31, ..., each
# size + size // 4 (capped at the final size), so the state at t does not
# depend on earlier requests.  A quarter step, not a doubling, keeps the
# basis within 25% of the smallest size that meets the estimate.
_KRYLOV_MIN_DIM = 16

# A Lanczos residual at most this times ||H||_F is rounding noise: the
# Krylov space is invariant under H and the basis is complete.
_BREAKDOWN_TOL = 1e-14


class EvolutionProblem:
    """A stationary Hamiltonian together with an initial pure state.

    One ``central_moments`` pass (two products ``H.apply``) at construction
    gives ``moments``, the mean energy E, the speed v = sqrt(<(H-E)^2>) and
    the stationary decision.  States are evolved in a Lanczos basis of
    (H - E, psi_0) that grows on demand, with full reorthogonalization, until
    the error estimate at the requested time is below 1e-14 or the Krylov
    space is invariant.  Between calls a problem keeps the basis, the
    eigendecompositions of its tridiagonal matrices and one rotation: the
    first m basis vectors rotated onto the eigenvectors of T_m (an m x m by
    m x 2d real product), for the last size m at which a time settled.  It
    is dropped before the basis grows or H is applied, so it never adds to
    the peak memory of that work.  Once the basis stops growing, a call
    costs one exp and one product with the rotated basis per time.  A state
    depends only on (H, psi_0, t), never on the times requested before or
    beside it.  ``_evolve_rows`` checks each state as it forms it, for unit
    norm within 1e-12.  The public attributes are read-only.

    Parameters
    ----------
    hamiltonian : HermitianOperator
    initial_state : StateVector

    Raises
    ------
    ValueError
        On dimension mismatch between operator and state.
    """

    def __init__(self, hamiltonian: HermitianOperator, initial_state: StateVector):
        if hamiltonian.dim != initial_state.dim:
            raise ValueError(
                f"dimension mismatch: hamiltonian {hamiltonian.dim}, "
                f"state {initial_state.dim}"
            )
        self.hamiltonian = hamiltonian
        self.initial_state = initial_state

        psi = initial_state.amplitudes
        self.moments, centered = _moment_pass(hamiltonian, psi)
        self.energy = self.moments.mean
        self.speed = float(np.sqrt(max(self.moments.mu2, 0.0)))

        # Lanczos state: basis rows v_0..v_{m-1}, diagonal alpha_0..alpha_{m-1},
        # off-diagonal beta_0..beta_{m-1} (beta_{m-1} is the norm of the
        # pending residual, which becomes v_m).
        self._breakdown = _BREAKDOWN_TOL * np.sqrt(hamiltonian.frobenius_sq)
        self._basis = np.empty((min(self.dim, _KRYLOV_MIN_DIM), self.dim), dtype=complex)
        self._basis[0] = psi
        alpha0 = float(np.vdot(psi, centered).real)
        residual = centered - alpha0 * psi
        residual -= psi * np.vdot(psi, residual)
        self._alpha = [alpha0]
        self._beta = [float(np.linalg.norm(residual))]
        self._residual = residual
        self._spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._rotated: np.ndarray | None = None  # U^T V_m^T of the last settle size m

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def _apply_delta_h(self, vec: np.ndarray) -> np.ndarray:
        """(H - E) vec / v, without forming the centered matrix."""
        self._rotated = None
        return (self.hamiltonian.apply(vec) - self.energy * vec) / self.speed

    def _complete(self, m: int) -> bool:
        """Whether the first m Lanczos vectors span an invariant subspace."""
        return m == self.dim or self._beta[m - 1] <= self._breakdown

    def _grow(self, target: int) -> None:
        """Extend the Lanczos basis to ``target`` vectors or until it is complete."""
        if target > self._basis.shape[0]:
            self._rotated = None
            grown = np.empty((target, self.dim), dtype=complex)
            grown[: len(self._alpha)] = self._basis[: len(self._alpha)]
            self._basis = grown
        while len(self._alpha) < target and not self._complete(len(self._alpha)):
            m = len(self._alpha)
            v = self._residual / self._beta[-1]
            self._basis[m] = v
            w = self.hamiltonian.apply(v) - self.energy * v
            alpha = float(np.vdot(v, w).real)
            w -= alpha * v + self._beta[-1] * self._basis[m - 1]
            basis = self._basis[: m + 1]
            for _ in range(2):  # one Gram-Schmidt pass leaves O(eps * growth) overlaps
                w -= np.conj(basis @ np.conj(w)) @ basis
            self._alpha.append(alpha)
            self._beta.append(float(np.linalg.norm(w)))
            self._residual = w

    def _spectrum(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached eigendecomposition T_m = U diag(theta) U^T, as (theta, U)."""
        eig = self._spectra.get(m)
        if eig is None:
            tri = np.diag(self._alpha[:m])
            off = np.arange(m - 1)
            tri[off, off + 1] = tri[off + 1, off] = self._beta[: m - 1]
            eig = self._spectra[m] = np.linalg.eigh(tri)
        return eig

    def _evolve_rows(self, ts) -> np.ndarray:
        """exp(-iHt) psi_0 for each time in ``ts``, as the rows of an array.

        One walk up the basis sizes serves every time.  A time is settled at
        the first size whose error estimate it passes, the size it would
        reach alone, and its row is formed by its own product with the
        rotated basis, so each row depends only on (H, psi_0, t).  A row whose
        norm is off 1 by more than ``_NORM_TOL``, or NaN, raises ``NumericalError``.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.empty((len(ts), self.dim), dtype=complex)
        todo = np.arange(len(ts))
        size = _KRYLOV_MIN_DIM
        while len(todo):
            self._grow(min(size, self.dim))
            m = min(size, len(self._alpha))
            theta, u = self._spectrum(m)
            t = ts[todo]
            reach = abs(self.energy) + float(np.abs(theta).max())
            if not math.isfinite(float(np.abs(t).max()) * reach):
                bad = next(x for x in t.tolist() if not math.isfinite(abs(x) * reach))
                raise NumericalError(f"t = {bad!r}: the evolution phases (E + theta) t are not finite")
            phases = np.exp(-1j * theta * t[:, None])
            if self._complete(m):
                settle, todo = todo, todo[:0]
            else:
                g = self._beta[m - 1] * u[m - 1] * u[0]
                ok = np.abs(t) * np.abs((phases * g).sum(1)) <= _KRYLOV_TOL
                settle, phases, todo = todo[ok], phases[ok], todo[~ok]
            if len(settle):
                if self._rotated is None or len(self._rotated) != m:
                    # U^T V_m^T, on the float64 view since U is real: half the work
                    self._rotated = None  # free the old one first
                    self._rotated = (u.T @ self._basis[:m].view(np.float64)).view(complex)
                for i, p in zip(settle.tolist(), phases):
                    row = out[i] = np.exp(-1j * self.energy * ts[i]) * ((u[0] * p) @ self._rotated)
                    norm = math.sqrt(np.vdot(row, row).real)
                    if not abs(norm - 1.0) <= _NORM_TOL:
                        raise NumericalError(f"t = {float(ts[i])!r}: the evolved state has norm {norm!r}, not 1")
            size += size // 4
        return out

    def __repr__(self):
        return (
            f"EvolutionProblem(dim={self.dim}, energy={self.energy:.6g}, "
            f"speed={self.speed:.6g})"
        )


def evolve(problem: EvolutionProblem, t: float) -> StateVector:
    """Schroedinger-evolved state exp(-iHt) psi_0."""
    return StateVector(problem._evolve_rows([t])[0])


def parallel_transported_state(problem: EvolutionProblem, t: float) -> StateVector:
    """Evolved state with the dynamical phase removed: exp(+iEt) exp(-iHt) psi_0.

    The representative satisfies <Psi|dPsi/dt> = 0, so its derivative is
    orthogonal to the curve and norms of derivatives acquire direct geometric
    meaning.
    """
    return StateVector(_transported_rows(problem, [t])[0])


def state_at_arclength(problem: EvolutionProblem, s: float) -> StateVector:
    """Parallel-transported state at arc length s, i.e. at time t = s/v."""
    _require_moving(problem.moments)
    return StateVector(_transported_rows(problem, [s / problem.speed])[0])


def _transported_rows(problem: EvolutionProblem, ts) -> np.ndarray:
    """``parallel_transported_state`` at every time in ``ts``, as the checked rows of one walk."""
    return np.exp(1j * problem.energy * np.asarray(ts, dtype=float))[:, None] * problem._evolve_rows(ts)
