"""Unitary evolution under a stationary Hamiltonian, in the parallel-transport gauge.

Throughout, hbar = 1.  A problem instance pairs a Hamiltonian H with an
initial pure state psi_0.  The physically evolved state is
psi(t) = exp(-iHt) psi_0; multiplying by exp(+iEt) with E = <H> removes the
dynamical phase and yields the parallel-transported representative Psi(t),
which satisfies <Psi|dPsi/dt> = 0.  ``EvolutionProblem.evolve(ts)`` and
``EvolutionProblem.transported(ts)`` give psi(t) and Psi(t), one row per time.

Arc length along the projective-space curve is s = v t, where the speed v is
the energy uncertainty, v^2 = <(H - E)^2>, so Psi at arc length s is
``transported([s / v])[0]``.  ``frame`` differentiates it in s, with the
arc-length generator dh = (H - E) / v.

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

from .hilbert import _NORM_TOL, HermitianOperator, _norm
from .moments import NumericalError, _moment_pass

__all__ = ["EvolutionProblem"]

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
    gives ``moments``, the mean energy E and the speed v = sqrt(<(H-E)^2>) > 0,
    since it refuses an eigenstate.  ``evolve`` and ``transported`` give
    psi(t) and Psi(t) at many times, as the rows of one array.  States are
    evolved in a Lanczos basis of (H - E, psi_0) that grows on demand, with
    full reorthogonalization, until the error estimate at the requested time
    is below 1e-14 or the Krylov space is invariant.  Between calls a problem
    keeps psi_0, the basis, its pending residual and the entries of the
    tridiagonal T_m, and nothing derived from them: each call diagonalizes
    T_m and rotates the basis onto its eigenvectors afresh at every size
    where a time settles, and frees that rotation before the basis grows.
    A state depends only on (H, psi_0, t), never on the times requested
    before or beside it.  ``evolve`` checks each row as it forms it, for
    unit norm within 1e-12.  The public attributes are read-only.

    Parameters
    ----------
    hamiltonian : HermitianOperator
    initial_state : array_like
        The amplitudes of psi_0, of unit norm within 1e-12.  They are kept
        as ``initial_state``, a read-only array: a writable input is copied.

    Raises
    ------
    ValueError
        On amplitudes that are not a unit vector with d >= 2, or a dimension
        mismatch between operator and state.
    StationaryStateError
        If the initial state is an eigenstate of the Hamiltonian.
    """

    def __init__(self, hamiltonian: HermitianOperator, initial_state):
        self.hamiltonian = hamiltonian
        self.moments, self.initial_state, self._residual = _moment_pass(hamiltonian, initial_state)
        self.energy = self.moments.mean
        self.speed = math.sqrt(self.moments.mu2)

        # Lanczos state: basis rows v_0..v_{m-1}, diagonal alpha_0..alpha_{m-1},
        # off-diagonal beta_0..beta_{m-1} (beta_{m-1} is the norm of the
        # pending residual, which becomes v_m).  A plain report reads none of
        # it: the first ``_grow`` starts it from the moment pass's (H - E) psi_0,
        # kept as the residual until then.
        self._breakdown = _BREAKDOWN_TOL * math.sqrt(hamiltonian.frobenius_sq)
        self._basis = np.empty((0, self.dim), dtype=complex)
        self._alpha, self._beta = [], []

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def _complete(self, m: int) -> bool:
        """Whether the first m Lanczos vectors span an invariant subspace."""
        return m == self.dim or self._beta[m - 1] <= self._breakdown

    def _grow(self, target: int) -> None:
        """Extend the Lanczos basis to ``target`` vectors or until it is complete."""
        if target > self._basis.shape[0]:
            grown = np.empty((target, self.dim), dtype=complex)
            grown[: len(self._alpha)] = self._basis[: len(self._alpha)]
            self._basis = grown
        if not self._alpha:  # v_0 = psi_0, and the residual is (H - E) psi_0
            psi = self._basis[0] = self.initial_state
            alpha0 = float(np.vdot(psi, self._residual).real)
            residual = self._residual - alpha0 * psi
            residual -= psi * np.vdot(psi, residual)
            self._alpha, self._beta, self._residual = [alpha0], [_norm(residual)], residual
        basis, alphas, betas, apply, energy = self._basis, self._alpha, self._beta, self.hamiltonian.apply, self.energy
        while len(alphas) < target and not self._complete(len(alphas)):
            m = len(alphas)
            v = np.divide(self._residual, betas[-1], out=basis[m])
            w = apply(v) - energy * v
            alpha = float(np.vdot(v, w).real)
            w -= alpha * v + betas[-1] * basis[m - 1]
            done = basis[: m + 1]
            for _ in range(2):  # one Gram-Schmidt pass leaves O(eps * growth) overlaps
                w -= np.conj(done @ np.conj(w)) @ done
            alphas.append(alpha)
            betas.append(_norm(w))
            self._residual = w

    def evolve(self, ts) -> np.ndarray:
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
            tri = np.zeros((m, m))
            tri.flat[:: m + 1] = self._alpha[:m]
            tri.flat[1 :: m + 1] = tri.flat[m :: m + 1] = self._beta[: m - 1]
            theta, u = np.linalg.eigh(tri)  # T_m = U diag(theta) U^T, theta ascending
            t = ts[todo]
            reach = abs(self.energy) + float(max(-theta[0], theta[-1]))
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
                # U^T V_m^T, on the float64 view since U is real: half the work
                rotated = (u.T @ self._basis[:m].view(np.float64)).view(complex)
                dynamical = np.exp(-1j * self.energy * ts[settle])
                for i, e, p in zip(settle.tolist(), dynamical, phases):
                    row = out[i] = e * ((u[0] * p) @ rotated)
                    norm = math.sqrt(np.vdot(row, row).real)
                    if not abs(norm - 1.0) <= _NORM_TOL:
                        raise NumericalError(f"t = {float(ts[i])!r}: the evolved state has norm {norm!r}, not 1")
                del rotated  # freed before the basis grows again
            size += size // 4
        return out

    def transported(self, ts) -> np.ndarray:
        """The rows of ``evolve(ts)`` times exp(+iEt): the parallel-transported states Psi(t)."""
        ts = np.asarray(ts, dtype=float)
        states = self.evolve(ts)  # first, so that its finiteness check names an overflowing t
        return np.exp(1j * self.energy * ts)[:, None] * states

    def __repr__(self):
        return (
            f"EvolutionProblem(dim={self.dim}, energy={self.energy:.6g}, "
            f"speed={self.speed:.6g})"
        )

