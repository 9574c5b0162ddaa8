"""Finite-dimensional Hilbert space primitives.

States are unit vectors in C^d, observables are Hermitian matrices, and
multi-qubit operators are assembled from Pauli words.  Everything here is
dense; dimensions stay small (d <= 1024), so no sparse or structured
representations are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAULI",
    "StateVector",
    "HermitianOperator",
    "PauliTerm",
    "LinearDependenceError",
    "build_operator",
    "expectation",
    "projector_orthogonal",
    "gram_schmidt",
]

# Convention: sigma_x = [[0,1],[1,0]], sigma_y = [[0,-i],[i,0]],
# sigma_z = [[1,0],[0,-1]]; in an n-qubit word the leftmost character acts on
# qubit 1, which carries the most significant bit of the basis index.
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_DEPENDENCE_TOL = 1e-10


class LinearDependenceError(ValueError):
    """Raised when an input family is numerically linearly dependent.

    ``index`` is the position of the offending vector in the input list.
    """

    def __init__(self, index: int, residual: float):
        self.index = index
        self.residual = residual
        super().__init__(
            f"vector {index} is linearly dependent on its predecessors "
            f"(orthogonal residual {residual:.3e} < {_DEPENDENCE_TOL:.0e})"
        )


class StateVector:
    """A pure state: unit-norm complex vector.

    Parameters
    ----------
    amplitudes : array_like
        Complex amplitudes; must have unit Euclidean norm within 1e-12.

    Raises
    ------
    ValueError
        If the input is not a 1-d vector of unit norm with d >= 2.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        a = np.asarray(amplitudes, dtype=complex)
        if a.ndim != 1 or a.shape[0] < 2:
            raise ValueError(f"state must be a 1-d vector with d >= 2, got shape {a.shape}")
        nrm = np.linalg.norm(a)
        if not abs(nrm - 1.0) <= _NORM_TOL:  # also rejects NaN
            raise ValueError(f"state norm {nrm!r} deviates from 1 by more than {_NORM_TOL:.0e}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def inner(self, other: "StateVector") -> complex:
        """Hermitian inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, _as_vector(other)))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.amplitudes, dtype=dtype or complex)

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


class HermitianOperator:
    """A Hermitian matrix acting on C^d.

    Non-Hermitian input is rejected rather than symmetrized: silently taking
    (M + M^dagger)/2 would hide caller bugs.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        dev = np.max(np.abs(m - m.conj().T))
        if not dev <= _HERM_TOL:  # also rejects NaN
            raise ValueError(
                f"matrix is not Hermitian: max |M - M^dagger| = {dev:.3e} > {_HERM_TOL:.0e}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("HermitianOperator is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, vec) -> np.ndarray:
        """Matrix-vector product M @ v as a plain ndarray."""
        return self.matrix @ _as_vector(vec)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype or complex)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


@dataclass(frozen=True)
class PauliTerm:
    """A weighted Pauli word, e.g. 1.5 * XZ acting on two qubits."""

    coefficient: float
    word: str

    def __post_init__(self):
        if not np.isfinite(self.coefficient):
            raise ValueError(f"coefficient must be finite, got {self.coefficient!r}")
        if not self.word or any(c not in PAULI for c in self.word):
            raise ValueError(f"word must be a nonempty string over I,X,Y,Z, got {self.word!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.word)


def _as_vector(v) -> np.ndarray:
    if isinstance(v, StateVector):
        return v.amplitudes
    return np.asarray(v, dtype=complex)


def _pauli_masks(word: str) -> tuple[int, int, complex]:
    """Binary symplectic form of a Pauli word: (x, z, i^#Y).

    The word maps each basis state to a signed basis state,
    P|j> = i^#Y (-1)^popcount(j & z) |j ^ x>, where x marks the X and Y
    letters and z the Z and Y letters (Aaronson and Gottesman, PRA 70,
    052328, 2004).  The leftmost letter owns the most significant bit.
    """
    x = z = 0
    for c in word:
        x = (x << 1) | (c in "XY")
        z = (z << 1) | (c in "ZY")
    return x, z, (1, 1j, -1, -1j)[word.count("Y") % 4]


def build_operator(terms, n_qubits: int) -> HermitianOperator:
    """Assemble sum_k c_k P_k over n-qubit Pauli words.

    Each word is a signed permutation matrix, so a term fills d entries.

    Parameters
    ----------
    terms : iterable of PauliTerm
        Real-weighted Pauli words, each of length ``n_qubits``.
    n_qubits : int
        Number of qubits; the result acts on C^(2^n).

    Returns
    -------
    HermitianOperator
        The dense 2^n x 2^n sum.  Real coefficients on Hermitian words make
        the result Hermitian by construction; the constructor re-checks.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    dim = 2**n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for k, term in enumerate(terms):
        if term.n_qubits != n_qubits:
            raise ValueError(
                f"term {k} word {term.word!r} has {term.n_qubits} qubits, expected {n_qubits}"
            )
        x, z, phase = _pauli_masks(term.word)
        parity = np.zeros(dim, dtype=np.int64)
        masked = cols & z
        for bit in range(n_qubits):  # popcount(j & z) mod 2, without NumPy 2's bitwise_count
            parity ^= masked >> bit
        sign = 1 - 2 * (parity & 1)
        total[cols ^ x, cols] += term.coefficient * (phase * sign)
    return HermitianOperator(total)


def expectation(op: HermitianOperator, state: StateVector) -> float:
    """Real expectation value <psi|M|psi>.

    The imaginary residual of the quadratic form is pure rounding noise for
    Hermitian M and is asserted to stay below 1e-12.
    """
    if op.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim}, state {state.dim}")
    val = complex(np.vdot(state.amplitudes, op.apply(state)))
    if abs(val.imag) > 1e-12:
        raise ValueError(f"expectation has imaginary residual {val.imag:.3e} > 1e-12")
    return val.real


def projector_orthogonal(state: StateVector) -> HermitianOperator:
    """Projector I - |psi><psi| onto the orthogonal complement of a state."""
    a = state.amplitudes
    return HermitianOperator(np.eye(state.dim) - np.outer(a, a.conj()))


def gram_schmidt(vectors) -> list[np.ndarray]:
    """Orthonormalize an ordered family of complex vectors.

    Modified Gram-Schmidt with a second orthogonalization pass, so the output
    is orthonormal to machine precision.  The k-th output spans the same flag
    as the first k inputs.

    Parameters
    ----------
    vectors : sequence of array_like or StateVector
        Vectors of a common dimension, assumed linearly independent.

    Returns
    -------
    list of ndarray
        Orthonormal vectors, one per input, in order.

    Raises
    ------
    LinearDependenceError
        If some vector's orthogonal residual against its predecessors falls
        below 1e-10; the error reports which vector failed.
    """
    vecs = [_as_vector(v) for v in vectors]
    if not vecs:
        return []
    dim = vecs[0].shape[0]
    basis: list[np.ndarray] = []
    for k, v in enumerate(vecs):
        if v.shape != (dim,):
            raise ValueError(f"vector {k} has shape {v.shape}, expected ({dim},)")
        u = v.copy()
        for _ in range(2):  # a single MGS sweep can leave O(eps/angle) cross terms
            for q in basis:
                u -= q * np.vdot(q, u)
        residual = np.linalg.norm(u)
        if residual < _DEPENDENCE_TOL:
            raise LinearDependenceError(k, float(residual))
        basis.append(u / residual)
    return basis
