"""Finite-dimensional Hilbert space primitives.

States are unit vectors in C^d and observables are Hermitian operators.  An
operator is backed either by a dense matrix or, when assembled from Pauli
words, by the words' signed permutations grouped by their bit-flip masks; the
second backing applies H to a vector in O(d) per group and never stores a
d x d matrix, so Pauli sums reach MAX_QUBITS qubits.  The frame and the
oracle fits share one projection off unit vectors, ``_project_off``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "PAULI",
    "StateVector",
    "HermitianOperator",
    "PauliTerm",
    "build_operator",
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

# Longest Pauli word accepted.  A Pauli-backed operator stores an index row
# and a complex row of 2^n entries per x-mask group, and a state is 2^n
# amplitudes (16 MiB at n = 20), so a longer word would be a runaway request.
MAX_QUBITS = 20

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12


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
            raise ValueError(f"state norm {float(nrm)!r} deviates from 1 by more than {_NORM_TOL:.0e}")
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
    """A Hermitian operator acting on C^d.

    ``HermitianOperator(matrix)`` stores a dense matrix.  Non-Hermitian input
    is rejected rather than symmetrized: silently taking (M + M^dagger)/2
    would hide caller bugs.  ``build_operator`` gives the other backing, a
    Pauli sum in G groups: group g is the permutation ``perms[g] = j ^ x_g``
    with the diagonal ``diags[g]``, (M v)[j] = sum_g diags[g, j] v[j ^ x_g],
    so no d x d array is stored.  ``matrix`` is the dense form either way;
    a Pauli-backed operator builds it on first access.  ``frobenius_sq`` is
    ||M||_F^2, computed once.
    """

    __slots__ = ("dim", "frobenius_sq", "_matrix", "_perms", "_diags")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        dev = _hermitian_deviation(m)
        if not dev <= _HERM_TOL:  # also rejects NaN
            raise ValueError(
                f"matrix is not Hermitian: max |M - M^dagger| = {dev:.3e} > {_HERM_TOL:.0e}"
            )
        m.setflags(write=False)
        self._set(dim=len(m), frobenius_sq=float(np.vdot(m, m).real), _matrix=m, _perms=None, _diags=None)

    @classmethod
    def _from_pauli_groups(cls, perms: np.ndarray, diags: np.ndarray) -> "HermitianOperator":
        """Pauli-backed operator; the caller guarantees Hermiticity."""
        perms.setflags(write=False)
        diags.setflags(write=False)
        op = cls.__new__(cls)
        # the groups fill disjoint entries, so ||M||_F^2 sums their squared moduli
        frobenius_sq = float(np.vdot(diags, diags).real)
        op._set(dim=diags.shape[1], frobenius_sq=frobenius_sq, _matrix=None, _perms=perms, _diags=diags)
        return op

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("HermitianOperator is immutable")

    @property
    def matrix(self) -> np.ndarray:
        """The dense d x d matrix (read-only)."""
        if self._matrix is None:
            m = np.zeros((self.dim, self.dim), dtype=complex)
            rows = np.arange(self.dim)
            for perm, diag in zip(self._perms, self._diags):
                m[rows, perm] = diag
            m.setflags(write=False)
            object.__setattr__(self, "_matrix", m)
        return self._matrix

    def apply(self, vec) -> np.ndarray:
        """M @ v for one vector v of d amplitudes, as a plain ndarray."""
        v = _as_vector(vec)
        if self._perms is None:
            return self._matrix @ v
        return (self._diags * v[self._perms]).sum(0)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


@dataclass(frozen=True)
class PauliTerm:
    """A weighted Pauli word, e.g. 1.5 * XZ acting on two qubits."""

    coefficient: float
    word: str

    def __post_init__(self):
        _check_coefficient(self.coefficient)
        if not self.word or any(c not in PAULI for c in self.word):
            raise ValueError(f"word must be a nonempty string over I,X,Y,Z, got {self.word!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.word)


def _check_coefficient(c) -> None:
    """Reject a Pauli weight that is not a finite real number."""
    if not isinstance(c, numbers.Real):  # a complex weight breaks Hermiticity
        raise ValueError(f"coefficient must be a real number, got {c!r}")
    if not np.isfinite(c):
        raise ValueError(f"coefficient must be finite, got {c!r}")


def _hermitian_deviation(m: np.ndarray) -> float:
    """max |M - M^dagger|, NaN if M holds a NaN.  The deviation is symmetric,
    so the block upper triangle covers every pair of entries."""
    b = 64  # rows per block, so no d x d temporary is allocated
    devs = [np.abs(m[s : s + b, s:] - m[s:, s : s + b].conj().T).max() for s in range(0, len(m), b)]
    return float(np.max(devs))


def _as_vector(v) -> np.ndarray:
    if isinstance(v, StateVector):
        return v.amplitudes
    return np.asarray(v, dtype=complex)


def _project_off(vec: np.ndarray, *units: np.ndarray) -> np.ndarray:
    """vec minus its component along each unit vector in turn (modified
    Gram-Schmidt); naming a unit twice adds a second, reorthogonalizing pass."""
    r = vec.copy()
    for u in units:
        r -= u * np.vdot(u, r)
    return r


def _encode_word(word: str) -> tuple[int, np.ndarray]:
    """A Pauli word as its bit-flip mask x and its signed row entries.

    The word maps each basis state to a signed basis state,
    P|j> = i^#Y (-1)^popcount(j & z) |j ^ x>, where x marks the X and Y
    letters and z the Z and Y letters (Aaronson and Gottesman, PRA 70,
    052328, 2004).  The leftmost letter owns the most significant bit.  Row j
    of P holds one entry, in column j ^ x; the vector lists them by j.
    """
    x = int(word.translate(str.maketrans("IXYZ", "0110")), 2)
    z = int(word.translate(str.maketrans("IXYZ", "0011")), 2)
    sign = np.where(np.bitwise_count((np.arange(2 ** len(word)) ^ x) & z) & 1, -1, 1)
    return x, (1, 1j, -1, -1j)[word.count("Y") % 4] * sign


def _pauli_sum(weighted, dim: int) -> HermitianOperator:
    """sum_k c_k P_k over pairs (c_k, ``_encode_word(P_k)``) of d x d words."""
    groups: dict[int, np.ndarray] = {}  # x-mask -> summed diagonal, in order of first use
    for c, (x, row) in weighted:
        diag = groups.setdefault(x, np.zeros(dim, dtype=complex))
        diag += c * row
    perms = np.arange(dim) ^ np.array(list(groups), dtype=np.int64).reshape(-1, 1)
    diags = np.array(list(groups.values())).reshape(len(groups), dim)
    return HermitianOperator._from_pauli_groups(perms, diags)


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
        The Pauli-backed 2^n x 2^n sum: one (permutation, diagonal) pair per
        distinct x-mask, the diagonals summed over the words that share it.
        Real coefficients on Hermitian words make it Hermitian by
        construction.

    Raises
    ------
    ValueError
        If n_qubits lies outside [1, MAX_QUBITS] or a word has another length.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n_qubits}")
    terms = list(terms)
    for k, term in enumerate(terms):
        if term.n_qubits != n_qubits:
            raise ValueError(f"term {k} word {term.word!r} has {term.n_qubits} qubits, expected {n_qubits}")
    return _pauli_sum(((term.coefficient, _encode_word(term.word)) for term in terms), 2**n_qubits)
