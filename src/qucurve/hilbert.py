"""Finite-dimensional Hilbert space primitives.

A state is its amplitudes: ``_unit_state`` checks them once and returns a
read-only unit vector in C^d.  Observables are Hermitian operators.  An
operator is backed either by a dense matrix or, when assembled from Pauli
words by ``_pauli_sum`` (a ``pauli_terms`` document or a model family), by
the words' signed permutations grouped by their bit-flip masks; the second
backing applies H to a vector in O(d) per group and never stores a d x d
matrix, so Pauli sums reach MAX_QUBITS qubits.  The words of one document
share one index row np.arange(d): a word with Z or Y letters computes its
d signs from it, and a word without them adds its coefficient to its
group's diagonal as a scalar.  A model family's K words are encoded once
per process: their masks, the group order, the groups' read-only ``perms``
and their rows as one (K, d) table.  The frame and the oracle fits share
one projection off unit vectors, ``_project_off``.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "HermitianOperator",
]

# Longest Pauli word accepted.  A Pauli-backed operator stores an index row
# and a complex row of 2^n entries per x-mask group, and a state is 2^n
# amplitudes (16 MiB at n = 20), so a longer word would be a runaway request.
MAX_QUBITS = 20

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12


class HermitianOperator:
    """A Hermitian operator acting on C^d.

    ``HermitianOperator(matrix)`` stores a dense matrix.  Non-Hermitian input
    is rejected rather than symmetrized: silently taking (M + M^dagger)/2
    would hide caller bugs.  A ``pauli_terms`` document and the model
    families give the other backing, a Pauli sum in G groups: group g is the
    permutation ``perms[g] = j ^ x_g`` with the diagonal ``diags[g]``,
    (M v)[j] = sum_g diags[g, j] v[j ^ x_g], so no d x d array is stored.
    ``frobenius_sq`` is ||M||_F^2, computed once.
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
        # the groups fill disjoint entries, so ||M||_F^2 sums their squared moduli;
        # no entry is NaN (each addend is a finite c times +-1 or +-i), so a NaN is inf * conj(inf)
        frobenius_sq = float(np.vdot(diags, diags).real)
        frobenius_sq = frobenius_sq if math.isfinite(frobenius_sq) else math.inf
        op._set(dim=diags.shape[1], frobenius_sq=frobenius_sq, _matrix=None, _perms=perms, _diags=diags)
        return op

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("HermitianOperator is immutable")

    def apply(self, vec) -> np.ndarray:
        """M @ v for one vector v of d amplitudes, as a plain ndarray."""
        v = np.asarray(vec)
        if v.shape != (self.dim,):
            raise ValueError(f"operator on C^{self.dim} cannot apply to an array of shape {v.shape}")
        if self._perms is None:
            return self._matrix @ v
        return np.add.reduce(self._diags * v[self._perms], axis=0)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


def _check_coefficient(c):
    """c, a Pauli weight or coupling; refused unless it is a finite real number."""
    if isinstance(c, bool) or not isinstance(c, numbers.Real):  # a complex weight breaks Hermiticity
        raise ValueError(f"coefficient must be a real number, got {c!r}")
    if not abs(c) <= sys.float_info.max:  # NaN, inf, and an int beyond float range
        if isinstance(c, int):  # counted, not printed: repr refuses more than 4,300 digits
            k = int(abs(c).bit_length() * math.log10(2)) + 1  # |c| has k or k - 1 digits
            raise ValueError(f"coefficient must be finite, got an integer of {k - (10 ** (k - 1) > abs(c))} digits")
        raise ValueError(f"coefficient must be finite, got {c!r}")
    return c


def _hermitian_deviation(m: np.ndarray) -> float:
    """max |M - M^dagger|, NaN if M holds a NaN.  The deviation is symmetric,
    so the block upper triangle covers every pair of entries."""
    b = 64  # rows per block, so no d x d temporary is allocated
    devs = [np.abs(m[s : s + b, s:] - m[s:, s : s + b].conj().T).max() for s in range(0, len(m), b)]
    return float(np.max(devs))


def _unit_state(amplitudes) -> np.ndarray:
    """A pure state: ``amplitudes`` as a read-only complex vector of unit norm
    (within 1e-12) with d >= 2.  A read-only input is taken as it is; a
    writable one is copied, so the caller cannot change the state later."""
    a = np.asarray(amplitudes, dtype=complex)
    if a.ndim != 1 or a.shape[0] < 2:
        raise ValueError(f"state must be a 1-d vector with d >= 2, got shape {a.shape}")
    nrm = math.sqrt(np.vdot(a, a).real)
    if not abs(nrm - 1.0) <= _NORM_TOL:  # also rejects NaN
        raise ValueError(f"state norm {nrm!r} deviates from 1 by more than {_NORM_TOL:.0e}")
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _norm(v: np.ndarray) -> float:
    """||v|| of a complex 1-d array, bit for bit as NumPy 2's ``np.linalg.norm`` forms it, minus its dispatch."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _project_off(vec: np.ndarray, *units: np.ndarray) -> np.ndarray:
    """vec minus its component along each unit vector in turn (modified
    Gram-Schmidt); naming a unit twice adds a second, reorthogonalizing pass."""
    r = vec.copy()
    for u in units:
        r -= u * np.vdot(u, r)
    return r


_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")  # X, Y flip; Z, Y sign


def _encode_word(word: str, index: np.ndarray) -> tuple[int, np.ndarray | int]:
    """A Pauli word as its bit-flip mask x and its signed row entries.

    The word maps each basis state to a signed basis state,
    P|j> = i^#Y (-1)^popcount(j & z) |j ^ x>, where x marks the X and Y
    letters and z the Z and Y letters (Aaronson and Gottesman, PRA 70,
    052328, 2004).  The leftmost letter owns the most significant bit.  Row j
    of P holds one entry, in column j ^ x; listed by j = ``index``, the
    operator's np.arange(d), they are i^#Y (-1)^popcount((j ^ x) & z).  A
    word without Z or Y letters has the constant row 1, returned as that scalar.
    """
    x = int(word.translate(_X_BITS), 2)
    z = int(word.translate(_Z_BITS), 2)
    if not z:
        return x, 1
    phase = (1, 1j, -1, -1j)[word.count("Y") % 4]
    return x, np.where(np.bitwise_count((index ^ x) & z) & 1, -phase, phase)


def _pauli_sum(terms, layout=None) -> HermitianOperator:
    """sum_k c_k P_k over (c_k, P_k) pairs, Pauli words of one length.

    The masks come first: the groups, in order of first use of their masks,
    are the rows of one (G, d) array of zeros.  Each word's row is then
    encoded, multiplied by its coefficient and added in place to its group's
    row, in term order, so no per-word or per-group array outlives its term.
    The groups' ``perms`` are formed last.

    A model family passes its ``layout`` (``models._encode_family``), all of
    its K words that does not depend on the couplings: their masks, the
    groups' masks in order, the groups' read-only ``perms`` and their rows as
    one (K, d) table.  ``terms`` is then the K coefficients alone, whose
    products with the rows are one (K, d) array, added row by row in order.
    """
    if layout is None:
        index = np.arange(2 ** len(terms[0][1]))
        masks = [int(word.translate(_X_BITS), 2) for _, word in terms]
        groups, perms, dim = dict.fromkeys(masks), None, len(index)
        addends = (c * _encode_word(word, index)[1] for c, word in terms)
    else:
        masks, groups, perms, table = layout
        dim, addends = table.shape[1], np.array(terms)[:, None] * table
    diags = np.zeros((len(groups), dim), dtype=complex)
    views = dict(zip(groups, diags))  # each mask's row of ``diags``
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed group makes ||H||_F^2 inf, refused later
        for x, addend in zip(masks, addends):
            views[x] += addend
    if perms is None:
        perms = index ^ np.array(list(groups), dtype=np.int64)[:, None]
    return HermitianOperator._from_pauli_groups(perms, diags)
