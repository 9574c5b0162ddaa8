"""Seeded problem files and reference values for the benchmark workloads.

Each workload draws its problems from ``numpy.random.default_rng(seed)`` and
writes them as qucurve problem documents once, before anything is timed; the
program under test only sees those files.  Couplings are drawn from ranges
that keep every closed-form denominator, and every curvature an oracle fit
has to measure, bounded away from zero, so each problem is a valid moving
curve by construction.  No seed is re-drawn because a check failed: a failing
check is counted and reported by the runner.

Reference values come from two places that share no code with the program's
pipelines: the closed forms in ``qucurve.models`` for the solvable families,
and moments computed here with plain NumPy (no dense matrix) for the Ising
chains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qucurve import models

# Pauli words of each closed-form family, written out independently of the
# family builders so that the pauli_terms and dense inputs are the benchmark's.
FAMILY_WORDS = {
    "single_qubit": {"mx": ("X",), "my": ("Y",), "mz": ("Z",), "m0": ("I",)},
    "two_qubit_nonlocal": {"m1": ("XX",), "m2": ("ZZ",), "m3": ("XZ",), "m4": ("ZX",)},
    "two_qubit_local": {"m1": ("IX",), "m2": ("XI",), "m3": ("IZ",), "m4": ("ZI",)},
    "heisenberg3": {
        "Jx": ("XXI", "XIX", "IXX"),
        "Jy": ("YYI", "YIY", "IYY"),
        "Jz": ("ZZI", "ZIZ", "IZZ"),
        "h": ("ZII", "IZI", "IIZ"),
    },
}

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_SQRT2 = np.sqrt(2.0)
NAMED_AMPLITUDES = {
    "00": np.array([1, 0, 0, 0], dtype=complex),
    "bell:phi+": np.array([1, 0, 0, 1], dtype=complex) / _SQRT2,
    "ghz": np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / _SQRT2,
    "w": np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex) / np.sqrt(3.0),
}


def write_problem(path: Path, hamiltonian: dict, state: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"hamiltonian": hamiltonian, "state": state}), encoding="utf-8")
    return path


def amplitudes_doc(psi: np.ndarray) -> dict:
    return {"amplitudes": [[float(a.real), float(a.imag)] for a in psi]}


def dense_doc(matrix: np.ndarray) -> dict:
    return {"dense": [[[float(x.real), float(x.imag)] for x in row] for row in matrix]}


# ---------------------------------------------------------------------------
# Transverse-field Ising chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsingChain:
    """H = sum_i J_i Z_i Z_{i+1} + sum_i h_i X_i on an open chain of n qubits.

    The leftmost character of a Pauli word acts on the most significant bit
    of the basis index, as in qucurve.
    """

    zz: np.ndarray
    x: np.ndarray

    @classmethod
    def draw(cls, n: int, rng) -> "IsingChain":
        zz = rng.uniform(0.5, 1.5, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        return cls(zz=zz, x=rng.uniform(0.5, 1.5, n))

    @property
    def n(self) -> int:
        return len(self.x)

    def pauli_terms(self) -> list[dict]:
        n = self.n
        terms = []
        for i, c in enumerate(self.zz):
            terms.append({"coeff": float(c), "word": "I" * i + "ZZ" + "I" * (n - i - 2)})
        for i, c in enumerate(self.x):
            terms.append({"coeff": float(c), "word": "I" * i + "X" + "I" * (n - i - 1)})
        return terms

    def _structure(self):
        n = self.n
        idx = np.arange(2**n)
        bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1  # column i = qubit i
        spins = 1.0 - 2.0 * bits
        diag = (spins[:, :-1] * spins[:, 1:]) @ self.zz
        flips = [idx ^ (1 << (n - 1 - i)) for i in range(n)]
        return diag, flips

    def apply(self, v: np.ndarray) -> np.ndarray:
        diag, flips = self._structure()
        out = diag * v
        for h, flip in zip(self.x, flips):
            out = out + h * v[flip]
        return out

    def dense(self) -> np.ndarray:
        diag, flips = self._structure()
        mat = np.diag(diag).astype(complex)
        rows = np.arange(diag.shape[0])
        for h, flip in zip(self.x, flips):
            mat[rows, flip] += h
        return mat


def random_state(dim: int, rng) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def reference_moments(apply, psi: np.ndarray) -> dict:
    """Energy, speed and the moment-route coefficients of H in psi.

    Raises
    ------
    ValueError
        If psi is (numerically) an eigenstate; the generator never hands the
        program a stationary problem.
    """
    h_psi = apply(psi)
    mean = float(np.vdot(psi, h_psi).real)
    w1 = h_psi - mean * psi
    w2 = apply(w1) - mean * w1
    mu2 = float(np.vdot(w1, w1).real)
    mu3 = float(np.vdot(w1, w2).real)
    mu4 = float(np.vdot(w2, w2).real)
    if mu2 < 1e-6:
        raise ValueError(f"generated problem is stationary (mu2 = {mu2!r})")
    alpha3 = mu3 / mu2**1.5
    alpha4 = mu4 / mu2**2
    return {
        "energy": mean,
        "speed": float(np.sqrt(mu2)),
        "alpha3": alpha3,
        "alpha4": alpha4,
        "kappa_sq": alpha4 - 1.0,
        "tau_sq": alpha4 - 1.0 - alpha3**2,
    }


def ising_problem(path: Path, n: int, rng) -> tuple[Path, IsingChain, np.ndarray, dict]:
    """Write a seeded Ising chain with a random complex start; return its references."""
    chain = IsingChain.draw(n, rng)
    psi = random_state(2**n, rng)
    ref = reference_moments(chain.apply, psi)
    write_problem(path, {"pauli_terms": chain.pauli_terms()}, amplitudes_doc(psi))
    return path, chain, psi, ref


# ---------------------------------------------------------------------------
# Closed-form families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyProblem:
    """One closed-form problem: a family, its couplings and a named start."""

    family: str
    couplings: dict
    state: str

    def closed_form(self) -> tuple[float, float]:
        c = self.couplings
        if self.family == "single_qubit":
            a = bloch_vector(self.state)
            kappa = models.curvature_bloch(a, [c["mx"], c["my"], c["mz"]])
            return kappa, 0.0
        args = [c[k] for k in FAMILY_WORDS[self.family]]
        form = {
            ("two_qubit_nonlocal", "00"): models.nonlocal_product_coefficients,
            ("two_qubit_nonlocal", "bell:phi+"): models.nonlocal_bell_coefficients,
            ("two_qubit_local", "00"): models.local_product_coefficients,
            ("two_qubit_local", "bell:phi+"): models.local_bell_coefficients,
            ("heisenberg3", "ghz"): models.heisenberg_ghz_coefficients,
            ("heisenberg3", "w"): models.heisenberg_w_coefficients,
        }[(self.family, self.state)]
        return form(*args)

    def amplitudes(self) -> np.ndarray:
        if self.state.startswith("bloch:"):
            theta, phi = _bloch_angles(self.state)
            return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
        return NAMED_AMPLITUDES[self.state]

    def pauli_terms(self) -> list[dict]:
        return [
            {"coeff": self.couplings[name], "word": word}
            for name, words in FAMILY_WORDS[self.family].items()
            for word in words
        ]

    def dense(self) -> np.ndarray:
        total = 0
        for term in self.pauli_terms():
            mat = np.ones((1, 1), dtype=complex)
            for ch in term["word"]:
                mat = np.kron(mat, _PAULI[ch])
            total = total + term["coeff"] * mat
        return total

    def with_coupling(self, name: str, value: float) -> "FamilyProblem":
        return FamilyProblem(self.family, {**self.couplings, name: value}, self.state)


def _bloch_angles(named: str) -> tuple[float, float]:
    theta, phi = (float(p) for p in named[len("bloch:"):].split(","))
    return theta, phi


def bloch_vector(named: str) -> np.ndarray:
    theta, phi = _bloch_angles(named)
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def _signed(rng, k: int) -> np.ndarray:
    """k couplings with magnitudes in [0.4, 1.6] and random signs."""
    return rng.uniform(0.4, 1.6, k) * rng.choice([-1.0, 1.0], k)


def _single_qubit_margins(p: FamilyProblem) -> bool:
    a = bloch_vector(p.state)
    m = np.array([p.couplings[k] for k in ("mx", "my", "mz")])
    cos_sq = float(np.dot(a, m)) ** 2 / float(np.dot(m, m))
    return 0.05 <= cos_sq <= 0.9  # away from the eigenstate and from a geodesic


# Margins that keep each problem moving (closed-form denominator away from 0)
# and curved (so the oracle's quartic fit has a signal to fit).
_MARGINS = {
    ("single_qubit", "bloch"): _single_qubit_margins,
    ("two_qubit_nonlocal", "00"): lambda p: True,
    ("two_qubit_nonlocal", "bell:phi+"): lambda p: abs(p.couplings["m3"] - p.couplings["m4"]) >= 0.5
    and abs(p.couplings["m1"] + p.couplings["m2"]) >= 0.3,
    ("two_qubit_local", "00"): lambda p: True,
    ("two_qubit_local", "bell:phi+"): lambda p: abs(p.couplings["m1"] + p.couplings["m2"]) >= 0.5
    and abs(p.couplings["m1"] * p.couplings["m4"] - p.couplings["m2"] * p.couplings["m3"]) >= 0.2,
    ("heisenberg3", "ghz"): lambda p: abs(p.couplings["Jx"] - p.couplings["Jy"]) >= 0.4,
    ("heisenberg3", "w"): lambda p: abs(p.couplings["Jx"] - p.couplings["Jy"]) >= 0.5
    and abs(2 * p.couplings["h"] + p.couplings["Jx"] + p.couplings["Jy"] - 2 * p.couplings["Jz"]) >= 0.3,
}

# (family, start) pairs of the small-batch workload, with the coupling each
# family's sweep rebinds and the sweep range.
FAMILY_CASES = (
    ("single_qubit", "bloch"),
    ("two_qubit_nonlocal", "00"),
    ("two_qubit_nonlocal", "bell:phi+"),
    ("two_qubit_local", "00"),
    ("two_qubit_local", "bell:phi+"),
    ("heisenberg3", "ghz"),
    ("heisenberg3", "w"),
)
SWEEPS = (
    (("single_qubit", "bloch"), "mz", -1.5, 1.5),
    (("two_qubit_nonlocal", "00"), "m1", 0.4, 1.6),
    (("two_qubit_local", "bell:phi+"), "m3", -1.5, 1.5),
    (("heisenberg3", "w"), "h", -1.5, 1.5),
)


def draw_family_problem(case: tuple[str, str], rng, sweep_grid=None) -> FamilyProblem:
    """Draw couplings (and a Bloch start) inside the case's margins.

    The draw repeats from the same generator until the margins hold, so it is
    a pure function of the seed.  With ``sweep_grid`` = (name, values) only
    the moving condition is required, at every grid value.
    """
    family, start = case
    names = tuple(FAMILY_WORDS[family])
    while True:
        values = _signed(rng, len(names))
        couplings = {k: float(v) for k, v in zip(names, values)}
        state = start
        if start == "bloch":
            theta, phi = rng.uniform(0.3, np.pi - 0.3), rng.uniform(0.0, 2.0 * np.pi)
            state = f"bloch:{float(theta)!r},{float(phi)!r}"
        problem = FamilyProblem(family, couplings, state)
        if sweep_grid is None:
            if _MARGINS[case](problem):
                return problem
            continue
        name, grid = sweep_grid
        if all(_moving(problem.with_coupling(name, float(v))) for v in grid):
            return problem


def _moving(p: FamilyProblem) -> bool:
    """Closed-form denominators of p stay at least 0.1 away from zero."""
    c = p.couplings
    if p.family == "single_qubit":
        a = bloch_vector(p.state)
        m = np.array([c["mx"], c["my"], c["mz"]])
        return float(np.dot(m, m) - np.dot(a, m) ** 2) >= 0.1 * float(np.dot(m, m))
    denominators = {
        ("two_qubit_nonlocal", "00"): lambda: c["m1"] ** 2 + c["m3"] ** 2 + c["m4"] ** 2,
        ("two_qubit_local", "bell:phi+"): lambda: (c["m1"] + c["m2"]) ** 2 + (c["m3"] + c["m4"]) ** 2,
        ("heisenberg3", "w"): lambda: (c["Jx"] - c["Jy"]) ** 2,
    }
    return denominators[(p.family, p.state)]() >= 0.1


def family_variants(problem: FamilyProblem, stem: Path) -> list[Path]:
    """Write the problem in every input form; return the three file paths.

    family + named, pauli_terms + amplitudes and dense + named together use
    each Hamiltonian form and each state form.
    """
    named = {"named": problem.state}
    return [
        write_problem(
            stem.with_name(stem.name + "-family.json"),
            {"family": problem.family, "couplings": problem.couplings},
            named,
        ),
        write_problem(
            stem.with_name(stem.name + "-pauli.json"),
            {"pauli_terms": problem.pauli_terms()},
            amplitudes_doc(problem.amplitudes()),
        ),
        write_problem(stem.with_name(stem.name + "-dense.json"), dense_doc(problem.dense()), named),
    ]
