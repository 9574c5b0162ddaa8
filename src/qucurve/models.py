"""Closed-form model systems: qubits, entangled pairs, and three coupled spins.

Every function here evaluates an exact expression (a Bloch-sphere reduction
or a rational function of coupling constants) for the squared curvature and
torsion of a specific family.  None of them share code with the moment or
projector pipelines, which is the point: they are what the pipelines are
validated against.

Single qubit, H = m . sigma + m0 I, Bloch vector a:

    kappa^2 = 4 (a.m)^2 / (|m|^2 - (a.m)^2),     tau^2 = 0,

torsion vanishing because the dynamics is a rigid rotation of the Bloch
sphere -- the curve never leaves a plane through the projective space.
"""

from __future__ import annotations

import numpy as np

from .evolution import EvolutionProblem
from .hilbert import _NORM_TOL, HermitianOperator, StateVector, _as_vector, _check_coefficient, _encode_word, _pauli_sum, _project_off
from .moments import NumericalError, StationaryStateError, _require_moving

__all__ = [
    "bloch_to_state",
    "state_to_bloch",
    "curvature_bloch",
    "torsion_bloch",
    "geodesic_efficiency",
    "bell_state",
    "ghz_state",
    "w_state",
    "xi_state",
    "single_qubit",
    "two_qubit_nonlocal",
    "two_qubit_local",
    "heisenberg3",
    "nonlocal_product_coefficients",
    "nonlocal_bell_coefficients",
    "local_bell_coefficients",
    "local_product_coefficients",
    "heisenberg_ghz_coefficients",
    "heisenberg_w_coefficients",
    "xi_curvature",
    "xi_kurtosis",
    "xi_efficiency",
]

_DEGENERATE_TOL = 1e-12


def bloch_to_state(a) -> StateVector:
    """Pure state with Bloch vector a = (ax, ay, az), |a| = 1."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {a.shape}")
    if abs(np.linalg.norm(a) - 1.0) > _NORM_TOL:
        raise ValueError(f"Bloch vector must be unit length, got |a| = {np.linalg.norm(a)!r}")
    return _bloch_angle_state(np.arccos(np.clip(a[2], -1.0, 1.0)), np.arctan2(a[1], a[0]))


def _bloch_angle_state(theta: float, phi: float) -> StateVector:
    """cos(theta/2) |0> + e^(i phi) sin(theta/2) |1>, at polar angle theta and azimuth phi."""
    return StateVector([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def state_to_bloch(state) -> np.ndarray:
    """Bloch vector (<sigma_x>, <sigma_y>, <sigma_z>) of a qubit state or its amplitudes."""
    amps = _as_vector(state)
    if amps.shape != (2,):
        raise ValueError(f"Bloch vector defined for d = 2 only, got d = {len(amps)}")
    c0, c1 = amps
    cross = np.conj(c0) * c1
    return np.array([2.0 * cross.real, 2.0 * cross.imag, (abs(c0) ** 2 - abs(c1) ** 2)])


def curvature_bloch(a, m) -> float:
    """Single-qubit kappa^2 = 4 (a.m)^2 / (|m|^2 - (a.m)^2) for H = m . sigma.

    The identity term m0 shifts the spectrum only and drops out.  Requires a
    non-degenerate field (m != 0) and a state that is not an eigenstate of it
    (a not parallel to m).
    """
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    m_sq = float(np.dot(m, m))
    am = float(np.dot(a, m))
    denom = m_sq - am * am
    if m_sq <= _DEGENERATE_TOL or denom <= _DEGENERATE_TOL * m_sq:
        raise StationaryStateError("stationary state: arc length undefined")
    return 4.0 * am * am / denom


def torsion_bloch(a, m) -> float:
    """Single-qubit tau^2, identically zero whenever the curve exists."""
    curvature_bloch(a, m)  # validates non-degeneracy
    return 0.0


def geodesic_efficiency(problem: EvolutionProblem, t: float) -> float:
    """Ratio of geodesic distance covered to path length traversed by time t.

    The Fubini-Study geodesic distance between endpoints is the angle

        theta = arctan2( ||psi(t) - <psi(0)|psi(t)> psi(0)||, |<psi(0)|psi(t)>| )

    (in the units where the metric prefactor and the angle convention cancel
    against the path-length integral v t).  This equals arccos |<psi(0)|psi(t)>|
    without its cancellation as the overlap nears 1 (v t -> 0); the rounding of
    psi(t) leaves a relative error of about 2e-17 / (v t).  Equal to 1 exactly
    on geodesic curves, smaller otherwise.
    """
    _require_moving(problem.moments)
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    psi0 = problem.initial_state.amplitudes
    psi_t = problem._evolve_rows([t])[0]
    angle = np.arctan2(np.linalg.norm(_project_off(psi_t, psi0)), abs(np.vdot(psi0, psi_t)))
    eta = float(angle / (problem.speed * t))
    if eta > 1.0 + 1e-9:
        raise NumericalError(f"geodesic efficiency eta = {eta!r} exceeds 1 beyond tolerance")
    return eta


# ---------------------------------------------------------------------------
# State families
# ---------------------------------------------------------------------------

_BELL_AMPLITUDES = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0),
}

# Unicode aliases accepted in config files.
_BELL_ALIASES = {"Φ+": "phi+", "Φ-": "phi-", "Ψ+": "psi+", "Ψ-": "psi-"}


def bell_state(kind: str) -> StateVector:
    """One of the four Bell pairs: 'phi+', 'phi-', 'psi+', 'psi-'."""
    key = _BELL_ALIASES.get(kind, kind.lower())
    if key not in _BELL_AMPLITUDES:
        raise ValueError(f"unknown Bell state {kind!r}; expected phi+/phi-/psi+/psi-")
    return StateVector(_BELL_AMPLITUDES[key])


def ghz_state() -> StateVector:
    """Three-qubit GHZ state (|000> + |111>)/sqrt(2)."""
    amp = np.zeros(8, dtype=complex)
    amp[0] = amp[7] = 1.0 / np.sqrt(2.0)
    return StateVector(amp)


def w_state() -> StateVector:
    """Three-qubit W state (|001> + |010> + |100>)/sqrt(3)."""
    amp = np.zeros(8, dtype=complex)
    amp[1] = amp[2] = amp[4] = 1.0 / np.sqrt(3.0)
    return StateVector(amp)


def xi_state(xi: float, phi: float = 0.0) -> StateVector:
    """Qubit superposition xi |0> + e^(i phi) sqrt(1 - xi^2) |1>, xi in [0, 1]."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must lie in [0, 1], got {xi}")
    return StateVector([xi, np.exp(1j * phi) * np.sqrt(1.0 - xi * xi)])


# ---------------------------------------------------------------------------
# Hamiltonian families
# ---------------------------------------------------------------------------


# Each family's couplings, in the order its builder takes them, and the Pauli
# words each one weights: H = sum over couplings c of c * (sum of its words).
_FAMILY_WORDS = {
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


# Each family's words encoded once per process, with the index of the
# coupling that weights each: a build only sums couplings times rows.
_FAMILY_ROWS = {
    family: [(k, _encode_word(word)) for k, group in enumerate(words.values()) for word in group]
    for family, words in _FAMILY_WORDS.items()
}


def _family_operator(family: str, couplings) -> HermitianOperator:
    """The Pauli sum of ``family`` with checked ``couplings`` in the table's order."""
    rows = _FAMILY_ROWS[family]
    dim = len(rows[0][1][1])  # a word's row has one entry per basis state
    return _pauli_sum([(couplings[k], encoded) for k, encoded in rows], dim)


def _checked_family_operator(family: str, couplings) -> HermitianOperator:
    """``_family_operator`` of couplings that must be finite real numbers."""
    for c in couplings:
        _check_coefficient(c)
    return _family_operator(family, [float(c) for c in couplings])


def single_qubit(m, m0: float = 0.0):
    """H = m . sigma + m0 I on one qubit."""
    m = np.asarray(m, dtype=object)
    if m.shape != (3,):
        raise ValueError(f"field must have shape (3,), got {m.shape}")
    return _checked_family_operator("single_qubit", [*m.tolist(), m0])


def two_qubit_nonlocal(m1: float, m2: float, m3: float, m4: float):
    """Purely two-body couplings: m1 XX + m2 ZZ + m3 XZ + m4 ZX."""
    return _checked_family_operator("two_qubit_nonlocal", (m1, m2, m3, m4))


def two_qubit_local(m1: float, m2: float, m3: float, m4: float):
    """Independent local fields: m1 IX + m2 XI + m3 IZ + m4 ZI."""
    return _checked_family_operator("two_qubit_local", (m1, m2, m3, m4))


def heisenberg3(j_x: float, j_y: float, j_z: float, h: float):
    """Anisotropic exchange between all three spin pairs plus a uniform field.

    H = sum over pairs (i<j) of [ j_x X_i X_j + j_y Y_i Y_j + j_z Z_i Z_j ]
        + h (Z_1 + Z_2 + Z_3).
    """
    return _checked_family_operator("heisenberg3", (j_x, j_y, j_z, h))


# ---------------------------------------------------------------------------
# Closed-form curvature/torsion coefficients
# ---------------------------------------------------------------------------


def _check_denominator(value: float, context: str) -> float:
    if abs(value) <= _DEGENERATE_TOL:
        raise StationaryStateError(f"stationary state: arc length undefined ({context})")
    return value


def nonlocal_product_coefficients(m1: float, m2: float, m3: float, m4: float) -> tuple[float, float]:
    """(kappa^2, tau^2) of |00> under the two-body XX/ZZ/XZ/ZX couplings.

    kappa^2 = 4 (m2^2 m3^2 + m2^2 m4^2 + m3^2 m4^2) / (m1^2 + m3^2 + m4^2)^2
    tau^2   = 4 (m3^2 + m4^2) (m1 m2 - m3 m4)^2 / (m1^2 + m3^2 + m4^2)^3
    """
    denom = _check_denominator(m1 * m1 + m3 * m3 + m4 * m4, "all transverse couplings vanish")
    kappa_sq = 4.0 * (m2 * m2 * m3 * m3 + m2 * m2 * m4 * m4 + m3 * m3 * m4 * m4) / denom**2
    tau_sq = 4.0 * (m3 * m3 + m4 * m4) * (m1 * m2 - m3 * m4) ** 2 / denom**3
    return kappa_sq, tau_sq


def nonlocal_bell_coefficients(m1: float, m2: float, m3: float, m4: float) -> tuple[float, float]:
    """(kappa^2, tau^2) of the phi+ Bell pair under the two-body couplings.

    The dynamics stays inside a two-dimensional invariant subspace, so the
    curve is planar: kappa^2 = 4 (m1 + m2)^2 / (m3 - m4)^2, tau^2 = 0.
    """
    diff = m3 - m4
    _check_denominator(diff * diff, "m3 = m4 makes phi+ stationary")
    return 4.0 * (m1 + m2) ** 2 / diff**2, 0.0


def local_bell_coefficients(m1: float, m2: float, m3: float, m4: float) -> tuple[float, float]:
    """(kappa^2, tau^2) of the phi+ Bell pair under independent local fields.

    Remarkably the two coefficients coincide:

        kappa^2 = tau^2 = 4 (m1 m4 - m2 m3)^2 / [ (m1+m2)^2 + (m3+m4)^2 ]^2.
    """
    denom = _check_denominator((m1 + m2) ** 2 + (m3 + m4) ** 2, "summed fields vanish")
    value = 4.0 * (m1 * m4 - m2 * m3) ** 2 / denom**2
    return value, value


def local_product_coefficients(m1: float, m2: float, m3: float, m4: float) -> tuple[float, float]:
    """(kappa^2, tau^2) of |00> under independent local fields.

    kappa^2 = 4 (m1^2 m2^2 + m1^2 m3^2 + m2^2 m4^2) / (m1^2 + m2^2)^2
    tau^2   = 4 m1^2 m2^2 [ m1^2 + m2^2 + (m3 - m4)^2 ] / (m1^2 + m2^2)^3
    """
    denom = _check_denominator(m1 * m1 + m2 * m2, "transverse fields vanish")
    kappa_sq = 4.0 * (m1 * m1 * m2 * m2 + m1 * m1 * m3 * m3 + m2 * m2 * m4 * m4) / denom**2
    tau_sq = 4.0 * m1 * m1 * m2 * m2 * (m1 * m1 + m2 * m2 + (m3 - m4) ** 2) / denom**3
    return kappa_sq, tau_sq


def heisenberg_ghz_coefficients(j_x: float, j_y: float, j_z: float, h: float) -> tuple[float, float]:
    """(kappa^2, tau^2) of the GHZ state under the three-spin exchange model.

    With D = 3 h^2 + (j_x - j_y)^2,

        kappa^2 = (4/3) (j_x - j_y)^2 [ h^2 + (j_x + j_y - 2 j_z)^2 ] / D^2
        tau^2   = kappa^2 - (4/3) (j_x - j_y)^4 (j_x + j_y - 2 j_z)^2 / D^3.

    At j_x = j_y (with h != 0) both coefficients vanish by continuity; the
    shared (j_x - j_y)^2 factor dominates the limit.
    """
    diff = j_x - j_y
    denom = _check_denominator(3.0 * h * h + diff * diff, "GHZ is an exchange eigenstate")
    aniso = j_x + j_y - 2.0 * j_z
    kappa_sq = (4.0 / 3.0) * diff**2 * (h * h + aniso**2) / denom**2
    tau_sq = kappa_sq - (4.0 / 3.0) * diff**4 * aniso**2 / denom**3
    return kappa_sq, tau_sq


def heisenberg_w_coefficients(j_x: float, j_y: float, j_z: float, h: float) -> tuple[float, float]:
    """(kappa^2, tau^2) of the W state under the three-spin exchange model.

    kappa^2 = (4/3) (2h + j_x + j_y - 2 j_z)^2 / (j_x - j_y)^2, tau^2 = 0.
    """
    diff = j_x - j_y
    _check_denominator(diff * diff, "W is stationary at j_x = j_y")
    return (4.0 / 3.0) * (2.0 * h + j_x + j_y - 2.0 * j_z) ** 2 / diff**2, 0.0


# ---------------------------------------------------------------------------
# Closed forms for the xi-family under H = m sigma_z
# ---------------------------------------------------------------------------


def xi_curvature(xi: float) -> float:
    """kappa^2(xi) = (1 - 2 xi^2)^2 / [ xi^2 (1 - xi^2) ] for H = m sigma_z.

    Independent of the field strength m; vanishes only at the balanced
    superposition xi = 1/sqrt(2), which evolves along a geodesic.
    """
    weight = xi * xi * (1.0 - xi * xi)
    _check_denominator(weight, "xi in {0, 1} is an eigenstate")
    return (1.0 - 2.0 * xi * xi) ** 2 / weight


def xi_kurtosis(xi: float) -> float:
    """alpha4(xi) = (1 - 3 xi^2 + 3 xi^4) / [ xi^2 (1 - xi^2) ]; kappa^2 + 1."""
    weight = xi * xi * (1.0 - xi * xi)
    _check_denominator(weight, "xi in {0, 1} is an eigenstate")
    return (1.0 - 3.0 * xi * xi + 3.0 * xi**4) / weight


def xi_efficiency(t: float, xi: float, m: float = 1.0) -> float:
    """Geodesic efficiency of the xi-state under H = m sigma_z at time t.

        eta = arctan2( 2 xi sqrt(1 - xi^2) |sin mt|, sqrt( cos^2(mt) + (2 xi^2 - 1)^2 sin^2(mt) ) )
              / [ 2 xi sqrt(1 - xi^2) m t ]

    The angle is arccos of the overlap, written with its sine so that it keeps
    every digit as mt -> 0.  Equals 1 identically at xi = 1/sqrt(2) and dips
    below 1 elsewhere.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    weight = xi * np.sqrt(max(0.0, 1.0 - xi * xi))
    _check_denominator(weight, "xi in {0, 1} is an eigenstate")
    c = np.cos(m * t)
    s = np.sin(m * t)
    overlap = np.sqrt(c * c + (2.0 * xi * xi - 1.0) ** 2 * s * s)
    return float(np.arctan2(2.0 * weight * abs(s), overlap) / (2.0 * weight * m * t))
