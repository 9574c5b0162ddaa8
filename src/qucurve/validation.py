"""Built-in validation suite: closed-form fixtures plus random cross-checks.

Each case computes a residual (a maximum absolute or relative deviation) and
compares it against a pinned tolerance.  The ``perturb`` hook nudges one
amplitude of a fixture by 1e-3 and exists as a negative control: it lets the
suite demonstrate that it actually fails when the numbers are wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .evolution import EvolutionProblem
from .frame import build_frame
from .hilbert import HermitianOperator
from .moments import _CLAMP_FLOOR, StationaryStateError, central_moments
from .oracles import fit_coefficients

__all__ = ["CaseResult", "PERTURBABLE_CASES", "run_validation"]


@dataclass(frozen=True)
class CaseResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _two_qubit_cross_field() -> EvolutionProblem:
    """H = XZ + ZX on |00>: the canonical fully-worked frame example."""
    return EvolutionProblem(models.two_qubit_nonlocal(0.0, 0.0, 1.0, 1.0), np.array([1, 0, 0, 0]))


def _closed_form_state(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([c * c, -0.5j * np.sin(2 * t), -0.5j * np.sin(2 * t), s * s])


def _case_evolved_state_closed_form(perturb: bool = False) -> float:
    prob = _two_qubit_cross_field()
    ts = (0.0, 0.3, 0.7, 1.9)
    worst = 0.0
    for t, got in zip(ts, prob.evolve(ts)):
        expected = _closed_form_state(t)
        if perturb:
            expected[0] += 1e-3
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst


def _case_frame_closed_form(perturb: bool = False) -> float:
    """Tangent, binormal, curvature, torsion, and structure matrix of the
    worked two-qubit example, against their exact trigonometric forms; the
    singlet (|01> - |10>)/sqrt(2) never couples, so no frame row holds it."""
    prob = _two_qubit_cross_field()
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2.0)
    worst = 0.0
    for s in (0.0, 0.4, 1.1):
        root2 = np.sqrt(2.0)
        c, sn = np.cos(root2 * s), np.sin(root2 * s)
        tan_expected = np.array([-sn, -1j * c, -1j * c, sn]) / root2
        nbar_expected = np.array(
            [0.5 - 0.5 * c, 0.5j * sn, 0.5j * sn, 0.5 * c + 0.5]
        )
        if perturb:
            tan_expected[0] += 1e-3
        frame = build_frame(prob, s)
        worst = max(worst, float(np.max(np.abs(frame.rows[1] - tan_expected))))
        worst = max(worst, float(np.max(np.abs(frame.rows[2] - nbar_expected))))
        worst = max(worst, abs(frame.kappa_sq - 1.0), abs(frame.tau_sq - 1.0))
        cart_expected = np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=complex)
        worst = max(worst, float(np.max(np.abs(frame.cartan - cart_expected))))
        worst = max(worst, float(np.max(np.abs(frame.rows.conj() @ singlet))))
    return worst


def _case_xi_family_grid() -> float:
    ham = models.single_qubit([0.0, 0.0, 1.0])
    worst = 0.0
    for xi in np.linspace(0.01, 0.99, 99):
        state = models.xi_state(float(xi))
        mom = central_moments(ham, state)
        worst = max(worst, abs(mom.kappa_sq - models.xi_curvature(float(xi))))
        worst = max(worst, abs(mom.alpha4 - models.xi_kurtosis(float(xi))))
        worst = max(worst, abs(mom.tau_sq))
    return worst


def _case_efficiency_grid() -> float:
    ham = models.single_qubit([0.0, 0.0, 1.0])
    t = np.pi / 4.0
    worst = 0.0
    for xi in np.linspace(0.05, 0.95, 37):
        prob = EvolutionProblem(ham, models.xi_state(float(xi)))
        worst = max(
            worst, abs(models.geodesic_efficiency(prob, t) - models.xi_efficiency(t, float(xi)))
        )
    return worst


def _case_bloch_reduction() -> float:
    rng = np.random.default_rng(20240517)
    worst = 0.0
    for _ in range(40):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        m = rng.normal(size=3)
        if np.dot(m, m) - np.dot(a, m) ** 2 < 1e-2 * np.dot(m, m):
            continue  # skip near-eigenstate draws
        ham = models.single_qubit(m, m0=float(rng.normal()))
        state = models.bloch_to_state(a)
        mom = central_moments(ham, state)
        k_ref = models.curvature_bloch(a, m)
        worst = max(worst, abs(mom.kappa_sq - k_ref) / max(1.0, k_ref), abs(mom.tau_sq))
    return worst


def _random_problem(rng, dim: int) -> EvolutionProblem:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ham = HermitianOperator((a + a.conj().T) / 2.0)
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return EvolutionProblem(ham, z / np.linalg.norm(z))


def _case_cross_path_random() -> float:
    rng = np.random.default_rng(911)
    worst = 0.0
    for dim in (2, 3, 4, 8):
        for _ in range(15):
            prob = _random_problem(rng, dim)
            mom = prob.moments
            km, tm = mom.kappa_sq, mom.tau_sq
            s = float(rng.uniform(0.0, 2.0))
            frame = build_frame(prob, s)
            worst = max(worst, abs(km - frame.kappa_sq) / max(1.0, abs(km)))
            worst = max(worst, abs(tm - frame.tau_sq) / max(1.0, abs(tm)))
            worst = max(worst, abs(km - tm - mom.alpha3**2))
            if tm < _CLAMP_FLOOR:
                worst = max(worst, abs(tm))
    return worst


def _two_qubit_rows(*m) -> list:
    nonlocal_h, local_h = models.two_qubit_nonlocal(*m), models.two_qubit_local(*m)
    phi_plus, zero_zero = models.bell_state("phi+"), np.array([1, 0, 0, 0])
    return [
        (nonlocal_h, zero_zero, models.nonlocal_product_coefficients(*m)),
        (nonlocal_h, phi_plus, models.nonlocal_bell_coefficients(*m)),
        (local_h, phi_plus, models.local_bell_coefficients(*m)),
        (local_h, zero_zero, models.local_product_coefficients(*m)),
    ]


def _heisenberg_rows(jx, jy, jz, h) -> list:
    ham = models.heisenberg3(jx, jy, jz, h)
    return [
        (ham, models.ghz_state(), models.heisenberg_ghz_coefficients(jx, jy, jz, h)),
        (ham, models.w_state(), models.heisenberg_w_coefficients(jx, jy, jz, h)),
    ]


def _closed_form_formulas(seed: int, rows) -> float:
    """Worst relative moment-route error against the (builder, state, closed form)
    rows of 30 seeded draws of four couplings in [-2, 2]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(30):
        for ham, state, (k_ref, t_ref) in rows(*rng.uniform(-2.0, 2.0, size=4)):
            mom = central_moments(ham, state)
            worst = max(worst, abs(mom.kappa_sq - k_ref) / max(1.0, k_ref))
            worst = max(worst, abs(mom.tau_sq - t_ref) / max(1.0, t_ref))
    return worst


def _case_planar_bell_states() -> float:
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        m = rng.uniform(-2.0, 2.0, size=4)
        ham = models.two_qubit_nonlocal(*m)
        for kind in ("phi-", "psi+", "psi-"):
            try:
                mom = central_moments(ham, models.bell_state(kind))
            except StationaryStateError:
                continue
            worst = max(worst, abs(mom.tau_sq))
    return worst


def _case_quartic_fits() -> float:
    fit = fit_coefficients(_two_qubit_cross_field())
    return max(abs(fit.kappa_sq - 1.0), abs(fit.tau_sq - 1.0))


def _case_parallel_transport() -> float:
    rng = np.random.default_rng(13)
    worst = 0.0
    dt = 1e-4
    for dim in (2, 4, 8):
        for _ in range(5):
            prob = _random_problem(rng, dim)
            t = float(rng.uniform(0.0, 2.0))
            plus, minus, here = prob.transported([t + dt, t - dt, t])
            worst = max(worst, abs(np.vdot(here, (plus - minus) / (2 * dt))))
    return worst


def _case_classical_circle() -> float:
    # kappa^2 of the xi-state whose Bloch vector rides the colatitude-theta circle is
    # 4 R^2 times the squared geodesic curvature cot(theta)/R of that circle on the radius-R sphere
    radius, theta = 1.7, 0.8
    kappa_geo = 1.0 / (np.tan(theta) * radius)
    mom = central_moments(models.single_qubit([0.0, 0.0, 1.0]), models.xi_state(float(np.cos(theta / 2.0))))
    return abs(mom.kappa_sq - 4.0 * radius**2 * kappa_geo**2)


# name -> (tolerance, case), in the order of the report
_CASES = {
    "evolved-state-closed-form": (1e-10, _case_evolved_state_closed_form),
    "frame-closed-form": (1e-8, _case_frame_closed_form),
    "xi-family-grid": (1e-9, _case_xi_family_grid),
    "efficiency-grid": (1e-6, _case_efficiency_grid),
    "bloch-reduction": (1e-9, _case_bloch_reduction),
    "cross-path-random": (1e-9, _case_cross_path_random),
    "two-qubit-formulas": (1e-9, lambda: _closed_form_formulas(5150, _two_qubit_rows)),
    "heisenberg-formulas": (1e-9, lambda: _closed_form_formulas(77, _heisenberg_rows)),
    "planar-bell-states": (1e-10, _case_planar_bell_states),
    "quartic-fits": (0.02, _case_quartic_fits),
    "parallel-transport": (1e-6, _case_parallel_transport),
    "classical-circle": (1e-12, _case_classical_circle),
}

# The cases whose expected fixture takes a ``perturb`` flag.
PERTURBABLE_CASES = ("evolved-state-closed-form", "frame-closed-form")


def run_validation(perturb: str | None = None) -> list[CaseResult]:
    """Run every validation case; optionally perturb one named fixture.

    ``perturb`` must be one of PERTURBABLE_CASES; the named case's expected
    fixture has one amplitude shifted by 1e-3, so that case must fail.
    """
    if perturb is not None and perturb not in PERTURBABLE_CASES:
        raise ValueError(
            f"case {perturb!r} does not support perturbation; choose from {PERTURBABLE_CASES}"
        )
    return [
        CaseResult(name, case(perturb=True) if name == perturb else case(), tolerance)
        for name, (tolerance, case) in _CASES.items()
    ]
