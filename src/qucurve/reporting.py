"""Geometry reports and their deterministic serialization.

All floating-point output (JSON and CSV) uses Python's repr of float, the
shortest decimal string that round-trips to the same IEEE-754 double.  Output
is a pure function of the input document, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from warnings import catch_warnings, simplefilter

import numpy as np

from .evolution import EvolutionProblem
from .frame import _binormal_present, curvature_torsion_geometric
from .hilbert import HermitianOperator, StateVector
from .models import geodesic_efficiency, state_to_bloch
from .moments import NumericalError, curvature_from_moments, torsion_from_moments
from .oracles import fit_coefficients

__all__ = ["GeometryReport", "build_report", "format_float", "trajectory_rows", "sweep_row"]

# tau^2 values this far below zero are rounding noise on a planar curve and
# are clamped in displayed reports; anything lower indicates a real bug.
_CLAMP_FLOOR = -1e-9

# Cross-path consistency required of every published report.
_PATH_AGREEMENT = 1e-8

# Arc-length points in [0, 1] on which a report samples the projector route.
_ARC_SAMPLES = 10

# Amplitudes of the trajectory rows evolved together: a chunk of
# max(1, 2^16 // d) rows shares one walk up the Krylov basis sizes, and the
# CSV still streams chunk by chunk.
_CHUNK_AMPLITUDES = 2**16


@dataclass
class GeometryReport:
    """One problem's geometric profile, computed along every available path."""

    dimension: int
    energy: float
    speed: float
    kappa_sq_moments: float
    kappa_sq_geometric: float
    tau_sq_moments: float
    tau_sq_geometric: float
    alpha3: float
    alpha4: float
    pearson_gap: float
    frame_present: bool
    oracle: dict | None = None
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, allow_nan=False)


def format_float(x: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _clamp_tau(value: float, label: str, warnings: list[str]) -> float:
    if _CLAMP_FLOOR <= value < 0.0:
        warnings.append(f"{label} raw value {value!r} clamped to 0.0 (rounding below zero)")
        return 0.0
    if value < _CLAMP_FLOOR:
        raise NumericalError(f"{label} = {value!r} violates the nonnegativity bound {_CLAMP_FLOOR}")
    return value


def build_report(
    hamiltonian: HermitianOperator,
    state: StateVector,
    with_oracle: bool = False,
    dt_grid=None,
) -> GeometryReport:
    """Compute curvature/torsion along the moment and projector paths.

    The geometric quantities are evaluated on ``_ARC_SAMPLES`` arc-length
    points in [0, 1]; they are constants of the motion, so their spread
    doubles as a self-check (a warning is emitted if it exceeds 1e-9).  With
    ``with_oracle`` the finite-difference fits are run on ``dt_grid``
    (default {1, 2, 4} * 1e-3 / v) and reported normalized by mu2^2; the
    fits' warnings (a coarse grid) join the report's ``warnings``.

    Raises
    ------
    StationaryStateError
        If the state is an eigenstate of the Hamiltonian.
    NumericalError
        If the moment and projector paths disagree, tau^2 falls below the
        rounding floor, or the oracle's curvature fit misfits.
    """
    problem = EvolutionProblem(hamiltonian, state)
    warnings: list[str] = []

    mom = problem.moments
    kappa_m = curvature_from_moments(mom)
    tau_m_raw = torsion_from_moments(mom)

    s_points = np.linspace(0.0, 1.0, _ARC_SAMPLES)
    kappa_gs, tau_gs = zip(*curvature_torsion_geometric(problem, s_points))
    for name, vals in (("kappa_sq_geometric", kappa_gs), ("tau_sq_geometric", tau_gs)):
        spread = max(vals) - min(vals)
        if spread > 1e-9:
            warnings.append(f"{name} varies by {spread!r} across arc-length samples")
    kappa_g = kappa_gs[0]
    tau_g = tau_gs[0]

    if abs(kappa_m - kappa_g) > _PATH_AGREEMENT * max(1.0, abs(kappa_m)):
        raise NumericalError(
            f"kappa_sq_moments {kappa_m!r} and kappa_sq_geometric {kappa_g!r} disagree"
        )
    if abs(tau_m_raw - tau_g) > _PATH_AGREEMENT * max(1.0, abs(tau_m_raw)):
        raise NumericalError(f"tau_sq_moments {tau_m_raw!r} and tau_sq_geometric {tau_g!r} disagree")

    tau_m = _clamp_tau(tau_m_raw, "tau_sq_moments", warnings)

    oracle = None
    if with_oracle:
        if dt_grid is None:
            dt_grid = [k * 1e-3 / problem.speed for k in (1.0, 2.0, 4.0)]
        with catch_warnings(record=True) as caught:
            simplefilter("always")
            kfit, tfit = fit_coefficients(problem, dt_grid)
        warnings.extend(dict.fromkeys(str(w.message) for w in caught))
        oracle = {
            "kappa_sq": kfit.coefficient / mom.mu2**2,
            "tau_sq": tfit.coefficient / mom.mu2**2,
            "fit_residual_kappa": kfit.residual,
            "fit_residual_tau": tfit.residual,
            "dt_grid": list(kfit.dt_grid),
        }

    return GeometryReport(
        dimension=problem.dim,
        energy=problem.energy,
        speed=problem.speed,
        kappa_sq_moments=kappa_m,
        kappa_sq_geometric=kappa_g,
        tau_sq_moments=tau_m,
        tau_sq_geometric=tau_g,
        alpha3=mom.alpha3,
        alpha4=mom.alpha4,
        pearson_gap=tau_m_raw,
        frame_present=_binormal_present(tau_g),
        oracle=oracle,
        warnings=warnings,
    )


def trajectory_rows(
    hamiltonian: HermitianOperator, state: StateVector, t_max: float, steps: int
) -> tuple[list[str], Iterator[list[str]]]:
    """Header and an iterator of formatted rows for a trajectory CSV.

    Columns: t, s, fidelity_to_initial, re/im of every amplitude, the Bloch
    components for a qubit, and the (constant) squared curvature and torsion.
    Arguments are checked before returning; rows are evolved in chunks and
    formatted only when the iterator reaches them, so a writer can stream
    the table.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    problem = EvolutionProblem(hamiltonian, state)
    kappa = curvature_from_moments(problem.moments)
    tau = _clamp_tau(torsion_from_moments(problem.moments), "tau_sq", [])

    d = problem.dim
    header = ["t", "s", "fidelity_to_initial"]
    for k in range(d):
        header += [f"re_a{k}", f"im_a{k}"]
    if d == 2:
        header += ["ax", "ay", "az"]
    header += ["kappa_sq", "tau_sq"]

    def rows():
        times = np.linspace(0.0, t_max, steps)
        chunk = max(1, _CHUNK_AMPLITUDES // d)
        for start in range(0, steps, chunk):
            ts = times[start : start + chunk]
            for t, psi in zip(ts, problem._evolve_rows(ts)):
                fid = abs(state.inner(psi)) ** 2
                row = [format_float(t), format_float(problem.speed * t), format_float(fid)]
                row += map(repr, psi.view(np.float64).tolist())
                if d == 2:
                    row += [format_float(c) for c in state_to_bloch(psi)]
                row += [format_float(kappa), format_float(tau)]
                yield row

    return header, rows()


def sweep_row(
    hamiltonian: HermitianOperator, state: StateVector, param_value: float, efficiency_t: float
) -> list[str]:
    """One formatted sweep-CSV row: param, kappa_sq, tau_sq, eta, alpha4, alpha3_sq."""
    problem = EvolutionProblem(hamiltonian, state)
    mom = problem.moments
    kappa = curvature_from_moments(mom)
    tau = _clamp_tau(torsion_from_moments(mom), "tau_sq", [])
    eta = geodesic_efficiency(problem, efficiency_t)
    return [
        format_float(param_value),
        format_float(kappa),
        format_float(tau),
        format_float(eta),
        format_float(mom.alpha4),
        format_float(mom.alpha3**2),
    ]
