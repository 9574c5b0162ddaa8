"""Geometry reports and their deterministic serialization.

``build_report`` returns a ``GeometryReport`` of each route's kappa^2 and tau^2,
read from its entry point or its parts; ``trajectory_rows`` and ``sweep_row`` return CSV rows.
All three print the moment route's values only once the projector route agrees at psi0.

All floating-point output (JSON and CSV) uses Python's repr of float, the
shortest decimal string that round-trips to the same IEEE-754 double.  Output
is a pure function of the input document, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .evolution import EvolutionProblem
from .frame import _binormal_present, _curvature_torsion_at
from .hilbert import HermitianOperator
from .models import geodesic_efficiency, state_to_bloch
from .moments import _CLAMP_FLOOR, NumericalError
from .oracles import _fit, _snapshots

__all__ = ["GeometryReport", "build_report", "format_float", "trajectory_rows", "sweep_row"]

# Cross-path consistency required of every published report.
_PATH_AGREEMENT = 1e-8

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


def _gated_pair(problem: EvolutionProblem, warnings: list[str]) -> tuple[float, float, float]:
    """The projector route's (kappa^2, tau^2) at psi0 and the moment tau^2, once both routes agree within 1e-8.

    Every command reads psi0 through this gate.  A moment tau^2 in [_CLAMP_FLOOR, 0)
    is rounding noise: it reads 0.0, and ``warnings`` gains a line saying so; below
    the floor, or when the routes disagree, ``NumericalError`` is raised.
    """
    mom = problem.moments
    kappa_g, tau_g = _curvature_torsion_at(problem, problem.initial_state)
    for name, moment, geometric in (("kappa_sq", mom.kappa_sq, kappa_g), ("tau_sq", mom.tau_sq, tau_g)):
        if abs(moment - geometric) > _PATH_AGREEMENT * max(1.0, abs(moment)):
            raise NumericalError(f"{name}_moments {moment!r} and {name}_geometric {geometric!r} disagree")
    tau_m = mom.tau_sq
    if tau_m < _CLAMP_FLOOR:
        raise NumericalError(f"tau_sq_moments = {tau_m!r} violates the nonnegativity bound {_CLAMP_FLOOR}")
    if tau_m < 0.0:
        warnings.append(f"tau_sq_moments raw value {tau_m!r} clamped to 0.0 (rounding below zero)")
        tau_m = 0.0
    return kappa_g, tau_g, tau_m


def build_report(
    hamiltonian: HermitianOperator,
    state,
    with_oracle: bool = False,
    dt_grid=None,
) -> GeometryReport:
    """Compute curvature/torsion along the moment and projector paths.

    Both paths are read at Psi(0) = psi0, so a plain report evolves nothing.
    With ``with_oracle``, the fits of ``fit_coefficients`` on ``dt_grid`` (its
    default when None) fill the ``oracle`` block in one walk; a coarse grid warns.
    kappa^2 and tau^2 are constants of the motion, so a spread above 1e-9 of the
    projector path across psi0 and the fits' snapshots (s <= 8e-3) warns too: a
    Krylov basis started at 4 vectors with tolerance 1e-2 reads 3e-9 there on a
    12-qubit Ising chain, a margin of about 3.

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
    kappa_g, tau_g, tau_m = _gated_pair(problem, warnings)
    mom = problem.moments

    oracle = None
    if with_oracle:
        dts, states, notes = _snapshots(problem, dt_grid)
        fit = _fit(problem, dts, states)
        warnings += notes
        reads = zip((kappa_g, tau_g), *(_curvature_torsion_at(problem, psi) for psi in states.values()))
        for name, vals in zip(("kappa_sq_geometric", "tau_sq_geometric"), reads):
            if (spread := max(vals) - min(vals)) > 1e-9:
                warnings.append(f"{name} varies by {spread!r} across arc-length samples")
        oracle = {**vars(fit), "dt_grid": list(fit.dt_grid)}

    return GeometryReport(
        dimension=problem.dim,
        energy=problem.energy,
        speed=problem.speed,
        kappa_sq_moments=mom.kappa_sq,
        kappa_sq_geometric=kappa_g,
        tau_sq_moments=tau_m,
        tau_sq_geometric=tau_g,
        alpha3=mom.alpha3,
        alpha4=mom.alpha4,
        pearson_gap=mom.tau_sq,
        frame_present=_binormal_present(tau_g),
        oracle=oracle,
        warnings=warnings,
    )


def trajectory_rows(
    hamiltonian: HermitianOperator, state, t_max: float, steps: int
) -> tuple[list[str], Iterator[list[str]]]:
    """Header and an iterator of formatted rows for a trajectory CSV.

    Columns: t, s, fidelity_to_initial, re/im of every amplitude, the Bloch
    components for a qubit, and the (constant) squared curvature and torsion.
    Arguments are checked before returning; rows are evolved in chunks and
    formatted only when the iterator reaches them, so a writer can stream
    the table.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if not 0.0 < t_max < np.inf:  # also refuses NaN
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    problem = EvolutionProblem(hamiltonian, state)
    kappa, tau = problem.moments.kappa_sq, _gated_pair(problem, [])[2]

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
            for t, psi in zip(ts, problem.evolve(ts)):
                fid = abs(complex(np.vdot(problem.initial_state, psi))) ** 2
                row = [format_float(t), format_float(problem.speed * t), format_float(fid)]
                row += map(repr, psi.view(np.float64).tolist())
                if d == 2:
                    row += [format_float(c) for c in state_to_bloch(psi)]
                row += [format_float(kappa), format_float(tau)]
                yield row

    return header, rows()


def sweep_row(
    hamiltonian: HermitianOperator, state, param_value: float, efficiency_t: float
) -> list[str]:
    """One formatted sweep-CSV row: param, kappa_sq, tau_sq, eta, alpha4, alpha3_sq."""
    problem = EvolutionProblem(hamiltonian, state)
    mom = problem.moments
    tau = _gated_pair(problem, [])[2]
    eta = geodesic_efficiency(problem, efficiency_t)
    return [format_float(x) for x in (param_value, mom.kappa_sq, tau, eta, mom.alpha4, mom.alpha3**2)]
