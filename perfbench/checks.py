"""Output checks.  Each returns a list of problems; any problem fails the command.

Numbers are compared relative to max(1, |reference|).  The program's moment
and projector routes must match the closed forms or the benchmark's own
reference moments to REL; the finite-difference oracle, which truncates a
Taylor series, to ORACLE_REL (its worst case over random draws is ~5e-4).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL = 1e-8
ORACLE_REL = 1e-2
NORM_TOL = 1e-9


@dataclass
class Outcome:
    """What one command did: exit code (None if it raised), captured output."""

    rc: int | None
    stdout: str
    error: str | None
    output: Path | None


def _close(got, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want))


def report_check(dimension: int, expected: dict, oracle: dict | None = None):
    """Report JSON: dimension, and each key in ``expected`` (and in the
    ``oracle`` block, if given) against its reference value."""

    def check(out: Outcome) -> list[str]:
        try:
            doc = json.loads(out.stdout)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        problems = []
        if doc.get("dimension") != dimension:
            problems.append(f"dimension {doc.get('dimension')!r} != {dimension}")
        for key, want in expected.items():
            if not _close(doc.get(key), want, REL):
                problems.append(f"{key} = {doc.get(key)!r}, reference {want!r}")
        if oracle is not None:
            block = doc.get("oracle") or {}
            for key, want in oracle.items():
                if not _close(block.get(key), want, ORACLE_REL):
                    problems.append(f"oracle.{key} = {block.get(key)!r}, reference {want!r}")
        return problems

    return check


SWEEP_HEADER = ["param", "kappa_sq", "tau_sq", "eta", "alpha4", "alpha3_sq"]


def sweep_check(grid: np.ndarray, closed_forms: list[tuple[float, float]]):
    """Sweep CSV: one row per grid value with the closed-form coefficients.

    alpha4 = kappa^2 + 1 and alpha3^2 = kappa^2 - tau^2 follow from the
    closed forms too; the geodesic efficiency must lie in (0, 1].
    """

    def check(out: Outcome) -> list[str]:
        with open(out.output, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != SWEEP_HEADER:
            return [f"sweep header {rows[:1]!r}"]
        body = rows[1:]
        if len(body) != len(grid):
            return [f"sweep has {len(body)} rows, expected {len(grid)}"]
        problems = []
        for row, value, (kappa, tau) in zip(body, grid, closed_forms):
            param, k, t, eta, a4, a3sq = (float(x) for x in row)
            want = {
                "kappa_sq": (k, kappa),
                "tau_sq": (t, tau),
                "alpha4": (a4, kappa + 1.0),
                "alpha3_sq": (a3sq, kappa - tau),
            }
            bad = [name for name, (got, ref) in want.items() if not _close(got, ref, REL)]
            if param != float(value) or bad or not 0.0 < eta <= 1.0 + 1e-9:
                problems.append(f"sweep row {row!r} at {float(value)!r}: bad {bad or 'param/eta'}")
        return problems

    return check


def trajectory_check(t_max: float, steps: int, ref: dict, psi0: np.ndarray, eig: tuple):
    """Trajectory CSV: row count, time and arc-length columns, unit-norm
    amplitudes, fidelity in [0, 1] (1 at t = 0), constant kappa^2/tau^2
    columns equal to the reference moments, and the evolved state itself at
    the first, middle and last rows against a NumPy eigendecomposition."""
    dim = psi0.shape[0]
    times = np.linspace(0.0, t_max, steps)
    w, basis = eig
    coeffs = basis.conj().T @ psi0
    spot = {0, steps // 2, steps - 1}
    header = ["t", "s", "fidelity_to_initial"]
    for k in range(dim):
        header += [f"re_a{k}", f"im_a{k}"]
    header += ["kappa_sq", "tau_sq"]

    def check(out: Outcome) -> list[str]:
        problems = []
        n_rows = 0
        constants = None
        with open(out.output, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != header:
                return ["trajectory header differs"]
            for i, row in enumerate(reader):
                n_rows += 1
                if i >= steps or len(row) != len(header):
                    problems.append(f"row {i}: unexpected row or width {len(row)}")
                    break
                t, s, fid = float(row[0]), float(row[1]), float(row[2])
                amps = np.array(row[3 : 3 + 2 * dim], dtype=float).view(complex)
                if constants is None:
                    constants = row[-2:]
                bad = []
                if t != times[i]:
                    bad.append("t")
                if not _close(s, ref["speed"] * t, REL):
                    bad.append("s")
                if not (0.0 <= fid <= 1.0 + NORM_TOL) or (i == 0 and abs(fid - 1.0) > NORM_TOL):
                    bad.append("fidelity range")
                if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
                    bad.append("norm")
                if row[-2:] != constants:
                    bad.append("kappa/tau not constant")
                if i in spot:
                    psi = basis @ (np.exp(-1j * w * t) * coeffs)
                    if np.max(np.abs(amps - psi)) > NORM_TOL:
                        bad.append("state")
                    if abs(fid - abs(np.vdot(psi0, psi)) ** 2) > NORM_TOL:
                        bad.append("fidelity")
                if bad:
                    problems.append(f"row {i}: bad {bad}")
                    if len(problems) > 5:
                        break
        if n_rows != steps:
            problems.append(f"trajectory has {n_rows} rows, expected {steps}")
        if constants is not None:
            for name, got in zip(("kappa_sq", "tau_sq"), constants):
                if not _close(float(got), max(ref[name], 0.0), REL):
                    problems.append(f"{name} column {got}, reference {ref[name]!r}")
        return problems

    return check


def validate_check(out: Outcome) -> list[str]:
    """`validate` must report every case passed."""
    lines = out.stdout.splitlines()
    if not lines:
        return ["validate printed nothing"]
    passed, _, total = lines[-1].partition(" ")[0].partition("/")
    failing = [line for line in lines if line.startswith("FAIL")]
    if failing or not total.isdigit() or passed != total or int(total) != len(lines) - 1:
        return [f"validate: {lines[-1]!r}, failing {failing}"]
    return []
