"""The three benchmark workloads, as lists of CLI commands with their checks.

Each builder draws its problems from the seeded generator, writes them under
``workdir`` and returns the commands of one pass.  A pass is what one
closed-loop client sends, one command after the previous one completes.

* large-report -- ``report`` on seeded transverse-field Ising chains with
  random complex starts, n = 8, 9, 10 (d = 256..1024): the heavy linear
  algebra (frame completion, eigh, the kron operator build).
* small-batch -- ``--oracle report`` on every closed-form family in every
  input form, one sweep per family and one ``validate``: d <= 8, so per-call
  Python overhead (oracle fits, config parsing, family builders, JSON).
* trajectory-csv -- one ``trajectory`` at n = 8 (d = 256) with enough steps
  that formatting and writing CSV floats dominates: one eigh, then one
  evolve per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

# Arc-length points one report evaluates: the s_samples option (default 10)
# plus the frame point at s = 0.
REPORT_ARC_POINTS = 10 + 1

SIZES = {
    "full": {"ising_n": (8, 9, 10), "draws": 2, "sweep_points": 50, "traj_n": 8, "traj_steps": 1000},
    "tiny": {"ising_n": (3, 4), "draws": 1, "sweep_points": 5, "traj_n": 3, "traj_steps": 20},
}


@dataclass
class Command:
    """One CLI invocation, the work it completes, and how to check it."""

    argv: list[str]
    label: str
    items: int
    check: Callable[[checks.Outcome], list[str]]
    output: Path | None = None
    arc_points: int = 0


def large_report(rng, workdir: Path, size: dict) -> list[Command]:
    commands = []
    for n in size["ising_n"]:
        path, _, _, ref = inputs.ising_problem(workdir / f"ising-n{n}.json", n, rng)
        expected = {
            "energy": ref["energy"],
            "speed": ref["speed"],
            "alpha3": ref["alpha3"],
            "alpha4": ref["alpha4"],
            "kappa_sq_moments": ref["kappa_sq"],
            "kappa_sq_geometric": ref["kappa_sq"],
            "tau_sq_moments": ref["tau_sq"],
            "tau_sq_geometric": ref["tau_sq"],
            "pearson_gap": ref["tau_sq"],
        }
        commands.append(
            Command(
                ["report", "--input", str(path)],
                f"report n={n}",
                1,
                checks.report_check(2**n, expected),
                arc_points=REPORT_ARC_POINTS,
            )
        )
    return commands


def small_batch(rng, workdir: Path, size: dict) -> list[Command]:
    commands = []
    for case in inputs.FAMILY_CASES:
        for draw in range(size["draws"]):
            problem = inputs.draw_family_problem(case, rng)
            kappa, tau = problem.closed_form()
            expected = {
                "kappa_sq_moments": kappa,
                "kappa_sq_geometric": kappa,
                "tau_sq_moments": tau,
                "tau_sq_geometric": tau,
            }
            check = checks.report_check(
                problem.amplitudes().shape[0], expected, {"kappa_sq": kappa, "tau_sq": tau}
            )
            stem = workdir / f"{problem.family}-{case[1].replace(':', '-')}-{draw}"
            for path in inputs.family_variants(problem, stem):
                commands.append(
                    Command(
                        ["--oracle", "report", "--input", str(path)],
                        f"oracle-report {problem.family}",
                        1,
                        check,
                        arc_points=REPORT_ARC_POINTS,
                    )
                )
    for case, name, lo, hi in inputs.SWEEPS:
        grid = np.linspace(lo, hi, size["sweep_points"])
        problem = inputs.draw_family_problem(case, rng, sweep_grid=(name, grid))
        path = inputs.write_problem(
            workdir / f"sweep-{problem.family}.json",
            {"family": problem.family, "couplings": problem.couplings},
            {"named": problem.state},
        )
        closed = [problem.with_coupling(name, float(v)).closed_form() for v in grid]
        out = workdir / f"sweep-{problem.family}.csv"
        argv = ["sweep", "--input", str(path), "--param", name, "--from", repr(lo), "--to", repr(hi)]
        argv += ["--points", str(len(grid)), "--output", str(out)]
        commands.append(Command(argv, f"sweep {problem.family}", 1, checks.sweep_check(grid, closed), out))
    commands.append(Command(["validate"], "validate", 1, checks.validate_check))
    # The first input again: its output must repeat byte for byte.
    commands.append(commands[0])
    return commands


def trajectory_csv(rng, workdir: Path, size: dict) -> list[Command]:
    n, steps, t_max = size["traj_n"], size["traj_steps"], 3.0
    path, chain, psi, ref = inputs.ising_problem(workdir / f"ising-n{n}.json", n, rng)
    out = workdir / "trajectory.csv"
    check = checks.trajectory_check(t_max, steps, ref, psi, np.linalg.eigh(chain.dense()))
    argv = ["trajectory", "--input", str(path), "--t-max", repr(t_max), "--steps", str(steps), "--output", str(out)]
    return [Command(argv, f"trajectory n={n}", steps, check, out)]


WORKLOADS = {
    "large-report": large_report,
    "small-batch": small_batch,
    "trajectory-csv": trajectory_csv,
}
