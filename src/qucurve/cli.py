"""Command-line interface.

    qucurve [--oracle] report --input problem.json
    qucurve trajectory --input problem.json --t-max T --steps N --output out.csv
    qucurve sweep      --input problem.json --param NAME --from A --to B \\
                       --points N --output out.csv
    qucurve validate   [--perturb CASE]

``--steps`` and ``--points`` are at most ``MAX_GRID_POINTS``.  Exit codes are
listed in ``EXIT_CODES``, which ``--help`` prints.  All numeric output is
deterministic: identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import shutil
import sys

import numpy as np

from .config import SpecError, load_problem_spec
from .moments import NumericalError, StationaryStateError
from .reporting import build_report, sweep_row, trajectory_rows
from .validation import PERTURBABLE_CASES, run_validation

__all__ = ["main", "entry_point"]

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DEGENERATE = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended

_EXIT_FOR = {SpecError: EXIT_SCHEMA, StationaryStateError: EXIT_DEGENERATE, NumericalError: EXIT_NUMERICAL}

# Most rows of a trajectory or sweep grid: np.linspace allocates the grid up front.
MAX_GRID_POINTS = 1_000_000

EXIT_CODES = (
    "exit codes: 0 success; 1 validation failures; 2 malformed input or usage (also an --output that "
    "is a directory or cannot be opened or written); 3 degenerate geometry (an eigenstate); 4 numerical "
    "failure (a cross-check or fit missed its tolerance, or an evolved state lost its unit norm); 141 "
    "standard output closed by its reader. The messages of 2 and 4 name the field, flag or quantity."
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built by the first ``main`` call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="qucurve",
        description="Curvature and torsion of quantum state evolution.",
        epilog=EXIT_CODES,
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="also run the finite-difference fits and include them in reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="print a JSON geometry report")
    p_report.add_argument("--input", required=True, metavar="PATH", help="problem JSON file")

    p_traj = sub.add_parser("trajectory", help="write a CSV of the evolved state over time")
    p_traj.add_argument("--input", required=True, metavar="PATH")
    p_traj.add_argument("--t-max", required=True, type=float, dest="t_max")
    p_traj.add_argument("--steps", required=True, type=int)
    p_traj.add_argument("--output", required=True, metavar="PATH")

    p_sweep = sub.add_parser("sweep", help="write a CSV of geometry versus one parameter")
    p_sweep.add_argument("--input", required=True, metavar="PATH")
    p_sweep.add_argument("--param", required=True, help="named coupling or state parameter")
    p_sweep.add_argument("--from", required=True, type=float, dest="start")
    p_sweep.add_argument("--to", required=True, type=float, dest="stop")
    p_sweep.add_argument("--points", required=True, type=int)
    p_sweep.add_argument("--output", required=True, metavar="PATH")

    p_val = sub.add_parser("validate", help="run the built-in validation suite")
    p_val.add_argument(
        "--perturb",
        default=None,
        metavar="CASE",
        help=f"negative control: corrupt one fixture of CASE ({', '.join(PERTURBABLE_CASES)})",
    )
    return parser


def _check_output(path: str) -> None:
    """Reject an --output path that is empty, a directory or in a missing directory, before any work."""
    if not path:  # realpath("") is the working directory, whose temp sibling lies outside it
        raise SpecError("--output", "must be a nonempty path")
    if os.path.isdir(path):
        raise SpecError("--output", f"{path!r} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise SpecError("--output", f"directory {folder!r} does not exist")


def _write_csv(path: str, header: list[str], rows) -> None:
    """Comma-joined lines (no csv quoting is needed).  A regular or absent target is replaced only once every
    row is in a sibling temp file, which a failure removes; a device or pipe is written in place, never removed."""
    target = os.path.realpath(path)
    temp = None if os.path.exists(path) and not os.path.isfile(path) else f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(temp or path, "w", newline="", encoding="utf-8")  # a new file gets 0o666 less the umask
    except OSError as exc:
        raise SpecError("--output", f"cannot open {path!r}: {exc.strerror}") from exc
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(row) + "\n" for row in rows)
        if temp:
            if os.path.exists(target):
                shutil.copymode(target, temp)
            os.replace(temp, target)
    except BaseException as exc:
        if temp:
            with contextlib.suppress(OSError):  # one that cannot be unlinked, as under /proc, stays
                os.remove(temp)
        if isinstance(exc, OSError) and not isinstance(exc, BrokenPipeError):
            raise SpecError("--output", f"cannot write {path!r}: {exc.strerror}") from exc
        raise


def _cmd_report(args) -> int:
    spec = load_problem_spec(args.input)
    hamiltonian, state = spec.build()
    report = build_report(hamiltonian, state, with_oracle=args.oracle, dt_grid=spec.options["dt_grid"])
    print(report.to_json())
    return EXIT_OK


def _cmd_trajectory(args) -> int:
    if not 2 <= args.steps <= MAX_GRID_POINTS:
        raise SpecError("--steps", f"must lie in [2, {MAX_GRID_POINTS}], got {args.steps}")
    if not (math.isfinite(args.t_max) and args.t_max > 0):
        raise SpecError("--t-max", f"must be a positive finite number, got {args.t_max}")
    _check_output(args.output)
    spec = load_problem_spec(args.input)
    hamiltonian, state = spec.build()
    _write_csv(args.output, *trajectory_rows(hamiltonian, state, args.t_max, args.steps))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not 2 <= args.points <= MAX_GRID_POINTS:
        raise SpecError("--points", f"must lie in [2, {MAX_GRID_POINTS}], got {args.points}")
    for flag, value in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(value):
            raise SpecError(flag, f"must be a finite number, got {value}")
    if not math.isfinite(args.stop - args.start):  # else np.linspace fills the grid with NaN
        raise SpecError("--to", f"the span {args.stop} - {args.start} is beyond floating-point range")
    _check_output(args.output)
    spec = load_problem_spec(args.input)
    grid = np.linspace(args.start, args.stop, args.points)
    rows = []
    for value in grid:
        bound = spec.with_parameter(args.param, float(value))
        hamiltonian, state = bound.build()
        rows.append(sweep_row(hamiltonian, state, float(value), spec.options["efficiency_t"]))
    _write_csv(args.output, ["param", "kappa_sq", "tau_sq", "eta", "alpha4", "alpha3_sq"], rows)
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        results = run_validation(perturb=args.perturb)
    except ValueError as exc:
        raise SpecError("--perturb", str(exc)) from exc
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failures += 0 if res.passed else 1
        print(f"{status}  {res.name:28s} residual={res.residual:.3e}  tol={res.tolerance:.0e}")
    print(f"{len(results) - failures}/{len(results)} validation cases passed")
    return EXIT_OK if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the schema-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.oracle and args.command != "report":
            raise SpecError("--oracle", f"applies to report only, not {args.command}")
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "trajectory":
            return _cmd_trajectory(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except (SpecError, StationaryStateError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FOR[type(exc)]


def entry_point():
    """``main`` as a process: a reader that closes stdout early ends it with ``EXIT_BROKEN_PIPE``."""
    try:
        code = main()
        sys.stdout.flush()  # so a closed pipe is met here, not in the flush at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiets the flush at exit
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
