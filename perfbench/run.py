"""Benchmark of the qucurve command line, run in-process on seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload (see ``workloads.py``) as a closed
loop with one client: passes of ``qucurve.cli.main(argv)`` calls, each
command started when the previous one has returned, until ``--seconds`` of
command time have been measured.  Every output is checked (``checks.py``);
a nonzero exit, an exception or a failed check counts as a failed command.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall time of
a fresh interpreter importing ``qucurve.cli``, the start-up every CLI call
pays, sampled between passes) and ``items_per_s_scaled`` (items per second
of command time), both scaled to the host's reference speed (see below), and
``peak_rss_mb``; and, on lines of their own, ``fail_ratio``,
``cmd_p50_s_scaled`` (median command time, scaled) and the unscaled
``setup_s``, ``items_per_s`` and ``cmd_p50_s``.  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics of ``spans.py`` (medians over
traced passes, per pass) with the tracing overhead.  The last line of
standard output is one JSON object with the result.

Commands run in-process because a small-family command takes milliseconds
and would be buried under the ~150 ms of interpreter start-up, which
``setup_s`` measures on its own.  BLAS is pinned to one thread.

The speed of one core of a shared host swings by up to 2x over seconds to
minutes, so plain command times do not repeat from run to run.  Between
commands the runner spends a tenth of the command time on a fixed reference
computation (``speed.py``); the scaled metrics divide command times by the
reference time over ``speed.REFERENCE_S``, averaged over the run or, for the
median command time, taken right after each command.  A change to qucurve
moves them as it moves the plain times; a change of the host's speed does not.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads; the cold-start interpreters inherit it.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from checks import Outcome  # noqa: E402
from speed import Speedometer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "items_per_s_scaled": "1/s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics of one traced pass, with units.  Self times are seconds
# of a layer's own code, excluding the traced calls it makes.
_SELF = (
    "config.load_problem_spec",
    "config.ProblemSpec.build",
    "hilbert.build_operator",
    "evolution.EvolutionProblem",
    "evolution.evolve",
    "moments.central_moments",
    "frame.build_frame",
    "frame.cartan_matrix",
    "frame.geometric",
    "oracles.fit_curvature_coefficient",
    "oracles.fit_torsion_coefficient",
    "models.geodesic_efficiency",
    "models.builders",
    "reporting.build_report",
    "reporting.trajectory_rows",
    "reporting.sweep_row",
    "reporting.format_float",
    "reporting.to_json",
    "cli.main",
    "validation.run_validation",
)
_CALLS = (
    "hilbert.build_operator",
    "evolution.EvolutionProblem",
    "evolution.evolve",
    "moments.central_moments",
    "oracles.fubini_study_sq",
    "reporting.format_float",
)
PER_LAYER = {f"{name}.self_s": "s" for name in _SELF}
PER_LAYER.update({f"{name}.calls": "count" for name in _CALLS})
PER_LAYER.update(
    {
        "hilbert.build_operator.bytes": "B",
        "evolution.state_evals": "count",
        "frame.state_evals_per_sample": "evals/point",
        "oracles.fubini_study_sq.calls_per_fit": "calls/fit",
        "cli.output_bytes": "B",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.self_sum_s": "s",
        "trace.coverage": "ratio",
    }
)


@dataclass
class PassResult:
    wall: float = 0.0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0
    arc_points: int = 0
    walls: list = field(default_factory=list)  # (label, seconds) per command


class Runner:
    """Runs passes of commands through ``qucurve.cli.main`` and checks them."""

    def __init__(self, commands, cli, main=None):
        self.commands = commands
        # cli.main is looked up per call, so a traced pass reaches the instrumented name.
        self.main = main or (lambda argv: cli.main(argv))
        self.seen: dict[tuple, tuple[str, list[str]]] = {}
        self.problems: list[str] = []

    def run_command(self, cmd):
        if cmd.output is not None:
            cmd.output.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(cmd.argv)
        except Exception as exc:  # a crash of the program under test is a counted failure
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        return wall, Outcome(rc, out.getvalue(), error, cmd.output)

    def verdict(self, cmd, outcome) -> list[str]:
        """Problems with one output; identical inputs must give identical bytes."""
        if outcome.error is not None:
            return [f"raised {outcome.error}"]
        if outcome.rc != 0:
            return [f"exit code {outcome.rc}"]
        digest = hashlib.sha256(outcome.stdout.encode())
        if outcome.output is not None:
            if not outcome.output.is_file():
                return ["no output file"]
            digest.update(outcome.output.read_bytes())
        key = tuple(cmd.argv)
        if key in self.seen:
            first, problems = self.seen[key]
            if digest.hexdigest() != first:
                return ["output differs from an earlier run of the same input"]
            return problems
        try:
            problems = cmd.check(outcome)
        except Exception as exc:  # a malformed output that breaks the parser fails the command
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.seen[key] = (digest.hexdigest(), problems)
        return problems

    def run_pass(self, recorder=None, speedometer=None) -> PassResult:
        res = PassResult()
        for k, cmd in enumerate(self.commands):
            if recorder is not None:
                recorder.command_id = k
            wall, outcome = self.run_command(cmd)
            if speedometer is not None:
                speedometer.owe(wall)
            res.wall += wall
            res.walls.append((cmd.label, wall))
            res.attempted += 1
            res.items += cmd.items
            res.arc_points += cmd.arc_points
            res.output_bytes += len(outcome.stdout.encode())
            if outcome.output is not None and outcome.output.is_file():
                res.output_bytes += outcome.output.stat().st_size
            problems = self.verdict(cmd, outcome)
            if problems:
                res.failed += 1
                self.problems.append(f"{cmd.label} ({' '.join(cmd.argv)}): {problems[:3]}")
        return res


def cold_start(timeout=None) -> float:
    """Wall time of a fresh interpreter importing qucurve.cli.

    Without a timeout Popen.wait blocks; with one it polls with sleeps of up
    to 50 ms, which would quantize the measured time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import qucurve.cli"], env=env, check=True, timeout=timeout)
    return perf_counter() - t0


def layer_metrics(recorder, res: PassResult) -> dict[str, float]:
    agg = spans.aggregate(recorder)
    out = {f"{name}.self_s": agg.get(name, {}).get("self_s", 0.0) for name in _SELF}
    out.update({f"{name}.calls": agg.get(name, {}).get("calls", 0) for name in _CALLS})
    evals = agg["evolution.state_evals"]["calls"]
    fits = agg.get("oracles.fit_curvature_coefficient", {}).get("calls", 0)
    self_sum = sum(v.get("self_s", 0.0) for v in agg.values())
    out.update(
        {
            "hilbert.build_operator.bytes": recorder.totals.get("hilbert.build_operator", 0.0),
            "evolution.state_evals": evals,
            "frame.state_evals_per_sample": evals / res.arc_points if res.arc_points else 0.0,
            "oracles.fubini_study_sq.calls_per_fit": out["oracles.fubini_study_sq.calls"] / fits if fits else 0.0,
            "cli.output_bytes": res.output_bytes,
            "trace.wall_s": res.wall,
            "trace.self_sum_s": self_sum,
            "trace.coverage": self_sum / res.wall,
        }
    )
    return out


def layer_rows(recorder, commands) -> tuple[dict, dict]:
    """Self seconds per module layer, and per command label."""
    layers: dict[str, float] = {}
    for name, v in spans.aggregate(recorder).items():
        if "self_s" in v:
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + v["self_s"]
    by_label: dict[str, list[int]] = {}
    for k, cmd in enumerate(commands):
        by_label.setdefault(cmd.label, []).append(k)
    rows = {}
    for label, ids in by_label.items():
        agg = spans.aggregate(recorder, ids)
        rows[label] = {name: round(v["self_s"], 6) for name, v in agg.items() if v.get("self_s", 0.0) > 0.0}
    return layers, rows


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "blas_pin": BLAS_PIN,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None, main_override=None) -> int:
    if not (SRC / "qucurve" / "cli.py").is_file():
        print(f"error: no qucurve sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from qucurve import cli
    from workloads import SIZES, WORKLOADS

    args = parse_args(argv)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        commands = WORKLOADS[args.workload](
            np.random.default_rng(args.seed), workdir, SIZES["tiny" if args.tiny else "full"]
        )
        runner = Runner(commands, cli, main_override)
        env = environment(args)
        if args.trace:
            result, metrics, units = traced_run(runner, args, env)
        else:
            result, metrics, units = untraced_run(runner, args, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in runner.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} commands, {result['failed']} failed")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    if "cmd_samples" in env:
        print(f"  {'cmd_p50_s_scaled':40s} {env['cmd_p50_s_scaled']:.6g} s ({env['cmd_samples']} commands)")
        print("  measured, not scaled:")
        print(f"  {'setup_s':40s} {env['setup_s']:.6g} s ({SETUP_REPEATS} cold starts)")
        print(f"  {'items_per_s':40s} {env['items_per_s']:.6g} 1/s ({env['passes']} passes)")
        print(f"  {'cmd_p50_s':40s} {env['cmd_p50_s']:.6g} s ({env['cmd_samples']} commands)")
        print(f"  {'slowdown':40s} {env['slowdown']:.6g} ({env['reference_samples']} reference samples)")
    print("env " + json.dumps(env))
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps(result))
    return 0


def _outcome(passes) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def untraced_run(runner: Runner, args, env):
    runner.run_command(runner.commands[0])  # warm-up, not counted
    cold_start(timeout=120)  # warms the file cache; a hang stops the run here
    passes, setup_times = [], []
    speedometer = Speedometer()
    while sum(p.wall for p in passes) < args.seconds or not passes:
        passes.append(runner.run_pass(speedometer=speedometer))
        # Cold starts go between passes, spread over the run, so that
        # setup_s sees the same drift of the machine's speed as the passes.
        due = min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * sum(p.wall for p in passes) / args.seconds))
        setup_times += [cold_start() for _ in range(due - len(setup_times))]
    setup_times += [cold_start() for _ in range(SETUP_REPEATS - len(setup_times))]
    walls = [w for p in passes for _, w in p.walls]
    items_per_s = sum(p.items for p in passes) / sum(p.wall for p in passes)
    # Totals over the run scale by the run's mean slowdown; the median picks
    # single commands, so each command is scaled by the slowdown right after it.
    slowdown = speedometer.slowdown()
    scaled_walls = [w / s for w, s in zip(walls, speedometer.local_slowdowns(), strict=True)]
    metrics = {
        "setup_s": statistics.median(setup_times) / slowdown,
        "items_per_s_scaled": items_per_s * slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = _outcome(passes)
    by_label: dict[str, list[float]] = {}
    for p in passes:
        for label, w in p.walls:
            by_label.setdefault(label, []).append(w)
    env.update(
        {
            "cmd_p50_s_scaled": statistics.median(scaled_walls),
            "setup_s": statistics.median(setup_times),
            "items_per_s": items_per_s,
            "cmd_p50_s": statistics.median(walls),
            "slowdown": slowdown,
            "reference_samples": len(speedometer.samples),
            "passes": len(passes),
            "cmd_samples": len(walls),
            "median_wall_s_by_command": {k: statistics.median(v) for k, v in by_label.items()},
        }
    )
    return result, metrics, END_TO_END


def traced_run(runner: Runner, args, env):
    runner.run_command(runner.commands[0])  # warm-up, not counted
    plain, traced, per_pass = [], [], []
    while sum(p.wall for p in plain + traced) < args.seconds or not traced:
        plain.append(runner.run_pass())
        recorder = spans.SpanRecorder()
        with spans.instrument(recorder):
            traced.append(runner.run_pass(recorder))
        per_pass.append(layer_metrics(recorder, traced[-1]))
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER if name in per_pass[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(p.wall for p in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics = {name: metrics[name] for name in PER_LAYER}
    WORK.mkdir(parents=True, exist_ok=True)
    span_file = WORK / f"spans-{args.workload}.npz"
    recorder.save(span_file)
    layers, rows = layer_rows(recorder, runner.commands)
    env.update(
        {
            "traced_passes": len(traced),
            "spans_in_last_pass": len(recorder.start),
            "span_file": str(span_file.relative_to(ROOT)),
            "self_s_by_layer_last_pass": {k: round(v, 6) for k, v in sorted(layers.items(), key=lambda kv: -kv[1])},
            "self_s_by_command_last_pass": rows,
        }
    )
    return _outcome(plain + traced), metrics, PER_LAYER


if __name__ == "__main__":
    sys.exit(main())
