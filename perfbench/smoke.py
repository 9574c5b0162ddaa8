"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  It checks that:

* every workload, in both trace modes, ends its output with a result line
  that names exactly the metrics of BENCHMARK.json, each with its unit, and
  counts no failed command;
* a negative control fails: every report of one input with an altered
  third decimal (only the reference check can catch it), and one repeat of
  another input with an altered last digit (only the byte-identity check
  can catch it), must each be counted as a failed command;
* without the program's sources the benchmark exits nonzero and prints no
  result.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics() -> list[str]:
    errors = []
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            argv = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1"]
            argv += ["--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = _result(proc.stdout)
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{where}: metrics {sorted(set(got) ^ set(expected[trace]))} differ")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                errors.append(f"{where}: {res['failed']}/{res['attempted']} failed: {proc.stderr[-500:]}")
            for name in got:
                if f" {name} " not in proc.stdout:
                    errors.append(f"{where}: {name} not printed by name")
    return errors


def _alter(text: str, key: str, last: bool) -> str:
    """Change one digit of a report value: the third decimal, or the last one."""
    match = re.search(rf'"{key}": (-?\d+\.\d+)', text)
    digits = match.group(1)
    pos = len(digits) - 1 if last else digits.index(".") + 3
    changed = digits[:pos] + str((int(digits[pos]) + 1) % 10) + digits[pos + 1 :]
    return text[: match.start(1)] + changed + text[match.end(1) :]


def check_negative_control() -> list[str]:
    sys.path.insert(0, str(HERE))
    import run

    seen: dict[str, int] = {}

    def corrupting_main(argv):
        from qucurve import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        text = buf.getvalue()
        name = Path(argv[-1]).name
        seen[name] = seen.get(name, 0) + 1
        if name == "ising-n4.json":  # every run alike, so only the reference check can catch it
            text = _alter(text, "kappa_sq_moments", last=False)
        if name == "ising-n3.json" and seen[name] == 3:  # warm-up, checked run, then this repeat
            text = _alter(text, "speed", last=True)
        sys.stdout.write(text)
        return rc

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run.main(
            ["--workload", "large-report", "--seed", "7", "--seconds", "0.2", "--trace", "0", "--tiny"],
            main_override=corrupting_main,
        )
    res = _result(out.getvalue())
    expected = seen["ising-n4.json"] + 1
    if rc != 0 or res["correct"] or res["failed"] != expected or seen["ising-n3.json"] < 3:
        return [f"negative control: expected {expected} counted failures, got {res['failed']} (exit {rc})"]
    return []


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_run" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    argv = [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"]]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    errors = check_metrics() + check_negative_control() + check_bare_directory()
    for error in errors:
        print(f"FAIL {error}")
    print("smoke test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
