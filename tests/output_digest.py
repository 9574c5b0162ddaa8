"""Digests of the program's output bytes: every benchmark command, and the demos.

    python3 tests/output_digest.py --seed 11

Run from a source checkout; the package is imported from ``src/``.  The
script builds every command that ``perfbench/workloads.py`` makes at full
size for the seed (perfbench is imported, not changed), runs each through
``qucurve.cli.main`` in-process, and prints one sha256 over the exit code,
stdout, stderr and output file of all of them, in order.  It then runs each
script in ``demos/`` in a fresh interpreter and prints one sha256 over their
stdout.  Two trees that print the same digests for a seed wrote the same
bytes.  BLAS is pinned to one thread, since the bytes depend on its kernel.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from qucurve import cli  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def _chunk(digest, data: bytes) -> None:
    """Length-prefixed, so that no two sequences of chunks hash the same bytes."""
    digest.update(len(data).to_bytes(8, "little"))
    digest.update(data)


@contextlib.contextmanager
def _chdir(path):
    """``contextlib.chdir``, which Python 3.10 lacks."""
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def commands_digest(seed: int) -> tuple[int, str]:
    """The number of benchmark commands for ``seed``, and the sha256 of their outputs."""
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp, _chdir(tmp):
        for name in sorted(WORKLOADS):
            # a relative work directory keeps the paths in argv, and so the bytes, the same in every run
            for cmd in WORKLOADS[name](np.random.default_rng(seed), Path(name), SIZES["full"]):
                if cmd.output is not None:
                    cmd.output.unlink(missing_ok=True)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        rc = repr(cli.main(cmd.argv))
                    except Exception as exc:  # a crash is part of the output
                        rc = f"{type(exc).__name__}: {exc}"
                for text in (rc, out.getvalue(), err.getvalue()):
                    _chunk(digest, text.encode())
                _chunk(digest, cmd.output.read_bytes() if cmd.output is not None and cmd.output.is_file() else b"")
                count += 1
    return count, digest.hexdigest()


def demos_digest() -> tuple[int, str]:
    """The number of demo scripts, and the sha256 of their stdout, each run in a fresh interpreter."""
    digest = hashlib.sha256()
    demos = sorted((ROOT / "demos").glob("*.py"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        for demo in demos:
            proc = subprocess.run([sys.executable, str(demo)], cwd=tmp, env=env, capture_output=True, check=True)
            _chunk(digest, proc.stdout)
    return len(demos), digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    count, digest = commands_digest(args.seed)
    print(f"benchmark commands, seed {args.seed}: {count} commands, sha256 {digest}")
    count, digest = demos_digest()
    print(f"demos: {count} scripts, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
