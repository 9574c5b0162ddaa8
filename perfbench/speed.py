"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the speed of one core swings by up to 2x over seconds to
minutes, as its neighbours get busy or idle, and no statistic of one run's
command times repeats from run to run.  ``reference_s`` times the same work
every call, independent of qucurve: formatting and hashing Python floats (the
interpreter-bound half) and a complex Hermitian ``eigh`` with a matrix
product (the BLAS/LAPACK half), the two kinds of work the workloads do.
Interleaved with the commands, it tracks the host's speed over a run and
around each command; ``run.py`` divides command times by that speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Mean reference time at which the speed is 1.  It is the typical time of
# ``reference_s`` on the 2-vCPU Xeon host the baseline was measured on; it
# only sets the scale of the scaled metrics.
REFERENCE_S = 0.030

# Share of command time spent on the reference work.
SHARE = 0.1

_FLOATS = [k * 0.3711 for k in range(30_000)]
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((160, 160)) + 1j * _rng.standard_normal((160, 160))
_H = _A + _A.conj().T


def reference_s() -> float:
    """Wall time of one round of the reference work."""
    t0 = perf_counter()
    text = ",".join(repr(x) for x in _FLOATS)
    table = {k: x * x for k, x in enumerate(_FLOATS)}
    w, v = np.linalg.eigh(_H)
    back = (v * w) @ v.conj().T
    wall = perf_counter() - t0
    if len(text) < len(_FLOATS) or len(table) != len(_FLOATS) or not np.allclose(back, _H):
        raise RuntimeError("reference computation gave a wrong result")
    return wall


class Speedometer:
    """Spends a fixed share of command time on the reference work.

    After each command, ``owe(wall)`` runs the reference until its total time
    reaches ``SHARE`` of the command time so far, so samples spread over the
    run in proportion to where the command time went.  Commands of a few
    milliseconds share the samples taken after the last of them.
    """

    def __init__(self):
        self.owed = 0.0
        self.samples: list[float] = []
        self.marks: list[int] = []  # len(samples) after each command's turn
        reference_s()  # warm-up: first-call allocations and BLAS set-up

    def owe(self, command_wall: float) -> None:
        self.owed += SHARE * command_wall
        while self.owed > 0.0:
            t = reference_s()
            self.samples.append(t)
            self.owed -= t
        self.marks.append(len(self.samples))

    def local_slowdowns(self) -> list[float]:
        """Per command, the slowdown of the first reference samples taken after it."""
        if self.marks[-1] == (self.marks[-2] if len(self.marks) > 1 else 0):
            self.samples.append(reference_s())  # so that the last commands have samples after them
            self.marks[-1] = len(self.samples)
        out, after = [], 0.0
        for i in reversed(range(len(self.marks))):
            group = self.samples[self.marks[i - 1] if i else 0 : self.marks[i]]
            if group:
                after = sum(group) / len(group) / REFERENCE_S
            out.append(after)
        return out[::-1]

    def slowdown(self) -> float:
        """Mean reference time over ``REFERENCE_S``: 1 at the reference speed, 2 at half of it."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S
