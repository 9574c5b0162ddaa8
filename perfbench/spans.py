"""Spans around qucurve's public functions, recorded from outside the package.

``instrument`` replaces each target function with a timing wrapper wherever
a qucurve module holds a reference to it (the defining module and every
module that imported the name), and each target method on its class.  The
wrappers append one span per call to a ``SpanRecorder``: name, start, end,
parent span and command id, kept in flat arrays so that a million calls cost
tens of megabytes.  Self time is a span's duration minus the part covered by
its child spans, so the self times of one command add up to its root span.

Nothing in qucurve changes: the names are restored when ``instrument`` exits.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _operator_bytes(args, kwargs) -> float:
    """Computed size of the dense operator build_operator(terms, n_qubits) returns."""
    n_qubits = args[1] if len(args) > 1 else kwargs["n_qubits"]
    return 16.0 * 4.0**n_qubits


# (module, attribute, span name); "Class.method" patches the class.  Several
# targets may share a span name; they then form one layer entry.
TARGETS = (
    ("qucurve.config", "load_problem_spec", "config.load_problem_spec"),
    ("qucurve.config", "ProblemSpec.build", "config.ProblemSpec.build"),
    ("qucurve.hilbert", "build_operator", "hilbert.build_operator"),
    ("qucurve.evolution", "EvolutionProblem.__init__", "evolution.EvolutionProblem"),
    ("qucurve.evolution", "evolve", "evolution.evolve"),
    ("qucurve.evolution", "state_at_arclength", "evolution.state_at_arclength"),
    ("qucurve.evolution", "tangent", "evolution.tangent"),
    ("qucurve.evolution", "tangent_derivative", "evolution.tangent_derivative"),
    ("qucurve.moments", "central_moments", "moments.central_moments"),
    ("qucurve.frame", "build_frame", "frame.build_frame"),
    ("qucurve.frame", "cartan_matrix", "frame.cartan_matrix"),
    ("qucurve.frame", "curvature_geometric", "frame.geometric"),
    ("qucurve.frame", "torsion_geometric", "frame.geometric"),
    ("qucurve.oracles", "fit_curvature_coefficient", "oracles.fit_curvature_coefficient"),
    ("qucurve.oracles", "fit_torsion_coefficient", "oracles.fit_torsion_coefficient"),
    ("qucurve.oracles", "fubini_study_sq", "oracles.fubini_study_sq"),
    ("qucurve.models", "geodesic_efficiency", "models.geodesic_efficiency"),
    ("qucurve.models", "single_qubit", "models.builders"),
    ("qucurve.models", "two_qubit_nonlocal", "models.builders"),
    ("qucurve.models", "two_qubit_local", "models.builders"),
    ("qucurve.models", "heisenberg3", "models.builders"),
    ("qucurve.reporting", "build_report", "reporting.build_report"),
    ("qucurve.reporting", "trajectory_rows", "reporting.trajectory_rows"),
    ("qucurve.reporting", "sweep_row", "reporting.sweep_row"),
    ("qucurve.reporting", "format_float", "reporting.format_float"),
    ("qucurve.reporting", "GeometryReport.to_json", "reporting.to_json"),
    ("qucurve.validation", "run_validation", "validation.run_validation"),
    ("qucurve.cli", "main", "cli.main"),
)

# Per-call quantities computed from a target's arguments, summed per span name.
WEIGHTS = {"hilbert.build_operator": _operator_bytes}

# Calls into the evolution layer that each produce one evolved state.
STATE_EVALS = ("evolution.state_at_arclength", "evolution.tangent", "evolution.tangent_derivative")


class SpanRecorder:
    """Flat in-memory span store for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.command = array("q")
        self.start = array("d")
        self.end = array("d")
        self.totals: dict[str, float] = {}
        self.command_id = -1
        self._stack = [-1]

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        weigh = WEIGHTS.get(name)
        # Bound methods looked up once: the wrapper runs up to a million
        # times per pass, and its cost is the tracing overhead.
        add_name, add_parent, add_command = self.name_id.append, self.parent.append, self.command.append
        starts, ends, stack = self.start, self.end, self._stack
        add_start, add_end, push, pop = starts.append, ends.append, stack.append, stack.pop
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_command(self.command_id)
            add_start(0.0)
            add_end(0.0)
            if weigh is not None:
                self.totals[name] = self.totals.get(name, 0.0) + weigh(args, kwargs)
            push(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "command": np.array(self.command, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (times relative to the first span)."""
        data = self.arrays()
        origin = data["start"].min() if data["start"].size else 0.0
        data["start"] = data["start"] - origin
        data["end"] = data["end"] - origin
        np.savez(path, **data)


@contextmanager
def instrument(recorder: SpanRecorder):
    """Route every qucurve reference to a target through the recorder."""
    modules = [m for name, m in sys.modules.items() if name == "qucurve" or name.startswith("qucurve.")]
    undo = []
    try:
        for module_name, attr, span in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                if cls is None or method not in vars(cls):
                    continue  # target gone from this version: it reports zero calls
                original = vars(cls)[method]
                setattr(cls, method, recorder.wrap(span, original))
                undo.append((cls, method, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = recorder.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        undo.append((module, key, original))
        yield recorder
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def self_times(data: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time: duration minus the summed duration of its children."""
    duration = data["end"] - data["start"]
    child = data["parent"] >= 0
    covered = np.bincount(data["parent"][child], weights=duration[child], minlength=duration.size)
    return duration - covered


def aggregate(recorder: SpanRecorder, mask_commands=None) -> dict[str, dict[str, float]]:
    """Calls and self seconds per span name, optionally for some command ids only."""
    data = recorder.arrays()
    own = self_times(data)
    keep = np.ones(own.size, dtype=bool)
    if mask_commands is not None:
        keep = np.isin(data["command"], list(mask_commands))
    n_names = len(recorder.names)
    calls = np.bincount(data["name_id"][keep], minlength=n_names)
    seconds = np.bincount(data["name_id"][keep], weights=own[keep], minlength=n_names)
    out = {name: {"calls": int(calls[i]), "self_s": float(seconds[i])} for i, name in enumerate(recorder.names)}
    evals = [recorder._ids[n] for n in STATE_EVALS if n in recorder._ids]
    is_eval = np.isin(data["name_id"], evals)
    nested = np.zeros_like(is_eval)
    has_parent = data["parent"] >= 0
    nested[has_parent] = is_eval[data["parent"][has_parent]]
    out["evolution.state_evals"] = {"calls": int(np.count_nonzero(is_eval & ~nested & keep))}
    return out
