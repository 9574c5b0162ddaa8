"""Problem descriptions as JSON documents.

A problem file pairs one Hamiltonian with one initial state, plus optional
numeric options:

{
  "hamiltonian": {"pauli_terms": [{"coeff": 1.0, "word": "XZ"},
                                  {"coeff": 1.0, "word": "ZX"}]},
  "state": {"named": "00"},
  "options": {"gamma": 2.0, "s_samples": 10}
}

Hamiltonian forms (exactly one):
  pauli_terms -- list of {coeff, word} over I/X/Y/Z, words of equal length
                 and at most MAX_QUBITS (20) letters
  dense       -- row-major matrix of [re, im] pairs
  family      -- {"family": name, "couplings": {...}} for the built-in model
                 families; required by parameter sweeps, which rebind a named
                 coupling.

State forms (exactly one):
  amplitudes  -- list of [re, im] pairs (unit norm)
  named       -- "bloch:theta,phi", "xi:xi,phi", "bell:phi+|phi-|psi+|psi-",
                 "ghz", "w", or a computational basis string like "010"
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .hilbert import MAX_QUBITS, HermitianOperator, PauliTerm, StateVector, build_operator

__all__ = ["SpecError", "ProblemSpec", "load_problem_spec", "parse_problem_spec"]


class SpecError(ValueError):
    """A problem file failed validation; the message points at the field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


_FAMILY_COUPLINGS = {
    "single_qubit": ("mx", "my", "mz", "m0"),
    "two_qubit_nonlocal": ("m1", "m2", "m3", "m4"),
    "two_qubit_local": ("m1", "m2", "m3", "m4"),
    "heisenberg3": ("Jx", "Jy", "Jz", "h"),
}

_DEFAULT_OPTIONS = {
    "gamma": 2.0,
    "dt_grid": None,  # None -> {1, 2, 4} * 1e-3 / v, chosen per problem
    "s_samples": 10,
    "efficiency_t": 1.0,
}


@dataclass
class ProblemSpec:
    """Validated problem description; ``build()`` materializes the pieces."""

    hamiltonian_form: str  # "pauli_terms" | "dense" | "family"
    hamiltonian_data: dict | list
    state_form: str  # "amplitudes" | "named"
    state_data: object
    options: dict = field(default_factory=dict)

    def build(self) -> tuple[HermitianOperator, StateVector]:
        op = _build_hamiltonian(self.hamiltonian_form, self.hamiltonian_data)
        state = _build_state(self.state_form, self.state_data, op.dim)
        if state.dim != op.dim:
            raise SpecError(
                "state", f"state dimension {state.dim} does not match hamiltonian dimension {op.dim}"
            )
        return op, state

    def with_parameter(self, name: str, value: float) -> "ProblemSpec":
        """Copy of this description with one named parameter rebound.

        Parameters live either in the Hamiltonian family couplings or in the
        named-state arguments (xi, theta, phi).
        """
        if self.hamiltonian_form == "family" and name in self.hamiltonian_data["couplings"]:
            data = {
                "family": self.hamiltonian_data["family"],
                "couplings": {**self.hamiltonian_data["couplings"], name: float(value)},
            }
            return ProblemSpec(self.hamiltonian_form, data, self.state_form, self.state_data, dict(self.options))
        if self.state_form == "named":
            kind, args = _split_named_state(str(self.state_data))
            slots = {"bloch": ("theta", "phi"), "xi": ("xi", "phi")}.get(kind)
            if slots and name in slots:
                args = list(args)
                args[slots.index(name)] = float(value)
                data = f"{kind}:{','.join(repr(a) for a in args)}"
                return ProblemSpec(
                    self.hamiltonian_form, self.hamiltonian_data, self.state_form, data, dict(self.options)
                )
        raise SpecError("param", f"unknown parameter {name!r} for this problem")


def load_problem_spec(path: str) -> ProblemSpec:
    """Read and validate a problem description from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError("(file)", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError("(file)", f"invalid JSON in {path}: {exc}") from exc
    return parse_problem_spec(doc)


def parse_problem_spec(doc) -> ProblemSpec:
    """Validate a decoded JSON document into a ProblemSpec."""
    if not isinstance(doc, dict):
        raise SpecError("(root)", "document must be a JSON object")
    unknown = set(doc) - {"hamiltonian", "state", "options"}
    if unknown:
        raise SpecError("(root)", f"unknown keys {sorted(unknown)}")

    ham = doc.get("hamiltonian")
    if not isinstance(ham, dict):
        raise SpecError("hamiltonian", "required object with one of pauli_terms|dense|family")
    forms = [k for k in ("pauli_terms", "dense", "family") if k in ham]
    if len(forms) != 1:
        raise SpecError("hamiltonian", f"exactly one of pauli_terms|dense|family required, got {forms}")
    ham_form = forms[0]
    ham_data = _validate_hamiltonian(ham_form, ham)

    state = doc.get("state")
    if not isinstance(state, dict):
        raise SpecError("state", "required object with one of amplitudes|named")
    sforms = [k for k in ("amplitudes", "named") if k in state]
    if len(sforms) != 1:
        raise SpecError("state", f"exactly one of amplitudes|named required, got {sforms}")
    state_form = sforms[0]
    state_data = _validate_state(state_form, state)

    options = dict(_DEFAULT_OPTIONS)
    raw_opts = doc.get("options", {})
    if not isinstance(raw_opts, dict):
        raise SpecError("options", "must be an object")
    unknown = set(raw_opts) - set(_DEFAULT_OPTIONS)
    if unknown:
        raise SpecError("options", f"unknown keys {sorted(unknown)}")
    options.update(raw_opts)
    _validate_options(options)

    return ProblemSpec(ham_form, ham_data, state_form, state_data, options)


def _is_number(x) -> bool:
    """A finite JSON number; ``json.load`` also accepts NaN and Infinity."""
    return isinstance(x, (int, float)) and math.isfinite(x)


def _validate_options(options: dict):
    if not (_is_number(options["gamma"]) and options["gamma"] > 0):
        raise SpecError("options.gamma", f"must be a positive number, got {options['gamma']!r}")
    if not (isinstance(options["s_samples"], int) and options["s_samples"] >= 2):
        raise SpecError("options.s_samples", f"must be an integer >= 2, got {options['s_samples']!r}")
    if not (_is_number(options["efficiency_t"]) and options["efficiency_t"] > 0):
        raise SpecError("options.efficiency_t", f"must be a positive number, got {options['efficiency_t']!r}")
    grid = options["dt_grid"]
    if grid is not None:
        if (
            not isinstance(grid, list)
            or len(grid) < 2
            or not all(_is_number(x) and x > 0 for x in grid)
        ):
            raise SpecError("options.dt_grid", "must be a list of >= 2 positive numbers")


def _validate_hamiltonian(form: str, ham: dict):
    allowed = {form} | ({"couplings"} if form == "family" else set())
    extra = set(ham) - allowed
    if extra:
        raise SpecError("hamiltonian", f"unknown keys {sorted(extra)}")
    if form == "pauli_terms":
        terms = ham["pauli_terms"]
        if not isinstance(terms, list) or not terms:
            raise SpecError("hamiltonian.pauli_terms", "must be a nonempty list")
        for k, entry in enumerate(terms):
            if not isinstance(entry, dict) or set(entry) != {"coeff", "word"}:
                raise SpecError(f"hamiltonian.pauli_terms[{k}]", "must be an object with coeff and word")
            if not _is_number(entry["coeff"]):
                raise SpecError(f"hamiltonian.pauli_terms[{k}].coeff", "must be a finite number")
            word = entry["word"]
            if not isinstance(word, str) or not word or any(c not in "IXYZ" for c in word):
                raise SpecError(f"hamiltonian.pauli_terms[{k}].word", f"must be a string over I,X,Y,Z, got {word!r}")
            if len(word) > MAX_QUBITS:
                raise SpecError(f"hamiltonian.pauli_terms[{k}].word", f"has {len(word)} letters, more than {MAX_QUBITS}")
            if len(word) != len(terms[0]["word"]):
                raise SpecError(f"hamiltonian.pauli_terms[{k}].word", "all words must have equal length")
        return terms
    if form == "dense":
        rows = ham["dense"]
        if not isinstance(rows, list) or not rows:
            raise SpecError("hamiltonian.dense", "must be a nonempty list of rows")
        n = len(rows)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise SpecError(f"hamiltonian.dense[{i}]", f"must be a row of {n} entries")
            for j, cell in enumerate(row):
                if not (isinstance(cell, list) and len(cell) == 2 and all(_is_number(x) for x in cell)):
                    raise SpecError(f"hamiltonian.dense[{i}][{j}]", "must be an [re, im] pair of finite numbers")
        return rows
    # family
    fam = ham["family"]
    if fam not in _FAMILY_COUPLINGS:
        raise SpecError("hamiltonian.family", f"unknown family {fam!r}; expected one of {sorted(_FAMILY_COUPLINGS)}")
    couplings = ham.get("couplings")
    if not isinstance(couplings, dict):
        raise SpecError("hamiltonian.couplings", "required object of named couplings")
    expected = _FAMILY_COUPLINGS[fam]
    unknown = set(couplings) - set(expected)
    if unknown:
        raise SpecError("hamiltonian.couplings", f"unknown couplings {sorted(unknown)} for family {fam!r}")
    for key in expected:
        val = couplings.get(key, 0.0)
        if not _is_number(val):
            raise SpecError(f"hamiltonian.couplings.{key}", "must be a finite number")
    return {"family": fam, "couplings": {k: float(couplings.get(k, 0.0)) for k in expected}}


def _validate_state(form: str, state: dict):
    extra = set(state) - {form}
    if extra:
        raise SpecError("state", f"unknown keys {sorted(extra)}")
    if form == "amplitudes":
        amps = state["amplitudes"]
        if not isinstance(amps, list) or len(amps) < 2:
            raise SpecError("state.amplitudes", "must be a list of >= 2 [re, im] pairs")
        for k, cell in enumerate(amps):
            if not (isinstance(cell, list) and len(cell) == 2 and all(_is_number(x) for x in cell)):
                raise SpecError(f"state.amplitudes[{k}]", "must be an [re, im] pair of finite numbers")
        return amps
    named = state["named"]
    if not isinstance(named, str) or not named:
        raise SpecError("state.named", "must be a nonempty string")
    _split_named_state(named)  # validates
    return named


def _split_named_state(named: str):
    """Return (kind, args) for a named-state string; raise SpecError if malformed."""
    if named in ("ghz", "w"):
        return named, ()
    if set(named) <= {"0", "1"} and named:
        return "basis", (named,)
    if ":" not in named:
        raise SpecError("state.named", f"unrecognized named state {named!r}")
    kind, _, argstr = named.partition(":")
    if kind == "bell":
        label = argstr.strip()
        try:
            models.bell_state(label)
        except ValueError as exc:
            raise SpecError("state.named", str(exc)) from exc
        return "bell", (label,)
    if kind in ("bloch", "xi"):
        parts = [p.strip() for p in argstr.split(",")]
        if len(parts) != 2:
            raise SpecError("state.named", f"{kind} takes two comma-separated numbers, got {argstr!r}")
        try:
            args = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise SpecError("state.named", f"non-numeric argument in {named!r}") from exc
        if not all(math.isfinite(a) for a in args):
            raise SpecError("state.named", f"non-finite argument in {named!r}")
        if kind == "xi" and not 0.0 <= args[0] <= 1.0:
            raise SpecError("state.named", f"xi must lie in [0, 1], got {args[0]}")
        return kind, args
    raise SpecError("state.named", f"unrecognized named state {named!r}")


def _build_hamiltonian(form: str, data) -> HermitianOperator:
    if form == "pauli_terms":
        terms = [PauliTerm(float(t["coeff"]), t["word"]) for t in data]
        return build_operator(terms, len(terms[0].word))
    if form == "dense":
        n = len(data)
        mat = np.empty((n, n), dtype=complex)
        for i, row in enumerate(data):
            for j, (re, im) in enumerate(row):
                mat[i, j] = complex(re, im)
        try:
            return HermitianOperator(mat)
        except ValueError as exc:
            raise SpecError("hamiltonian.dense", str(exc)) from exc
    fam, coup = data["family"], data["couplings"]
    if fam == "single_qubit":
        return models.single_qubit([coup["mx"], coup["my"], coup["mz"]], coup["m0"])
    if fam == "two_qubit_nonlocal":
        return models.two_qubit_nonlocal(coup["m1"], coup["m2"], coup["m3"], coup["m4"])
    if fam == "two_qubit_local":
        return models.two_qubit_local(coup["m1"], coup["m2"], coup["m3"], coup["m4"])
    return models.heisenberg3(coup["Jx"], coup["Jy"], coup["Jz"], coup["h"])


def _build_state(form: str, data, dim: int) -> StateVector:
    if form == "amplitudes":
        amps = np.array([complex(re, im) for re, im in data])
        try:
            return StateVector(amps)
        except ValueError as exc:
            raise SpecError("state.amplitudes", str(exc)) from exc
    kind, args = _split_named_state(str(data))
    if kind == "ghz":
        return models.ghz_state()
    if kind == "w":
        return models.w_state()
    if kind == "basis":
        word = args[0]
        if 2 ** len(word) != dim:
            raise SpecError("state.named", f"basis string {word!r} implies dimension {2**len(word)}, hamiltonian has {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[int(word, 2)] = 1.0
        return StateVector(amps)
    if kind == "bell":
        return models.bell_state(args[0])
    if kind == "bloch":
        theta, phi = args
        return StateVector([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    # xi
    return models.xi_state(args[0], args[1])
