"""Problem descriptions as JSON documents.

A problem file pairs one Hamiltonian with one initial state, plus optional
numeric options:

{
  "hamiltonian": {"pauli_terms": [{"coeff": 1.0, "word": "XZ"},
                                  {"coeff": 1.0, "word": "ZX"}]},
  "state": {"named": "00"},
  "options": {"dt_grid": [0.001, 0.002, 0.004], "efficiency_t": 1.0}
}

Hamiltonian forms (exactly one):
  pauli_terms -- list of {coeff, word} over I/X/Y/Z, words of equal length
                 and at most MAX_QUBITS (20) letters
  dense       -- row-major matrix of [re, im] pairs, at most MAX_DENSE_DIM
                 (2048) rows
  family      -- {"family": name, "couplings": {...}} for the built-in model
                 families; required by parameter sweeps, which rebind a named
                 coupling.

State forms (exactly one):
  amplitudes  -- list of [re, im] pairs (unit norm), at most 2**MAX_QUBITS
  named       -- "bloch:theta,phi", "xi:xi,phi", "bell:phi+|phi-|psi+|psi-",
                 "ghz", "w", or a computational basis string like "010" of
                 at most MAX_QUBITS letters

Numbers must be finite JSON numbers, not booleans.  ``parse_problem_spec``
is the only pass over a document, and it builds psi0 once, checking its unit
norm; ``ProblemSpec.build`` then builds H and checks what needs it:
Hermiticity and matching dimensions.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import models
from .hilbert import MAX_QUBITS, HermitianOperator, _check_coefficient, _pauli_sum, _unit_state

__all__ = ["MAX_DENSE_DIM", "SpecError", "ProblemSpec", "load_problem_spec", "parse_problem_spec"]

# Largest dense Hamiltonian: a d x d complex matrix of 64 MiB.
MAX_DENSE_DIM = 2048


class SpecError(ValueError):
    """A problem file failed validation; the message points at the field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


# Each named state's builder and the arguments a sweep may rebind; a kind with
# such arguments is written "kind:a,b", two numbers.
_NAMED = {
    "bloch": (models._bloch_angle_state, ("theta", "phi")),
    "xi": (models.xi_state, ("xi", "phi")),
    "bell": (models.bell_state, ()),
    "ghz": (models.ghz_state, ()),
    "w": (models.w_state, ()),
    "basis": (models._basis_state, ()),
}

_DEFAULT_OPTIONS = {
    "dt_grid": None,  # None -> {1, 2, 4} * 1e-3 / v, chosen per problem
    "efficiency_t": 1.0,
}


@dataclass
class ProblemSpec:
    """Problem description as ``load_problem_spec`` checked it; ``build()`` trusts its Pauli pairs and couplings."""

    hamiltonian_form: str  # "pauli_terms" | "dense" | "family"
    hamiltonian_data: object  # [(coeff, word)] | complex (d, d) array | {"family": name, "couplings": {...}}
    state: np.ndarray  # psi0: read-only complex (d,) amplitudes of unit norm
    named: tuple | None  # (kind, args) of a named state, None for amplitudes
    options: dict = field(default_factory=dict)

    def build(self) -> tuple[HermitianOperator, np.ndarray]:
        """H and the amplitudes of psi0, which are ``state`` itself, not a copy."""
        data = self.hamiltonian_data
        if self.hamiltonian_form == "pauli_terms":
            op = _pauli_sum(data)
        elif self.hamiltonian_form == "dense":
            try:
                op = HermitianOperator(data)
            except ValueError as exc:
                raise SpecError("hamiltonian.dense", str(exc)) from exc
        else:
            fam = data["family"]
            op = models._family_operator(fam, [data["couplings"][k] for k in models._FAMILY_WORDS[fam]])
        d = len(self.state)
        if self.named and self.named[0] == "basis" and d != op.dim:
            word = self.named[1][0]
            raise SpecError("state.named", f"basis string {word!r} implies dimension {d}, hamiltonian has {op.dim}")
        if d != op.dim:
            raise SpecError("state", f"state dimension {d} does not match hamiltonian dimension {op.dim}")
        return op, self.state

    def with_parameter(self, name: str, value: float) -> "ProblemSpec":
        """Copy with one parameter rebound: a family coupling, checked here, or an argument its ``_NAMED`` row lists."""
        ham, state, named = self.hamiltonian_data, self.state, self.named
        names = _NAMED[named[0]][1] if named else ()
        if self.hamiltonian_form == "family" and name in ham["couplings"]:
            ham = {"family": ham["family"], "couplings": {**ham["couplings"], name: _check_coefficient(value)}}
        elif name in names:
            named = named[0], tuple(float(value) if n == name else a for n, a in zip(names, named[1]))
            state = _named_state(*named)
        else:
            raise SpecError("param", f"unknown parameter {name!r} for this problem")
        return ProblemSpec(self.hamiltonian_form, ham, state, named, dict(self.options))


def load_problem_spec(path: str) -> ProblemSpec:
    """Read and validate a problem description from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError("(file)", f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a huge integer, deep nesting
        raise SpecError("(file)", f"invalid JSON in {path}: {exc}") from exc
    return parse_problem_spec(doc)


def parse_problem_spec(doc) -> ProblemSpec:
    """Validate a decoded JSON document into a ProblemSpec."""
    if not isinstance(doc, dict):
        raise SpecError("(root)", "document must be a JSON object")
    unknown = set(doc) - {"hamiltonian", "state", "options"}
    if unknown:
        raise SpecError("(root)", f"unknown keys {sorted(unknown)}")
    ham_form, ham = _section(doc, "hamiltonian", ("pauli_terms", "dense", "family"))
    ham_data = _parse_hamiltonian(ham_form, ham)
    state_form, state = _section(doc, "state", ("amplitudes", "named"))
    psi0, named = _parse_state(state_form, state[state_form])
    return ProblemSpec(ham_form, ham_data, psi0, named, _parse_options(doc.get("options", {})))


def _is_number(x) -> bool:
    """A finite JSON number; ``json.load`` also gives booleans, NaN, Infinity and huge ints."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _section(doc: dict, name: str, forms: tuple[str, ...]) -> tuple[str, dict]:
    """The one form present in ``doc[name]``; a family comes with its couplings."""
    part = doc.get(name)
    alternatives = "|".join(forms)
    if not isinstance(part, dict):
        raise SpecError(name, f"required object with one of {alternatives}")
    present = [k for k in forms if k in part]
    if len(present) != 1:
        raise SpecError(name, f"exactly one of {alternatives} required, got {present}")
    form = present[0]
    extra = set(part) - ({form, "couplings"} if form == "family" else {form})
    if extra:
        raise SpecError(name, f"unknown keys {sorted(extra)}")
    return form, part


def _parse_options(raw) -> dict:
    if not isinstance(raw, dict):
        raise SpecError("options", "must be an object")
    unknown = set(raw) - set(_DEFAULT_OPTIONS)
    if unknown:
        raise SpecError("options", f"unknown keys {sorted(unknown)}")
    options = {**_DEFAULT_OPTIONS, **raw}
    if not (_is_number(options["efficiency_t"]) and options["efficiency_t"] > 0):
        raise SpecError("options.efficiency_t", f"must be a positive number, got {options['efficiency_t']!r}")
    grid = options["dt_grid"]
    if grid is not None and not (
        isinstance(grid, list) and all(_is_number(x) and x > 0 for x in grid) and len(set(map(float, grid))) >= 2
    ):
        raise SpecError("options.dt_grid", "must be a list of positive numbers with >= 2 distinct values")
    return options


def _complex_pairs(cells: list, pointer: str) -> np.ndarray:
    """Complex vector of [re, im] pairs, bit-exact (signed zeros too); a failure names the first bad pair."""
    valid = all(issubclass(t, list) for t in set(map(type, cells))) and set(map(len, cells)) == {2}
    flat = list(chain.from_iterable(cells)) if valid else []
    valid = valid and all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, flat)))
    try:
        pairs = np.array(flat if valid else [], dtype=float)
        valid = valid and bool(np.isfinite(pairs).all())
    except OverflowError:  # an integer beyond float range
        valid = False
    if not valid:
        k = next(
            k for k, c in enumerate(cells) if not (isinstance(c, list) and len(c) == 2 and all(map(_is_number, c)))
        )
        raise SpecError(f"{pointer}[{k}]", "must be an [re, im] pair of finite numbers")
    return pairs.view(complex)


def _parse_hamiltonian(form: str, ham: dict):
    if form == "pauli_terms":
        terms = ham["pauli_terms"]
        if not isinstance(terms, list) or not terms:
            raise SpecError("hamiltonian.pauli_terms", "must be a nonempty list")
        parsed = []
        for k, entry in enumerate(terms):
            at = f"hamiltonian.pauli_terms[{k}]"
            if not isinstance(entry, dict) or set(entry) != {"coeff", "word"}:
                raise SpecError(at, "must be an object with coeff and word")
            coeff, word = entry["coeff"], entry["word"]
            if not _is_number(coeff):
                raise SpecError(f"{at}.coeff", "must be a finite number")
            if not isinstance(word, str) or not word or not set(word) <= {"I", "X", "Y", "Z"}:
                raise SpecError(f"{at}.word", f"must be a string over I,X,Y,Z, got {word!r}")
            if len(word) > MAX_QUBITS:
                raise SpecError(f"{at}.word", f"has {len(word)} letters, more than {MAX_QUBITS}")
            if parsed and len(word) != len(parsed[0][1]):
                raise SpecError(f"{at}.word", "all words must have equal length")
            parsed.append((float(coeff), word))
        return parsed
    if form == "dense":
        rows = ham["dense"]
        if not isinstance(rows, list) or not rows:
            raise SpecError("hamiltonian.dense", "must be a nonempty list of rows")
        n = len(rows)
        if n > MAX_DENSE_DIM:
            raise SpecError("hamiltonian.dense", f"has {n} rows, more than {MAX_DENSE_DIM}")
        matrix = np.empty((n, n), dtype=complex)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise SpecError(f"hamiltonian.dense[{i}]", f"must be a row of {n} entries")
            matrix[i] = _complex_pairs(row, f"hamiltonian.dense[{i}]")
        return matrix
    fam = ham["family"]
    if not isinstance(fam, str) or fam not in models._FAMILY_WORDS:
        raise SpecError("hamiltonian.family", f"unknown family {fam!r}; expected one of {sorted(models._FAMILY_WORDS)}")
    couplings = ham.get("couplings")
    if not isinstance(couplings, dict):
        raise SpecError("hamiltonian.couplings", "required object of named couplings")
    expected = models._FAMILY_WORDS[fam]
    unknown = set(couplings) - set(expected)
    if unknown:
        raise SpecError("hamiltonian.couplings", f"unknown couplings {sorted(unknown)} for family {fam!r}")
    for key in expected:
        if not _is_number(couplings.get(key, 0.0)):
            raise SpecError(f"hamiltonian.couplings.{key}", "must be a finite number")
    return {"family": fam, "couplings": {k: float(couplings.get(k, 0.0)) for k in expected}}


def _parse_state(form: str, data):
    if form == "amplitudes":
        if not isinstance(data, list) or len(data) < 2:
            raise SpecError("state.amplitudes", "must be a list of >= 2 [re, im] pairs")
        if len(data) > 2**MAX_QUBITS:
            raise SpecError("state.amplitudes", f"has {len(data)} entries, more than {2**MAX_QUBITS}")
        amps = _complex_pairs(data, "state.amplitudes")
        amps.setflags(write=False)  # so psi0 is this array, its one copy
        try:
            return _unit_state(amps), None
        except ValueError as exc:
            raise SpecError("state.amplitudes", str(exc)) from exc
    if not isinstance(data, str) or not data:
        raise SpecError("state.named", "must be a nonempty string")
    kind, colon, argstr = data.partition(":")
    if data in ("ghz", "w"):
        args = ()
    elif set(data) <= {"0", "1"}:
        if len(data) > MAX_QUBITS:
            raise SpecError("state.named", f"basis string has {len(data)} letters, more than {MAX_QUBITS}")
        kind, args = "basis", (data,)
    elif colon and kind == "bell":
        args = (argstr.strip(),)
    elif colon and kind in _NAMED and _NAMED[kind][1]:
        parts = [p.strip() for p in argstr.split(",")]
        if len(parts) != 2:
            raise SpecError("state.named", f"{kind} takes two comma-separated numbers, got {argstr!r}")
        try:
            args = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise SpecError("state.named", f"non-numeric argument in {data!r}") from exc
        if not all(math.isfinite(a) for a in args):
            raise SpecError("state.named", f"non-finite argument in {data!r}")
    else:
        raise SpecError("state.named", f"unrecognized named state {data!r}")
    return _named_state(kind, args), (kind, args)


def _named_state(kind: str, args: tuple) -> np.ndarray:
    """The state that ``kind``'s ``_NAMED`` builder makes of ``args``; a refusal names ``state.named``."""
    try:
        return _NAMED[kind][0](*args)
    except ValueError as exc:
        raise SpecError("state.named", str(exc)) from exc
