"""Every boundary where amplitudes become a state, tried with the same bad inputs.

A state is a read-only complex vector of unit norm with d >= 2.  It is
checked at each boundary that takes amplitudes: a problem document, the
``EvolutionProblem`` constructor, ``central_moments`` and the ``models``
state builders.  Each refusal is a ``ValueError`` (a ``SpecError`` naming
``state.amplitudes`` for a document) with the same message everywhere.
"""

import json

import numpy as np
import pytest

from qucurve import EvolutionProblem, SpecError, central_moments, models, parse_problem_spec
from qucurve.cli import main

from conftest import pauli_sum

# H = X + Z on one qubit: no state checked here is its eigenstate.
QUBIT = [(1.0, "X"), (1.0, "Z")]

SHAPE = r"state must be a 1-d vector with d >= 2, got shape "
NORM = r"state norm {} deviates from 1 by more than 1e-12"

# Each bad input, with the message of the check that refuses it.
BAD = {
    "shape (2, 2)": (np.eye(2) / np.sqrt(2.0), SHAPE + r"\(2, 2\)"),
    "d = 1": (np.array([1.0]), SHAPE + r"\(1,\)"),
    "NaN": (np.array([np.nan, 1.0]), NORM.format("nan")),
    "norm 1 + 1e-11": (np.array([1.0 + 1e-11, 0.0]), NORM.format(r"1\.00000000001")),
}


def _document(amplitudes):
    cells = np.asarray(amplitudes, dtype=complex)
    cells = np.stack([cells.real, cells.imag], axis=-1).tolist()
    return {"hamiltonian": {"pauli_terms": [{"coeff": c, "word": w} for c, w in QUBIT]}, "state": {"amplitudes": cells}}


def _evolution_problem(amplitudes):
    return EvolutionProblem(pauli_sum(QUBIT), amplitudes).initial_state


def _central_moments(amplitudes):
    return central_moments(pauli_sum(QUBIT), amplitudes)


# The models builders that read a table of amplitudes, each with a patch of the entry it reads.
BUILDERS = {
    "bell_state": (lambda: models.bell_state("phi+"), lambda mp, a: mp.setitem(models._BELL_AMPLITUDES, "phi+", a)),
    "ghz_state": (models.ghz_state, lambda mp, a: mp.setattr(models, "_GHZ_AMPLITUDES", a)),
    "w_state": (models.w_state, lambda mp, a: mp.setattr(models, "_W_AMPLITUDES", a)),
}


class TestRefusals:
    @pytest.mark.parametrize("bad", BAD, ids=list(BAD))
    def test_problem_document(self, bad):
        # the document form cannot hold a matrix, one pair or a NaN, so the
        # parse refuses those; the norm is checked when the state is built
        with pytest.raises(SpecError, match=r"^state\.amplitudes"):
            parse_problem_spec(_document(BAD[bad][0])).build()

    @pytest.mark.parametrize("bad", BAD, ids=list(BAD))
    @pytest.mark.parametrize("boundary", [_evolution_problem, _central_moments], ids=lambda f: f.__name__[1:])
    def test_amplitude_arguments(self, boundary, bad):
        amplitudes, message = BAD[bad]
        with pytest.raises(ValueError, match=f"^{message}$"):
            boundary(amplitudes)

    @pytest.mark.parametrize("bad", BAD, ids=list(BAD))
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_models_table_builders(self, builder, bad, monkeypatch):
        amplitudes, message = BAD[bad]
        build, patch = BUILDERS[builder]
        patch(monkeypatch, amplitudes)
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize(
        "builder", [models.xi_state, models._bloch_angle_state], ids=["xi_state", "_bloch_angle_state"]
    )
    def test_models_angle_builders_refuse_a_nan_phase(self, builder):
        # cos and sin keep these at unit norm and d = 2, so only a NaN reaches the check
        with pytest.raises(ValueError, match=f"^{NORM.format('nan')}$"):
            builder(0.5, float("nan"))

    def test_a_bad_amplitudes_document_exits_2_naming_the_field(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_document(BAD["norm 1 + 1e-11"][0])))
        assert main(["report", "--input", str(path)]) == 2
        assert f"state.amplitudes: {NORM.format('1.00000000001')}" in capsys.readouterr().err


class TestAcceptedState:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: parse_problem_spec(_document([0.6, 0.8j])).build()[1],
            lambda: _evolution_problem([0.6, 0.8j]),
            lambda: models.bell_state("psi-"),
            models.ghz_state,
            models.w_state,
            lambda: models.xi_state(0.6, 0.3),
            lambda: models.bloch_to_state([0.0, 0.6, 0.8]),
        ],
        ids=["document", "EvolutionProblem", "bell_state", "ghz_state", "w_state", "xi_state", "bloch_to_state"],
    )
    def test_is_a_read_only_complex_vector(self, build):
        state = build()
        assert type(state) is np.ndarray and state.dtype == complex and state.ndim == 1
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12
        with pytest.raises(ValueError, match="read-only"):
            state[0] = 0.0

    def test_integer_amplitudes_become_complex(self):
        state = _evolution_problem([1, 0])
        assert state.dtype == complex
        np.testing.assert_array_equal(state, [1, 0])

    def test_a_writable_input_is_copied(self):
        amplitudes = np.array([0.6, 0.8j])
        problem = EvolutionProblem(pauli_sum(QUBIT), amplitudes)
        amplitudes[:] = [1.0, 0.0]  # before the first evolve, which starts the Lanczos basis from psi0
        reference = EvolutionProblem(pauli_sum(QUBIT), [0.6, 0.8j]).evolve([0.3, 1.1])
        np.testing.assert_array_equal(problem.evolve([0.3, 1.1]), reference)
        np.testing.assert_array_equal(problem.initial_state, [0.6, 0.8j])

    def test_a_read_only_input_is_kept(self):
        amplitudes = np.array([0.6, 0.8j])
        amplitudes.setflags(write=False)
        assert EvolutionProblem(pauli_sum(QUBIT), amplitudes).initial_state is amplitudes

    def test_a_document_holds_psi0_once(self):
        spec = parse_problem_spec(_document([0.6, 0.8j]))
        _, state = spec.build()
        assert state is spec.state and spec.named is None
        assert not state.flags.writeable
        assert EvolutionProblem(pauli_sum(QUBIT), state).initial_state is state
