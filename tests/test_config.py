import numpy as np
import pytest

from qucurve import MAX_QUBITS, ProblemSpec, SpecError, load_problem_spec, parse_problem_spec


def minimal_doc():
    return {
        "hamiltonian": {
            "pauli_terms": [
                {"coeff": 1.0, "word": "XZ"},
                {"coeff": 1.0, "word": "ZX"},
            ]
        },
        "state": {"named": "00"},
    }


class TestParsing:
    def test_minimal_document(self):
        spec = parse_problem_spec(minimal_doc())
        ham, state = spec.build()
        assert ham.dim == 4
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)
        row0 = ham.matrix[0]
        np.testing.assert_allclose(row0, [0, 1, 1, 0], atol=1e-15)

    def test_default_options(self):
        spec = parse_problem_spec(minimal_doc())
        assert spec.options == {
            "gamma": 2.0,
            "dt_grid": None,
            "s_samples": 10,
            "efficiency_t": 1.0,
        }

    def test_option_overrides(self):
        doc = minimal_doc()
        doc["options"] = {"gamma": 1.0, "s_samples": 4, "dt_grid": [1e-3, 2e-3]}
        spec = parse_problem_spec(doc)
        assert spec.options["gamma"] == 1.0
        assert spec.options["s_samples"] == 4
        assert spec.options["dt_grid"] == [1e-3, 2e-3]
        assert spec.options["efficiency_t"] == 1.0

    def test_root_validation(self):
        with pytest.raises(SpecError, match=r"\(root\)"):
            parse_problem_spec([1, 2])
        with pytest.raises(SpecError, match="unknown keys"):
            parse_problem_spec({**minimal_doc(), "extra": 1})

    def test_hamiltonian_exactly_one_form(self):
        doc = minimal_doc()
        doc["hamiltonian"]["dense"] = [[[0, 0]]]
        with pytest.raises(SpecError, match="exactly one"):
            parse_problem_spec(doc)
        with pytest.raises(SpecError, match="hamiltonian"):
            parse_problem_spec({"state": {"named": "0"}})

    def test_pauli_term_validation(self):
        doc = minimal_doc()
        doc["hamiltonian"]["pauli_terms"][0]["word"] = "XQ"
        with pytest.raises(SpecError, match=r"pauli_terms\[0\].word"):
            parse_problem_spec(doc)
        doc = minimal_doc()
        doc["hamiltonian"]["pauli_terms"][1]["word"] = "X"
        with pytest.raises(SpecError, match="equal length"):
            parse_problem_spec(doc)
        doc = minimal_doc()
        doc["hamiltonian"]["pauli_terms"][0]["coeff"] = "one"
        with pytest.raises(SpecError, match="coeff"):
            parse_problem_spec(doc)

    def test_pauli_word_qubit_ceiling(self):
        doc = minimal_doc()
        doc["hamiltonian"]["pauli_terms"] = [{"coeff": 1.0, "word": "X" * MAX_QUBITS}]
        parse_problem_spec(doc)  # validation only; nothing is built
        doc["hamiltonian"]["pauli_terms"] = [{"coeff": 1.0, "word": "X" * (MAX_QUBITS + 1)}]
        with pytest.raises(SpecError, match=rf"pauli_terms\[0\]\.word: has {MAX_QUBITS + 1} letters"):
            parse_problem_spec(doc)

    def test_dense_hamiltonian(self):
        doc = {
            "hamiltonian": {"dense": [[[1, 0], [0, -1]], [[0, 1], [-1, 0]]]},
            "state": {"named": "0"},
        }
        ham, _ = parse_problem_spec(doc).build()
        np.testing.assert_allclose(ham.matrix, [[1, -1j], [1j, -1]], atol=1e-15)

    def test_dense_must_be_hermitian(self):
        doc = {
            "hamiltonian": {"dense": [[[1, 0], [2, 0]], [[3, 0], [1, 0]]]},
            "state": {"named": "0"},
        }
        with pytest.raises(SpecError, match="dense"):
            parse_problem_spec(doc).build()

    def test_dense_shape_validation(self):
        doc = {"hamiltonian": {"dense": [[[1, 0]], [[0, 0], [1, 0]]]}, "state": {"named": "0"}}
        with pytest.raises(SpecError, match=r"dense\[0\]"):
            parse_problem_spec(doc)

    def test_family_hamiltonian(self):
        doc = {
            "hamiltonian": {"family": "single_qubit", "couplings": {"mz": 1.0}},
            "state": {"named": "bloch:1.5708,0.0"},
        }
        spec = parse_problem_spec(doc)
        ham, _ = spec.build()
        np.testing.assert_allclose(ham.matrix, np.diag([1.0, -1.0]), atol=1e-15)
        # unspecified couplings default to zero
        assert spec.hamiltonian_data["couplings"] == {"mx": 0.0, "my": 0.0, "mz": 1.0, "m0": 0.0}

    def test_family_validation(self):
        with pytest.raises(SpecError, match="unknown family"):
            parse_problem_spec(
                {"hamiltonian": {"family": "ising9", "couplings": {}}, "state": {"named": "0"}}
            )
        with pytest.raises(SpecError, match="unknown couplings"):
            parse_problem_spec(
                {
                    "hamiltonian": {"family": "heisenberg3", "couplings": {"Jq": 1.0}},
                    "state": {"named": "ghz"},
                }
            )

    def test_state_forms(self):
        for named, dim, index in (("ghz", 8, 0), ("w", 8, 1), ("010", 8, 2)):
            doc = {
                "hamiltonian": {"family": "heisenberg3", "couplings": {"Jx": 1.0, "h": 0.5}},
                "state": {"named": named},
            }
            _, state = parse_problem_spec(doc).build()
            assert state.dim == dim
            assert abs(state.amplitudes[index]) > 0.1

    def test_amplitude_state(self):
        doc = minimal_doc()
        s = 1 / np.sqrt(2)
        doc["state"] = {"amplitudes": [[s, 0], [0, 0], [0, 0], [0, s]]}
        _, state = parse_problem_spec(doc).build()
        np.testing.assert_allclose(state.amplitudes, [s, 0, 0, s * 1j], atol=1e-15)

    def test_amplitude_norm_enforced(self):
        doc = minimal_doc()
        doc["state"] = {"amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]]}
        with pytest.raises(SpecError, match="amplitudes"):
            parse_problem_spec(doc).build()

    def test_named_state_validation(self):
        for bad in ("frobnicate", "xi:1.5,0", "bloch:a,b", "xi:0.5", "bell:omega"):
            doc = minimal_doc()
            doc["state"] = {"named": bad}
            with pytest.raises(SpecError, match="state.named"):
                parse_problem_spec(doc)

    def test_dimension_mismatch(self):
        doc = minimal_doc()
        doc["state"] = {"named": "0"}  # single qubit basis string vs 2-qubit H
        with pytest.raises(SpecError, match="dimension"):
            parse_problem_spec(doc).build()

    def test_option_validation(self):
        cases = [
            ({"gamma": -1.0}, "gamma"),
            ({"s_samples": 1}, "s_samples"),
            ({"efficiency_t": 0}, "efficiency_t"),
            ({"dt_grid": [1e-3]}, "dt_grid"),
            ({"dt_grid": [1e-3, -1e-3]}, "dt_grid"),
            ({"mystery": 1}, "unknown keys"),
        ]
        for opts, needle in cases:
            doc = minimal_doc()
            doc["options"] = opts
            with pytest.raises(SpecError, match=needle):
                parse_problem_spec(doc)


class TestLoadFromFile:
    def test_roundtrip(self, tmp_path):
        import json

        path = tmp_path / "problem.json"
        path.write_text(json.dumps(minimal_doc()))
        spec = load_problem_spec(str(path))
        ham, state = spec.build()
        assert ham.dim == 4 and state.dim == 4

    def test_missing_file(self):
        with pytest.raises(SpecError, match=r"\(file\)"):
            load_problem_spec("/nonexistent/problem.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_problem_spec(str(path))


class TestWithParameter:
    def test_rebind_family_coupling(self):
        doc = {
            "hamiltonian": {"family": "heisenberg3", "couplings": {"Jx": 1.0, "h": 0.5}},
            "state": {"named": "ghz"},
        }
        spec = parse_problem_spec(doc)
        bound = spec.with_parameter("Jx", 2.5)
        assert isinstance(bound, ProblemSpec)
        assert bound.hamiltonian_data["couplings"]["Jx"] == 2.5
        assert bound.hamiltonian_data["couplings"]["h"] == 0.5
        # the original is untouched
        assert spec.hamiltonian_data["couplings"]["Jx"] == 1.0

    def test_rebind_xi_state(self):
        doc = {
            "hamiltonian": {"family": "single_qubit", "couplings": {"mz": 1.0}},
            "state": {"named": "xi:0.3,0.0"},
        }
        bound = parse_problem_spec(doc).with_parameter("xi", 0.7)
        _, state = bound.build()
        np.testing.assert_allclose(state.amplitudes[0], 0.7, atol=1e-12)

    def test_rebind_bloch_angle(self):
        doc = {
            "hamiltonian": {"family": "single_qubit", "couplings": {"mz": 1.0}},
            "state": {"named": "bloch:0.4,0.0"},
        }
        bound = parse_problem_spec(doc).with_parameter("theta", np.pi / 2)
        _, state = bound.build()
        np.testing.assert_allclose(np.abs(state.amplitudes), [np.cos(np.pi / 4)] * 2, atol=1e-12)

    def test_unknown_parameter(self):
        spec = parse_problem_spec(minimal_doc())
        with pytest.raises(SpecError, match="unknown parameter"):
            spec.with_parameter("Jx", 1.0)
