import json
import subprocess
import sys

import numpy as np
import pytest

from qucurve import MAX_DENSE_DIM, MAX_QUBITS, ProblemSpec, SpecError, config, load_problem_spec, parse_problem_spec
from qucurve.cli import main

from conftest import MALFORMED_FILES, dense, kron_word


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
        np.testing.assert_allclose(state, [1, 0, 0, 0], atol=1e-15)
        row0 = dense(ham)[0]
        np.testing.assert_allclose(row0, [0, 1, 1, 0], atol=1e-15)

    def test_default_options(self):
        spec = parse_problem_spec(minimal_doc())
        assert spec.options == {"dt_grid": None, "efficiency_t": 1.0}

    def test_option_overrides(self):
        doc = minimal_doc()
        doc["options"] = {"dt_grid": [1e-3, 2e-3]}
        spec = parse_problem_spec(doc)
        assert spec.options == {"dt_grid": [1e-3, 2e-3], "efficiency_t": 1.0}

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

    @pytest.mark.parametrize(
        "terms",
        [
            [(0.0, "XZ"), (-0.0, "ZX")],
            [(-0.0, "YY"), (0.0, "YY"), (1.5, "IZ")],
            [(1.0, "XY"), (-2.0, "XY"), (0.5, "XY"), (3, "II")],
            [(0.25, "IYZ"), (-1.0, "YIX"), (0.25, "IYZ"), (-0.0, "III"), (2.0, "ZZY")],
        ],
    )
    def test_pauli_terms_build_as_kron_sum(self, terms):
        # signed zeros and repeated words included: the summed matrix equals
        # the Kronecker reference bit for bit
        doc = minimal_doc()
        doc["hamiltonian"]["pauli_terms"] = [{"coeff": c, "word": w} for c, w in terms]
        doc["state"] = {"named": "0" * len(terms[0][1])}
        built, _ = parse_problem_spec(doc).build()
        ref = sum(c * kron_word(w) for c, w in terms)
        got = dense(built)
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
        assert np.float64(built.frobenius_sq).tobytes() == np.float64(np.vdot(ref, ref).real).tobytes()

    def test_pauli_word_qubit_ceiling(self):
        doc = minimal_doc()
        doc["hamiltonian"]["pauli_terms"] = [{"coeff": 1.0, "word": "X" * MAX_QUBITS}]
        parse_problem_spec(doc)  # validation only; nothing is built
        doc["hamiltonian"]["pauli_terms"] = [{"coeff": 1.0, "word": "X" * (MAX_QUBITS + 1)}]
        with pytest.raises(SpecError, match=rf"pauli_terms\[0\]\.word: has {MAX_QUBITS + 1} letters"):
            parse_problem_spec(doc)

    def test_basis_string_qubit_ceiling(self):
        doc = minimal_doc()
        doc["hamiltonian"]["pauli_terms"] = [{"coeff": 1.0, "word": "X" * MAX_QUBITS}]
        doc["state"] = {"named": "1" * MAX_QUBITS}
        parse_problem_spec(doc)
        doc["state"] = {"named": "1" * (MAX_QUBITS + 1)}
        with pytest.raises(SpecError, match=rf"^state\.named: basis string has {MAX_QUBITS + 1} letters, more than {MAX_QUBITS}$"):
            parse_problem_spec(doc)

    def test_dense_hamiltonian(self):
        doc = {
            "hamiltonian": {"dense": [[[1, 0], [0, -1]], [[0, 1], [-1, 0]]]},
            "state": {"named": "0"},
        }
        ham, _ = parse_problem_spec(doc).build()
        np.testing.assert_allclose(dense(ham), [[1, -1j], [1j, -1]], atol=1e-15)

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
        np.testing.assert_allclose(dense(ham), np.diag([1.0, -1.0]), atol=1e-15)
        # unspecified couplings default to zero
        assert spec.hamiltonian_data["couplings"] == {"mx": 0.0, "my": 0.0, "mz": 1.0, "m0": 0.0}

    def test_family_validation(self):
        with pytest.raises(SpecError, match="unknown family"):
            parse_problem_spec(
                {"hamiltonian": {"family": "ising9", "couplings": {}}, "state": {"named": "0"}}
            )
        with pytest.raises(SpecError, match="unknown family"):  # unhashable, not only unknown
            parse_problem_spec(
                {"hamiltonian": {"family": ["single_qubit"], "couplings": {}}, "state": {"named": "0"}}
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
            assert len(state) == dim
            assert abs(state[index]) > 0.1

    def test_amplitude_state(self):
        doc = minimal_doc()
        s = 1 / np.sqrt(2)
        doc["state"] = {"amplitudes": [[s, 0], [0, 0], [0, 0], [0, s]]}
        _, state = parse_problem_spec(doc).build()
        np.testing.assert_allclose(state, [s, 0, 0, s * 1j], atol=1e-15)

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

    @pytest.mark.parametrize(
        "section, value, field",
        [
            ("hamiltonian", {"pauli_terms": [{"coeff": True, "word": "XZ"}]}, "hamiltonian.pauli_terms[0].coeff"),
            ("hamiltonian", {"family": "single_qubit", "couplings": {"mz": True}}, "hamiltonian.couplings.mz"),
            ("hamiltonian", {"dense": [[[1, 0], [0, 0]], [[0, 0], [1, False]]]}, "hamiltonian.dense[1][1]"),
            ("state", {"amplitudes": [[True, False], [0, 0], [0, 0], [0, 0]]}, "state.amplitudes[0]"),
            ("options", {"dt_grid": [True, 2]}, "options.dt_grid"),
            ("options", {"efficiency_t": True}, "options.efficiency_t"),
        ],
    )
    def test_boolean_is_not_a_number(self, section, value, field):
        doc = {**minimal_doc(), section: value}
        with pytest.raises(SpecError) as info:
            parse_problem_spec(doc)
        assert info.value.pointer == field

    def test_huge_integer_is_not_a_number(self):
        doc = minimal_doc()
        doc["hamiltonian"]["pauli_terms"][0]["coeff"] = 10**400
        with pytest.raises(SpecError, match=r"pauli_terms\[0\]\.coeff"):
            parse_problem_spec(doc)

    def test_dense_dimension_ceiling(self):
        # one row over the limit; rows are not read, so they may be empty
        doc = {"hamiltonian": {"dense": [[]] * (MAX_DENSE_DIM + 1)}, "state": {"named": "0"}}
        with pytest.raises(SpecError, match=rf"^hamiltonian\.dense: has {MAX_DENSE_DIM + 1} rows, more than {MAX_DENSE_DIM}$"):
            parse_problem_spec(doc)

    def test_amplitudes_length_ceiling(self):
        limit = 2**MAX_QUBITS
        doc = minimal_doc()
        doc["state"] = {"amplitudes": [None] * (limit + 1)}
        with pytest.raises(SpecError, match=rf"^state\.amplitudes: has {limit + 1} entries, more than {limit}$"):
            parse_problem_spec(doc)

    def test_signed_zeros_kept(self):
        doc = {"hamiltonian": {"dense": [[[1.0, -0.0], [0, 0]], [[0, -0.0], [-0.0, 0.0]]]}, "state": {"named": "0"}}
        ham, _ = parse_problem_spec(doc).build()
        assert np.signbit(dense(ham).imag).tolist() == [[True, False], [True, False]]
        assert np.signbit(dense(ham).real).tolist() == [[False, False], [False, True]]

    def test_dimension_mismatch(self):
        doc = minimal_doc()
        doc["state"] = {"named": "0"}  # single qubit basis string vs 2-qubit H
        with pytest.raises(SpecError, match="dimension"):
            parse_problem_spec(doc).build()

    def test_option_validation(self):
        cases = [
            # the metric prefactor cancels from every reported number, and
            # the arc-length sample count is fixed
            ({"gamma": 2.0}, r"options: unknown keys \['gamma'\]"),
            ({"s_samples": 10}, r"options: unknown keys \['s_samples'\]"),
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


NAN = float("nan")
PAULI = {"pauli_terms": [{"coeff": 1.0, "word": "XZ"}, {"coeff": 1.0, "word": "ZX"}]}


def probe(hamiltonian=PAULI, state=None, **extra):
    return {"hamiltonian": hamiltonian, "state": state or {"named": "00"}, **extra}


def dense_doc(*rows):
    return probe({"dense": list(rows)}, {"named": "0"})


# Each malformed document and the exact message it raises, from parse or build.
MALFORMED = [
    ([1, 2], "(root): document must be a JSON object"),
    ({**probe(), "extra": 1}, "(root): unknown keys ['extra']"),
    ({"state": {"named": "00"}}, "hamiltonian: required object with one of pauli_terms|dense|family"),
    (
        probe({**PAULI, "dense": [[[0, 0]]]}),
        "hamiltonian: exactly one of pauli_terms|dense|family required, got ['pauli_terms', 'dense']",
    ),
    (probe({**PAULI, "couplings": {}}), "hamiltonian: unknown keys ['couplings']"),
    (probe({"pauli_terms": []}), "hamiltonian.pauli_terms: must be a nonempty list"),
    (probe({"pauli_terms": [["XZ", 1.0]]}), "hamiltonian.pauli_terms[0]: must be an object with coeff and word"),
    (probe({"pauli_terms": [{"coeff": "one", "word": "XZ"}]}), "hamiltonian.pauli_terms[0].coeff: must be a finite number"),
    (probe({"pauli_terms": [{"coeff": 1j, "word": "XZ"}]}), "hamiltonian.pauli_terms[0].coeff: must be a finite number"),
    (
        probe({"pauli_terms": [{"coeff": 1.0, "word": "XQ"}]}),
        "hamiltonian.pauli_terms[0].word: must be a string over I,X,Y,Z, got 'XQ'",
    ),
    (
        probe({"pauli_terms": [{"coeff": 1.0, "word": "X" * (MAX_QUBITS + 1)}]}),
        f"hamiltonian.pauli_terms[0].word: has {MAX_QUBITS + 1} letters, more than {MAX_QUBITS}",
    ),
    (
        probe({"pauli_terms": [{"coeff": 1.0, "word": "XZ"}, {"coeff": 1.0, "word": "X"}]}),
        "hamiltonian.pauli_terms[1].word: all words must have equal length",
    ),
    (dense_doc(), "hamiltonian.dense: must be a nonempty list of rows"),
    (dense_doc([[1, 0]], [[0, 0], [1, 0]]), "hamiltonian.dense[0]: must be a row of 2 entries"),
    (dense_doc([[1, 0], "x"], [[0, 0], [1, 0]]), "hamiltonian.dense[0][1]: must be an [re, im] pair of finite numbers"),
    (dense_doc([[1, 0], [0, 0, 0]], [[0, 0], [1, 0]]), "hamiltonian.dense[0][1]: must be an [re, im] pair of finite numbers"),
    (dense_doc([[1, 0], [0, 0]], [[NAN, 0], [1, 0]]), "hamiltonian.dense[1][0]: must be an [re, im] pair of finite numbers"),
    (dense_doc([[1, 0], [0, 0]], [[0, 0]]), "hamiltonian.dense[1]: must be a row of 2 entries"),
    (
        dense_doc([[1, 0], [2, 0]], [[3, 0], [1, 0]]),
        "hamiltonian.dense: matrix is not Hermitian: max |M - M^dagger| = 1.000e+00 > 1e-12",
    ),
    (
        probe({"family": "ising9", "couplings": {}}),
        "hamiltonian.family: unknown family 'ising9'; expected one of "
        "['heisenberg3', 'single_qubit', 'two_qubit_local', 'two_qubit_nonlocal']",
    ),
    (probe({"family": "single_qubit"}, {"named": "0"}), "hamiltonian.couplings: required object of named couplings"),
    (
        probe({"family": "heisenberg3", "couplings": {"Jq": 1.0}}, {"named": "ghz"}),
        "hamiltonian.couplings: unknown couplings ['Jq'] for family 'heisenberg3'",
    ),
    (
        probe({"family": "heisenberg3", "couplings": {"Jx": "1"}}, {"named": "ghz"}),
        "hamiltonian.couplings.Jx: must be a finite number",
    ),
    ({"hamiltonian": PAULI}, "state: required object with one of amplitudes|named"),
    (
        probe(state={"named": "00", "amplitudes": [[1, 0], [0, 0]]}),
        "state: exactly one of amplitudes|named required, got ['amplitudes', 'named']",
    ),
    (probe(state={"named": "00", "phase": 1}), "state: unknown keys ['phase']"),
    (probe(state={"amplitudes": [[1, 0]]}), "state.amplitudes: must be a list of >= 2 [re, im] pairs"),
    (
        probe(state={"amplitudes": [[1, 0], [0, 0], [0], [0, 0]]}),
        "state.amplitudes[2]: must be an [re, im] pair of finite numbers",
    ),
    (
        probe(state={"amplitudes": [[1, 0], [0, 0], [0, 0], [NAN, 0]]}),
        "state.amplitudes[3]: must be an [re, im] pair of finite numbers",
    ),
    (
        probe(state={"amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]]}),
        "state.amplitudes: state norm 1.4142135623730951 deviates from 1 by more than 1e-12",
    ),
    (probe(state={"amplitudes": [[1, 0], [0, 0]]}), "state: state dimension 2 does not match hamiltonian dimension 4"),
    (probe(state={"named": ""}), "state.named: must be a nonempty string"),
    (probe(state={"named": 3}), "state.named: must be a nonempty string"),
    (probe(state={"named": "frobnicate"}), "state.named: unrecognized named state 'frobnicate'"),
    (probe(state={"named": "ghz:1"}), "state.named: unrecognized named state 'ghz:1'"),
    (probe(state={"named": "bell:omega"}), "state.named: unknown Bell state 'omega'; expected phi+/phi-/psi+/psi-"),
    (probe(state={"named": "bell:Φ+"}), "state.named: unknown Bell state 'Φ+'; expected phi+/phi-/psi+/psi-"),
    (probe(state={"named": "bell:PHI+"}), "state.named: unknown Bell state 'PHI+'; expected phi+/phi-/psi+/psi-"),
    (probe(state={"named": "bloch:0.5"}), "state.named: bloch takes two comma-separated numbers, got '0.5'"),
    (probe(state={"named": "bloch:a,b"}), "state.named: non-numeric argument in 'bloch:a,b'"),
    (probe(state={"named": "bloch:nan,0"}), "state.named: non-finite argument in 'bloch:nan,0'"),
    (probe(state={"named": "xi:1.5,0"}), "state.named: xi must lie in [0, 1], got 1.5"),
    (probe(state={"named": "0"}), "state.named: basis string '0' implies dimension 2, hamiltonian has 4"),
    (probe(state={"named": "0" * 15000}), f"state.named: basis string has 15000 letters, more than {MAX_QUBITS}"),
    (
        probe({"family": "single_qubit", "couplings": {"mz": 1.0}}),
        "state.named: basis string '00' implies dimension 4, hamiltonian has 2",
    ),
    (probe(options=[]), "options: must be an object"),
    (probe(options={"mystery": 1}), "options: unknown keys ['mystery']"),
    (probe(options={"efficiency_t": 0}), "options.efficiency_t: must be a positive number, got 0"),
    (probe(options={"dt_grid": [1e-3]}), "options.dt_grid: must be a list of positive numbers with >= 2 distinct values"),
    (probe(options={"dt_grid": [1e-3, -1e-3]}), "options.dt_grid: must be a list of positive numbers with >= 2 distinct values"),
    (probe(options={"dt_grid": 0.1}), "options.dt_grid: must be a list of positive numbers with >= 2 distinct values"),
    (probe(options={"dt_grid": [0.3, 0.3]}), "options.dt_grid: must be a list of positive numbers with >= 2 distinct values"),
]


@pytest.mark.parametrize("doc, message", MALFORMED)
def test_malformed_document_message(doc, message):
    with pytest.raises(SpecError) as info:
        parse_problem_spec(doc).build()
    assert str(info.value) == message


def test_long_basis_string_exits_2_in_one_line(tmp_path):
    # 2**15000 has more digits than Python converts to a string by default
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(probe(state={"named": "0" * 15000})))
    proc = subprocess.run(
        [sys.executable, "-m", "qucurve.cli", "report", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: state.named: basis string has 15000 letters, more than {MAX_QUBITS}\n"
    assert "Traceback" not in proc.stderr


# Cells, as JSON text, that a parse of the flattened pairs could mishandle.
BAD_CELLS = {
    "numeric-string": '["1.5", 0]',
    "two-char-string": '"10"',
    "two-key-object": '{"re": 1, "im": 0}',
    "nested-pair": "[[1, 0], [0, 0]]",
    "null": "null",
    "bare-number": "1",
    "infinity": "[Infinity, 0]",
    "huge-integer": "[1" + "0" * 400 + ", 0]",
}
CELL_DOCS = {
    "state.amplitudes[2]": '{"hamiltonian": {"pauli_terms": [{"coeff": 1.0, "word": "XZ"}]}, '
    '"state": {"amplitudes": [[1, 0], [0, 0], CELL, [0, 0]]}}',
    "hamiltonian.dense[1][1]": '{"hamiltonian": {"dense": [[[1, 0], [0, 0]], [[0, 0], CELL]]}, "state": {"named": "0"}}',
}


@pytest.mark.parametrize("pointer", CELL_DOCS)
@pytest.mark.parametrize("cell", BAD_CELLS.values(), ids=BAD_CELLS)
def test_malformed_cell_exits_2_naming_it(pointer, cell, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(CELL_DOCS[pointer].replace("CELL", cell))
    assert main(["report", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {pointer}: must be an [re, im] pair of finite numbers\n"


class TestLoadFromFile:
    def test_roundtrip(self, tmp_path):
        import json

        path = tmp_path / "problem.json"
        path.write_text(json.dumps(minimal_doc()))
        spec = load_problem_spec(str(path))
        ham, state = spec.build()
        assert ham.dim == 4 and len(state) == 4

    def test_missing_file(self):
        with pytest.raises(SpecError, match=r"\(file\)"):
            load_problem_spec("/nonexistent/problem.json")

    def test_invalid_json(self, tmp_path):
        for name, content in MALFORMED_FILES.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(content)
            with pytest.raises(SpecError, match="invalid JSON"):
                load_problem_spec(str(path))


# One example per row of the named-state table, with a family of its dimension.
NAMED_EXAMPLES = {
    "bloch": ("bloch:0.3,0.25", "single_qubit"),
    "xi": ("xi:0.3,0.25", "single_qubit"),
    "bell": ("bell:psi-", "two_qubit_nonlocal"),
    "ghz": ("ghz", "heisenberg3"),
    "w": ("w", "heisenberg3"),
    "basis": ("010", "heisenberg3"),
}


def named_doc(named, family):
    return {"hamiltonian": {"family": family, "couplings": {}}, "state": {"named": named}}


@pytest.mark.parametrize("kind", sorted(config._NAMED))
def test_named_table_row(kind):
    # parse, build and every rebindable argument of the kind's row
    named, family = NAMED_EXAMPLES[kind]
    spec = parse_problem_spec(named_doc(named, family))
    assert spec.named[0] == kind
    _, state = spec.build()
    assert state is spec.state
    assert not state.flags.writeable
    assert abs(np.vdot(state, state).real - 1.0) <= 1e-12
    for k, name in enumerate(config._NAMED[kind][1]):
        args = spec.named[1][:k] + (0.6,) + spec.named[1][k + 1 :]
        bound = spec.with_parameter(name, 0.6)
        assert bound.named == (kind, args)
        _, rebound = bound.build()
        assert rebound.tobytes() != state.tobytes()
        _, parsed = parse_problem_spec(named_doc(f"{kind}:{args[0]!r},{args[1]!r}", family)).build()
        assert rebound.tobytes() == parsed.tobytes()


@pytest.mark.parametrize("param, builds", [("mz", 1), ("xi", 1 + 5)])
def test_a_named_state_is_built_once_per_binding(param, builds, tmp_path, monkeypatch):
    # parse builds psi0 and a coupling sweep reuses it at every point; each
    # rebound xi builds its state once, and build() builds none
    builder, names = config._NAMED["xi"]
    calls = []
    monkeypatch.setitem(config._NAMED, "xi", (lambda *args: calls.append(args) or builder(*args), names))
    doc = {
        "hamiltonian": {"family": "single_qubit", "couplings": {"mx": 0.6, "mz": 0.8}},
        "state": {"named": "xi:0.3,0.25"},
    }
    path = tmp_path / "xi.json"
    path.write_text(json.dumps(doc))
    argv = ["sweep", "--input", str(path), "--param", param, "--from", "0.1", "--to", "0.9", "--points", "5"]
    assert main(argv + ["--output", str(tmp_path / "sweep.csv")]) == 0
    assert len(calls) == builds


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
        np.testing.assert_allclose(state[0], 0.7, atol=1e-12)

    def test_rebind_bloch_angle(self):
        doc = {
            "hamiltonian": {"family": "single_qubit", "couplings": {"mz": 1.0}},
            "state": {"named": "bloch:0.4,0.0"},
        }
        bound = parse_problem_spec(doc).with_parameter("theta", np.pi / 2)
        _, state = bound.build()
        np.testing.assert_allclose(np.abs(state), [np.cos(np.pi / 4)] * 2, atol=1e-12)

    def test_rebound_xi_is_checked(self):
        doc = {
            "hamiltonian": {"family": "single_qubit", "couplings": {"mz": 1.0}},
            "state": {"named": "xi:0.3,0.0"},
        }
        with pytest.raises(SpecError, match=r"^state\.named: xi must lie in \[0, 1\], got 1\.5$"):
            parse_problem_spec(doc).with_parameter("xi", 1.5)

    def test_unknown_parameter(self):
        spec = parse_problem_spec(minimal_doc())
        with pytest.raises(SpecError, match="unknown parameter"):
            spec.with_parameter("Jx", 1.0)
