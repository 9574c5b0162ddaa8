import importlib.util
import os
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

import qucurve
from qucurve import EvolutionProblem, HermitianOperator, parse_problem_spec
from qucurve.models import two_qubit_nonlocal

# Unreadable problem files: invalid JSON, a byte that is not UTF-8, an integer
# of 5,000 digits and arrays nested 100,000 deep.
MALFORMED_FILES = {
    "broken": b"{not json",
    "latin1": b'{"state": {"named": "\xe9"}}',
    "huge_int": b'{"hamiltonian": {"pauli_terms": [{"coeff": ' + b"9" * 5000 + b', "word": "Z"}]}}',
    "deep": b"[" * 100_000,
}


@pytest.fixture(scope="session", autouse=True)
def runtime_warnings_fail_subprocesses():
    """A RuntimeWarning fails a demo or console-script subprocess as pyproject.toml makes it fail in-process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONWARNINGS", ",".join(filter(None, [os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"])))
        yield


def load_demo(stem):
    """The module of ``demos/<stem>.py``, loaded by path; its ``__main__`` block does not run."""
    spec = importlib.util.spec_from_file_location(stem, Path(__file__).resolve().parents[1] / "demos" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((a + a.conj().T) / 2.0)


def random_state(rng, dim):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def random_problem(rng, dim):
    return EvolutionProblem(random_hermitian(rng, dim), random_state(rng, dim))


def pauli_sum(terms):
    """sum_k c_k P_k over (c_k, word_k) pairs, built from a ``pauli_terms`` problem document."""
    terms = [{"coeff": c, "word": word} for c, word in terms]
    doc = {"hamiltonian": {"pauli_terms": terms}, "state": {"named": "0" * len(terms[0]["word"])}}
    return parse_problem_spec(doc).build()[0]


# The 2x2 Pauli matrices.  In an n-qubit word the leftmost letter acts on
# qubit 1, which carries the most significant bit of the basis index.
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_word(word):
    """The dense matrix of a Pauli word as the Kronecker product of its letters."""
    m = PAULI[word[0]]
    for c in word[1:]:
        m = np.kron(m, PAULI[c])
    return m


def reference_pauli_groups(terms):
    """The (perms, diags) backing of sum_k c_k P_k over (c_k, word_k) pairs, each word encoded on its own.

    Word by word: its flip mask x and sign mask z, a fresh np.arange(d), the
    signs (-1)^popcount((j ^ x) & z) times i^#Y, and the coefficient times
    that row added to the diagonal of the word's x group, which starts at
    zeros on the group's first word.  The library's Pauli build must give
    these arrays byte for byte.
    """
    dim = 2 ** len(terms[0][1])
    groups = {}
    for c, word in terms:
        x = int(word.translate(str.maketrans("IXYZ", "0110")), 2)
        z = int(word.translate(str.maketrans("IXYZ", "0011")), 2)
        sign = np.where(np.bitwise_count((np.arange(dim) ^ x) & z) & 1, -1, 1)
        diag = groups.setdefault(x, np.zeros(dim, dtype=complex))
        diag += c * ((1, 1j, -1, -1j)[word.count("Y") % 4] * sign)
    perms = np.arange(dim) ^ np.array(list(groups), dtype=np.int64).reshape(-1, 1)
    diags = np.array(list(groups.values())).reshape(len(groups), dim)
    return perms, diags


@pytest.fixture
def applies(monkeypatch):
    """A one-element list counting the calls of ``HermitianOperator.apply`` from here on."""
    count = [0]
    apply = HermitianOperator.apply

    def counted(op, vec):
        count[0] += 1
        return apply(op, vec)

    monkeypatch.setattr(HermitianOperator, "apply", counted)
    return count


@pytest.fixture
def crossed_fields_problem():
    """H = XZ + ZX on |00>: every frame quantity has a known closed form."""
    ham = two_qubit_nonlocal(0.0, 0.0, 1.0, 1.0)
    return EvolutionProblem(ham, [1, 0, 0, 0])


def dense(op):
    """The d x d matrix of an operator: its dense backing, or else ``op.apply`` on each basis vector."""
    if op._matrix is not None:
        return op._matrix
    return np.array([op.apply(e) for e in np.eye(op.dim)]).T


def propagator(hamiltonian, t):
    """Dense reference exp(-iHt) from the Hermitian eigendecomposition.

    Diagonalizing and re-exponentiating is exactly unitary up to rounding,
    unlike a truncated series, so U^dagger U = I holds to ~1e-15 for any t.
    This O(d^3) route is what the Krylov evolution is checked against.
    """
    w, basis = np.linalg.eigh(dense(hamiltonian))
    return (basis * np.exp(-1j * w * t)) @ basis.conj().T


def delta_h(problem):
    """Dimensionless centered Hamiltonian (H - E)/v as a dense matrix; <(dh)^2> = 1."""
    return (dense(problem.hamiltonian) - problem.energy * np.eye(problem.dim)) / problem.speed


def crossed_fields_state(t):
    """Closed-form evolved state (cos^2 t, -i/2 sin 2t, -i/2 sin 2t, sin^2 t)."""
    c, s = np.cos(t), np.sin(t)
    return np.array([c * c, -0.5j * np.sin(2 * t), -0.5j * np.sin(2 * t), s * s])


@pytest.fixture
def qucurve_console_script(tmp_path_factory, monkeypatch):
    """Put on PATH the console scripts that pyproject.toml declares.

    ``pip install`` would write these launchers from ``[project.scripts]``;
    the test command installs nothing, so they are written here from this
    checkout's declaration instead. A subprocess that runs ``qucurve`` by
    name thus starts the declared entry point, importing the same
    ``qucurve`` package as the tests.
    """
    tomllib = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "qucurve" in scripts, "pyproject.toml declares no qucurve console script"

    bin_dir = tmp_path_factory.mktemp("bin")
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        launcher = bin_dir / name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(launcher.stat().st_mode | stat.S_IXUSR)

    monkeypatch.setenv("PATH", os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    package_root = str(Path(qucurve.__file__).resolve().parents[1])
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    )
