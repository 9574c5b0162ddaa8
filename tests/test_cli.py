import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qucurve.cli
import qucurve.evolution
import qucurve.models
import qucurve.reporting
from qucurve import MAX_QUBITS, xi_curvature
from qucurve.cli import MAX_GRID_POINTS, main
from qucurve.validation import PERTURBABLE_CASES, run_validation

from conftest import MALFORMED_FILES

FIXTURES = Path(__file__).resolve().parent / "fixtures"


# The commands that write an --output file, without their --input and --output.
CSV_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["trajectory", "--t-max", "1", "--steps", "3"],
        ["sweep", "--param", "xi", "--from", "0.2", "--to", "0.8", "--points", "3"],
    ],
    ids=["trajectory", "sweep"],
)


@pytest.fixture
def crossed_fields_file(tmp_path):
    doc = {
        "hamiltonian": {
            "pauli_terms": [
                {"coeff": 1.0, "word": "XZ"},
                {"coeff": 1.0, "word": "ZX"},
            ]
        },
        "state": {"named": "00"},
    }
    path = tmp_path / "crossed.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def xi_family_file(tmp_path):
    doc = {
        "hamiltonian": {"family": "single_qubit", "couplings": {"mz": 1.0}},
        "state": {"named": "xi:0.5,0.0"},
    }
    path = tmp_path / "xi.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestReportCommand:
    def test_report_json(self, crossed_fields_file, capsys):
        assert main(["report", "--input", crossed_fields_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 4
        assert doc["kappa_sq_moments"] == pytest.approx(1.0, rel=1e-12)
        assert doc["tau_sq_geometric"] == pytest.approx(1.0, rel=1e-12)
        assert doc["oracle"] is None

    def test_report_with_oracle(self, crossed_fields_file, capsys):
        assert main(["--oracle", "report", "--input", crossed_fields_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"]["kappa_sq"] == pytest.approx(1.0, rel=2e-2)
        assert doc["oracle"]["tau_sq"] == pytest.approx(1.0, rel=2e-2)

    def test_byte_identical_reruns(self, crossed_fields_file, capsys):
        main(["report", "--input", crossed_fields_file])
        first = capsys.readouterr().out
        main(["report", "--input", crossed_fields_file])
        assert capsys.readouterr().out == first

    def test_degenerate_geometry_exit_code(self, tmp_path, capsys):
        doc = {
            "hamiltonian": {"family": "single_qubit", "couplings": {"mz": 1.0}},
            "state": {"named": "0"},
        }
        path = tmp_path / "eigen.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert "stationary" in err

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"hamiltonian": {}, "state": {"named": "0"}}))
        assert main(["report", "--input", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_word_over_qubit_ceiling_exit_code(self, tmp_path, capsys):
        # one letter over the limit; no operator is built
        word = "Z" * (MAX_QUBITS + 1)
        doc = {"hamiltonian": {"pauli_terms": [{"coeff": 1.0, "word": word}]}, "state": {"named": "0" * len(word)}}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--input", str(path)]) == 2
        assert "hamiltonian.pauli_terms[0].word" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, quantity",
        [
            # steps of dt*v ~ 1 are far outside the quartic regime, so the
            # curvature fit misses its 5% residual gate
            (
                {
                    "hamiltonian": {"family": "heisenberg3", "couplings": {"Jx": 1.0, "h": 0.5}},
                    "state": {"named": "ghz"},
                    "options": {"dt_grid": [0.5, 1.0]},
                },
                "fit_residual_kappa",
            ),
            # sigma_x turns |0> into |1> at t = pi/2, so the step pi/4 has no geodesic
            (
                {
                    "hamiltonian": {"family": "single_qubit", "couplings": {"mx": 1.0}},
                    "state": {"named": "0"},
                    "options": {"dt_grid": [np.pi / 4, 0.1]},
                },
                "psi(2 dt)",
            ),
            # dt v = 2.3e-20: every deviation is rounding noise, with no signal to fit
            (
                {
                    "hamiltonian": {"family": "heisenberg3", "couplings": {"Jx": 1.0, "h": 0.5}},
                    "state": {"named": "ghz"},
                    "options": {"dt_grid": [1e-20, 2e-20]},
                },
                "dt_grid",
            ),
            # dt v = 1.4e-9 on crossed fields (kappa^2 = 1), also below the step floor
            (
                {
                    "hamiltonian": {"pauli_terms": [{"coeff": 1.0, "word": "XZ"}, {"coeff": 1.0, "word": "ZX"}]},
                    "state": {"named": "00"},
                    "options": {"dt_grid": [1e-9, 2e-9]},
                },
                "dt_grid",
            ),
            # dt^4 overflows to a NaN coefficient
            (
                {
                    "hamiltonian": {"pauli_terms": [{"coeff": 1.0, "word": "XZ"}, {"coeff": 1.0, "word": "ZX"}]},
                    "state": {"named": "00"},
                    "options": {"dt_grid": [1e300, 2e300]},
                },
                "dt_grid",
            ),
            # c (XI + 0.7 ZZ + 0.3 IY) on |00>: mu2^2 underflows to 0, or mu4 and
            # mu2^1.5 overflow, so the kurtosis alpha4 = mu4 / mu2^2 is not finite;
            # from c = 1e200 on, ||H||_F^2 itself overflows
            *(
                (
                    {
                        "hamiltonian": {
                            "pauli_terms": [{"coeff": c * k, "word": w} for k, w in ((1.0, "XI"), (0.7, "ZZ"), (0.3, "IY"))]
                        },
                        "state": {"named": "00"},
                    },
                    "alpha4",
                )
                for c in (1e-160, 1e-100, 1e77, 1e100, 1e150, 1e200, 1e250, 1e300)
            ),
        ],
    )
    def test_numerical_failure_exit_code(self, doc, quantity, tmp_path):
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "qucurve.cli", "--oracle", "report", "--input", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert quantity in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1  # the error line alone, no warning

    def test_coarse_grid_warning_in_report(self, tmp_path):
        # dt v = 0.17 on the largest step; both fits see it, the report names it once
        doc = {
            "hamiltonian": {"pauli_terms": [{"coeff": 1.0, "word": "XZ"}, {"coeff": 1.0, "word": "ZX"}]},
            "state": {"named": "00"},
            "options": {"dt_grid": [0.03, 0.06, 0.12]},
        }
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "qucurve.cli", "--oracle", "report", "--input", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["warnings"] == [
            "largest step has dt*v = 0.17 > 0.1; quartic scaling may not dominate"
        ]

    def test_missing_file_exit_code(self, capsys):
        assert main(["report", "--input", "/no/such/file.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
    def test_unreadable_file_exit_code(self, name, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_bytes(MALFORMED_FILES[name])
        proc = subprocess.run(
            [sys.executable, "-m", "qucurve.cli", "report", "--input", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: (file): invalid JSON")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInput:
    """json.load accepts NaN and Infinity; each must end in exit 2 naming the field."""

    @pytest.mark.parametrize(
        "doc, field",
        [
            (
                {"hamiltonian": {"dense": [[[NAN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, "state": {"named": "0"}},
                "hamiltonian.dense[0][0]",
            ),
            (
                {"hamiltonian": {"pauli_terms": [{"coeff": 1.0, "word": "X"}]}, "state": {"amplitudes": [[NAN, 0.0], [1.0, 0.0]]}},
                "state.amplitudes[0]",
            ),
            (
                {"hamiltonian": {"pauli_terms": [{"coeff": NAN, "word": "X"}]}, "state": {"named": "0"}},
                "hamiltonian.pauli_terms[0].coeff",
            ),
            (
                {"hamiltonian": {"family": "single_qubit", "couplings": {"mx": INF}}, "state": {"named": "0"}},
                "hamiltonian.couplings.mx",
            ),
            (
                {"hamiltonian": {"family": "single_qubit", "couplings": {"mx": 1.0}}, "state": {"named": "bloch:nan,0"}},
                "state.named",
            ),
        ],
    )
    def test_problem_file_field(self, doc, field, tmp_path, capsys):
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--input", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "--param", "xi", "--from", "nan", "--to", "0.8", "--points", "3"], "--from"),
            (["trajectory", "--t-max", "nan", "--steps", "3"], "--t-max"),
            (["sweep", "--param", "xi", "--from", "0.2", "--to", "inf", "--points", "3"], "--to"),
        ],
    )
    def test_command_line_flag(self, argv, flag, xi_family_file, tmp_path, capsys):
        argv = argv + ["--input", xi_family_file, "--output", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err


def _skew_curvature(monkeypatch):
    orig = qucurve.reporting.curvature_torsion_geometric

    def skewed(prob, s_points):
        return [(kappa + 1.0, tau) for kappa, tau in orig(prob, s_points)]

    monkeypatch.setattr(qucurve.reporting, "curvature_torsion_geometric", skewed)


def _negative_torsion(monkeypatch):
    orig = qucurve.reporting.curvature_torsion_geometric

    def negative(prob, s_points):
        return [(kappa, -1e-3) for kappa, _ in orig(prob, s_points)]

    monkeypatch.setattr(qucurve.reporting, "curvature_torsion_geometric", negative)
    monkeypatch.setattr(qucurve.reporting, "torsion_from_moments", lambda mom: -1e-3)


def _overshooting_evolution(monkeypatch):
    # a qubit state orthogonal to the start is pi/2 away, farther than the
    # path length v t <= 1 of the sweep's xi states allows
    def orthogonal(prob, ts):
        a, b = prob.initial_state.amplitudes
        return np.array([[-np.conj(b), np.conj(a)]] * len(ts))

    monkeypatch.setattr(qucurve.evolution.EvolutionProblem, "_evolve_rows", orthogonal)


class TestNumericalFailures:
    """Each accuracy gate ends in exit 4 with a message naming its quantity."""

    @pytest.mark.parametrize(
        "corrupt, command, quantity",
        [
            (_skew_curvature, "report", "kappa_sq_geometric"),
            (_negative_torsion, "report", "tau_sq_moments"),
            (_overshooting_evolution, "sweep", "eta"),
            (_negative_torsion, "sweep", "tau_sq"),
            (_negative_torsion, "trajectory", "tau_sq"),
        ],
    )
    def test_exit_code(self, corrupt, command, quantity, xi_family_file, tmp_path, monkeypatch, capsys):
        corrupt(monkeypatch)
        argv = [command, "--input", xi_family_file]
        out = tmp_path / "out.csv"
        if command == "sweep":
            argv += ["--param", "xi", "--from", "0.2", "--to", "0.8", "--points", "2", "--output", str(out)]
        if command == "trajectory":
            argv += ["--t-max", "1.0", "--steps", "3", "--output", str(out)]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert quantity in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, options, t",
        [
            # t-max 1e308 on steps of 5e307: the phase (E + theta) t of the third row overflows
            (["trajectory", "--t-max", "1e308", "--steps", "5"], {}, "5e+307"),
            (["sweep", "--param", "mz", "--from", "0.5", "--to", "1.0", "--points", "3"], {"efficiency_t": 1e308}, "1e+308"),
        ],
        ids=["trajectory-t-max", "sweep-efficiency_t"],
    )
    def test_overflowing_time(self, command, options, t, tmp_path, capsys):
        doc = {
            "hamiltonian": {"family": "single_qubit", "couplings": {"mx": 3.0, "mz": 1.0}},
            "state": {"named": "0"},
            "options": options,
        }
        path = tmp_path / "qubit.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main(command + ["--input", str(path), "--output", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: t = {t}: ")
        assert not out.exists()  # rows already written are removed with the file

    @pytest.mark.parametrize(
        "argv",
        [
            ["report"],
            ["--oracle", "report"],
            ["trajectory", "--t-max", "1", "--steps", "3"],
            ["sweep", "--param", "xi", "--from", "0.2", "--to", "0.8", "--points", "3"],
        ],
        ids=["report", "oracle-report", "trajectory", "sweep"],
    )
    def test_evolved_state_off_unit_norm(self, argv, xi_family_file, tmp_path, monkeypatch, capsys):
        # no norm passes a negative tolerance, so the first evolved row fails its check
        monkeypatch.setattr(qucurve.evolution, "_NORM_TOL", -1.0)
        out = tmp_path / "out.csv"
        if argv[-1] != "report":
            argv = argv + ["--output", str(out)]
        assert main(argv + ["--input", xi_family_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: t = ")
        assert "norm" in captured.err and "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_failing_run_removes_no_device(self, monkeypatch, capsys):
        # the partial output is removed only when it is a regular file
        removed = []
        monkeypatch.setattr(qucurve.cli.os, "remove", removed.append)
        argv = ["trajectory", "--input", str(FIXTURES / "problem_ising_n6.json")]
        assert main(argv + ["--t-max", "1e308", "--steps", "5", "--output", "/dev/null"]) == 4
        assert capsys.readouterr().err.startswith("error: t = 5e+307: ")
        assert removed == []


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_lists_exit_codes(self, capsys):
        assert main(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        for code in ("0 success", "1 validation", "2 malformed", "3 degenerate", "4 numerical"):
            assert code in out

    def test_unknown_flag(self, crossed_fields_file, capsys):
        assert main(["report", "--input", crossed_fields_file, "--bogus"]) == 2
        capsys.readouterr()

    def test_no_gamma_flag(self, crossed_fields_file, capsys):
        # kappa^2 and tau^2 are per unit arc length: no metric prefactor reaches a report
        assert main(["--gamma", "1", "report", "--input", crossed_fields_file]) == 2
        assert main(["report", "--input", crossed_fields_file, "--gamma", "1"]) == 2
        assert "unrecognized arguments: --gamma 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["trajectory", "--t-max", "1", "--steps", str(MAX_GRID_POINTS + 1)], "--steps"),
            (["sweep", "--param", "xi", "--from", "0.2", "--to", "0.8", "--points", str(MAX_GRID_POINTS + 1)], "--points"),
        ],
    )
    def test_grid_ceiling(self, argv, flag, xi_family_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--input", xi_family_file, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{flag}: must lie in [2, {MAX_GRID_POINTS}], got {MAX_GRID_POINTS + 1}" in err
        assert not out.exists()

    @CSV_COMMANDS
    def test_output_in_missing_directory(self, argv, xi_family_file, tmp_path, monkeypatch, capsys):
        def no_work(path):
            raise AssertionError("the problem file was read before --output was checked")

        monkeypatch.setattr(qucurve.cli, "load_problem_spec", no_work)
        out = tmp_path / "missing" / "out.csv"
        assert main(argv + ["--input", xi_family_file, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --output: directory {str(out.parent)!r} does not exist\n"
        assert not out.parent.exists()

    @CSV_COMMANDS
    def test_output_is_a_directory(self, argv, tmp_path):
        # rejected before the problem file is read: the input named here does not exist
        out = tmp_path / "out"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "qucurve.cli", *argv, "--input", str(tmp_path / "absent.json"), "--output", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: --output: {str(out)!r} is a directory\n"
        assert list(tmp_path.iterdir()) == [out] and not any(out.iterdir())

    @CSV_COMMANDS
    def test_output_that_cannot_be_opened(self, argv, xi_family_file, tmp_path, capsys):
        # a dangling link passes the directory checks and fails only when opened
        out = tmp_path / "out.csv"
        out.symlink_to(tmp_path / "missing" / "out.csv")
        assert main(argv + ["--input", xi_family_file, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --output: cannot open {str(out)!r}: No such file or directory\n"
        assert not (tmp_path / "missing").exists()

    @CSV_COMMANDS
    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_output_that_cannot_be_written(self, argv, xi_family_file, monkeypatch, capsys):
        # /dev/full opens but fails every write with ENOSPC
        removed = []
        monkeypatch.setattr(qucurve.cli.os, "remove", removed.append)
        assert main(argv + ["--input", xi_family_file, "--output", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --output: cannot write '/dev/full': No space left on device\n"
        assert removed == []

    def test_write_error_removes_a_partial_regular_file(self, tmp_path):
        def rows():
            yield ["1"]
            raise OSError(28, "No space left on device")

        out = tmp_path / "out.csv"
        with pytest.raises(qucurve.cli.SpecError, match="cannot write .*: No space left on device"):
            qucurve.cli._write_csv(str(out), ["a"], rows())
        assert not out.exists()

    def test_write_error_on_a_file_that_cannot_be_unlinked(self, tmp_path, monkeypatch):
        # a regular file that refuses removal, as under /proc, still ends in the --output error
        def rows():
            yield ["1"]
            raise OSError(5, "Input/output error")

        def refuse(path):
            raise PermissionError(1, "Operation not permitted", path)

        monkeypatch.setattr(qucurve.cli.os, "remove", refuse)
        out = tmp_path / "out.csv"
        with pytest.raises(qucurve.cli.SpecError, match="cannot write .*: Input/output error"):
            qucurve.cli._write_csv(str(out), ["a"], rows())
        assert out.exists()

    def test_help_lists_output_and_closed_stdout_codes(self, capsys):
        assert main(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "an --output that is a directory or cannot be opened or written" in out
        assert "141 standard output closed by its reader" in out


# Counts the root parsers built, in a fresh interpreter: after the import, then
# after each of three main calls (help, a usage error, a missing input file).
_PARSER_COUNT_SCRIPT = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)
argparse.ArgumentParser.__init__ = counted
import qucurve.cli
counts = [built.count("qucurve")]
for argv in (["--help"], ["report"], ["report", "--input", "/no/such/file.json"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        qucurve.cli.main(argv)
    counts.append(built.count("qucurve"))
print(json.dumps(counts))
"""


class TestOneParserPerProcess:
    def test_built_by_the_first_call_only(self):
        proc = subprocess.run(
            [sys.executable, "-c", _PARSER_COUNT_SCRIPT], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, 1, 1, 1]

    def test_repeated_calls_match_fresh_processes(self, crossed_fields_file, monkeypatch, capsys):
        """A usage error, a report, --help and the usage error again, in one process."""
        monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap to the terminal width
        usage_error = ["report", "--input", crossed_fields_file, "--bogus"]
        sequence = [usage_error, ["report", "--input", crossed_fields_file], ["--help"], usage_error]
        in_process = []
        for argv in sequence:
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        fresh = []
        for argv in sequence:
            proc = subprocess.run(
                [sys.executable, "-m", "qucurve.cli", *argv], capture_output=True, text=True, timeout=120
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [2, 0, 0, 2]


class TestTrajectoryCommand:
    def test_writes_csv(self, crossed_fields_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "trajectory",
                "--input",
                crossed_fields_file,
                "--t-max",
                "2.0",
                "--steps",
                "5",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("t,s,fidelity_to_initial,re_a0")
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(1.0)

    def test_byte_identical_reruns(self, crossed_fields_file, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(
                [
                    "trajectory",
                    "--input",
                    crossed_fields_file,
                    "--t-max",
                    "1.5",
                    "--steps",
                    "9",
                    "--output",
                    str(out),
                ]
            )
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "fixture, doc",
        [
            # d = 2 adds the Bloch columns
            (
                "trajectory_qubit.csv",
                {
                    "hamiltonian": {"family": "single_qubit", "couplings": {"mz": 1.0}},
                    "state": {"named": "xi:0.5,0.0"},
                },
            ),
            (
                "trajectory_heisenberg3_w.csv",
                {
                    "hamiltonian": {"family": "heisenberg3", "couplings": {"Jx": 1.0, "h": 0.5}},
                    "state": {"named": "w"},
                },
            ),
        ],
    )
    def test_matches_fixture_bytes(self, fixture, doc, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "traj.csv"
        argv = ["trajectory", "--input", str(path), "--t-max", "2.0", "--steps", "7"]
        assert main(argv + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (FIXTURES / fixture).read_bytes()

    def test_bad_steps(self, crossed_fields_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "trajectory",
                "--input",
                crossed_fields_file,
                "--t-max",
                "1.0",
                "--steps",
                "1",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 2
        assert not out.exists()


class TestSweepCommand:
    @pytest.mark.parametrize("efficiency_t", [1e-5, 1e-8])
    def test_xi_sweep_at_small_efficiency_time(self, efficiency_t, tmp_path, capsys):
        doc = {
            "hamiltonian": {"family": "single_qubit", "couplings": {"mz": 1.0}},
            "state": {"named": "xi:0.5,0.0"},
            "options": {"efficiency_t": efficiency_t},
        }
        path = tmp_path / "xi.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--input", str(path), "--param", "xi", "--from", "0.1", "--to", "0.9", "--points", "3"]
        assert main(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            xi, eta = float(cells[0]), float(cells[3])
            assert eta == pytest.approx(qucurve.models.xi_efficiency(efficiency_t, xi), rel=1e-15, abs=0.0)

    def test_xi_sweep(self, xi_family_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--input",
                xi_family_file,
                "--param",
                "xi",
                "--from",
                "0.2",
                "--to",
                "0.8",
                "--points",
                "4",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,kappa_sq,tau_sq,eta,alpha4,alpha3_sq"
        assert len(lines) == 5
        for line, expected_xi in zip(lines[1:], np.linspace(0.2, 0.8, 4)):
            cells = [float(x) for x in line.split(",")]
            assert cells[0] == pytest.approx(expected_xi)
            assert cells[1] == pytest.approx(xi_curvature(expected_xi), rel=1e-10)
            assert cells[2] == pytest.approx(0.0, abs=1e-12)

    def test_coupling_sweep(self, tmp_path, capsys):
        doc = {
            "hamiltonian": {"family": "heisenberg3", "couplings": {"Jx": 1.0, "h": 0.5}},
            "state": {"named": "ghz"},
        }
        path = tmp_path / "heis.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--input",
                str(path),
                "--param",
                "Jx",
                "--from",
                "1.0",
                "--to",
                "2.0",
                "--points",
                "3",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_unknown_param(self, xi_family_file, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--input",
                xi_family_file,
                "--param",
                "zeta",
                "--from",
                "0",
                "--to",
                "1",
                "--points",
                "3",
                "--output",
                str(tmp_path / "x.csv"),
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_degenerate_endpoint(self, xi_family_file, tmp_path, capsys):
        # xi = 0 is an eigenstate; the sweep aborts with the degenerate code
        code = main(
            [
                "sweep",
                "--input",
                xi_family_file,
                "--param",
                "xi",
                "--from",
                "0.0",
                "--to",
                "0.5",
                "--points",
                "3",
                "--output",
                str(tmp_path / "x.csv"),
            ]
        )
        capsys.readouterr()
        assert code == 3


FAMILY_NAMED = {
    "hamiltonian": {"family": "heisenberg3", "couplings": {"Jx": 1.0, "Jy": 0.4, "h": 0.5}},
    "state": {"named": "w"},
}
# signed zeros and integer entries must reach the operator and state unchanged
DENSE_AMPLITUDES = {
    "hamiltonian": {
        "dense": [
            [[1.5, -0.0], [0.25, -0.5], [0, 0.75], [-0.125, 0.0]],
            [[0.25, 0.5], [-1, 0], [0.375, -0.25], [0.0, -0.0]],
            [[0, -0.75], [0.375, 0.25], [0.5, 0.0], [0.625, 0.125]],
            [[-0.125, -0.0], [0.0, 0.0], [0.625, -0.125], [-0.25, 0]],
        ]
    },
    "state": {"amplitudes": [[0.5, 0.0], [0.0, 0.5], [-0.5, -0.0], [0.3, 0.4]]},
}
# a six-qubit Ising chain (d = 64) with fields on a seeded random state: its
# Krylov space is larger than the smallest Lanczos basis, unlike d <= 8
ISING_N6 = json.loads((FIXTURES / "problem_ising_n6.json").read_text())
TWO_QUBIT_COUPLINGS = {"m1": 0.7, "m2": 0.4, "m3": -0.3, "m4": 0.9}
TWO_QUBIT_NONLOCAL = {
    "hamiltonian": {"family": "two_qubit_nonlocal", "couplings": TWO_QUBIT_COUPLINGS},
    "state": {"named": "00"},
}
TWO_QUBIT_LOCAL = {
    "hamiltonian": {"family": "two_qubit_local", "couplings": TWO_QUBIT_COUPLINGS},
    "state": {"named": "bell:phi+"},
}


class TestGoldenOutputs:
    """Report JSON and sweep CSV bytes, pinned by fixture files."""

    @pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["plain", "oracle"])
    @pytest.mark.parametrize(
        "stem, doc",
        [
            ("family_named", FAMILY_NAMED),
            ("dense_amplitudes", DENSE_AMPLITUDES),
            ("ising_n6", ISING_N6),
            ("two_qubit_nonlocal", TWO_QUBIT_NONLOCAL),
            ("two_qubit_local", TWO_QUBIT_LOCAL),
        ],
    )
    def test_report_matches_fixture_bytes(self, stem, doc, flags, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert main(flags + ["report", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        suffix = "_oracle" if flags else ""
        assert captured.out == (FIXTURES / f"report_{stem}{suffix}.json").read_text()

    def test_xi_sweep_matches_fixture_bytes(self, tmp_path, capsys):
        doc = {
            "hamiltonian": {"family": "single_qubit", "couplings": {"mx": 0.6, "mz": 0.8}},
            "state": {"named": "xi:0.3,0.25"},
        }
        path = tmp_path / "xi.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--input", str(path), "--param", "xi", "--from", "0.1", "--to", "0.9", "--points", "7"]
        assert main(argv + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (FIXTURES / "sweep_single_qubit_xi.csv").read_bytes()


class TestValidateCommand:
    def test_all_cases_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "12/12 validation cases passed" in out
        assert out.count("PASS") == 12
        assert "FAIL" not in out

    def test_case_table(self):
        assert [(res.name, res.tolerance) for res in run_validation()] == [
            ("evolved-state-closed-form", 1e-10),
            ("frame-closed-form", 1e-8),
            ("xi-family-grid", 1e-9),
            ("efficiency-grid", 1e-6),
            ("bloch-reduction", 1e-9),
            ("cross-path-random", 1e-9),
            ("two-qubit-formulas", 1e-9),
            ("heisenberg-formulas", 1e-9),
            ("planar-bell-states", 1e-10),
            ("quartic-fits", 0.02),
            ("parallel-transport", 1e-6),
            ("classical-circle", 1e-6),
        ]

    @pytest.mark.parametrize("case", PERTURBABLE_CASES)
    def test_perturbed_case_fails(self, case, capsys):
        assert main(["validate", "--perturb", case]) == 1
        out = capsys.readouterr().out
        assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == [case]
        assert "11/12 validation cases passed" in out

    def test_unknown_perturb_case(self, capsys):
        # a removed case is refused like one that never existed
        for case in ("no-such-case", "propagator-closed-form"):
            assert main(["validate", "--perturb", case]) == 2
            assert "--perturb" in capsys.readouterr().err


class TestInstalledEntryPoint:
    def test_console_script(self, crossed_fields_file, qucurve_console_script):
        proc = subprocess.run(
            ["qucurve", "report", "--input", crossed_fields_file],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dimension"] == 4

    def test_closed_stdout(self, crossed_fields_file, qucurve_console_script):
        # 2000 rows of about 260 bytes overfill the 64 KiB pipe, so the
        # writer meets the closed read end
        argv = ["qucurve", "trajectory", "--input", crossed_fields_file, "--t-max", "2", "--steps", "2000"]
        proc = subprocess.Popen(argv + ["--output", "/dev/stdout"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline().startswith("t,s,fidelity_to_initial,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_module_invocation(self, crossed_fields_file):
        proc = subprocess.run(
            [sys.executable, "-m", "qucurve.cli", "report", "--input", crossed_fields_file],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kappa_sq_moments"] == 1.0
