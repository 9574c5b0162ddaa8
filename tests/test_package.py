import os
import re
import subprocess
import sys
from pathlib import Path

import qucurve

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    assert [name for name in qucurve.__all__ if not hasattr(qucurve, name)] == []
    assert len(set(qucurve.__all__)) == len(qucurve.__all__)


# Every public name, sorted: adding or removing one shows up here as a diff.
PUBLIC_NAMES = [
    "EvolutionProblem",
    "FitResult",
    "GeometryReport",
    "HermitianOperator",
    "MAX_DENSE_DIM",
    "MAX_QUBITS",
    "MomentSet",
    "NumericalError",
    "ProblemSpec",
    "QuantumFrame",
    "SpecError",
    "StationaryStateError",
    "__version__",
    "bell_state",
    "bloch_to_state",
    "build_frame",
    "build_report",
    "central_moments",
    "curvature_bloch",
    "fit_coefficients",
    "format_float",
    "fubini_study_sq",
    "geodesic_efficiency",
    "ghz_state",
    "heisenberg3",
    "heisenberg_ghz_coefficients",
    "heisenberg_w_coefficients",
    "load_problem_spec",
    "local_bell_coefficients",
    "local_product_coefficients",
    "nonlocal_bell_coefficients",
    "nonlocal_product_coefficients",
    "parse_problem_spec",
    "single_qubit",
    "state_to_bloch",
    "sweep_row",
    "torsion_bloch",
    "trajectory_rows",
    "two_qubit_local",
    "two_qubit_nonlocal",
    "w_state",
    "xi_curvature",
    "xi_efficiency",
    "xi_kurtosis",
    "xi_state",
]


def test_public_names_are_pinned():
    assert sorted(qucurve.__all__) == PUBLIC_NAMES


def test_readme_quick_start_runs(tmp_path):
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "1.0 1.0"
