"""Acceptance gate: seven end-to-end checks, one test per guarantee.

Each test here is a contract the package must honor as a whole -- closed-form
value tables, agreement between the independent computation paths, oracle
fits, invariances, frame algebra, the classical correspondence, and the CLI's
exit-code/determinism behavior.  Unit-level details live in the per-module
test files; this module only asserts the headline numbers.
"""

import json
import subprocess

import numpy as np
import pytest

from qucurve import (
    EvolutionProblem,
    bell_state,
    build_frame,
    central_moments,
    curvature_bloch,
    fit_coefficients,
    geodesic_efficiency,
    ghz_state,
    heisenberg3,
    heisenberg_ghz_coefficients,
    heisenberg_w_coefficients,
    local_bell_coefficients,
    local_product_coefficients,
    nonlocal_bell_coefficients,
    nonlocal_product_coefficients,
    single_qubit,
    StationaryStateError,
    torsion_bloch,
    two_qubit_local,
    two_qubit_nonlocal,
    w_state,
    xi_curvature,
    xi_efficiency,
    xi_state,
)
from qucurve.cli import main
from qucurve.hilbert import HermitianOperator
from qucurve.models import bloch_to_state

from conftest import crossed_fields_state, dense, load_demo, random_hermitian, random_problem, random_state

SIGMA_Z = single_qubit([0.0, 0.0, 1.0])


def pipeline_coefficients(hamiltonian, state):
    mom = central_moments(hamiltonian, state)
    return mom.kappa_sq, mom.tau_sq


def draw_couplings(rng, denominator, floor):
    """Four couplings in [-2, 2], redrawn until the formula's denominator
    factor is safely away from its degenerate locus.  Near that locus the
    curve slows to a crawl (mu2 -> 0) and the closed forms blow up, so
    comparisons there say nothing about either side."""
    while True:
        ms = rng.uniform(-2.0, 2.0, size=4)
        if abs(denominator(*ms)) > floor:
            return ms


def test_closed_form_value_table():
    # -- single-qubit Bloch anchors ------------------------------------
    assert abs(curvature_bloch([1, 0, 0], [0, 0, 1])) <= 1e-9
    a_tilted = [1 / np.sqrt(2), 0, 1 / np.sqrt(2)]
    assert curvature_bloch(a_tilted, [0, 0, 1]) == pytest.approx(4.0, rel=1e-9)
    for a in ([1, 0, 0], a_tilted):
        assert torsion_bloch(a, [0, 0, 1]) == 0.0
        prob = EvolutionProblem(SIGMA_Z, bloch_to_state(a))
        assert abs(build_frame(prob, 0.0).tau_sq) <= 1e-9

    # -- xi-family curvature and efficiency on a 99-point grid ----------
    t_eff = np.pi / 4
    for xi in np.linspace(0.01, 0.99, 99):
        kappa, tau = pipeline_coefficients(SIGMA_Z, xi_state(xi))
        expected = (1 - 2 * xi**2) ** 2 / (xi**2 * (1 - xi**2))
        assert kappa == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert abs(tau) <= 1e-10
        prob = EvolutionProblem(SIGMA_Z, xi_state(xi))
        assert geodesic_efficiency(prob, t_eff) == pytest.approx(
            xi_efficiency(t_eff, xi), abs=1e-6
        )
    balanced = EvolutionProblem(SIGMA_Z, xi_state(1 / np.sqrt(2)))
    assert geodesic_efficiency(balanced, t_eff) == pytest.approx(1.0, abs=1e-9)

    # -- crossed two-body couplings on |00>: the fully worked frame -----
    prob = EvolutionProblem(two_qubit_nonlocal(0, 0, 1, 1), [1, 0, 0, 0])
    kappa, tau = pipeline_coefficients(prob.hamiltonian, prob.initial_state)
    assert kappa == pytest.approx(1.0, rel=1e-9)
    assert tau == pytest.approx(1.0, rel=1e-9)
    for t in (0.3, 1.1):
        got = prob.transported([t])[0]
        overlap = abs(np.vdot(crossed_fields_state(t), got))
        assert overlap == pytest.approx(1.0, abs=1e-9)
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    for s in (0.0, 0.8):
        fr = build_frame(prob, s)
        arg = np.sqrt(2) * s
        tan_expected = np.array(
            [-np.sin(arg), -1j * np.cos(arg), -1j * np.cos(arg), np.sin(arg)]
        ) / np.sqrt(2)
        bin_expected = np.array(
            [
                0.5 - 0.5 * np.cos(arg),
                0.5j * np.sin(arg),
                0.5j * np.sin(arg),
                0.5 * np.cos(arg) + 0.5,
            ]
        )
        assert len(fr.rows) == 3
        assert abs(np.vdot(tan_expected, fr.rows[1])) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(bin_expected, fr.rows[2])) == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(fr.rows.conj() @ singlet)) == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(
        build_frame(prob, 0.0).cartan,
        np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=complex),
        atol=1e-8,
    )

    # -- two-qubit coefficient formulas over 100 random tuples each -----
    # kappa is compared along the moment path, tau along the projector
    # path, whose residual-norm construction stays exact for planar curves.
    rng = np.random.default_rng(2025)
    zero_zero = np.array([1, 0, 0, 0], dtype=complex)
    phi_plus = bell_state("phi+")
    cases = [
        (
            two_qubit_nonlocal,
            zero_zero,
            nonlocal_product_coefficients,
            lambda m1, m2, m3, m4: m1 * m1 + m3 * m3 + m4 * m4,
            0.25,
        ),
        (
            two_qubit_local,
            phi_plus,
            local_bell_coefficients,
            lambda m1, m2, m3, m4: (m1 + m2) ** 2 + (m3 + m4) ** 2,
            0.25,
        ),
        (
            two_qubit_local,
            zero_zero,
            local_product_coefficients,
            lambda m1, m2, m3, m4: m1 * m1 + m2 * m2,
            0.25,
        ),
        (
            two_qubit_nonlocal,
            phi_plus,
            nonlocal_bell_coefficients,
            lambda m1, m2, m3, m4: m3 - m4,
            0.5,
        ),
    ]
    for build, state, formula, denominator, floor in cases:
        for _ in range(100):
            ms = draw_couplings(rng, denominator, floor)
            ham = build(*ms)
            mom = central_moments(ham, state)
            kappa = mom.kappa_sq
            tau = build_frame(EvolutionProblem(ham, state), 0.0).tau_sq
            ek, et = formula(*ms)
            assert kappa == pytest.approx(ek, rel=1e-9, abs=1e-10)
            assert tau == pytest.approx(et, rel=1e-9, abs=1e-10)
            assert mom.alpha4 - 1 - mom.alpha3**2 == pytest.approx(et, rel=1e-9, abs=3e-10)

    # -- three-spin exchange formulas over 100 random tuples ------------
    for _ in range(100):
        jx, jy, jz, h = draw_couplings(
            rng, lambda jx, jy, jz, h: min(abs(jx - jy) / 0.4, abs(h) / 0.2), 1.0
        )
        kappa, tau = pipeline_coefficients(heisenberg3(jx, jy, jz, h), ghz_state())
        ek, et = heisenberg_ghz_coefficients(jx, jy, jz, h)
        assert kappa == pytest.approx(ek, rel=1e-9, abs=1e-10)
        assert tau == pytest.approx(et, rel=1e-9, abs=1e-10)
        ham = heisenberg3(jx, jy, jz, h)
        kappa = central_moments(ham, w_state()).kappa_sq
        tau = build_frame(EvolutionProblem(ham, w_state()), 0.0).tau_sq
        ek, et = heisenberg_w_coefficients(jx, jy, jz, h)
        assert kappa == pytest.approx(ek, rel=1e-9, abs=1e-10)
        assert tau == pytest.approx(et, rel=1e-9, abs=1e-10)

    # -- the remaining Bell pairs never acquire torsion ------------------
    for kind in ("phi-", "psi+", "psi-"):
        state = bell_state(kind)
        for _ in range(20):
            ms = draw_couplings(
                rng,
                (lambda m1, m2, m3, m4: m3 - m4)
                if kind == "psi-"
                else (lambda m1, m2, m3, m4: m3 + m4),
                0.5,
            )
            _, tau = pipeline_coefficients(two_qubit_nonlocal(*ms), state)
            assert abs(tau) <= 1e-10
            prob = EvolutionProblem(two_qubit_nonlocal(*ms), state)
            assert build_frame(prob, 0.0).tau_sq <= 1e-10


def test_cross_path_equivalence():
    rng = np.random.default_rng(4242)
    checked = 0
    for dim in (2, 3, 4, 8):
        for _ in range(50):
            prob = random_problem(rng, dim)
            mom = central_moments(prob.hamiltonian, prob.initial_state)
            kappa_m = mom.kappa_sq
            tau_m = mom.tau_sq
            frame = build_frame(prob, 0.0)
            kappa_g, tau_g = frame.kappa_sq, frame.tau_sq
            assert abs(kappa_m - kappa_g) <= max(1e-9 * abs(kappa_m), 1e-10)
            assert abs(tau_m - tau_g) <= max(1e-9 * abs(tau_m), 1e-10)
            # the osculating-plane decomposition: curvature splits into
            # torsion plus squared skewness, along either path
            assert abs(kappa_g - tau_g - mom.alpha3**2) <= 1e-10
            assert tau_m >= -1e-9
            checked += 1
    assert checked >= 200


def test_finite_difference_oracle():
    rng = np.random.default_rng(31415)
    for k in range(20):
        dim = (3, 4, 8)[k % 3]
        prob = random_problem(rng, dim)
        grid = tuple(j * 1e-3 / prob.speed for j in (1.0, 2.0, 4.0))
        kappa, tau = pipeline_coefficients(prob.hamiltonian, prob.initial_state)
        fit = fit_coefficients(prob, grid)
        assert fit.kappa_sq == pytest.approx(kappa, rel=0.02, abs=1e-8)
        assert fit.tau_sq == pytest.approx(tau, rel=0.02, abs=1e-8)

    # a single qubit's curve can never leave the plane of two snapshots:
    # the raw fitted constant must vanish to rounding precision
    for _ in range(10):
        try:
            prob = EvolutionProblem(single_qubit(rng.normal(size=3)), random_state(rng, 2))
        except StationaryStateError:
            continue
        grid = tuple(j * 1e-3 / prob.speed for j in (1.0, 2.0, 4.0))
        assert abs(fit_coefficients(prob, grid).tau_sq * prob.moments.mu2**2) <= 1e-10


def test_invariance_suite():
    rng = np.random.default_rng(27182)

    def profile(ham, state):
        mom = central_moments(ham, state)
        return np.array([mom.kappa_sq, mom.tau_sq, mom.alpha3**2, mom.alpha4])

    dims = (2, 3, 4, 8)
    for k in range(50):
        dim = dims[k % 4]
        ham = random_hermitian(rng, dim)
        state = random_state(rng, dim)
        base = profile(ham, state)

        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = phase * state
        np.testing.assert_allclose(
            profile(ham, rotated), base, rtol=1e-9, atol=1e-12
        )

        shift = float(rng.uniform(-5, 5))
        shifted = HermitianOperator(dense(ham) + shift * np.eye(dim))
        np.testing.assert_allclose(
            profile(shifted, state), base, rtol=1e-9, atol=1e-9
        )

        scale = float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]))
        scaled = HermitianOperator(scale * dense(ham))
        np.testing.assert_allclose(
            profile(scaled, state), base, rtol=1e-9, atol=1e-12
        )


def test_frame_geometry():
    rng = np.random.default_rng(16180)
    for dim in (2, 3, 4, 8):
        for _ in range(10):
            prob = random_problem(rng, dim)
            s = float(rng.uniform(0, 2))
            fr = build_frame(prob, s)

            gram = fr.rows.conj() @ fr.rows.T
            assert np.max(np.abs(gram - np.eye(len(fr.rows)))) <= 1e-10

            cart = fr.cartan
            assert np.max(np.abs(cart + cart.conj().T)) <= 1e-9

            mom = central_moments(prob.hamiltonian, prob.initial_state)
            tau = np.sqrt(max(mom.tau_sq, 0.0))
            skew = np.sqrt(
                max(mom.kappa_sq - mom.tau_sq, 0.0)
            )
            if len(fr.rows) == 3:
                assert abs(cart[1, 2]) == pytest.approx(tau, abs=1e-8)
            assert abs(cart[1, 1]) == pytest.approx(skew, abs=1e-8)

            if dim == 2:
                assert fr.tau_sq <= 1e-20  # tau_sq is ||Nbar||^2
                assert len(fr.rows) == 2


def test_classical_reference():
    # sampled circles of several radii, through demo 06's R^3 extractor: kappa = 1/R, tau = 0
    classical_frenet_serret = load_demo("06_classical_correspondence").classical_frenet_serret
    for radius in (0.5, 1.7, 3.0):
        t = np.linspace(0.0, 2 * np.pi, 8001)
        pts = np.stack(
            [radius * np.cos(t), radius * np.sin(t), np.zeros_like(t)], axis=1
        )
        _, kappa, tau = classical_frenet_serret(t, pts)
        assert np.max(np.abs(kappa - 1.0 / radius)) <= 1e-6 * (1.0 / radius)
        assert np.max(np.abs(tau)) <= 1e-6

    # circles at colatitude theta on a radius-R sphere: the quantum
    # curvature of the matching qubit trajectory is 4 R^2 times the squared
    # geodesic curvature, independent of theta
    thetas = np.concatenate(
        [np.linspace(0.3, 1.2, 10), np.linspace(1.95, 2.85, 10)]
    )
    for radius in (0.5, 1.0, 2.0):
        for theta in thetas:
            xi = float(np.cos(theta / 2.0))
            kappa_q, _ = pipeline_coefficients(SIGMA_Z, xi_state(xi))
            kappa_geo = 1.0 / (np.tan(theta) * radius)  # cot(theta) / R
            ratio = kappa_q / kappa_geo**2
            assert ratio == pytest.approx(4.0 * radius**2, rel=1e-9)


def test_cli_contract(tmp_path, capsys, qucurve_console_script):
    # validate exits 0 on the shipped build ...
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "12/12" in out

    # ... and nonzero when any closed-form fixture is corrupted
    for case in ("evolved-state-closed-form", "frame-closed-form"):
        assert main(["validate", "--perturb", case]) != 0
        assert f"FAIL  {case}" in capsys.readouterr().out

    # identical inputs give byte-identical outputs, stdout and files alike
    doc = {
        "hamiltonian": {
            "pauli_terms": [
                {"coeff": 1.0, "word": "XZ"},
                {"coeff": 1.0, "word": "ZX"},
            ]
        },
        "state": {"named": "00"},
    }
    problem_file = tmp_path / "problem.json"
    problem_file.write_text(json.dumps(doc))

    reports = []
    for _ in range(2):
        assert main(["--oracle", "report", "--input", str(problem_file)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["kappa_sq_moments"] == 1.0

    csvs = []
    for name in ("one.csv", "two.csv"):
        out_path = tmp_path / name
        code = main(
            [
                "trajectory",
                "--input",
                str(problem_file),
                "--t-max",
                "2.0",
                "--steps",
                "25",
                "--output",
                str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        csvs.append(out_path.read_bytes())
    assert csvs[0] == csvs[1]

    # the installed console script behaves like the in-process entry
    proc = subprocess.run(
        ["qucurve", "report", "--input", str(problem_file)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tau_sq_moments"] == pytest.approx(1.0, rel=1e-12)
