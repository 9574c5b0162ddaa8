import dataclasses
import json

import numpy as np
import pytest

import qucurve.evolution
import qucurve.reporting
from qucurve import (
    EvolutionProblem,
    build_frame,
    StationaryStateError,
    build_report,
    central_moments,
    fit_coefficients,
    format_float,
    sweep_row,
    trajectory_rows,
    xi_curvature,
    xi_state,
)
from qucurve.config import parse_problem_spec
from qucurve.hilbert import HermitianOperator
from qucurve.models import single_qubit

from conftest import PAULI, dense, pauli_sum, random_hermitian, random_state

SIGMA_Z = HermitianOperator(PAULI["Z"])
PLUS = np.array([1, 1]) / np.sqrt(2)


class TestFormatFloat:
    def test_shortest_roundtrip(self):
        assert format_float(0.1) == "0.1"
        assert format_float(1 / 3) == repr(1 / 3)
        assert format_float(2.0) == "2.0"
        assert float(format_float(np.float64(np.pi))) == np.pi

    def test_accepts_numpy_scalars(self):
        assert format_float(np.float64(0.5)) == "0.5"


class TestBuildReport:
    def test_crossed_fields_profile(self, crossed_fields_problem):
        rep = build_report(
            crossed_fields_problem.hamiltonian, crossed_fields_problem.initial_state
        )
        assert rep.dimension == 4
        assert rep.energy == pytest.approx(0.0, abs=1e-14)
        assert rep.speed == pytest.approx(np.sqrt(2), rel=1e-14)
        assert rep.kappa_sq_moments == pytest.approx(1.0, rel=1e-12)
        assert rep.kappa_sq_geometric == pytest.approx(1.0, rel=1e-12)
        assert rep.tau_sq_moments == pytest.approx(1.0, rel=1e-12)
        assert rep.tau_sq_geometric == pytest.approx(1.0, rel=1e-12)
        assert rep.alpha3 == pytest.approx(0.0, abs=1e-13)
        assert rep.alpha4 == pytest.approx(2.0, rel=1e-12)
        assert rep.pearson_gap == pytest.approx(1.0, rel=1e-12)
        assert rep.frame_present
        assert rep.oracle is None
        assert rep.warnings == []

    def test_json_shape_and_determinism(self, crossed_fields_problem):
        args = (crossed_fields_problem.hamiltonian, crossed_fields_problem.initial_state)
        text1 = build_report(*args).to_json()
        text2 = build_report(*args).to_json()
        assert text1 == text2
        doc = json.loads(text1)
        assert set(doc) == {
            "dimension",
            "energy",
            "speed",
            "kappa_sq_moments",
            "kappa_sq_geometric",
            "tau_sq_moments",
            "tau_sq_geometric",
            "alpha3",
            "alpha4",
            "pearson_gap",
            "frame_present",
            "oracle",
            "warnings",
        }
        assert doc["dimension"] == 4
        assert doc["frame_present"] is True

    def test_oracle_block(self, crossed_fields_problem):
        rep = build_report(
            crossed_fields_problem.hamiltonian,
            crossed_fields_problem.initial_state,
            with_oracle=True,
        )
        assert set(rep.oracle) == {
            "kappa_sq",
            "tau_sq",
            "fit_residual_kappa",
            "fit_residual_tau",
            "dt_grid",
        }
        assert rep.oracle["kappa_sq"] == pytest.approx(1.0, rel=2e-2)
        assert rep.oracle["tau_sq"] == pytest.approx(1.0, rel=2e-2)
        expected_grid = [k * 1e-3 / np.sqrt(2) for k in (1.0, 2.0, 4.0)]
        np.testing.assert_allclose(rep.oracle["dt_grid"], expected_grid, rtol=1e-12)

    @pytest.mark.parametrize("case", ["crossed fields", "random d = 8"])
    def test_report_holds_each_route_answer(self, case, crossed_fields_problem):
        # bit for bit: the report reads the moment route's MomentSet and the oracle's FitResult, in field order
        if case == "crossed fields":
            ham, psi = crossed_fields_problem.hamiltonian, crossed_fields_problem.initial_state
        else:
            rng = np.random.default_rng(8)
            ham, psi = random_hermitian(rng, 8), random_state(rng, 8)
        rep = build_report(ham, psi, with_oracle=True)
        mom = central_moments(ham, psi)
        assert rep.kappa_sq_moments == mom.kappa_sq
        assert rep.pearson_gap == mom.tau_sq
        fit = fit_coefficients(EvolutionProblem(ham, psi))
        assert list(rep.oracle) == [f.name for f in dataclasses.fields(fit)]
        for name, value in rep.oracle.items():
            assert value == (list(fit.dt_grid) if name == "dt_grid" else getattr(fit, name))

    def test_explicit_dt_grid_is_used(self, crossed_fields_problem):
        grid = [5e-4, 1e-3]
        rep = build_report(
            crossed_fields_problem.hamiltonian,
            crossed_fields_problem.initial_state,
            with_oracle=True,
            dt_grid=grid,
        )
        assert rep.oracle["dt_grid"] == grid

    def test_planar_qubit(self):
        rep = build_report(single_qubit([1.0, 0.0, 1.0]), [1, 0])
        assert rep.dimension == 2
        assert not rep.frame_present
        assert rep.kappa_sq_moments == pytest.approx(4.0, rel=1e-12)
        assert rep.tau_sq_moments >= 0.0  # clamped, never negative in output

    def test_stationary_state_raises(self):
        with pytest.raises(StationaryStateError):
            build_report(SIGMA_Z, [1, 0])

    def test_frame_present_matches_built_frame(self, crossed_fields_problem):
        planar = EvolutionProblem(single_qubit([1.0, 0.0, 1.0]), [1, 0])
        for prob, present in ((planar, False), (crossed_fields_problem, True)):
            rep = build_report(prob.hamiltonian, prob.initial_state)
            assert rep.frame_present is present
            assert rep.frame_present == (len(build_frame(prob, 0.0).rows) == 3)

    @pytest.mark.parametrize(
        "scale",
        [1e-6, 1e6],
    )
    def test_geometry_invariant_under_hamiltonian_scaling(self, scale):
        rng = np.random.default_rng(103)
        ham, psi = random_hermitian(rng, 16), random_state(rng, 16)
        base = build_report(ham, psi)
        rep = build_report(HermitianOperator(scale * dense(ham)), psi)
        assert rep.speed == pytest.approx(scale * base.speed, rel=1e-12)
        assert rep.frame_present == base.frame_present
        assert rep.warnings == base.warnings
        for key in (
            "kappa_sq_moments",
            "kappa_sq_geometric",
            "tau_sq_moments",
            "tau_sq_geometric",
            "alpha3",
            "alpha4",
            "pearson_gap",
        ):
            assert getattr(rep, key) == pytest.approx(getattr(base, key), rel=1e-12), key

    def test_ising_chain_oracle_report_grows_sixteen_lanczos_vectors(self, monkeypatch):
        # the fits' snapshots reach only s = v t = 8e-3, which the smallest
        # basis size settles: the walk stops at 16 vectors
        problems = _recorded_problems(monkeypatch)
        rep = build_report(*_ising_chain(np.random.default_rng(10), 10), with_oracle=True)
        assert rep.warnings == []
        assert len(problems) == 1
        assert len(problems[0]._alpha) == 16

    @pytest.mark.parametrize("case", ["crossed_fields", "planar_qubit", "dense_d16", "ising_n6"])
    def test_plain_and_oracle_reports_share_every_field(self, case, crossed_fields_problem):
        if case == "crossed_fields":
            args = crossed_fields_problem.hamiltonian, crossed_fields_problem.initial_state
        elif case == "planar_qubit":
            args = single_qubit([1.0, 0.0, 1.0]), [1, 0]
        elif case == "dense_d16":
            rng = np.random.default_rng(7)
            args = random_hermitian(rng, 16), random_state(rng, 16)
        else:
            args = _ising_chain(np.random.default_rng(6), 6)
        plain = vars(build_report(*args))
        oracle = vars(build_report(*args, with_oracle=True))
        for key in plain.keys() - {"oracle", "warnings"}:
            assert repr(oracle[key]) == repr(plain[key]), key
        # the oracle's own warnings follow the plain report's
        assert oracle["warnings"][: len(plain["warnings"])] == plain["warnings"]

    def test_oracle_report_warns_on_a_spread_across_arc_samples(self, monkeypatch):
        # every evolved row has its amplitudes rolled by one place, so the
        # projector route read on the fits' snapshots no longer matches psi0.
        # The uniform psi0 is unchanged by the roll, so the rolled rows are the
        # evolution of psi0 under the rolled H, of the same moments: the fits still pass
        ham, psi = random_hermitian(np.random.default_rng(17), 16), np.full(16, 0.25)
        before = vars(build_report(ham, psi))
        evolve = EvolutionProblem.evolve
        monkeypatch.setattr(EvolutionProblem, "evolve", lambda problem, ts: np.roll(evolve(problem, ts), 1, axis=1))
        plain = vars(build_report(ham, psi))
        rep = vars(build_report(ham, psi, with_oracle=True))
        assert repr(plain) == repr(before)
        assert plain["warnings"] == []
        spread = [w for w in rep["warnings"] if w.endswith(" across arc-length samples")]
        assert [w.split(" varies by ")[0] for w in spread] == ["kappa_sq_geometric", "tau_sq_geometric"]
        for key in plain.keys() - {"oracle", "warnings"}:
            assert repr(rep[key]) == repr(plain[key]), key

    def test_oracle_report_warns_on_a_coarse_grid_then_on_a_spread(self, monkeypatch):
        # the rolled rows of the spread test above, on a grid whose largest
        # dt v is 0.17: the fits still pass (kappa misfit 1.7e-3), and the
        # grid's warning comes first, then kappa's spread, then tau's
        ham, psi = random_hermitian(np.random.default_rng(17), 16), np.full(16, 0.25)
        v = EvolutionProblem(ham, psi).speed
        evolve = EvolutionProblem.evolve
        monkeypatch.setattr(EvolutionProblem, "evolve", lambda problem, ts: np.roll(evolve(problem, ts), 1, axis=1))
        rep = build_report(ham, psi, with_oracle=True, dt_grid=[k * 0.17 / v for k in (0.25, 0.5, 1.0)])
        prefixes = ["largest step has dt*v", "kappa_sq_geometric varies by", "tau_sq_geometric varies by"]
        assert len(rep.warnings) == 3
        assert all(w.startswith(p) for w, p in zip(rep.warnings, prefixes))

    def test_oracle_report_spread_includes_psi0(self, monkeypatch):
        # every snapshot is the same rolled state, so the 4 reads there agree and
        # only psi0's pair, the report's own, sets the spread; the fits see no motion
        ham, psi = random_hermitian(np.random.default_rng(17), 16), np.full(16, 0.25)
        evolve = EvolutionProblem.evolve
        monkeypatch.setattr(
            EvolutionProblem, "evolve", lambda problem, ts: np.roll(evolve(problem, [ts[0]] * len(ts)), 1, axis=1)
        )
        rep = build_report(ham, psi, with_oracle=True)
        assert [w.split(" varies by ")[0] for w in rep.warnings] == ["kappa_sq_geometric", "tau_sq_geometric"]

    @pytest.mark.parametrize("fault, n", [("loose", 12), ("beta1", 6), ("beta1", 10), ("beta1", 12)])
    def test_oracle_report_warns_on_a_krylov_fault(self, fault, n, monkeypatch):
        # "loose": a basis that starts at 4 vectors and accepts an error estimate of
        # 1e-2 evolves the snapshots about 3e-9 off the curve, against the 1e-9 spread
        # threshold (the 10 arc samples that reached s = 1 read 6.3e-3 there);
        # "beta1": beta_1 of the tridiagonal T_m, scaled by 1 + 1e-4 once it exists,
        # evolves them 1.6e-8 to 3.1e-8 off
        args = _ising_chain(np.random.default_rng(n), n)
        assert build_report(*args, with_oracle=True).warnings == []
        if fault == "loose":
            monkeypatch.setattr(qucurve.evolution, "_KRYLOV_MIN_DIM", 4)
            monkeypatch.setattr(qucurve.evolution, "_KRYLOV_TOL", 1e-2)
        else:
            grow = EvolutionProblem._grow

            def scaled(problem, target):
                had_beta1 = len(problem._beta) > 1
                grow(problem, target)
                if not had_beta1 and len(problem._beta) > 1:
                    problem._beta[1] *= 1 + 1e-4

            monkeypatch.setattr(EvolutionProblem, "_grow", scaled)
        rep = build_report(*args, with_oracle=True)
        assert [w.split(" varies by ")[0] for w in rep.warnings] == ["kappa_sq_geometric", "tau_sq_geometric"]


def _recorded_problems(monkeypatch) -> list:
    """Every ``EvolutionProblem`` that ``build_report`` constructs, in order."""
    problems = []

    class Recorded(EvolutionProblem):
        def __init__(self, *args):
            super().__init__(*args)
            problems.append(self)

    monkeypatch.setattr(qucurve.reporting, "EvolutionProblem", Recorded)
    return problems


def _ising_chain(rng, n):
    """A transverse-field Ising chain with random signed couplings, Pauli-backed, on a random state."""
    zz = rng.uniform(0.5, 1.5, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    terms = [(c, "I" * i + "ZZ" + "I" * (n - i - 2)) for i, c in enumerate(zz)]
    terms += [(h, "I" * i + "X" + "I" * (n - i - 1)) for i, h in enumerate(rng.uniform(0.5, 1.5, n))]
    return pauli_sum(terms), random_state(rng, 2**n)


class TestOneMomentPass:
    """A report, a trajectory and a sweep row read the problem's moments instead
    of a second ``central_moments`` pass, and all three read the projector route
    at psi0 for the gate: they apply H only as often as the problem's
    construction, that read's two products and the route they go on to read do."""

    @pytest.mark.parametrize("n", [None, 6, 10], ids=["dense-d4", "pauli-n6", "pauli-n10"])
    def test_report(self, n, applies, monkeypatch):
        # both routes are read at psi0: H psi and H (H - E) psi for the moments,
        # H psi and H T for the projector route, and no Lanczos vector is started
        rng = np.random.default_rng(29)
        ham, psi = (random_hermitian(rng, 4), random_state(rng, 4)) if n is None else _ising_chain(rng, n)
        assert (ham._perms is None) == (n is None)  # dense matrix or Pauli groups
        problems = _recorded_problems(monkeypatch)
        build_report(ham, psi)
        assert applies[0] == 4
        assert len(problems) == 1
        assert len(problems[0]._alpha) == 0 and len(problems[0]._basis) == 0

    @pytest.mark.parametrize("n", [3, 8, 12, 14])
    def test_oracle_report(self, n, applies):
        # the plain report's 4, 15 more to grow the 16 Lanczos vectors that settle
        # the fits' snapshots (7 when d = 8 completes the basis), and 2 for each
        # projector-route read at the 4 snapshots: psi0's pair is the report's own
        args = _ising_chain(np.random.default_rng(11), n)
        build_report(*args)
        assert applies[0] == 4
        applies[0] = 0
        build_report(*args, with_oracle=True)
        assert applies[0] == (19 if n == 3 else 27)

    def test_sweep_row(self, applies):
        ham = single_qubit([0.3, 0.0, 1.0])
        sweep_row(ham, xi_state(0.4), 0.4, efficiency_t=1.0)
        row = applies[0]
        applies[0] = 0
        EvolutionProblem(ham, xi_state(0.4)).evolve([1.0])
        assert row == applies[0] + 2

    def test_trajectory_rows(self, applies):
        args = _ising_chain(np.random.default_rng(5), 4)
        list(trajectory_rows(*args, t_max=2.0, steps=9)[1])
        rows = applies[0]
        applies[0] = 0
        EvolutionProblem(*args).evolve(np.linspace(0.0, 2.0, 9))
        assert rows == applies[0] + 2


class TestTrajectoryRows:
    def test_chunked_rows_are_the_evolved_states(self, monkeypatch):
        # chunks of 3 rows: every row is the state evolve gives at its time
        rng = np.random.default_rng(113)
        ham, psi = random_hermitian(rng, 64), random_state(rng, 64)
        monkeypatch.setattr(qucurve.reporting, "_CHUNK_AMPLITUDES", 3 * 64)
        _, rows = trajectory_rows(ham, psi, t_max=20.0, steps=8)
        prob = EvolutionProblem(ham, psi)
        for t, row in zip(np.linspace(0.0, 20.0, 8), rows):
            assert row[3:-2] == [repr(x) for x in prob.evolve([t])[0].view(np.float64).tolist()]

    def test_equatorial_rotation(self):
        header, rows = trajectory_rows(SIGMA_Z, PLUS, t_max=1.0, steps=5)
        rows = list(rows)
        assert header == [
            "t",
            "s",
            "fidelity_to_initial",
            "re_a0",
            "im_a0",
            "re_a1",
            "im_a1",
            "ax",
            "ay",
            "az",
            "kappa_sq",
            "tau_sq",
        ]
        assert len(rows) == 5
        for row in rows:
            vals = dict(zip(header, (float(x) for x in row)))
            # speed is 1, so arc length equals time; the Bloch vector walks
            # the equator at angular rate 2
            assert vals["s"] == pytest.approx(vals["t"], abs=1e-14)
            assert vals["ax"] == pytest.approx(np.cos(2 * vals["t"]), abs=1e-12)
            assert vals["ay"] == pytest.approx(np.sin(2 * vals["t"]), abs=1e-12)
            assert vals["az"] == pytest.approx(0.0, abs=1e-12)
            assert vals["kappa_sq"] == pytest.approx(0.0, abs=1e-12)
            assert vals["tau_sq"] == pytest.approx(0.0, abs=1e-12)
        first = dict(zip(header, (float(x) for x in rows[0])))
        assert first["t"] == 0.0
        assert first["fidelity_to_initial"] == pytest.approx(1.0, abs=1e-14)

    def test_no_bloch_columns_beyond_qubits(self, crossed_fields_problem):
        header, rows = trajectory_rows(
            crossed_fields_problem.hamiltonian,
            crossed_fields_problem.initial_state,
            t_max=2.0,
            steps=3,
        )
        assert "ax" not in header
        assert header[3:11] == [f"{p}_a{k}" for k in range(4) for p in ("re", "im")]
        vals = dict(zip(header, (float(x) for x in list(rows)[2])))
        assert vals["t"] == pytest.approx(2.0)
        assert vals["re_a0"] == pytest.approx(np.cos(2.0) ** 2, abs=1e-12)
        assert vals["kappa_sq"] == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="steps"):
            trajectory_rows(SIGMA_Z, PLUS, t_max=1.0, steps=1)
        for t_max in (0.0, np.nan, np.inf):  # refused before the rows are iterated
            with pytest.raises(ValueError, match=r"^t_max must be positive and finite, got "):
                trajectory_rows(SIGMA_Z, PLUS, t_max=t_max, steps=5)
        with pytest.raises(StationaryStateError):
            trajectory_rows(SIGMA_Z, [1, 0], t_max=1.0, steps=5)

    @pytest.mark.parametrize("steps", [5.0, 2.5, True])
    def test_steps_must_be_an_integer(self, steps):
        # refused before returning, not when the rows are read
        with pytest.raises(ValueError, match=rf"^steps must be an integer >= 2, got {steps!r}$"):
            trajectory_rows(SIGMA_Z, PLUS, t_max=1.0, steps=steps)
        assert len(list(trajectory_rows(SIGMA_Z, PLUS, t_max=1.0, steps=np.int64(3))[1])) == 3

    def test_rows_are_deterministic(self):
        (header_a, a), (header_b, b) = (trajectory_rows(SIGMA_Z, PLUS, t_max=3.0, steps=7) for _ in range(2))
        assert header_a == header_b and list(a) == list(b)


class TestSweepRow:
    def test_xi_row_values(self):
        xi = 0.5
        row = sweep_row(single_qubit([0, 0, 1.0]), xi_state(xi), xi, efficiency_t=1.0)
        param, kappa, tau, eta, alpha4, alpha3_sq = (float(x) for x in row)
        assert param == xi
        assert kappa == pytest.approx(xi_curvature(xi), rel=1e-12)
        assert tau == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < eta <= 1.0
        assert alpha4 == pytest.approx(kappa + 1.0, rel=1e-12)
        assert alpha3_sq == pytest.approx(kappa, rel=1e-10)

    def test_all_entries_parse_as_floats(self):
        row = sweep_row(single_qubit([0, 0, 2.0]), xi_state(0.8), 0.8, efficiency_t=0.5)
        assert len(row) == 6
        assert all(isinstance(float(x), float) for x in row)


class TestPauliPathIsMatrixFree:
    """An n = 12 Ising chain through every report path; the operator has no dense view."""

    N = 12

    @pytest.fixture
    def chain(self):
        rng = np.random.default_rng(12)
        n = self.N
        zz, hx = rng.uniform(0.5, 1.5, n - 1), rng.uniform(0.5, 1.5, n)
        terms = [{"coeff": c, "word": "I" * i + "ZZ" + "I" * (n - i - 2)} for i, c in enumerate(zz)]
        terms += [{"coeff": h, "word": "I" * i + "X" + "I" * (n - i - 1)} for i, h in enumerate(hx)]
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        doc = {
            "hamiltonian": {"pauli_terms": terms},
            "state": {"amplitudes": [[a.real, a.imag] for a in psi]},
        }
        ham, state = parse_problem_spec(doc).build()
        return ham, state, self._reference(zz, hx, state)

    @staticmethod
    def _reference(zz, hx, psi):
        """Moments and a short-time evolution with an independent Ising apply."""
        n = len(hx)
        idx = np.arange(2**n)
        spins = 1 - 2 * ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1)
        diag = (spins[:, :-1] * spins[:, 1:]) @ zz

        def apply(v):
            return diag * v + sum(h * v[idx ^ (1 << (n - 1 - i))] for i, h in enumerate(hx))

        mean = np.vdot(psi, apply(psi)).real
        w1 = apply(psi) - mean * psi
        w2 = apply(w1) - mean * w1
        mu2, mu3, mu4 = np.vdot(w1, w1).real, np.vdot(w1, w2).real, np.vdot(w2, w2).real
        alpha3, alpha4 = mu3 / mu2**1.5, mu4 / mu2**2
        t = 0.05
        term, evolved = psi.copy(), psi.copy()
        for k in range(1, 40):  # Taylor series of exp(-iHt) psi; ||H|| t < 2
            term = -1j * t / k * apply(term)
            evolved = evolved + term
        return {
            "energy": mean,
            "speed": np.sqrt(mu2),
            "kappa_sq": alpha4 - 1.0,
            "tau_sq": alpha4 - 1.0 - alpha3**2,
            "alpha4": alpha4,
            "alpha3_sq": alpha3**2,
            "t": t,
            "fidelity": abs(np.vdot(psi, evolved)) ** 2,
            "eta": np.arccos(abs(np.vdot(psi, evolved))) / (np.sqrt(mu2) * t),
        }

    def test_operator_has_no_matrix(self):
        assert not hasattr(HermitianOperator, "matrix")

    def test_report(self, chain):
        ham, state, ref = chain
        rep = build_report(ham, state)
        assert rep.dimension == 2**self.N
        assert rep.energy == pytest.approx(ref["energy"], rel=1e-12, abs=1e-12)
        assert rep.speed == pytest.approx(ref["speed"], rel=1e-12)
        for route in ("moments", "geometric"):
            assert getattr(rep, f"kappa_sq_{route}") == pytest.approx(ref["kappa_sq"], rel=1e-10)
            assert getattr(rep, f"tau_sq_{route}") == pytest.approx(ref["tau_sq"], rel=1e-10)
        assert rep.warnings == []

    def test_trajectory_rows(self, chain):
        ham, state, ref = chain
        header, rows = trajectory_rows(ham, state, t_max=ref["t"], steps=2)
        first, last = list(rows)
        assert len(first) == len(header) == 3 + 2 * 2**self.N + 2
        assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
        assert float(last[2]) == pytest.approx(ref["fidelity"], abs=1e-12)
        assert float(last[-2]) == pytest.approx(ref["kappa_sq"], rel=1e-10)
        assert float(last[-1]) == pytest.approx(ref["tau_sq"], rel=1e-10)

    def test_sweep_row(self, chain):
        ham, state, ref = chain
        row = [float(x) for x in sweep_row(ham, state, 0.25, efficiency_t=ref["t"])]
        expected = [0.25, ref["kappa_sq"], ref["tau_sq"], ref["eta"], ref["alpha4"], ref["alpha3_sq"]]
        np.testing.assert_allclose(row, expected, rtol=1e-10)
