import re
import tracemalloc
import warnings

import numpy as np
import pytest

import qucurve.evolution

from qucurve import (
    EvolutionProblem,
    HermitianOperator,
    NumericalError,
    StationaryStateError,
    bell_state,
    build_frame,
    ghz_state,
    heisenberg3,
    single_qubit,
    two_qubit_local,
    two_qubit_nonlocal,
    w_state,
    xi_state,
)
from qucurve.frame import _vectors_from

from conftest import PAULI, crossed_fields_state, delta_h, dense, pauli_sum, propagator, random_hermitian, random_problem, random_state

PLUS = np.array([1, 1]) / np.sqrt(2)
SIGMA_Z = HermitianOperator(PAULI["Z"])


class TestPropagator:
    """The test-side dense reference that the Krylov evolution is checked against."""

    def test_sigma_z_half_period(self):
        np.testing.assert_allclose(
            propagator(SIGMA_Z, np.pi), np.diag([-1, -1]).astype(complex), atol=1e-14
        )

    def test_crossed_fields_closed_form(self, crossed_fields_problem):
        t = 0.7
        a, b, c = np.cos(t) ** 2, 0.5j * np.sin(2 * t), np.sin(t) ** 2
        expected = np.array(
            [[a, -b, -b, c], [-b, a, -c, b], [-b, -c, a, b], [c, b, b, a]]
        )
        got = propagator(crossed_fields_problem.hamiltonian, t)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_unitary_for_random_problems(self):
        rng = np.random.default_rng(23)
        for dim in (2, 4, 8):
            prob = random_problem(rng, dim)
            for t in rng.uniform(-5, 5, size=3):
                u = propagator(prob.hamiltonian, float(t))
                np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-10)

    def test_composition(self):
        rng = np.random.default_rng(29)
        prob = random_problem(rng, 3)
        u1 = propagator(prob.hamiltonian, 0.4)
        u2 = propagator(prob.hamiltonian, 1.1)
        np.testing.assert_allclose(u1 @ u2, propagator(prob.hamiltonian, 1.5), atol=1e-12)


class TestEvolutionProblem:
    def test_energy_matches_expectation(self):
        rng = np.random.default_rng(31)
        prob = random_problem(rng, 5)
        psi = prob.initial_state
        assert prob.energy == pytest.approx(np.vdot(psi, dense(prob.hamiltonian) @ psi).real, abs=1e-12)

    def test_speed_squared_is_variance(self):
        rng = np.random.default_rng(37)
        prob = random_problem(rng, 4)
        psi = prob.initial_state
        h2 = np.vdot(psi, dense(prob.hamiltonian) @ (dense(prob.hamiltonian) @ psi)).real
        assert prob.speed**2 == pytest.approx(h2 - prob.energy**2, rel=1e-12)

    def test_overflowing_phase_names_the_time(self):
        # |E| + max |theta| = 1 + 4.16 (E = 1, theta = +-sqrt(10) - 1): the phases
        # overflow at t = 1e308, which must name t rather than build a NaN state
        prob = EvolutionProblem(single_qubit([3.0, 0.0, 1.0]), [1, 0])
        prob.evolve([1e307])  # finite phases still evolve
        with pytest.raises(NumericalError, match=r"t = 1e\+308"):
            prob.evolve([1e308])

    def test_eigenstate_is_stationary(self):
        # refused at construction, so no problem has a zero speed to divide by
        with pytest.raises(StationaryStateError, match="^stationary state: arc length undefined$"):
            EvolutionProblem(SIGMA_Z, [1, 0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            EvolutionProblem(SIGMA_Z, [1, 0, 0])

    def test_delta_h_is_standardized(self):
        rng = np.random.default_rng(41)
        prob = random_problem(rng, 6)
        dh_psi = delta_h(prob) @ prob.initial_state
        assert np.vdot(dh_psi, dh_psi).real == pytest.approx(1.0, abs=1e-12)


class TestEvolve:
    def test_sigma_z_on_plus(self):
        prob = EvolutionProblem(SIGMA_Z, PLUS)
        for t in (0.0, 0.5, 2.0):
            expected = np.array([np.exp(-1j * t), np.exp(1j * t)]) / np.sqrt(2)
            np.testing.assert_allclose(prob.evolve([t])[0], expected, atol=1e-14)

    def test_crossed_fields_closed_form(self, crossed_fields_problem):
        for t in (0.0, 0.3, 1.9):
            np.testing.assert_allclose(
                crossed_fields_problem.evolve([t])[0],
                crossed_fields_state(t),
                atol=1e-12,
            )

    def test_norm_preserved(self):
        rng = np.random.default_rng(43)
        prob = random_problem(rng, 8)
        rows = prob.evolve([0.0, 1.0, 17.3])
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_norm_checked_as_rows_are_formed(self, monkeypatch):
        prob = random_problem(np.random.default_rng(43), 8)
        monkeypatch.setattr(qucurve.evolution, "_NORM_TOL", -1.0)
        with pytest.raises(NumericalError, match=r"^t = 17\.3: the evolved state has norm "):
            prob.evolve([17.3])


class TestParallelTransport:
    def test_phase_relative_to_evolve(self):
        theta = np.pi / 4
        state = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
        prob = EvolutionProblem(SIGMA_Z, state)
        t = 0.9
        ratio = prob.transported([t])[0] / prob.evolve([t])[0]
        np.testing.assert_allclose(ratio, np.exp(1j * prob.energy * t), atol=1e-12)

    def test_transported_derivative_is_horizontal(self):
        rng = np.random.default_rng(47)
        dt = 1e-4
        for dim in (2, 3, 4, 8):
            for _ in range(12):
                prob = random_problem(rng, dim)
                t = float(rng.uniform(0, 2))
                plus = prob.transported([t + dt])[0]
                minus = prob.transported([t - dt])[0]
                here = prob.transported([t])[0]
                deriv = (plus - minus) / (2 * dt)
                assert abs(np.vdot(here, deriv)) < 1e-6

    def test_symmetric_two_level_superposition_has_no_dynamical_phase(self):
        # eigenvalues +/- E weighted equally: <H> = 0, so the transported
        # representative coincides with the evolved state
        rng = np.random.default_rng(53)
        basis = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        energy = 1.7
        ham = HermitianOperator(
            energy * (np.outer(basis[:, 1], basis[:, 1].conj()) - np.outer(basis[:, 0], basis[:, 0].conj()))
        )
        phi = 0.6
        state = (basis[:, 0] + np.exp(1j * phi) * basis[:, 1]) / np.sqrt(2)
        prob = EvolutionProblem(ham, state)
        assert prob.energy == pytest.approx(0.0, abs=1e-12)
        t = 1.3
        np.testing.assert_allclose(
            prob.transported([t])[0],
            prob.evolve([t])[0],
            atol=1e-12,
        )


class TestArcLength:
    def test_crossed_fields_state_at_arclength(self, crossed_fields_problem):
        # speed is sqrt(2), so s = sqrt(2) t; <H> = 0 makes Psi = psi
        assert crossed_fields_problem.speed == pytest.approx(np.sqrt(2), rel=1e-14)
        for s in (0.0, 0.5, 1.2):
            np.testing.assert_allclose(
                crossed_fields_problem.transported([s / crossed_fields_problem.speed])[0],
                crossed_fields_state(s / np.sqrt(2)),
                atol=1e-12,
            )


def _tangent(prob, s):
    return build_frame(prob, s).rows[1]


def _acceleration(prob, s):
    """T'(s) = -(dh)^2 Psi(s), as the frame forms it before projecting."""
    _, accel, _, _, _ = _vectors_from(prob, prob.transported([s / prob.speed])[0])
    return accel


class TestTangent:
    """The frame's T = -i dh Psi against the evolved states."""

    def test_sigma_z_plus_at_origin(self):
        prob = EvolutionProblem(SIGMA_Z, PLUS)
        expected = np.array([-1j, 1j]) / np.sqrt(2)
        np.testing.assert_allclose(_tangent(prob, 0.0), expected, atol=1e-14)

    def test_unit_norm_and_orthogonal_to_state(self):
        rng = np.random.default_rng(59)
        for dim in (2, 4, 8):
            prob = random_problem(rng, dim)
            s = float(rng.uniform(0, 3))
            tan = _tangent(prob, s)
            psi = prob.transported([s / prob.speed])[0]
            assert np.linalg.norm(tan) == pytest.approx(1.0, rel=1e-12)
            assert abs(np.vdot(psi, tan)) < 1e-12

    def test_matches_finite_difference_of_state(self):
        rng = np.random.default_rng(61)
        prob = random_problem(rng, 4)
        s, ds = 0.8, 1e-5
        fd = (
            prob.transported([(s + ds) / prob.speed])[0]
            - prob.transported([(s - ds) / prob.speed])[0]
        ) / (2 * ds)
        np.testing.assert_allclose(_tangent(prob, s), fd, atol=1e-7)


class TestTangentDerivative:
    """The frame's T' = -i dh T against closed forms and T."""

    def test_crossed_fields_closed_form(self, crossed_fields_problem):
        for s in (0.0, 0.7):
            arg = np.sqrt(2) * s
            expected = np.array(
                [-np.cos(arg), 1j * np.sin(arg), 1j * np.sin(arg), np.cos(arg)]
            )
            np.testing.assert_allclose(
                _acceleration(crossed_fields_problem, s), expected, atol=1e-12
            )

    def test_matches_finite_difference_of_tangent(self):
        rng = np.random.default_rng(67)
        for dim in (2, 3, 8):
            prob = random_problem(rng, dim)
            s, ds = float(rng.uniform(0, 2)), 1e-4
            fd = (_tangent(prob, s + ds) - _tangent(prob, s - ds)) / (2 * ds)
            scale = np.linalg.norm(delta_h(prob), 2) ** 3
            np.testing.assert_allclose(
                _acceleration(prob, s), fd, atol=10 * ds**2 * max(1.0, scale)
            )

    def test_norm_is_fourth_moment_and_constant(self):
        rng = np.random.default_rng(71)
        prob = random_problem(rng, 5)
        dh = delta_h(prob)
        psi = prob.initial_state
        w = dh @ (dh @ psi)
        mu4_standardized = np.vdot(w, w).real
        for s in (0.0, 0.9, 2.4):
            tp = _acceleration(prob, s)
            assert np.vdot(tp, tp).real == pytest.approx(mu4_standardized, rel=1e-11)


class TestInvariances:
    def test_global_phase_of_initial_state(self):
        rng = np.random.default_rng(73)
        prob = random_problem(rng, 4)
        shifted = EvolutionProblem(
            prob.hamiltonian, np.exp(1j * 0.77) * prob.initial_state
        )
        assert shifted.energy == pytest.approx(prob.energy, abs=1e-12)
        assert shifted.speed == pytest.approx(prob.speed, rel=1e-12)

    def test_energy_shift_drops_out_of_transport(self):
        rng = np.random.default_rng(79)
        prob = random_problem(rng, 4)
        shifted = EvolutionProblem(
            HermitianOperator(dense(prob.hamiltonian) + 3.7 * np.eye(4)), prob.initial_state
        )
        t = 1.1
        np.testing.assert_allclose(
            shifted.transported([t])[0],
            prob.transported([t])[0],
            atol=1e-10,
        )

    def test_time_scaling_compensates_hamiltonian_scaling(self):
        rng = np.random.default_rng(83)
        prob = random_problem(rng, 4)
        lam = 2.5
        scaled = EvolutionProblem(HermitianOperator(lam * dense(prob.hamiltonian)), prob.initial_state)
        s = 0.9  # same arc length must give the same point on the curve
        np.testing.assert_allclose(
            scaled.transported([s / scaled.speed])[0],
            prob.transported([s / prob.speed])[0],
            atol=1e-11,
        )


class TestKrylovEvolution:
    """Lanczos evolution against the dense propagator reference."""

    @pytest.mark.parametrize("dim", [64, 256])
    def test_matches_propagator_on_random_problems(self, dim):
        rng = np.random.default_rng(dim)
        prob = random_problem(rng, dim)
        evals = np.linalg.eigvalsh(dense(prob.hamiltonian))
        # at t_full the spectral half-width times t is dim: the Krylov basis
        # must grow to (nearly) the whole space
        t_full = dim / (0.5 * (evals[-1] - evals[0]))
        for t in (0.0, 1e-3, 0.3, 2.0, t_full, 5 * t_full):
            expected = propagator(prob.hamiltonian, t) @ prob.initial_state
            np.testing.assert_allclose(prob.evolve([t])[0], expected, rtol=0, atol=1e-12)

    def test_ghz_on_heisenberg3(self):
        # GHZ spans a small invariant subspace: the Lanczos basis breaks down early
        ham = heisenberg3(1.4, 0.3, 0.6, 0.9)
        prob = EvolutionProblem(ham, ghz_state())
        for t in (0.0, 0.4, 3.0, 50.0):
            expected = propagator(ham, t) @ prob.initial_state
            np.testing.assert_allclose(prob.evolve([t])[0], expected, rtol=0, atol=1e-12)

    def test_two_level_superposition(self):
        rng = np.random.default_rng(89)
        ham = random_hermitian(rng, 64)
        evals, evecs = np.linalg.eigh(dense(ham))
        i, j, phi = 5, 40, 0.8
        prob = EvolutionProblem(ham, (evecs[:, i] + np.exp(1j * phi) * evecs[:, j]) / np.sqrt(2))
        for t in (0.0, 0.3, 7.0, 50.0):
            expected = (
                np.exp(-1j * evals[i] * t) * evecs[:, i]
                + np.exp(1j * (phi - evals[j] * t)) * evecs[:, j]
            ) / np.sqrt(2)
            np.testing.assert_allclose(prob.evolve([t])[0], expected, rtol=0, atol=1e-12)

    def test_state_independent_of_earlier_requests(self):
        rng = np.random.default_rng(97)
        ham, psi = random_hermitian(rng, 128), random_state(rng, 128)
        prob = EvolutionProblem(ham, psi)
        first = prob.evolve([0.05])[0]
        prob.evolve([50.0])
        np.testing.assert_array_equal(prob.evolve([0.05])[0], first)
        late = EvolutionProblem(ham, psi)
        late.evolve([50.0])
        np.testing.assert_array_equal(late.evolve([0.05])[0], first)

    def test_batched_rows_equal_single_evaluations(self):
        # each row is settled at the basis size its own time needs, whatever
        # else is in the batch and whatever was evolved before
        rng = np.random.default_rng(109)
        ham, psi = random_hermitian(rng, 128), random_state(rng, 128)
        ts = [3.0, 0.05, 40.0, 0.05, -2.5, 0.0, 3.0]
        alone = [EvolutionProblem(ham, psi).evolve([t])[0] for t in ts]
        prob = EvolutionProblem(ham, psi)
        np.testing.assert_array_equal(prob.evolve(ts), alone)
        np.testing.assert_array_equal(prob.evolve(ts[::-1]), alone[::-1])
        np.testing.assert_array_equal([prob.evolve([t])[0] for t in ts], alone)
        late = EvolutionProblem(ham, psi)
        late.evolve([40.0])
        np.testing.assert_array_equal(late.evolve(ts[:2]), alone[:2])
        # evolved rows are the transported rows times the phase exp(-iEt), bit for bit
        transported = [EvolutionProblem(ham, psi).transported([t])[0] for t in ts]
        np.testing.assert_array_equal(alone, transported * np.exp(-1j * prob.energy * np.array(ts))[:, None])
        np.testing.assert_array_equal(prob.transported(ts), transported)
        np.testing.assert_array_equal(prob.transported(ts[::-1]), transported[::-1])
        np.testing.assert_array_equal(late.transported(ts[:2]), transported[:2])

    @staticmethod
    def _ising_chain_from_zeros(n=12):
        terms = [(1.0, "I" * k + "ZZ" + "I" * (n - k - 2)) for k in range(n - 1)]
        terms += [(0.7, "I" * k + "X" + "I" * (n - k - 1)) for k in range(n)]
        return EvolutionProblem(pauli_sum(terms), np.eye(1, 2**n)[0])

    def test_keeps_nothing_of_dimension_d_beyond_the_basis(self):
        # between calls a problem keeps psi_0 and the Lanczos basis and
        # residual, which later calls grow, and only O(m) numbers besides
        prob = self._ising_chain_from_zeros()

        def kept_bytes():
            def array_bytes(obj):
                if isinstance(obj, np.ndarray):
                    return obj.nbytes
                if isinstance(obj, dict):
                    obj = list(obj.values())
                return sum(map(array_bytes, obj)) if isinstance(obj, (list, tuple)) else 0

            return array_bytes({k: v for k, v in vars(prob).items() if k not in ("initial_state", "_basis", "_residual")})

        prob.evolve([0.05])
        assert len(prob._alpha) == 16
        assert kept_bytes() < 64 * 1024
        prob.evolve([0.2])
        assert len(prob._alpha) == 20
        assert kept_bytes() < 64 * 1024
        prob._grow(25)
        assert kept_bytes() < 64 * 1024
        build_frame(prob, 0.1)
        assert kept_bytes() < 64 * 1024

    def test_rows_are_formed_without_an_m_by_d_array(self):
        # each row is its m coefficients times the basis: besides the k x d
        # result, a call holds O(1) arrays of dimension d, whatever m is
        prob = self._ising_chain_from_zeros()
        prob.evolve([1.0])
        m, k = len(prob._alpha), 10
        assert m == 38
        for rows in (prob.transported, prob.evolve):
            tracemalloc.start()
            try:
                rows(np.linspace(0.06, 0.6, k))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (k + 3) * prob.dim * 16

    def test_first_overflowing_time_is_named(self):
        prob = EvolutionProblem(single_qubit([3.0, 0.0, 1.0]), [1, 0])
        with pytest.raises(NumericalError, match=r"t = 5e\+307"):
            prob.evolve([1e307, 5e307, np.inf, 1e308])

    def test_overflowing_transport_names_the_time(self):
        # |E t| is past float range at t = 1e308: the walk's finiteness check
        # covers (E + theta) t, and evolve forms exp(-iEt) only after it, so
        # no overflow warning comes first
        prob = EvolutionProblem(single_qubit([0.6, 0.0, 0.8], m0=5.0), xi_state(0.3, 0.25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in (prob.transported, prob.evolve):
                with pytest.raises(NumericalError, match=r"^t = 1e\+308: "):
                    rows([1e308])
            with pytest.raises(NumericalError, match=f"^t = {re.escape(repr(1e308 / prob.speed))}: "):
                build_frame(prob, 1e308)

    @pytest.mark.parametrize(
        "hamiltonian, state, krylov_dim",
        [
            (single_qubit([0.6, 0.0, 0.8]), xi_state(0.3, 0.25), 2),
            (heisenberg3(1.4, 0.3, 0.6, 0.9), w_state(), 2),
            (two_qubit_nonlocal(0.7, 0.4, -0.3, 0.9), bell_state("phi+"), 2),
            (heisenberg3(1.4, 0.3, 0.6, 0.9), ghz_state(), 4),
            (two_qubit_nonlocal(0.7, 0.4, -0.3, 0.9), np.eye(1, 4)[0], 4),
            (two_qubit_local(0.7, 0.4, -0.3, 0.9), np.eye(1, 4)[0], 4),
            (random_hermitian(np.random.default_rng(8), 8), random_state(np.random.default_rng(9), 8), 8),
        ],
        ids=["qubit", "heisenberg3-w", "nonlocal-phi+", "heisenberg3-ghz", "nonlocal-00", "local-00", "dense-8"],
    )
    def test_walk_stops_at_the_krylov_dimension(self, hamiltonian, state, krylov_dim):
        # the Krylov space of (H, psi_0) has one dimension per distinct energy
        # in psi_0's support: the walk stops there, neither early nor late
        prob = EvolutionProblem(hamiltonian, state)
        prob.evolve([1.0])
        assert len(prob._alpha) == krylov_dim

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_fails_closed(self, t):
        prob = random_problem(np.random.default_rng(107), 40)
        with pytest.raises(NumericalError, match=f"t = {t!r}"):
            prob.evolve([t])

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_scaled_hamiltonian_at_rescaled_time(self, scale):
        rng = np.random.default_rng(101)
        prob = random_problem(rng, 64)
        scaled = EvolutionProblem(HermitianOperator(scale * dense(prob.hamiltonian)), prob.initial_state)
        for t in (0.2, 3.0):
            np.testing.assert_allclose(
                scaled.evolve([t / scale])[0], prob.evolve([t])[0], rtol=0, atol=1e-12
            )
