import numpy as np
import pytest

from qucurve import (
    EvolutionProblem,
    HermitianOperator,
    StationaryStateError,
    central_moments,
    xi_state,
)

from conftest import PAULI, dense, pauli_sum, random_hermitian, random_state

SIGMA_Z = HermitianOperator(PAULI["Z"])
PLUS = np.array([1, 1]) / np.sqrt(2)


class TestCentralMoments:
    def test_sigma_z_on_plus(self):
        m = central_moments(SIGMA_Z, PLUS)
        assert m.mean == pytest.approx(0.0, abs=1e-15)
        assert m.mu2 == pytest.approx(1.0, rel=1e-15)
        assert m.mu3 == pytest.approx(0.0, abs=1e-15)
        assert m.mu4 == pytest.approx(1.0, rel=1e-15)
        assert m.alpha3 == pytest.approx(0.0, abs=1e-15)
        assert m.alpha4 == pytest.approx(1.0, rel=1e-15)

    def test_crossed_fields(self, crossed_fields_problem):
        m = central_moments(
            crossed_fields_problem.hamiltonian, crossed_fields_problem.initial_state
        )
        assert m.mean == pytest.approx(0.0, abs=1e-14)
        assert m.mu2 == pytest.approx(2.0, rel=1e-14)
        assert m.mu3 == pytest.approx(0.0, abs=1e-14)
        assert m.mu4 == pytest.approx(8.0, rel=1e-14)
        assert m.alpha4 == pytest.approx(2.0, rel=1e-14)

    def test_matches_spectral_definition(self):
        rng = np.random.default_rng(101)
        for dim in (2, 3, 5, 8):
            ham = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            m = central_moments(ham, psi)
            evals, evecs = np.linalg.eigh(dense(ham))
            weights = np.abs(evecs.conj().T @ psi) ** 2
            mean = weights @ evals
            centered = evals - mean
            assert m.mean == pytest.approx(mean, rel=1e-11, abs=1e-12)
            assert m.mu2 == pytest.approx(weights @ centered**2, rel=1e-11)
            assert m.mu3 == pytest.approx(weights @ centered**3, rel=1e-10, abs=1e-11)
            assert m.mu4 == pytest.approx(weights @ centered**4, rel=1e-11)

    def test_eigenstate_flags_stationary(self):
        # the moment pass refuses an eigenstate: no MomentSet describes a point
        with pytest.raises(StationaryStateError, match="^stationary state: arc length undefined$"):
            central_moments(SIGMA_Z, [0, 1])

    def test_stationarity_is_scale_invariant(self):
        # criterion is relative to the operator's size, so a huge eigenvalue
        # with tiny rounding residue still counts as stationary
        big = HermitianOperator(1e8 * PAULI["Z"])
        with pytest.raises(StationaryStateError, match="^stationary state: arc length undefined$"):
            central_moments(big, [1, 0])

    def test_dimension_mismatch(self):
        # both entry points reach the one check, in the moment pass
        for route in (central_moments, EvolutionProblem):
            with pytest.raises(ValueError, match=r"^dimension mismatch: hamiltonian 2, state 4$"):
                route(SIGMA_Z, [1, 0, 0, 0])


class TestMomentGeometry:
    def test_crossed_fields_curvature_and_torsion(self, crossed_fields_problem):
        m = central_moments(
            crossed_fields_problem.hamiltonian, crossed_fields_problem.initial_state
        )
        assert m.kappa_sq == pytest.approx(1.0, rel=1e-13)
        assert m.tau_sq == pytest.approx(1.0, rel=1e-13)

    def test_qubit_torsion_vanishes(self):
        # any two-level problem has a two-point energy distribution, whose
        # kurtosis saturates the Pearson bound
        rng = np.random.default_rng(103)
        for _ in range(25):
            m = central_moments(random_hermitian(rng, 2), random_state(rng, 2))
            assert abs(m.tau_sq) < 1e-10
            assert m.kappa_sq == pytest.approx(m.alpha3**2, rel=1e-8, abs=1e-10)

    def test_xi_state_curvature_closed_form(self):
        xi_zero = np.sqrt(2 + np.sqrt(2)) / 2  # where kappa^2 = 4
        for xi in (0.3, 0.5, xi_zero):
            m = central_moments(SIGMA_Z, xi_state(xi))
            assert m.mu2 == pytest.approx(4 * xi**2 * (1 - xi**2), rel=1e-13)
            expected = (1 - 2 * xi**2) ** 2 / (xi**2 * (1 - xi**2))
            assert m.kappa_sq == pytest.approx(expected, rel=1e-11, abs=1e-13)
            assert m.alpha4 == pytest.approx(
                (1 - 3 * xi**2 + 3 * xi**4) / (xi**2 * (1 - xi**2)), rel=1e-11
            )
            # two-point energy distribution: the skewness soaks up all of the
            # curvature and the torsion vanishes
            assert abs(m.tau_sq) < 1e-11
        m = central_moments(SIGMA_Z, xi_state(xi_zero))
        assert m.kappa_sq == pytest.approx(4.0, rel=1e-11)

    def test_pearson_inequality_holds(self):
        rng = np.random.default_rng(109)
        for dim in (2, 3, 4, 6, 8):
            for _ in range(20):
                m = central_moments(random_hermitian(rng, dim), random_state(rng, dim))
                assert m.tau_sq >= -1e-9
                assert m.kappa_sq >= -1e-12

    def test_stationary_state_raises(self):
        # both entry points to the moment pass refuse an eigenstate with one message
        for build in (central_moments, EvolutionProblem):
            with pytest.raises(StationaryStateError, match="^stationary state: arc length undefined$"):
                build(SIGMA_Z, [1, 0])


class TestInvariances:
    def test_energy_shift_leaves_central_moments(self):
        rng = np.random.default_rng(113)
        ham = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        base = central_moments(ham, psi)
        shifted = central_moments(HermitianOperator(dense(ham) + 2.9 * np.eye(4)), psi)
        assert shifted.mean == pytest.approx(base.mean + 2.9, rel=1e-12)
        assert shifted.mu2 == pytest.approx(base.mu2, rel=1e-10)
        assert shifted.mu3 == pytest.approx(base.mu3, rel=1e-9, abs=1e-10)
        assert shifted.mu4 == pytest.approx(base.mu4, rel=1e-10)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(127)
        ham = random_hermitian(rng, 5)
        psi = random_state(rng, 5)
        lam = 1.8
        base = central_moments(ham, psi)
        scaled = central_moments(HermitianOperator(lam * dense(ham)), psi)
        assert scaled.mu2 == pytest.approx(lam**2 * base.mu2, rel=1e-12)
        assert scaled.mu3 == pytest.approx(lam**3 * base.mu3, rel=1e-12)
        assert scaled.mu4 == pytest.approx(lam**4 * base.mu4, rel=1e-12)
        # standardized ratios, and hence the geometry, are unchanged
        assert scaled.alpha3 == pytest.approx(base.alpha3, rel=1e-12)
        assert scaled.alpha4 == pytest.approx(base.alpha4, rel=1e-12)

    def test_geometry_invariant_under_shift_and_scale(self):
        rng = np.random.default_rng(131)
        ham = random_hermitian(rng, 6)
        psi = random_state(rng, 6)
        base = central_moments(ham, psi)
        moved = central_moments(HermitianOperator(-0.7 * dense(ham) + 4.2 * np.eye(6)), psi)
        assert moved.kappa_sq == pytest.approx(base.kappa_sq, rel=1e-10)
        assert moved.tau_sq == pytest.approx(base.tau_sq, rel=1e-9, abs=1e-11)


class TestEvolutionProblemMoments:
    """``EvolutionProblem`` keeps the one ``central_moments`` pass it starts from."""

    @staticmethod
    def _pauli_problem(rng, n):
        words = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(2 * n + 1)]
        ham = pauli_sum((rng.normal(), w) for w in words)
        return ham, random_state(rng, 2**n)

    def _problems(self):
        rng = np.random.default_rng(2024)
        for dim in (2, 3, 4, 8, 16, 64):
            yield random_hermitian(rng, dim), random_state(rng, dim)
        for n in range(1, 7):
            yield self._pauli_problem(rng, n)
        yield SIGMA_Z, [0, 1]  # an eigenstate
        yield pauli_sum([(0.5, "ZZI"), (-1.5, "IZZ")]), np.eye(8)[5]

    def test_bitwise_equal_to_central_moments(self):
        stationary = 0
        for ham, psi in self._problems():
            try:
                want = central_moments(ham, psi)
            except StationaryStateError:
                with pytest.raises(StationaryStateError, match="^stationary state: arc length undefined$"):
                    EvolutionProblem(ham, psi)
                stationary += 1
                continue
            got = EvolutionProblem(ham, psi).moments
            for name in ("mean", "mu2", "mu3", "mu4", "alpha3", "alpha4"):
                assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes(), name
        assert stationary == 2

    def test_energy_and_speed_come_from_the_moments(self):
        rng = np.random.default_rng(5)
        problem = EvolutionProblem(random_hermitian(rng, 5), random_state(rng, 5))
        assert problem.energy == problem.moments.mean
        assert problem.speed == np.sqrt(problem.moments.mu2)
