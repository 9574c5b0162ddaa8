import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qucurve.oracles
from qucurve import (
    EvolutionProblem,
    NumericalError,
    StationaryStateError,
    central_moments,
    fit_coefficients,
    fubini_study_sq,
)
from qucurve.reporting import build_report
from qucurve.hilbert import HermitianOperator
from qucurve.models import single_qubit
from qucurve.oracles import _min_geodesic_deviation

from conftest import PAULI, load_demo, random_problem

classical_frenet_serret = load_demo("06_classical_correspondence").classical_frenet_serret

ZERO = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1]) / np.sqrt(2)


class TestFubiniStudy:
    def test_zero_versus_plus(self):
        assert fubini_study_sq(ZERO, PLUS) == pytest.approx(0.5, rel=1e-14)

    def test_orthogonal_states_saturate(self):
        assert fubini_study_sq(ZERO, [0, 1]) == pytest.approx(1.0, rel=1e-14)

    def test_identical_states_and_phase_invariance(self):
        assert fubini_study_sq(PLUS, PLUS) < 1e-28
        rotated = np.exp(1j * 1.23) * PLUS
        assert fubini_study_sq(PLUS, rotated) < 1e-28

    def test_symmetric(self):
        rng = np.random.default_rng(193)
        for dim in (2, 4):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            a = v / np.linalg.norm(v)
            b = w / np.linalg.norm(w)
            assert fubini_study_sq(a, b) == pytest.approx(fubini_study_sq(b, a), rel=1e-12)

    def test_retains_precision_for_nearby_states(self):
        # the residual-norm formula must resolve distances far below the
        # 1e-16 cancellation floor of 1 - |<a|b>|^2
        eps = 1e-8
        nearby = np.array([np.cos(eps), np.sin(eps)], dtype=complex)
        got = fubini_study_sq(ZERO, nearby)
        assert got == pytest.approx(np.sin(eps) ** 2, rel=1e-6)


def _on_segment(a, b, xi):
    """Unit vector at fraction xi of the linear blend of a and phase-aligned b.

    As xi runs over [0, 1] this sweeps the minimizing Fubini-Study geodesic
    from a to b once, by a different parametrization than the oracle's.
    """
    z = np.vdot(b, a)
    blend = (1.0 - xi) * a + xi * (z / abs(z)) * b
    return blend / np.linalg.norm(blend)


def _brute_min_deviation(a, p, b):
    """Minimal distance (unit prefactor) from p to the segment a -> b by repeated grid zooms."""
    lo, hi = 0.0, 1.0
    for _ in range(9):
        grid = np.linspace(lo, hi, 65)
        vals = [fubini_study_sq(_on_segment(a, b, xi), p) for xi in grid]
        i = int(np.argmin(vals))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, 64)]
    return min(vals)


def _bloch_ray(polar, azimuth):
    return np.array([np.cos(polar / 2), np.exp(1j * azimuth) * np.sin(polar / 2)])


class TestGeodesicDeviation:
    def test_endpoints(self):
        a, b = ZERO, PLUS
        assert _min_geodesic_deviation(a, a, b) < 1e-28
        assert _min_geodesic_deviation(a, np.exp(0.7j) * b, b) < 1e-28
        # a segment of one point
        assert _min_geodesic_deviation(a, b, -1j * a) == fubini_study_sq(a, b)

    def test_bloch_great_circle(self):
        # |0> -> |+> is the quarter of the x-z great circle from the pole to
        # the x axis.  Its midpoint lies on it; the Bloch point at polar angle
        # pi/4 and azimuth phi lies at cos(alpha) = sqrt((1 + cos^2 phi) / 2)
        # from its nearest point, a squared distance (1 - cos alpha) / 2.
        a, b = ZERO, PLUS
        assert _min_geodesic_deviation(a, _bloch_ray(np.pi / 4, 0.0), b) < 1e-28
        phi = 0.3
        want = 0.5 * (1.0 - np.sqrt((1.0 + np.cos(phi) ** 2) / 2.0))
        got = _min_geodesic_deviation(a, _bloch_ray(np.pi / 4, phi), b)
        assert got == pytest.approx(want, rel=1e-12)

    def test_interior_points_lie_on_minimizing_arc(self):
        # A point p is on the minimizing geodesic between a and b exactly when
        # the projective angles satisfy arc(a,p) + arc(p,b) = arc(a,b); the
        # reference blend must sweep it monotonically, and the closed form
        # must put every such point at distance zero.
        rng = np.random.default_rng(197)
        for _ in range(5):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            w = rng.normal(size=3) + 1j * rng.normal(size=3)
            a, b = v / np.linalg.norm(v), w / np.linalg.norm(w)
            z = abs(np.vdot(a, b))
            if z < 0.2:
                continue
            previous = 0.0
            for xi in (0.25, 0.5, 0.75):
                p = np.exp(1j * xi) * _on_segment(a, b, xi)
                from_a = np.arccos(np.clip(abs(np.vdot(a, p)), 0, 1))
                to_b = np.arccos(np.clip(abs(np.vdot(b, p)), 0, 1))
                assert from_a + to_b == pytest.approx(np.arccos(z), rel=1e-9, abs=1e-10)
                assert from_a > previous
                previous = from_a
                assert _min_geodesic_deviation(a, p, b) < 1e-28

    def test_optimum_outside_segment_clamps_to_endpoint(self):
        # the segment runs from polar angle 0 to 0.2 at azimuth 0; a point
        # beyond either end of it is nearest to that end
        a, b = ZERO, _bloch_ray(0.2, 0.0)
        beyond_b = _bloch_ray(1.0, 0.1)
        got = _min_geodesic_deviation(a, beyond_b, b)
        assert got == pytest.approx(fubini_study_sq(b, beyond_b), rel=1e-14)
        assert got == pytest.approx(_brute_min_deviation(a, beyond_b, b), rel=1e-12)
        before_a = _bloch_ray(0.5, np.pi)
        got = _min_geodesic_deviation(a, before_a, b)
        assert got == pytest.approx(fubini_study_sq(a, before_a), rel=1e-14)

    def test_orthogonal_endpoints_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            _min_geodesic_deviation(ZERO, PLUS, np.array([0.0, 1.0j]))

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.sampled_from([2, 3, 4, 8, 16]),
        log_step=st.floats(min_value=-4.0, max_value=-1.0),
    )
    def test_matches_brute_force_minimum(self, seed, dim, log_step):
        prob = random_problem(np.random.default_rng(seed), dim)
        dt = 10.0**log_step / prob.speed
        a = prob.initial_state
        p = prob.evolve([dt])[0]
        b = prob.evolve([2.0 * dt])[0]
        want = _brute_min_deviation(a, p, b)
        assert _min_geodesic_deviation(a, p, b) == pytest.approx(want, rel=1e-6)


class TestCurvatureFit:
    DT_GRID = (1e-3, 2e-3, 4e-3)

    def test_crossed_fields_coefficient(self, crossed_fields_problem):
        # mu4 - mu2^2 = 8 - 4 = 4 for this problem
        fit = fit_coefficients(crossed_fields_problem, self.DT_GRID)
        m = central_moments(crossed_fields_problem.hamiltonian, crossed_fields_problem.initial_state)
        assert fit.kappa_sq * m.mu2**2 == pytest.approx(4.0, rel=1e-4)
        assert fit.fit_residual_kappa < 1e-4
        assert fit.dt_grid == self.DT_GRID
        assert fit.kappa_sq == pytest.approx(1.0, rel=1e-4)

    def test_random_problems_within_two_percent(self):
        rng = np.random.default_rng(199)
        for dim in (2, 3, 4):
            prob = random_problem(rng, dim)
            grid = tuple(dt / prob.speed for dt in self.DT_GRID)
            fit = fit_coefficients(prob, grid)
            expected = central_moments(prob.hamiltonian, prob.initial_state).kappa_sq
            assert fit.kappa_sq == pytest.approx(expected, rel=0.02, abs=1e-8)

    def test_geodesic_has_no_misfit(self):
        # sigma_z on |+> runs along the equator, a great circle: every
        # deviation is rounding noise, which must neither fail the 5% gate
        # nor read as a misfit
        prob = EvolutionProblem(single_qubit([0.0, 0.0, 1.0]), PLUS)
        fit = fit_coefficients(prob, self.DT_GRID)
        assert fit.fit_residual_kappa == 0.0
        assert abs(fit.kappa_sq * prob.moments.mu2**2) <= 1e-12

    def test_grid_validation(self, crossed_fields_problem):
        with pytest.raises(ValueError, match="two distinct positive steps"):
            fit_coefficients(crossed_fields_problem, (1e-3,))
        with pytest.raises(ValueError, match="two distinct positive steps"):
            fit_coefficients(crossed_fields_problem, (1e-3, -1e-3))

    def test_coarse_grid_warns(self, crossed_fields_problem):
        with pytest.warns(UserWarning, match="quartic scaling"):
            fit_coefficients(crossed_fields_problem, (0.05, 0.1, 0.2))

    def test_stationary_state_rejected(self):
        # an eigenstate never reaches the fits: its problem is refused
        with pytest.raises(StationaryStateError, match="^stationary state: arc length undefined$"):
            EvolutionProblem(HermitianOperator(PAULI["Z"]), ZERO)


class TestTorsionFit:
    DT_GRID = (1e-3, 2e-3, 4e-3)

    def test_crossed_fields_coefficient(self, crossed_fields_problem):
        # tau^2 mu2^2 = 1 * 4 for this problem
        fit = fit_coefficients(crossed_fields_problem, self.DT_GRID)
        m = central_moments(crossed_fields_problem.hamiltonian, crossed_fields_problem.initial_state)
        assert fit.tau_sq * m.mu2**2 == pytest.approx(4.0, rel=1e-4)
        assert fit.tau_sq == pytest.approx(1.0, rel=1e-4)

    def test_single_qubit_coefficient_vanishes(self):
        # two snapshots already span the whole qubit space, so the third one
        # never leaves their plane: the fitted constant is pure rounding
        rng = np.random.default_rng(211)
        for _ in range(5):
            prob = EvolutionProblem(
                single_qubit(rng.normal(size=3)),
                np.array([0.6, 0.8j], dtype=complex),
            )
            fit = fit_coefficients(prob, tuple(dt / prob.speed for dt in self.DT_GRID))
            assert abs(fit.tau_sq * prob.moments.mu2**2) <= 1e-10
            assert fit.fit_residual_tau == 0.0  # a column of rounding noise has no misfit

    def test_random_problems_within_two_percent(self):
        rng = np.random.default_rng(223)
        for dim in (3, 4, 8):
            prob = random_problem(rng, dim)
            expected = central_moments(prob.hamiltonian, prob.initial_state).tau_sq
            if expected < 1e-3:  # quartic signal would drown in noise
                continue
            grid = tuple(dt / prob.speed for dt in self.DT_GRID)
            assert fit_coefficients(prob, grid).tau_sq == pytest.approx(expected, rel=0.02)


class TestGridChecks:
    def test_repeated_step_rejected(self, crossed_fields_problem):
        # one distinct step fits C dt^4 exactly through any value, so the 5% misfit gate could never fire
        with pytest.raises(ValueError, match="two distinct positive steps"):
            fit_coefficients(crossed_fields_problem, (3e-3, 3e-3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_step_rejected(self, crossed_fields_problem, bad):
        # refused before the coarse-step warning, not later as non-finite evolution phases
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^dt_grid must contain at least two distinct positive steps, all finite$"):
                fit_coefficients(crossed_fields_problem, (1e-3, bad))

    def test_step_below_floor_rejected(self, crossed_fields_problem):
        # dt v = 1.4e-9: every deviation lies under the rounding floor, so a
        # fit would report a residual of 0 on pure noise
        with pytest.raises(NumericalError, match="dt_grid: smallest dt\\*v = 1.41e-09"):
            fit_coefficients(crossed_fields_problem, (1e-9, 2e-9))

    def test_overflowing_grid_rejected(self, crossed_fields_problem):
        # dt^4 overflows, so the fitted coefficient would be NaN
        with pytest.warns(UserWarning, match="quartic scaling"), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="dt_grid: quartic fit gives coefficient nan"):
                fit_coefficients(crossed_fields_problem, (1e300, 2e300))

    def test_small_curvature_resolved_just_above_floor(self):
        # a qubit with kappa^2 = 1e-3, the smallest value the floor is sized
        # for, on a grid of dt v = 2e-5, 4e-5, 8e-5
        # sigma_z on a state of Bloch height z has kappa^2 = 4 z^2 / (1 - z^2)
        theta = np.arccos(np.sqrt(1e-3 / (4 + 1e-3)))
        prob = EvolutionProblem(single_qubit([0.0, 0.0, 1.0]), [np.cos(theta / 2), np.sin(theta / 2)])
        assert central_moments(prob.hamiltonian, prob.initial_state).kappa_sq == pytest.approx(1e-3, rel=1e-12)
        fit = fit_coefficients(prob, tuple(k * 2e-5 / prob.speed for k in (1.0, 2.0, 4.0)))
        assert fit.kappa_sq == pytest.approx(1e-3, rel=1e-5)


class TestSnapshots:
    """Every distinct time of {dt, 2 dt} is evolved once, in one walk, per pair of fits or per report."""

    @pytest.fixture
    def walks(self, monkeypatch):
        walks = []
        evolve = EvolutionProblem.evolve

        def counted(problem, ts):
            walks.append(list(ts))
            return evolve(problem, ts)

        monkeypatch.setattr(EvolutionProblem, "evolve", counted)
        return walks

    def test_four_distinct_times_per_fit(self, crossed_fields_problem, walks):
        grid = tuple(k * 1e-3 / crossed_fields_problem.speed for k in (1.0, 2.0, 4.0))
        fit_coefficients(crossed_fields_problem, grid)
        assert len(walks) == 1
        times = walks[0]
        assert len(times) == len(set(times)) == 4
        assert set(times) == {grid[0], grid[1], grid[2], 2.0 * grid[2]}

    def test_fits_apply_h_only_to_grow_the_walk(self, crossed_fields_problem, applies):
        # the Krylov space of H = XZ + ZX and |00> has dimension 3: two applies
        # complete its basis, and the fits read no other route
        applies[0] = 0
        fit_coefficients(crossed_fields_problem)
        assert applies[0] == 2

    def test_oracle_report_evolves_four_times_in_one_walk(self, crossed_fields_problem, walks):
        """A plain report walks nothing; an oracle report makes one walk, of the
        fits' 4 times, and checks the projector route on those rows."""
        args = crossed_fields_problem.hamiltonian, crossed_fields_problem.initial_state
        build_report(*args)
        assert walks == []
        build_report(*args, with_oracle=True)
        grid = [k * 1e-3 / crossed_fields_problem.speed for k in (1.0, 2.0, 4.0)]
        assert walks == [[grid[0], grid[1], grid[2], 2.0 * grid[2]]]


def test_oracles_bind_nothing_of_the_projector_route():
    # the report compares the routes; the fits that it compares stay independent of the frame
    assert [k for k, v in vars(qucurve.oracles).items() if getattr(v, "__module__", None) == "qucurve.frame"] == []


class TestClassicalFrenetSerret:
    """The R^3 extractor that demo 06 carries, loaded from the demo file."""

    def _circle(self, radius, n=2001):
        t = np.linspace(0.0, 2 * np.pi, n)
        pts = np.stack(
            [radius * np.cos(t), radius * np.sin(t), np.zeros_like(t)], axis=1
        )
        return t, pts

    def test_circle(self):
        t, kappa, tau = classical_frenet_serret(*self._circle(1.7))
        np.testing.assert_allclose(kappa, 1 / 1.7, rtol=1e-5)
        np.testing.assert_allclose(tau, 0.0, atol=1e-9)
        assert t.shape == kappa.shape == tau.shape == (2001 - 4,)

    def test_helix(self):
        a, b = 2.0, 0.5
        t = np.linspace(0.0, 4 * np.pi, 4001)
        pts = np.stack([a * np.cos(t), a * np.sin(t), b * t], axis=1)
        _, kappa, tau = classical_frenet_serret(t, pts)
        np.testing.assert_allclose(kappa, a / (a**2 + b**2), rtol=1e-5)
        np.testing.assert_allclose(tau, b / (a**2 + b**2), rtol=1e-5)

    def test_interior_parameter_slice(self):
        t, pts = self._circle(1.0, n=9)
        inner, _, _ = classical_frenet_serret(t, pts)
        np.testing.assert_allclose(inner, t[2:-2])

    def test_straight_line_rejected(self):
        t = np.linspace(0, 1, 11)
        pts = np.stack([t, 2 * t, 3 * t], axis=1)
        with pytest.raises(ValueError, match="degenerate"):
            classical_frenet_serret(t, pts)

    def test_nonuniform_grid_rejected(self):
        t = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5])
        pts = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        with pytest.raises(ValueError, match="uniform"):
            classical_frenet_serret(t, pts)

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="at least 5"):
            classical_frenet_serret(np.linspace(0, 1, 4), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="increasing"):
            classical_frenet_serret(np.array([0.0, 0.2, 0.1, 0.3, 0.4]), np.zeros((5, 3)))
        with pytest.raises(ValueError, match="increasing"):  # uniform, but decreasing
            classical_frenet_serret(np.linspace(1, 0, 5), np.zeros((5, 3)))
        with pytest.raises(ValueError, match="increasing"):  # uniform, with step 0
            classical_frenet_serret(np.zeros(5), np.zeros((5, 3)))
        with pytest.raises(ValueError, match="expected"):
            classical_frenet_serret(np.linspace(0, 1, 5), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="expected"):
            classical_frenet_serret(np.linspace(0, 1, 6).reshape(2, 3), np.zeros((6, 3)))
