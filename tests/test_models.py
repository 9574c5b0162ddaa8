import math
import re

import numpy as np
import pytest

from qucurve import models
from qucurve import (
    EvolutionProblem,
    StationaryStateError,
    bell_state,
    bloch_to_state,
    central_moments,
    curvature_bloch,
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
    state_to_bloch,
    torsion_bloch,
    two_qubit_local,
    two_qubit_nonlocal,
    w_state,
    xi_curvature,
    xi_efficiency,
    xi_kurtosis,
    xi_state,
)

from conftest import dense, pauli_sum


def random_bloch(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestBlochMaps:
    def test_poles_and_equator(self):
        np.testing.assert_allclose(bloch_to_state([0, 0, 1]), [1, 0], atol=1e-15)
        np.testing.assert_allclose(
            np.abs(bloch_to_state([0, 0, -1])), [0, 1], atol=1e-15
        )
        np.testing.assert_allclose(
            bloch_to_state([1, 0, 0]), np.array([1, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_roundtrip(self):
        rng = np.random.default_rng(227)
        for _ in range(10):
            a = random_bloch(rng)
            np.testing.assert_allclose(state_to_bloch(bloch_to_state(a)), a, atol=1e-12)

    def test_circular_state(self):
        plus_i = np.array([1, 1j]) / np.sqrt(2)
        np.testing.assert_allclose(state_to_bloch(plus_i), [0, 1, 0], atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"unit length, got \|a\| = 2\.0$"):
            bloch_to_state([0, 0, 2])
        with pytest.raises(ValueError, match="shape"):
            bloch_to_state([1, 0])
        with pytest.raises(ValueError, match="d = 2"):
            state_to_bloch([1, 0, 0])


class TestBlochCurvature:
    def test_tilted_field_on_pole(self):
        # a.m = 1, |m|^2 = 2: kappa^2 = 4/(2-1) = 4
        assert curvature_bloch([0, 0, 1], [1, 0, 1]) == pytest.approx(4.0, rel=1e-14)

    def test_equatorial_states_follow_geodesics(self):
        assert curvature_bloch([1, 0, 0], [0, 0, 2.5]) == pytest.approx(0.0, abs=1e-15)

    def test_matches_moment_pipeline(self):
        rng = np.random.default_rng(229)
        for _ in range(20):
            a = random_bloch(rng)
            m = rng.normal(size=3)
            if abs(np.dot(a, m / np.linalg.norm(m))) > 0.99:
                continue
            ham = single_qubit(m, m0=float(rng.normal()))
            mom = central_moments(ham, bloch_to_state(a))
            assert curvature_bloch(a, m) == pytest.approx(mom.kappa_sq, rel=1e-9, abs=1e-11)
            assert abs(mom.tau_sq) < 1e-10

    def test_torsion_is_exactly_zero(self):
        assert torsion_bloch([0, 0, 1], [1, 0, 1]) == 0.0

    def test_degenerate_configurations(self):
        with pytest.raises(StationaryStateError):
            curvature_bloch([0, 0, 1], [0, 0, 3.0])  # eigenstate
        with pytest.raises(StationaryStateError):
            curvature_bloch([0, 0, 1], [0, 0, 0])  # no field
        with pytest.raises(StationaryStateError):
            torsion_bloch([1, 0, 0], [2, 0, 0])

    @pytest.mark.parametrize("closed_form", [curvature_bloch, torsion_bloch])
    def test_bit_exact_under_power_of_two_scaling(self, closed_form):
        # kappa^2 and tau^2 do not depend on the scale of H, and scaling the field by 2^k is exact
        a, m = (0.6, 0.0, 0.8), (0.7, 0.4, -0.3)
        want = closed_form(a, m)
        for k in range(-900, 901):
            assert closed_form(a, [math.ldexp(c, k) for c in m]) == want, k

    @pytest.mark.parametrize("closed_form", [curvature_bloch, torsion_bloch])
    @pytest.mark.parametrize("scale", [1e-300, 1e-7, 1e200, 1e300])
    def test_finite_at_any_field_scale(self, closed_form, scale):
        # 1e200 overflowed to NaN, and 1e-7 read as stationary (|m|^2 = 7.4e-15)
        a, m = (0.6, 0.0, 0.8), (0.7, 0.4, -0.3)
        got = closed_form(a, [scale * c for c in m])
        np.testing.assert_allclose(got, closed_form(a, m), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("closed_form", [curvature_bloch, torsion_bloch])
    @pytest.mark.parametrize(
        "a, message",
        [
            ([0.5, 0, 0], r"unit length, got \|a\| = 0\.5$"),
            ([0, 0, 0], r"unit length, got \|a\| = 0\.0$"),
            ([2, 0, 0], r"unit length, got \|a\| = 2\.0$"),
            ([np.nan, 0, 0], r"unit length, got \|a\| = nan$"),
            ([1, 0], r"shape \(3,\), got \(2,\)$"),
        ],
        ids=["half", "zero", "double", "nan", "short"],
    )
    def test_refuses_what_bloch_to_state_refuses(self, closed_form, a, message):
        # a is not the Bloch vector of a pure state; the field (1, 0, 1) is fine
        with pytest.raises(ValueError, match=message):
            bloch_to_state(a)
        with pytest.raises(ValueError, match=message):
            closed_form(a, [1, 0, 1])

    @pytest.mark.parametrize("closed_form", [curvature_bloch, torsion_bloch])
    @pytest.mark.parametrize(
        "m, shown",
        [
            ([np.nan, 0, 1], r"\[nan, 0\.0, 1\.0\]"),
            ([1, np.inf, 0], r"\[1\.0, inf, 0\.0\]"),
            ([1, 0], r"\[1\.0, 0\.0\]"),
        ],
        ids=["nan", "inf", "short"],
    )
    def test_refuses_a_non_finite_or_short_field(self, closed_form, m, shown):
        # the state a = (0, 0, 1) is fine; the field is not a finite 3-vector
        message = r"^field m must be a finite vector of shape \(3,\), got m = " + shown + "$"
        with pytest.raises(ValueError, match=message):
            closed_form([0, 0, 1], m)


class TestStateFactories:
    def test_bell_states(self):
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(bell_state("phi+"), [s, 0, 0, s], atol=1e-15)
        np.testing.assert_allclose(bell_state("phi-"), [s, 0, 0, -s], atol=1e-15)
        np.testing.assert_allclose(bell_state("psi+"), [0, s, s, 0], atol=1e-15)
        np.testing.assert_allclose(bell_state("psi-"), [0, s, -s, 0], atol=1e-15)

    def test_bell_aliases(self):
        # only the four lower-case labels name a Bell pair
        for alias in ("Φ+", "Ψ-", "PHI+", "Psi-"):
            with pytest.raises(ValueError, match=re.escape(f"unknown Bell state {alias!r};")):
                bell_state(alias)

    def test_bell_unknown(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            bell_state("omega")

    def test_ghz_and_w(self):
        ghz = ghz_state()
        assert ghz[0] == ghz[7] == pytest.approx(1 / np.sqrt(2))
        assert np.all(ghz[1:7] == 0)
        w = w_state()
        assert w[1] == w[2] == w[4] == pytest.approx(1 / np.sqrt(3))
        assert w[0] == w[3] == w[5] == w[6] == w[7] == 0

    def test_xi_state(self):
        np.testing.assert_allclose(xi_state(1.0), [1, 0], atol=1e-15)
        np.testing.assert_allclose(xi_state(0.0), [0, 1], atol=1e-15)
        got = xi_state(0.6, phi=np.pi / 2)
        np.testing.assert_allclose(got, [0.6, 0.8j], atol=1e-15)
        with pytest.raises(ValueError, match="xi"):
            xi_state(1.2)


class TestHamiltonianFactories:
    def test_single_qubit_matrices(self):
        np.testing.assert_allclose(
            dense(single_qubit([0, 0, 1])), np.diag([1.0, -1.0]), atol=1e-15
        )
        np.testing.assert_allclose(
            dense(single_qubit([1, 0, 0], m0=2.0)), [[2, 1], [1, 2]], atol=1e-15
        )

    def test_two_qubit_nonlocal_matrix(self):
        # XX flips both bits, ZZ weighs their parity
        got = dense(two_qubit_nonlocal(1.0, 1.0, 0.0, 0.0))
        expected = np.array(
            [[1, 0, 0, 1], [0, -1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1]], dtype=complex
        )
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_two_qubit_local_matrix(self):
        # first word letter acts on the most significant qubit
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        eye = np.eye(2)
        np.testing.assert_allclose(
            dense(two_qubit_local(1.0, 0.0, 0.0, 0.0)), np.kron(eye, x), atol=1e-15
        )
        np.testing.assert_allclose(
            dense(two_qubit_local(0.0, 1.0, 0.0, 0.0)), np.kron(x, eye), atol=1e-15
        )

    def test_heisenberg3_matrix(self):
        jx, jy, jz, h = 2.0, 1.0, 0.5, 0.3
        expected = np.zeros((8, 8))
        expected[0, 0] = 3 * h + 3 * jz
        for i in (1, 2, 4):
            expected[i, i] = h - jz
        for i in (3, 5, 6):
            expected[i, i] = -h - jz
        expected[7, 7] = 3 * jz - 3 * h
        for i, j in ((0, 3), (0, 5), (0, 6), (1, 7), (2, 7), (4, 7)):
            expected[i, j] = expected[j, i] = jx - jy
        for i, j in ((1, 2), (1, 4), (2, 4), (3, 5), (3, 6), (5, 6)):
            expected[i, j] = expected[j, i] = jx + jy
        np.testing.assert_allclose(dense(heisenberg3(jx, jy, jz, h)), expected, atol=1e-13)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestFamilyEncoding:
    """Family operators summed from the once-encoded word table equal a
    ``pauli_terms`` document of the same terms, byte for byte."""

    SPECIAL = (0.0, -0.0, 1, -3, 1e-300, -1e-300, 1e300, -1e300)

    def _couplings(self, rng, count):
        return [
            self.SPECIAL[rng.integers(len(self.SPECIAL))] if rng.random() < 0.5 else float(rng.normal())
            for _ in range(count)
        ]

    @pytest.mark.parametrize("family", sorted(models._FAMILY_WORDS))
    def test_table_sum_equals_pauli_terms_document(self, family):
        rng = np.random.default_rng(sorted(models._FAMILY_WORDS).index(family))
        groups = list(models._FAMILY_WORDS[family].values())
        # first each coupling takes -0.0, 0.0 and a negative value in turn, so
        # every word's row is weighted by a signed zero: equal bytes are equal
        # float64 halves with equal sign bits, which a value comparison misses
        signed_zeros = [np.roll([-0.0, 0.0, -1.5, 0.25], k).tolist() for k in range(len(groups))]
        for couplings in signed_zeros + [self._couplings(rng, len(groups)) for _ in range(50)]:
            want = pauli_sum((c, word) for c, group in zip(couplings, groups) for word in group)
            got = models._family_operator(family, couplings)
            assert got._perms.tobytes() == want._perms.tobytes()
            assert got._diags.tobytes() == want._diags.tobytes()
            assert _bits(got.frobenius_sq) == _bits(want.frobenius_sq)

    def test_builders_equal_the_table_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = self._couplings(rng, 4)
            floats = [float(x) for x in c]
            for got, family in (
                (single_qubit(c[:3], c[3]), "single_qubit"),
                (two_qubit_nonlocal(*c), "two_qubit_nonlocal"),
                (two_qubit_local(*c), "two_qubit_local"),
                (heisenberg3(*c), "heisenberg3"),
            ):
                want = models._family_operator(family, floats)
                assert got._diags.tobytes() == want._diags.tobytes()


class TestBuilderCouplingChecks:
    """Each public family builder rejects a coupling that is not a finite real number."""

    BUILDERS = {
        "single_qubit_field": lambda c: single_qubit([0.5, c, 1.0]),
        "single_qubit_m0": lambda c: single_qubit([0.5, 0.0, 1.0], m0=c),
        "two_qubit_nonlocal": lambda c: two_qubit_nonlocal(1.0, 0.5, c, 0.25),
        "two_qubit_local": lambda c: two_qubit_local(c, 1.0, 0.5, 0.25),
        "heisenberg3": lambda c: heisenberg3(1.0, 0.5, 0.25, c),
    }

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize(
        "coupling, message",
        [
            (float("nan"), "coefficient must be finite, got nan"),
            (float("inf"), "coefficient must be finite, got inf"),
            (float("-inf"), "coefficient must be finite, got -inf"),
            (1j, "coefficient must be a real number, got 1j"),
            (1 + 0j, r"coefficient must be a real number, got \(1\+0j\)"),
            ("0.5", "coefficient must be a real number, got '0.5'"),
            (True, "coefficient must be a real number, got True"),
            # an integer beyond float range is described by its digit count
            (10**400, "coefficient must be finite, got an integer of 401 digits"),
            pytest.param(-(10**400) + 1, "coefficient must be finite, got an integer of 400 digits", id="-1e400+1"),
            pytest.param(10**5000, "coefficient must be finite, got an integer of 5001 digits", id="1e5000"),
        ],
    )
    def test_rejects(self, builder, coupling, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.BUILDERS[builder](coupling)


CLOSED_FORMS = [
    nonlocal_product_coefficients,
    nonlocal_bell_coefficients,
    local_bell_coefficients,
    local_product_coefficients,
    heisenberg_ghz_coefficients,
    heisenberg_w_coefficients,
]


class TestCoefficientFormulas:
    def test_frozen_values(self):
        assert nonlocal_product_coefficients(2, 1, 1, 1) == pytest.approx((1 / 3, 1 / 27))
        assert nonlocal_bell_coefficients(1, 1, 1, 2) == pytest.approx((16.0, 0.0))
        assert local_bell_coefficients(1, 0, 0, 1) == pytest.approx((1.0, 1.0))
        assert local_product_coefficients(1, 1, 0, 0) == pytest.approx((1.0, 1.0))
        assert heisenberg_ghz_coefficients(1, 0, 0, 0) == pytest.approx((4 / 3, 0.0))
        assert heisenberg_w_coefficients(2, 1, 0, 0) == pytest.approx((12.0, 0.0))

    @pytest.mark.parametrize("closed_form", CLOSED_FORMS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_refuses_a_non_finite_coupling(self, closed_form, bad):
        # nonlocal_bell gave (0.0, 0.0) at m3 = inf, the others NaN or inf
        with pytest.raises(ValueError, match=f"^coefficient must be finite, got {bad}$"):
            closed_form(0.7, 0.4, bad, 0.9)

    @pytest.mark.parametrize("closed_form", CLOSED_FORMS, ids=lambda f: f.__name__)
    def test_bit_exact_under_power_of_two_scaling(self, closed_form):
        # kappa^2 and tau^2 do not depend on the scale of H, and scaling by 2^k is exact
        couplings = (0.7, 0.4, -0.3, 0.9)
        want = closed_form(*couplings)
        for k in range(-900, 901):
            assert closed_form(*(math.ldexp(c, k) for c in couplings)) == want, k

    @pytest.mark.parametrize("closed_form", CLOSED_FORMS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("scale", [1e-7, 1e200])
    def test_finite_at_any_coupling_scale(self, closed_form, scale):
        # 1e200 overflowed to NaN or OverflowError, and 1e-7 read as stationary
        couplings = (0.7, 0.4, -0.3, 0.9)
        got = closed_form(*(scale * c for c in couplings))
        np.testing.assert_allclose(got, closed_form(*couplings), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("closed_form", CLOSED_FORMS, ids=lambda f: f.__name__)
    def test_zero_couplings_stay_stationary(self, closed_form):
        with pytest.raises(StationaryStateError):
            closed_form(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(StationaryStateError):
            closed_form(0, 0, 0, 0)

    @staticmethod
    def _pipeline(ham, state):
        m = central_moments(ham, state)
        return m.kappa_sq, m.tau_sq

    def test_nonlocal_product_matches_pipeline(self):
        rng = np.random.default_rng(233)
        zero_zero = np.array([1, 0, 0, 0], dtype=complex)
        for _ in range(15):
            ms = rng.uniform(-2, 2, size=4)
            k, t = self._pipeline(two_qubit_nonlocal(*ms), zero_zero)
            ek, et = nonlocal_product_coefficients(*ms)
            assert k == pytest.approx(ek, rel=1e-9, abs=1e-10)
            assert t == pytest.approx(et, rel=1e-9, abs=1e-10)

    def test_nonlocal_bell_matches_pipeline(self):
        rng = np.random.default_rng(239)
        phi_plus = bell_state("phi+")
        for _ in range(15):
            ms = rng.uniform(-2, 2, size=4)
            k, t = self._pipeline(two_qubit_nonlocal(*ms), phi_plus)
            ek, _ = nonlocal_bell_coefficients(*ms)
            assert k == pytest.approx(ek, rel=1e-9, abs=1e-10)
            assert abs(t) < 1e-10

    def test_local_bell_matches_pipeline(self):
        rng = np.random.default_rng(241)
        phi_plus = bell_state("phi+")
        for _ in range(15):
            ms = rng.uniform(-2, 2, size=4)
            k, t = self._pipeline(two_qubit_local(*ms), phi_plus)
            ek, et = local_bell_coefficients(*ms)
            assert k == pytest.approx(ek, rel=1e-9, abs=1e-10)
            assert t == pytest.approx(et, rel=1e-9, abs=1e-10)

    def test_local_product_matches_pipeline(self):
        rng = np.random.default_rng(251)
        zero_zero = np.array([1, 0, 0, 0], dtype=complex)
        for _ in range(15):
            ms = rng.uniform(-2, 2, size=4)
            k, t = self._pipeline(two_qubit_local(*ms), zero_zero)
            ek, et = local_product_coefficients(*ms)
            assert k == pytest.approx(ek, rel=1e-9, abs=1e-10)
            assert t == pytest.approx(et, rel=1e-9, abs=1e-10)

    def test_heisenberg_matches_pipeline(self):
        rng = np.random.default_rng(257)
        for _ in range(15):
            js = rng.uniform(-2, 2, size=3)
            h = rng.uniform(-2, 2)
            k, t = self._pipeline(heisenberg3(*js, h), ghz_state())
            ek, et = heisenberg_ghz_coefficients(*js, h)
            assert k == pytest.approx(ek, rel=1e-8, abs=1e-9)
            assert t == pytest.approx(et, rel=1e-8, abs=1e-9)
            k, t = self._pipeline(heisenberg3(*js, h), w_state())
            ek, et = heisenberg_w_coefficients(*js, h)
            assert k == pytest.approx(ek, rel=1e-8, abs=1e-9)
            assert abs(t) < 1e-9

    def test_ghz_isotropic_limit_is_geodesic(self):
        # at j_x = j_y the shared anisotropy factor kills both coefficients,
        # and the pipeline agrees: the GHZ curve becomes a geodesic
        assert heisenberg_ghz_coefficients(1.0, 1.0, 0.5, 0.7) == (0.0, 0.0)
        k, t = self._pipeline(heisenberg3(1.0, 1.0, 0.5, 0.7), ghz_state())
        assert abs(k) < 1e-12
        assert abs(t) < 1e-12

    def test_degenerate_guards(self):
        with pytest.raises(StationaryStateError):
            nonlocal_product_coefficients(0, 1, 0, 0)
        with pytest.raises(StationaryStateError):
            nonlocal_bell_coefficients(1, 1, 0.5, 0.5)
        with pytest.raises(StationaryStateError):
            local_bell_coefficients(1, -1, 2, -2)
        with pytest.raises(StationaryStateError):
            local_product_coefficients(0, 0, 1, 1)
        with pytest.raises(StationaryStateError):
            heisenberg_ghz_coefficients(1, 1, 0, 0)
        with pytest.raises(StationaryStateError):
            heisenberg_w_coefficients(1, 1, 0.5, 2)


class TestXiFamily:
    XI_ZERO = np.sqrt(2 + np.sqrt(2)) / 2

    def test_anchor_values(self):
        assert xi_curvature(self.XI_ZERO) == pytest.approx(4.0, rel=1e-12)
        assert xi_curvature(1 / np.sqrt(2)) == pytest.approx(0.0, abs=1e-15)

    def test_kurtosis_offset(self):
        for xi in np.linspace(0.05, 0.95, 19):
            assert xi_kurtosis(xi) == pytest.approx(xi_curvature(xi) + 1.0, rel=1e-12)

    def test_curvature_matches_pipeline(self):
        for xi in (0.2, 0.55, 0.9):
            mom = central_moments(single_qubit([0, 0, 1.5]), xi_state(xi))
            assert xi_curvature(xi) == pytest.approx(mom.kappa_sq, rel=1e-10, abs=1e-12)

    def test_eigenstate_endpoints_rejected(self):
        for xi in (0.0, 1.0):
            with pytest.raises(StationaryStateError):
                xi_curvature(xi)
            with pytest.raises(StationaryStateError):
                xi_kurtosis(xi)

    @pytest.mark.parametrize("xi", [2.0, -0.5, 1.0 + 1e-12, float("nan")])
    @pytest.mark.parametrize(
        "closed_form", [xi_state, xi_curvature, xi_kurtosis, lambda xi: xi_efficiency(1.0, xi)],
        ids=["xi_state", "xi_curvature", "xi_kurtosis", "xi_efficiency"],
    )
    def test_xi_outside_unit_interval_rejected(self, closed_form, xi):
        # each closed form refuses what xi_state refuses, not with a negative kappa^2
        with pytest.raises(ValueError, match=r"^xi must lie in \[0, 1\], got "):
            closed_form(xi)


class TestEfficiency:
    def test_balanced_superposition_is_geodesic(self):
        prob = EvolutionProblem(single_qubit([0, 0, 1.0]), xi_state(1 / np.sqrt(2)))
        for t in (0.2, 0.8, 1.4):
            assert geodesic_efficiency(prob, t) == pytest.approx(1.0, abs=1e-12)
            assert xi_efficiency(t, 1 / np.sqrt(2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1.3, -1.3])
    def test_closed_form_matches_pipeline(self, m):
        for xi in (0.3, 0.6, 0.85):
            prob = EvolutionProblem(single_qubit([0, 0, m]), xi_state(xi))
            for t in (0.4, 1.1):
                assert geodesic_efficiency(prob, t) == pytest.approx(
                    xi_efficiency(t, xi, m), rel=1e-10
                )
            # the field's sign reverses the precession, not the path length
            assert xi_efficiency(0.4, xi, m) == xi_efficiency(0.4, xi, abs(m))

    def test_zero_field_is_stationary(self):
        with pytest.raises(StationaryStateError, match=r"m = 0"):
            xi_efficiency(1.0, 0.6, 0.0)

    def test_never_exceeds_unity(self):
        for xi in np.linspace(0.1, 0.9, 9):
            assert xi_efficiency(0.7, xi) <= 1.0 + 1e-12

    @pytest.mark.parametrize("t", [1e-5, 1e-8])
    def test_small_time_keeps_digits(self, t):
        """eta = 1 - kappa^2 (v t)^2 / 24 + O((v t)^4): the overlap rounds to 1 here."""
        for xi in np.linspace(0.1, 0.9, 9):
            v = 2.0 * xi * np.sqrt(1.0 - xi * xi)
            series = 1.0 - xi_curvature(xi) * (v * t) ** 2 / 24.0
            assert xi_efficiency(t, xi) == pytest.approx(series, rel=4e-16, abs=0.0)
            prob = EvolutionProblem(single_qubit([0, 0, 1.0]), xi_state(xi))
            assert geodesic_efficiency(prob, t) == pytest.approx(series, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "t, m", [(1.0, np.nan), (np.nan, 1.0), (1.0, np.inf), (1.0, -np.inf), (np.inf, 1.0)]
    )
    def test_non_finite_time_or_field(self, t, m):
        with pytest.raises(ValueError, match=r"^t and m must be finite, got "):
            xi_efficiency(t, 0.6, m)

    @pytest.mark.parametrize(
        "t, m, product",
        [(1e200, -1e200, "-inf"), (1e-200, 1e-200, "0.0"), (1e-160, 1e-160, "1e-320")],
        ids=["overflow", "underflow", "subnormal"],
    )
    def test_product_outside_the_normal_floats(self, t, m, product):
        # cos and sin of an infinite m t are NaN, and a zero or subnormal m t loses the angle's digits
        with pytest.raises(ValueError, match=rf"^m t must be a normal finite float, got m t = {product} at "):
            xi_efficiency(t, 0.3, m)

    def test_invalid_time(self):
        prob = EvolutionProblem(single_qubit([0, 0, 1.0]), xi_state(0.5))
        for t in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"^t must be positive and finite, got "):
                geodesic_efficiency(prob, t)
        with pytest.raises(ValueError, match="positive"):
            xi_efficiency(-1.0, 0.5)

    def test_stationary_state(self):
        # an eigenstate never reaches geodesic_efficiency: its problem is refused
        with pytest.raises(StationaryStateError, match="^stationary state: arc length undefined$"):
            EvolutionProblem(single_qubit([0, 0, 1.0]), [1, 0])
