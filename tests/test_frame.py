import dataclasses
import tracemalloc

import numpy as np
import pytest

import qucurve.frame
from qucurve import (
    EvolutionProblem,
    HermitianOperator,
    StationaryStateError,
    bell_state,
    build_frame,
    central_moments,
    two_qubit_nonlocal,
)
from qucurve.frame import _curvature_torsion_at, _dh
from qucurve.models import single_qubit

from conftest import dense, pauli_sum, random_hermitian, random_problem, random_state


def geometric_at(problem, s):
    """(kappa^2, tau^2) on the projector route at one arc length."""
    fr = build_frame(problem, s)
    return fr.kappa_sq, fr.tau_sq


def ising_chain_from_zeros(rng, n):
    """A transverse-field Ising chain with random signed couplings, Pauli-backed, from |0...0>."""
    zz = rng.uniform(0.5, 1.5, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    terms = [(c, "I" * i + "ZZ" + "I" * (n - i - 2)) for i, c in enumerate(zz)]
    terms += [(h, "I" * i + "X" + "I" * (n - i - 1)) for i, h in enumerate(rng.uniform(0.5, 1.5, n))]
    return EvolutionProblem(pauli_sum(terms), np.eye(1, 2**n)[0])


def crossed_fields_tangent(s):
    arg = np.sqrt(2) * s
    return np.array(
        [-np.sin(arg), -1j * np.cos(arg), -1j * np.cos(arg), np.sin(arg)]
    ) / np.sqrt(2)


def crossed_fields_binormal(s):
    arg = np.sqrt(2) * s
    return np.array(
        [
            0.5 - 0.5 * np.cos(arg),
            0.5j * np.sin(arg),
            0.5j * np.sin(arg),
            0.5 * np.cos(arg) + 0.5,
        ]
    )


class TestWorkedExample:
    """H = XZ + ZX on |00>: every frame ingredient has a trig closed form."""

    def test_curvature_and_torsion(self, crossed_fields_problem):
        pairs = [geometric_at(crossed_fields_problem, s) for s in (0.0, 0.4, 1.1)]
        assert np.array(pairs) == pytest.approx(np.ones((3, 2)), abs=1e-12)

    def test_frame_vectors(self, crossed_fields_problem):
        for s in (0.0, 0.9):
            fr = build_frame(crossed_fields_problem, s)
            assert fr.rows.shape == (3, 4)
            np.testing.assert_allclose(fr.rows[1], crossed_fields_tangent(s), atol=1e-12)
            np.testing.assert_allclose(fr.rows[2], crossed_fields_binormal(s), atol=1e-12)

    def test_singlet_is_off_the_frame(self, crossed_fields_problem):
        # {psi, T, N} all live in the triplet sector, so the singlet
        # (|01> - |10>)/sqrt(2) is orthogonal to every frame row at every s
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        for s in (0.0, 0.7):
            fr = build_frame(crossed_fields_problem, s)
            assert len(fr.rows) == 3
            assert np.max(np.abs(fr.rows.conj() @ singlet)) == pytest.approx(0.0, abs=1e-12)

    def test_cartan_matrix(self, crossed_fields_problem):
        expected = np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=complex)
        for s in (0.0, 1.3):
            np.testing.assert_allclose(
                build_frame(crossed_fields_problem, s).cartan, expected, atol=1e-12
            )


class TestGeometricPath:
    def test_binormal_row_is_orthogonal_to_psi_and_tangent(self):
        rng = np.random.default_rng(137)
        for dim in (3, 4, 8):
            prob = random_problem(rng, dim)
            psi, tan, binormal = build_frame(prob, float(rng.uniform(0, 2))).rows
            assert abs(np.vdot(psi, binormal)) < 1e-12
            assert abs(np.vdot(tan, binormal)) < 1e-12

    def test_coefficients_constant_along_curve(self):
        rng = np.random.default_rng(139)
        prob = random_problem(rng, 5)
        (k0, t0), *rest = [geometric_at(prob, s) for s in (0.0, 0.6, 1.7, 3.1)]
        for k, t in rest:
            assert k == pytest.approx(k0, rel=1e-10)
            assert t == pytest.approx(t0, rel=1e-10, abs=1e-12)

    def test_agrees_with_moment_path(self):
        rng = np.random.default_rng(149)
        for dim in (2, 3, 4, 8):
            for _ in range(10):
                prob = random_problem(rng, dim)
                m = central_moments(prob.hamiltonian, prob.initial_state)
                kappa_sq, tau_sq = geometric_at(prob, 0.0)
                assert kappa_sq == pytest.approx(m.kappa_sq, rel=1e-10, abs=1e-10)
                assert tau_sq == pytest.approx(m.tau_sq, rel=1e-8, abs=1e-10)

    def test_qubit_curves_are_planar(self):
        rng = np.random.default_rng(151)
        for _ in range(10):
            m = rng.normal(size=3)
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            state = [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]
            try:
                prob = EvolutionProblem(single_qubit(m), state)
            except StationaryStateError:
                continue
            assert geometric_at(prob, 0.3)[1] < 1e-20


class TestBuildFrame:
    def test_frame_rows_are_orthonormal(self):
        rng = np.random.default_rng(157)
        for dim in (2, 3, 4, 8, 64, 1024):
            prob = random_problem(rng, dim)
            fr = build_frame(prob, float(rng.uniform(0, 2)))
            k = 3 if qucurve.frame._binormal_present(fr.tau_sq) else 2
            assert fr.rows.shape == (k, dim)
            np.testing.assert_allclose(
                fr.rows.conj() @ fr.rows.T, np.eye(k), atol=1e-10
            )

    def test_frame_is_its_rows(self):
        rng = np.random.default_rng(158)
        prob = random_problem(rng, 5)
        fr = build_frame(prob, 0.6)
        assert [f.name for f in dataclasses.fields(fr)] == ["s", "rows", "kappa_sq", "tau_sq", "cartan"]
        assert fr.rows.dtype == complex and not fr.rows.flags.writeable
        with pytest.raises(ValueError):
            fr.rows[0, 0] = 0.0
        # rows[0] is the transported state itself, bit for bit
        np.testing.assert_array_equal(fr.rows[0], prob.transported([0.6 / prob.speed])[0])

    def test_frame_memory_is_linear_in_d(self):
        # the frame is k <= 3 rows of length d: at n = 12 (d = 4096) one
        # d x d array alone would take 256 MiB
        prob = ising_chain_from_zeros(np.random.default_rng(11), 12)
        prob.transported([0.5 / prob.speed])  # grows the Krylov basis that build_frame reuses
        tracemalloc.start()
        try:
            fr = build_frame(prob, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fr.rows) == 3
        assert peak < 32 * 2**20

    def test_planar_curve_has_no_binormal(self):
        prob = EvolutionProblem(
            single_qubit([0.0, 0.0, 1.0]), [0.8, 0.6]
        )
        fr = build_frame(prob, 0.5)
        assert not qucurve.frame._binormal_present(fr.tau_sq)
        assert len(fr.rows) == 2
        # third row and column of the structure matrix stay empty
        np.testing.assert_allclose(fr.cartan[2, :], 0.0, atol=1e-15)
        np.testing.assert_allclose(fr.cartan[:, 2], 0.0, atol=1e-15)

    @pytest.mark.parametrize("case", ["crossed_fields", "nonlocal_phi_plus", "ising_n10"])
    def test_applies_h_once_per_frame_row(self, case, crossed_fields_problem, applies):
        # T and T' are formed once, for the coefficients and the structure
        # matrix alike: only the binormal's row needs one more product
        if case == "crossed_fields":
            prob, k = crossed_fields_problem, 3
        elif case == "nonlocal_phi_plus":
            prob, k = EvolutionProblem(two_qubit_nonlocal(0.7, 0.4, -0.3, 0.9), bell_state("phi+")), 2
        else:
            prob, k = ising_chain_from_zeros(np.random.default_rng(10), 10), 3
        prob.transported([0.5 / prob.speed])  # grows the basis, so the frame's state costs no apply
        applies[0] = 0
        assert len(build_frame(prob, 0.5).rows) == k
        assert applies[0] == k


class TestCartanMatrix:
    def test_skew_hermitian(self):
        rng = np.random.default_rng(167)
        for dim in (2, 3, 4, 8):
            for _ in range(5):
                prob = random_problem(rng, dim)
                cart = build_frame(prob, float(rng.uniform(0, 2))).cartan
                np.testing.assert_allclose(cart + cart.conj().T, 0.0, atol=1e-12)

    def test_entries_encode_curvature_and_torsion(self):
        rng = np.random.default_rng(173)
        for dim in (3, 4, 8):
            for _ in range(5):
                prob = random_problem(rng, dim)
                m = central_moments(prob.hamiltonian, prob.initial_state)
                cart = build_frame(prob, 0.0).cartan
                tau = np.sqrt(max(m.tau_sq, 0.0))
                assert abs(cart[1, 2]) == pytest.approx(tau, rel=1e-9, abs=1e-10)
                assert abs(cart[1, 1]) == pytest.approx(abs(m.alpha3), rel=1e-9, abs=1e-10)

    def test_first_row_is_pure_tangent(self):
        rng = np.random.default_rng(179)
        prob = random_problem(rng, 6)
        cart = build_frame(prob, 1.1).cartan
        np.testing.assert_allclose(cart[0], [0, 1, 0], atol=1e-12)

    def test_constant_along_curve(self):
        rng = np.random.default_rng(181)
        prob = random_problem(rng, 4)
        np.testing.assert_allclose(
            build_frame(prob, 0.2).cartan, build_frame(prob, 1.9).cartan, atol=1e-11
        )

    def test_matches_finite_differences_of_frame(self):
        # the matrix is built from analytic derivatives; check each entry
        # against a central difference of the frame vectors themselves
        rng = np.random.default_rng(191)
        prob = random_problem(rng, 5)
        s, ds = 0.7, 1e-5
        fr = build_frame(prob, s)
        lo = build_frame(prob, s - ds)
        hi = build_frame(prob, s + ds)
        for i, (lo_v, hi_v) in enumerate(zip(lo.rows, hi.rows)):
            deriv = (hi_v - lo_v) / (2 * ds)
            for j in range(3):
                fd = np.vdot(fr.rows[j], deriv)
                assert fr.cartan[i, j] == pytest.approx(fd, abs=1e-5)


class TestSigmaZPlane:
    def test_equatorial_rotation_frame(self):
        # sigma_z on |+>: geodesic on the equator, kappa = tau = 0, and the
        # structure matrix reduces to the bare rotation block
        prob = EvolutionProblem(
            single_qubit([0, 0, 1.0]), np.array([1, 1]) / np.sqrt(2)
        )
        assert geometric_at(prob, 0.0) == pytest.approx((0.0, 0.0), abs=1e-12)
        cart = build_frame(prob, 0.0).cartan
        np.testing.assert_allclose(cart[:2, :2], [[0, 1], [-1, 0]], atol=1e-12)


def test_frame_route_does_not_use_moment_route():
    # the frame cross-checks the moment formulas, so it must not read them
    assert "central_moments" not in vars(qucurve.frame)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_pauli_backing_matches_dense_backing(n):
    # the same operator behind both backings: apply by grouped permutations
    # against the dense matvec, through both routes and the structure matrix
    rng = np.random.default_rng(n)
    words = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(2 * n)]
    pauli = pauli_sum(zip(rng.normal(size=2 * n), words))
    dense_op = HermitianOperator(dense(pauli))
    state = random_state(rng, 2**n)
    got, want = [], []
    for op, out in ((pauli, got), (dense_op, want)):
        mom = central_moments(op, state)
        prob = EvolutionProblem(op, state)
        out.append([mom.kappa_sq, mom.tau_sq])
        out.append(geometric_at(prob, 0.7))
        out.append(build_frame(prob, 0.7).cartan)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def _bitwise_case(backing, dim, shape, rng):
    """A problem with a random psi0.  On a planar one H has two eigenvalues,
    so the curve stays in the plane of psi0's two eigenspace components."""
    if backing == "pauli":
        n = dim.bit_length() - 1
        if shape == "planar":  # h . sigma on the first qubit
            words = [p + "I" * (n - 1) for p in "XYZ"]
        else:
            words = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(2 * n)]
        op = pauli_sum(zip(rng.normal(size=len(words)), words))
    elif shape == "planar":
        q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        m = (q * np.resize([1.0, -0.5], dim)) @ q.conj().T
        op = HermitianOperator((m + m.conj().T) / 2)
    else:
        op = random_hermitian(rng, dim)
    return EvolutionProblem(op, random_state(rng, dim))


# Pauli words need d = 2^n, and every qubit curve is planar.
_BITWISE_CASES = [
    (backing, dim, shape)
    for backing in ("pauli", "dense")
    for dim in (2, 3, 4, 8, 64)
    for shape in ("planar", "twisting")
    if not (backing == "pauli" and dim == 3) and not (shape == "twisting" and dim == 2)
]


@pytest.mark.parametrize("backing, dim, shape", _BITWISE_CASES)
def test_frame_is_bitwise_its_per_row_reference(backing, dim, shape):
    # the structure matrix reuses T and T' for its first two rows, and the
    # coefficients read the same vectors: both equal the direct per-row
    # forms bit for bit
    rng = np.random.default_rng(dim)
    prob = _bitwise_case(backing, dim, shape, rng)
    for s in rng.uniform(0.0, 3.0, 3):
        fr = build_frame(prob, s)
        k = len(fr.rows)
        assert k == (3 if shape == "twisting" else 2)
        reference = np.zeros((3, 3), dtype=complex)
        reference[:k, :k] = np.array([-1j * _dh(prob, f) for f in fr.rows]) @ fr.rows.conj().T
        np.testing.assert_array_equal(fr.cartan, reference)
        assert (fr.kappa_sq, fr.tau_sq) == _curvature_torsion_at(prob, prob.transported([s / prob.speed])[0])
