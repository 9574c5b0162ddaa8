import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qucurve import HermitianOperator, models, parse_problem_spec
from qucurve.hilbert import _norm, _project_off

from conftest import PAULI, dense, kron_word, pauli_sum, random_hermitian, random_state, reference_pauli_groups


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator([[0, 1], [0, 0]])

    def test_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_apply_matches_matmul(self):
        rng = np.random.default_rng(3)
        op = random_hermitian(rng, 4)
        v = random_state(rng, 4)
        np.testing.assert_allclose(op.apply(v), dense(op) @ v, rtol=0, atol=0)

    @pytest.mark.parametrize("backing", ["pauli", "dense"])
    @pytest.mark.parametrize("shape", [(4,), (1,), (2, 2)])
    def test_apply_refuses_another_shape(self, backing, shape):
        # a longer vector was truncated and a shorter one raised IndexError
        op = pauli_sum([(1.0, "X"), (0.5, "Z")])
        if backing == "dense":
            op = HermitianOperator(dense(op))
        with pytest.raises(ValueError, match=re.escape(f"operator on C^2 cannot apply to an array of shape {shape}")):
            op.apply(np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("backing", ["pauli", "dense"])
    def test_refuses_attribute_assignment(self, backing):
        op = pauli_sum([(1.0, "X"), (0.5, "Z")])
        if backing == "dense":
            op = HermitianOperator(dense(op))
        for name, value in (("dim", 4), ("frobenius_sq", 0.0), ("_perms", None), ("label", "H")):
            with pytest.raises(AttributeError, match="HermitianOperator is immutable"):
                setattr(op, name, value)
        assert (op.dim, op.frobenius_sq) == (2, 2.5)
        assert not hasattr(op, "label")

    def test_deviation_over_many_blocks(self):
        # d = 150 spans three row blocks; the worst entry sits below the diagonal
        rng = np.random.default_rng(19)
        m = dense(random_hermitian(rng, 150)).copy()
        m[140, 3] += 2e-12 + 1e-12j
        with pytest.raises(ValueError, match=r"max \|M - M\^dagger\| = 2\.236e-12 > 1e-12"):
            HermitianOperator(m)
        m[140, 3] -= 2e-12 + 1e-12j
        m[149, 70] = np.nan
        with pytest.raises(ValueError, match="nan"):
            HermitianOperator(m)

    def test_owns_a_copy_of_its_input(self):
        m = np.eye(2, dtype=complex)
        op = HermitianOperator(m)
        m[0, 0] = 5.0
        assert dense(op)[0, 0] == 1.0
        with pytest.raises(ValueError):
            dense(op)[0, 0] = 5.0

    def test_frobenius_sq_of_dense(self):
        rng = np.random.default_rng(23)
        op = random_hermitian(rng, 6)
        assert op.frobenius_sq == np.vdot(dense(op), dense(op)).real


class TestPauliSum:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_every_word_equals_kron_product(self, n_qubits):
        words = ["".join(w) for w in itertools.product("IXYZ", repeat=n_qubits)]
        for word in words:
            op = pauli_sum([(-0.37, word)])
            np.testing.assert_array_equal(dense(op), -0.37 * kron_word(word))
        coeffs = np.random.default_rng(n_qubits).normal(size=len(words))
        expected = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
        for c, word in zip(coeffs, words):
            expected += c * kron_word(word)
        op = pauli_sum(zip(coeffs, words))
        np.testing.assert_array_equal(dense(op), expected)

    def test_single_x_word(self):
        op = pauli_sum([(1.0, "X")])
        np.testing.assert_array_equal(dense(op), PAULI["X"])

    def test_word_order_leftmost_is_most_significant(self):
        op = pauli_sum([(1.0, "XZ")])
        np.testing.assert_array_equal(dense(op), np.kron(PAULI["X"], PAULI["Z"]))

    def test_local_field_sum_hand_expanded(self):
        # IX + XI + IZ + ZI expanded by hand over the two-qubit basis
        terms = [(1.0, w) for w in ("IX", "XI", "IZ", "ZI")]
        expected = np.array(
            [
                [2, 1, 1, 0],
                [1, 0, 0, 1],
                [1, 0, 0, 1],
                [0, 1, 1, -2],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(dense(pauli_sum(terms)), expected, atol=0)

    def test_traceless_when_no_identity_word(self):
        assert abs(np.trace(dense(pauli_sum([(0.7, "XX"), (-1.2, "YZ")])))) == 0.0

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(11)
        words = ["XY", "ZZ", "IX"]
        c1, c2 = rng.normal(size=3), rng.normal(size=3)
        a = dense(pauli_sum(zip(c1, words)))
        b = dense(pauli_sum(zip(c2, words)))
        both = dense(pauli_sum(zip(c1 + c2, words)))
        np.testing.assert_allclose(a + b, both, atol=1e-14)

    def test_pauli_backing_stores_no_matrix(self):
        op = pauli_sum([(0.5, "XY"), (-1.0, "ZZ"), (2.0, "YX")])
        assert op._matrix is None and op._diags.shape == (2, 4)  # XY and YX share an x-mask


# Random Pauli sums with repeated words and exactly cancelling pairs.
_pauli_sums = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.text(alphabet="IXYZ", min_size=n, max_size=n),
                st.floats(min_value=-1.0, max_value=1.0),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(case=_pauli_sums)
def test_pauli_apply_matches_kron_sum(case):
    n, draws, seed = case
    terms = []
    for word, c, cancel in draws:
        terms.append((c, word))
        if cancel:
            terms.append((-c, word))
    op = pauli_sum(terms)
    reference = sum(c * kron_word(word) for c, word in terms)
    rng = np.random.default_rng(seed)
    d = 2**n
    block = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    np.testing.assert_allclose(op.apply(block[:, 0]), reference @ block[:, 0], rtol=0, atol=1e-14)
    expected = np.vdot(reference, reference).real
    assert abs(op.frobenius_sq - expected) <= 1e-13 * expected



def _same_bytes(build, terms):
    # coefficients near the float limit overflow a group's sum to inf or NaN,
    # in both builds alike
    with np.errstate(over="ignore", invalid="ignore"):
        op = build()
        perms, diags = reference_pauli_groups(terms)
    assert op._perms.dtype == perms.dtype and op._perms.shape == perms.shape
    assert op._diags.dtype == diags.dtype and op._diags.shape == diags.shape
    assert op._perms.tobytes() == perms.tobytes()
    assert op._diags.tobytes() == diags.tobytes()


_coefficients = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _word_lists(draw):
    """Words over IXYZ up to n = 8, with all-I words, Z-free words and words
    that repeat an earlier word's x-mask (X <-> Y and I <-> Z keep it)."""
    n = draw(st.integers(min_value=1, max_value=8))
    words = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(["any", "identity", "z-free", "same-mask"]))
        if kind == "identity":
            word = "I" * n
        elif kind == "z-free":
            word = draw(st.text(alphabet="IX", min_size=n, max_size=n))
        elif kind == "same-mask" and words:
            flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            swap = {"X": "Y", "Y": "X", "I": "Z", "Z": "I"}
            word = "".join(swap[c] if f else c for c, f in zip(draw(st.sampled_from(words)), flips))
        else:
            word = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
        words.append(word)
    return [(draw(_coefficients), word) for word in words]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(terms=_word_lists())
def test_pauli_build_matches_per_word_reference_bytes(terms):
    _same_bytes(lambda: pauli_sum(terms), terms)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(family=st.sampled_from(sorted(models._FAMILY_WORDS)), couplings=st.lists(_coefficients, min_size=4, max_size=4))
def test_family_build_matches_per_word_reference_bytes(family, couplings):
    groups = models._FAMILY_WORDS[family].values()
    terms = [(c, word) for c, group in zip(couplings, groups) for word in group]
    _same_bytes(lambda: models._family_operator(family, couplings), terms)


def test_pauli_build_holds_one_group_array():
    # the groups' diagonals are summed in place in one (G, d) array, so the
    # build's traced peak stays near the bytes the operator keeps (about 1.7
    # times them when each group had its own row, stacked into a copy)
    n = 14
    rng = np.random.default_rng(11)
    terms = [(float(rng.normal()), "I" * k + "ZZ" + "I" * (n - k - 2)) for k in range(n - 1)]
    terms += [(float(rng.normal()), "I" * k + letter + "I" * (n - k - 1)) for letter in "XZ" for k in range(n)]
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    doc = {
        "hamiltonian": {"pauli_terms": [{"coeff": c, "word": w} for c, w in terms]},
        "state": {"amplitudes": np.stack([psi.real, psi.imag], axis=-1).tolist()},
    }
    spec = parse_problem_spec(doc)
    tracemalloc.start()
    try:
        op, _ = spec.build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op._diags.shape == (n + 1, 2**n)
    assert peak <= 1.2 * (op._diags.nbytes + op._perms.nbytes)


class TestProjectOff:
    def test_residual_orthogonal_and_input_untouched(self):
        rng = np.random.default_rng(5)
        units = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))[0].T
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        before = vec.copy()
        r = _project_off(vec, *units)
        assert max(abs(np.vdot(u, r)) for u in units) < 1e-14
        # vec = its components along the units plus the residual
        np.testing.assert_allclose(r + units.T @ (units.conj() @ vec), vec, atol=1e-14)
        np.testing.assert_array_equal(vec, before)

    def test_second_pass_on_nearly_parallel_vector(self):
        # one pass leaves an overlap of rounding size eps against a residual
        # of size 1e-8; naming the unit twice brings it to eps relative
        rng = np.random.default_rng(7)
        a = random_state(rng, 8)
        w = _project_off(rng.normal(size=8) + 1j * rng.normal(size=8), a, a)
        vec = a + 1e-8 * w / np.linalg.norm(w)
        r = _project_off(vec, a, a)
        assert abs(np.vdot(a, r)) <= 1e-14 * np.linalg.norm(r)
        assert np.linalg.norm(r) == pytest.approx(1e-8, rel=1e-6)


# Entries that stress a sum of squares: signed zeros, subnormals, the smallest
# normal, and moduli near 1e154, whose squares reach or pass the float range.
_EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e154, -1.4e154, 1e155, 1.0])


class TestNorm:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.integers(min_value=1, max_value=4096),
        log_scale=st.floats(min_value=-330.0, max_value=300.0),
        extremes=st.lists(st.tuples(st.integers(min_value=0), _EXTREMES, _EXTREMES), max_size=8),
        step=st.integers(min_value=1, max_value=3),
    )
    @example(seed=0, d=1, log_scale=-400.0, extremes=[(0, -0.0, -0.0)], step=1)
    @example(seed=1, d=3, log_scale=-320.0, extremes=[], step=2)
    @example(seed=2, d=64, log_scale=0.0, extremes=[(5, 1e154, -1e154), (9, 0.0, 1e155)], step=3)
    def test_bit_identical_to_linalg_norm(self, seed, d, log_scale, extremes, step):
        rng = np.random.default_rng(seed)
        v = (rng.normal(size=step * d) + 1j * rng.normal(size=step * d)) * 10.0**log_scale
        for k, re, im in extremes:
            v[k % len(v)] = complex(re, im)
        view = v[::step]  # strided when step > 1
        with np.errstate(over="ignore"):  # both warn when a square overflows
            assert repr(_norm(view)) == repr(float(np.linalg.norm(view)))
