"""Property tests: the curve's geometry is blind to the gauge and the frame.

kappa^2, tau^2 and the moduli of the structure matrix depend only on the ray
of the state and on the centred, rescaled Hamiltonian dh.  They are therefore
unchanged by a global phase of psi, a shift of the energy zero, a rescaling
H -> cH (c > 0) and a simultaneous change of basis (H, psi) -> (U H U^dagger,
U psi).  Each property is checked on the moment route, the projector route
and |cartan|.  The evolved state itself is unchanged by H -> cH together with
t -> t/c.  Examples are drawn deterministically, so the suite is
reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qucurve import (
    EvolutionProblem,
    HermitianOperator,
    build_frame,
    central_moments,
)

from conftest import dense, random_hermitian, random_state

REL, ABS = 1e-9, 1e-10

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=25)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4, 8])
arc_lengths = st.floats(min_value=0.0, max_value=3.0)


def _geometry(ham: HermitianOperator, state: np.ndarray, s: float):
    """(kappa^2, tau^2) by moments, the same by projectors, and |cartan| at s."""
    mom = central_moments(ham, state)
    frame = build_frame(EvolutionProblem(ham, state), s)
    return (
        np.array([mom.kappa_sq, mom.tau_sq]),
        np.array([frame.kappa_sq, frame.tau_sq]),
        np.abs(frame.cartan),
    )


def _assert_same_geometry(base, moved):
    for want, got in zip(base, moved):
        np.testing.assert_allclose(got, want, rtol=REL, atol=ABS)


def _draw(seed: int, dim: int):
    rng = np.random.default_rng(seed)
    return rng, random_hermitian(rng, dim), random_state(rng, dim)


@deterministic
@given(seed=seeds, dim=dims, s=arc_lengths, phase=st.floats(min_value=0.0, max_value=2 * np.pi))
def test_global_phase(seed, dim, s, phase):
    _, ham, state = _draw(seed, dim)
    rotated = np.exp(1j * phase) * state
    _assert_same_geometry(_geometry(ham, state, s), _geometry(ham, rotated, s))


@deterministic
@given(seed=seeds, dim=dims, s=arc_lengths, shift=st.floats(min_value=-10.0, max_value=10.0))
def test_energy_shift(seed, dim, s, shift):
    _, ham, state = _draw(seed, dim)
    shifted = HermitianOperator(dense(ham) + shift * np.eye(dim))
    _assert_same_geometry(_geometry(ham, state, s), _geometry(shifted, state, s))


@deterministic
@given(seed=seeds, dim=dims, s=arc_lengths, log_c=st.floats(min_value=-6.0, max_value=6.0))
def test_hamiltonian_scaling(seed, dim, s, log_c):
    _, ham, state = _draw(seed, dim)
    scaled = HermitianOperator(10.0**log_c * dense(ham))
    _assert_same_geometry(_geometry(ham, state, s), _geometry(scaled, state, s))


@deterministic
@given(seed=seeds, dim=dims, s=arc_lengths)
def test_unitary_conjugation(seed, dim, s):
    rng, ham, state = _draw(seed, dim)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = np.linalg.qr(z)[0]
    conjugated = HermitianOperator(u @ dense(ham) @ u.conj().T)
    moved = u @ state
    _assert_same_geometry(_geometry(ham, state, s), _geometry(conjugated, moved, s))


@deterministic
@given(seed=seeds, dim=dims, t=st.floats(min_value=0.0, max_value=5.0), log_c=st.floats(min_value=-6.0, max_value=6.0))
def test_time_rescaling(seed, dim, t, log_c):
    _, ham, state = _draw(seed, dim)
    c = 10.0**log_c
    scaled = EvolutionProblem(HermitianOperator(c * dense(ham)), state)
    np.testing.assert_allclose(
        scaled.evolve([t / c])[0],
        EvolutionProblem(ham, state).evolve([t])[0],
        rtol=0,
        atol=1e-12,
    )
