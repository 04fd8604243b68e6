"""Property tests of the finite-difference derivative and the velocity inversion."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elastocons import (State, classical_model, fd_derivative, momentum_from_velocity,
                        stored_energy_registry, tensor_mass_model)
from elastocons.tolerances import DEFAULT

LAM, MU = 2.0, 1.0
V_TENSOR = np.array([[0.8, 0.1, 0.0], [0.1, 0.6, 0.05], [0.0, 0.05, 0.7]])
MODELS = [build(se) for se in stored_energy_registry(LAM, MU)
          for build in (lambda se: classical_model(1.5, se),
                        lambda se: tensor_mass_model(V_TENSOR, se))]
PROPERTY = settings(max_examples=30, deadline=None)


def _entries(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_subnormal=False)


def _spd(A):
    return A @ A.T + 0.1 * np.eye(3)


# |F - 1| <= 0.75 in the Frobenius norm keeps det F > 0 for the neo-Hookean energy
STACK_F = arrays(float, (4, 3, 3), elements=_entries(-0.25, 0.25)).map(lambda D: np.eye(3) + D)
STACK_P = arrays(float, (4, 3), elements=_entries(-3.0, 3.0))


@PROPERTY
@given(st.sampled_from(MODELS), STACK_F, STACK_P)
def test_fd_derivative_of_a_stack_equals_its_states(m, F, p):
    s = State(F, p)
    for fn in (m.energy, m.velocity, m.stress):
        for wrt in ("F", "p"):
            stacked = fd_derivative(fn, s, wrt)
            for i in range(len(p)):
                np.testing.assert_array_equal(stacked[i], fd_derivative(fn, State(F[i], p[i]), wrt))


@PROPERTY
@given(st.sampled_from(stored_energy_registry(LAM, MU)), st.booleans(),
       arrays(float, (3, 3), elements=_entries(-1.0, 1.0)), _entries(0.1, 10.0),
       arrays(float, (3, 3), elements=_entries(-0.5, 0.5)),
       arrays(float, 3, elements=_entries(-3.0, 3.0)))
def test_velocity_inversion_round_trip(se, tensor, A, rho, D, v):
    F = np.eye(3) + D
    assume(np.linalg.det(F) > 0.3)
    m = tensor_mass_model(_spd(A), se) if tensor else classical_model(rho, se)
    p = momentum_from_velocity(m, F, v)
    assert np.linalg.norm(m.velocity(State(F, p)) - v) <= DEFAULT.newton_tol


@PROPERTY
@given(st.sampled_from(MODELS), STACK_F, STACK_P)
def test_inverting_one_state_matches_its_row_of_a_stack(m, F, v):
    p = momentum_from_velocity(m, F, v)
    for i in range(len(v)):
        np.testing.assert_array_equal(p[i], momentum_from_velocity(m, F[i], v[i]))
