"""Property tests: the finite-difference derivative, the velocity inversion, the
symmetries of the constitutive maps and the solver's discrete conservation."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elastocons import (Field, Grid, State, acoustic_spectrum, classical_model,
                        corrupted_model, fd_derivative, momentum_from_velocity, neo_hookean, pointwise_model,
                        st_venant_kirchhoff, step_lax_friedrichs, stored_energy_registry,
                        tensor_mass_model, total_deformation, total_momentum)
from elastocons.constitutive import CORRUPTION_KINDS
from elastocons.tolerances import DEFAULT

LAM, MU = 2.0, 1.0
V_TENSOR = np.array([[0.8, 0.1, 0.0], [0.1, 0.6, 0.05], [0.0, 0.05, 0.7]])
MODELS = [build(se) for se in stored_energy_registry(LAM, MU)
          for build in (lambda se: classical_model(1.5, se),
                        lambda se: tensor_mass_model(V_TENSOR, se))]
CONTROLS = [corrupted_model(kind, LAM, MU) for kind in CORRUPTION_KINDS]
PROPERTY = settings(max_examples=30, deadline=None)


def _entries(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_subnormal=False)


def _spd(A):
    return A @ A.T + 0.1 * np.eye(3)


# |F - 1| <= 0.75 in the Frobenius norm keeps det F > 0 for the neo-Hookean energy
STACK_F = arrays(float, (4, 3, 3), elements=_entries(-0.25, 0.25)).map(lambda D: np.eye(3) + D)
STACK_P = arrays(float, (4, 3), elements=_entries(-3.0, 3.0))


@PROPERTY
@given(st.sampled_from(MODELS + CONTROLS), STACK_F, STACK_P)
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


def _rotation(A):
    """A proper rotation from the QR factors of a matrix."""
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    return Q if np.linalg.det(Q) > 0 else -Q


UNIT = arrays(float, 3, elements=_entries(-1.0, 1.0)).filter(
    lambda w: np.linalg.norm(w) > 0.1).map(lambda w: w / np.linalg.norm(w))


@PROPERTY
@given(st.sampled_from([st_venant_kirchhoff(LAM, MU), neo_hookean(LAM, MU)]), STACK_F,
       arrays(float, (3, 3), elements=_entries(-1.0, 1.0)))
def test_frame_indifference(se, F, A):
    # sigma(QF) = sigma(F) and S(QF) = Q S(F) for every rotation Q; the
    # linear isotropic energy is not frame-indifferent and is left out
    assume(abs(np.linalg.det(A)) > 0.05)
    Q = _rotation(A)
    sig = se.sigma(F)
    np.testing.assert_allclose(se.sigma(Q @ F), sig, rtol=1e-12, atol=1e-13)
    S = se.analytic_stress(F)
    np.testing.assert_allclose(se.analytic_stress(Q @ F), Q @ S,
                               rtol=0.0, atol=1e-12 * max(1.0, np.abs(S).max()))


@PROPERTY
@given(st.sampled_from(stored_energy_registry(LAM, MU)), STACK_F,
       arrays(float, (5, 3), elements=_entries(-1.0, 1.0)).filter(
           lambda w: np.linalg.norm(w, axis=-1).min() > 0.1))
def test_elasticity_major_symmetry_and_symmetric_acoustic_tensor(se, F, w):
    S4 = se.analytic_elasticity(F)
    scale = max(1.0, float(np.abs(S4).max()))
    assert np.abs(S4 - np.einsum("...ijhk->...hkij", S4)).max() <= 1e-13 * scale
    E, _ = acoustic_spectrum(S4, w / np.linalg.norm(w, axis=-1, keepdims=True))
    assert E.shape == (4, 5, 3, 3)
    assert np.abs(E - E.swapaxes(-1, -2)).max() <= 1e-13 * scale


def _conservation_models():
    yield from (classical_model(1.5, se) for se in stored_energy_registry(LAM, MU))
    yield tensor_mass_model(V_TENSOR, neo_hookean(LAM, MU))
    m = classical_model(1.5, st_venant_kirchhoff(LAM, MU))
    yield pointwise_model("pointwise_stvk", m.energy, m.velocity, m.stress, m.analytic_S4)


@PROPERTY
@given(st.sampled_from(list(_conservation_models())), st.sampled_from([1, 3]),
       st.integers(0, 2**32 - 1))
def test_one_step_conserves_total_deformation_and_momentum(m, dims, seed):
    # random periodic data: the Rusanov fluxes telescope, so sum F and sum p
    # change only by roundoff
    rng = np.random.default_rng(seed)
    grid = Grid.line(9, 1.0) if dims == 1 else Grid.box(4, 1.0)
    F = np.eye(3) + rng.uniform(-0.1, 0.1, size=grid.cells + (3, 3))
    p = rng.uniform(-0.5, 0.5, size=grid.cells + (3,))
    fld = Field(grid=grid, F=F, p=p)
    out = step_lax_friedrichs(m, fld, cfl=0.9)
    for total, scale in ((total_deformation, np.abs(F).sum()), (total_momentum, np.abs(p).sum())):
        drift = np.abs(total(out) - total(fld)).max()
        assert drift <= 1e-14 * grid.cell_volume * scale
