"""Property tests: the finite-difference derivative, the velocity inversion, the
symmetries of the constitutive maps and the solver's discrete conservation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elastocons import (Field, Grid, State, acoustic_tensor, baseline_directions,
                        classical_model, corrupted_model, eig_sym,
                        elasticity_map, fd_derivative, fibonacci_sphere, flux_jacobian,
                        linear_isotropic, momentum_from_velocity, neo_hookean,
                        pointwise_model, scan_directions, st_venant_kirchhoff,
                        step_lax_friedrichs, stored_energy_by_name, stored_energy_registry,
                        tensor_mass_model, total_deformation, total_energy, total_momentum)
from elastocons.constitutive import CORRUPTION_KINDS, zero_energy
from elastocons.errors import NonHyperbolicState
from elastocons.hyperbolicity import velocity_coefficient_root
from elastocons.tolerances import DEFAULT
from reference import eigenstructure

LAM, MU = 2.0, 1.0
V_TENSOR = np.array([[0.8, 0.1, 0.0], [0.1, 0.6, 0.05], [0.0, 0.05, 0.7]])
MODELS = [build(se) for se in stored_energy_registry(LAM, MU)
          for build in (lambda se: classical_model(1.5, se),
                        lambda se: tensor_mass_model(V_TENSOR, se))]
CONTROLS = [corrupted_model(kind, LAM, MU) for kind in CORRUPTION_KINDS]
# derandomized: the same examples on every run, and no example database to replay
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


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
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    E = acoustic_tensor(S4, w)
    assert E.shape == (4, 5, 3, 3)
    assert np.abs(E - E.swapaxes(-1, -2)).max() <= 1e-13 * scale
    # a stack's GEMM may sum in another order than a single product: equal to roundoff
    for i, d in np.ndindex(4, 5):
        np.testing.assert_allclose(E[i, d], acoustic_tensor(S4[i], w[d]), rtol=0.0,
                                   atol=1e-13 * scale)


@PROPERTY
@given(st.sampled_from(["linear_isotropic", "stvk", "neo_hookean", "zero"]), _entries(0.1, 5.0),
       _entries(0.1, 5.0), _entries(0.5, 2.0),
       arrays(float, (3, 3, 3), elements=_entries(-0.6, 0.6)),
       arrays(float, (4, 3), elements=_entries(-1.0, 1.0)).filter(
           lambda w: np.linalg.norm(w, axis=-1).min() > 0.1))
def test_analytic_acoustic_tensor_is_the_contracted_elasticity(name, lam, mu, s, D, w):
    # lam and mu are drawn apart: at (2, 1) a slip such as 3 mu for lam + mu would pass
    se = zero_energy() if name == "zero" else stored_energy_by_name(name, lam, mu)
    F = s * (np.eye(3) + D)
    assume(np.linalg.det(F).min() > 0.3)
    # E(w) is quadratic in w: directions of any length keep the |w|^2 factors visible
    E = se.analytic_acoustic(F, w)
    ref = np.einsum("...ijhk,dj,dk->...dih", se.analytic_elasticity(F), w, w)
    assert E.shape == ref.shape == (3, 4, 3, 3)
    scale = np.maximum(1.0, np.abs(ref).max((-2, -1), keepdims=True))
    assert (np.abs(E - ref) <= 1e-12 * scale).all()


@PROPERTY
@given(st.sampled_from(["linear_isotropic", "neo_hookean", "zero"]), _entries(0.1, 5.0),
       _entries(0.1, 5.0), _entries(0.1, 10.0), st.sampled_from(["edge", "moderate", "k < 0"]),
       _entries(0.0, 1.0), arrays(float, (3, 3, 3), elements=_entries(-0.4, 0.4)),
       arrays(float, (4, 3), elements=_entries(-1.0, 1.0)).filter(
           lambda w: np.linalg.norm(w, axis=-1).min() > 0.1))
def test_closed_form_extremes_are_the_extreme_eigenvalues(name, lam, mu, rho, regime, t, D, w):
    # neo-Hookean k = lam + mu - lam ln J changes sign at ln J = (lam + mu) / lam
    se = zero_energy() if name == "zero" else stored_energy_by_name(name, lam, mu)
    m = classical_model(rho, se)
    G = np.eye(3) + D
    assume(np.linalg.det(G).min() > 0.2)
    ln_J = {"edge": np.log(1e-4) + t * np.log(10.0), "moderate": 4.0 * t - 2.0,
            "k < 0": (lam + mu) / lam + 0.01 + 3.0 * t}[regime]
    F = np.exp(ln_J / 3.0) * G / np.cbrt(np.linalg.det(G))[:, None, None]
    S, lo_hi = m.stress_and_extremes(F, w)
    assert np.array_equal(S, se.analytic_stress(F))
    E = np.einsum("...ijhk,dj,dk->...dih", se.analytic_elasticity(F), w, w)
    vroot = velocity_coefficient_root(np.eye(3) / rho)
    eigs = eig_sym(vroot @ E @ vroot, vectors=False)
    assert lo_hi.shape == (3, 4, 2)
    scale = 1e-12 * np.maximum(1.0, np.abs(E).max((-2, -1)))
    assert (np.abs(lo_hi[..., 0] - eigs[..., -1]) <= scale).all()
    assert (np.abs(lo_hi[..., 1] - eigs[..., 0]) <= scale).all()


@PROPERTY
@given(st.sampled_from(stored_energy_registry(LAM, MU)),
       arrays(float, (3, 3), elements=_entries(-0.3, 0.3)),
       st.one_of(_entries(0.1, 10.0).map(lambda rho: np.eye(3) / rho),
                 arrays(float, (3, 3), elements=_entries(-1.0, 1.0)).map(_spd)),
       arrays(float, (3, 3), elements=_entries(-1.0, 1.0)), st.integers(1, 32))
def test_scan_classification_matches_the_dense_jacobian(se, D, V, A, n_dirs):
    F = np.eye(3) + D
    assume(np.linalg.det(F) > 0.5 and abs(np.linalg.det(A)) > 0.05)
    # rotating S4 and V by Q turns the scan's fixed directions w into the
    # random directions Q w of the drawn material
    Q = _rotation(A)
    S4 = np.einsum("ai,bj,ch,dk,abcd->ijhk", Q, Q, Q, Q, se.analytic_elasticity(F))
    V = Q.T @ V @ Q
    report = scan_directions(lambda _: S4, F, V, n_dirs=n_dirs)
    dirs = np.vstack([fibonacci_sphere(n_dirs), baseline_directions()])
    es = eigenstructure(flux_jacobian(S4, V, dirs))
    # where eig(V^1/2 E V^1/2) is singular to roundoff, the dense count of
    # independent eigenvectors is decided by that roundoff, so those
    # directions have no reference to compare against
    vroot = velocity_coefficient_root(V)
    mu = eig_sym(vroot @ acoustic_tensor(S4, dirs) @ vroot, vectors=False)
    keep = np.abs(mu).min(axis=-1) > 1e-6 * np.maximum(1.0, np.abs(mu).max(axis=-1))
    assume(keep.any())
    assert np.array_equal(report.zero_multiplicity[keep], es.zero_multiplicity[keep])
    assert np.array_equal(report.independent_count[keep], es.independent_count[keep])


def _conservation_models():
    yield from (classical_model(1.5, se) for se in stored_energy_registry(LAM, MU))
    yield tensor_mass_model(V_TENSOR, neo_hookean(LAM, MU))
    m = classical_model(1.5, st_venant_kirchhoff(LAM, MU))
    # looped maps with the declared V: the solver refuses a model without one
    yield dataclasses.replace(
        pointwise_model("pointwise_stvk", m.energy, m.velocity, m.stress, m.analytic_S4), V=m.V)


def _random_field(dims, seed):
    rng = np.random.default_rng(seed)
    grid = Grid.line(9, 1.0) if dims == 1 else Grid.box(4, 1.0)
    F = np.eye(3) + rng.uniform(-0.1, 0.1, size=grid.cells + (3, 3))
    p = rng.uniform(-0.5, 0.5, size=grid.cells + (3,))
    return Field(grid=grid, F=F, p=p)


@PROPERTY
@given(st.sampled_from(list(_conservation_models())), st.sampled_from([1, 3]),
       st.integers(0, 2**32 - 1))
def test_one_step_conserves_total_deformation_and_momentum(m, dims, seed):
    # random periodic data: the Rusanov fluxes telescope, so sum F and sum p
    # change only by roundoff
    fld = _random_field(dims, seed)
    F, p, grid = fld.F, fld.p, fld.grid
    # the solver refuses a field that is not hyperbolic along the grid axes
    S4 = elasticity_map(m)(F.reshape(-1, 3, 3))
    assume(eig_sym(acoustic_tensor(S4, np.eye(3)[:dims]), vectors=False).min() >= 0.0)
    out = step_lax_friedrichs(m, fld, cfl=0.9)
    for total, scale in ((total_deformation, np.abs(F).sum()), (total_momentum, np.abs(p).sum())):
        drift = np.abs(total(out) - total(fld)).max()
        assert drift <= 1e-14 * grid.cell_volume * scale


@PROPERTY
@given(st.sampled_from([1, 3]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False), _entries(0.5, 3.0))
def test_one_step_never_raises_the_energy_of_a_convex_model(dims, seed, cfl, rho):
    # the total energy is the scheme's entropy: for the convex linear isotropic
    # energy a Rusanov step at cfl <= 1 may lower it, never raise it beyond roundoff
    m = classical_model(rho, linear_isotropic(LAM, MU))
    fld = _random_field(dims, seed)
    e0 = total_energy(m, fld)
    assert total_energy(m, step_lax_friedrichs(m, fld, cfl)) - e0 <= 1e-13 * e0


def test_a_random_field_off_the_hyperbolic_region_is_refused():
    m = classical_model(1.5, st_venant_kirchhoff(LAM, MU))
    with pytest.raises(NonHyperbolicState, match="along axis 2"):
        step_lax_friedrichs(m, _random_field(3, 11643), cfl=0.9)


@PROPERTY
@given(st.sampled_from(stored_energy_registry(LAM, MU)), _entries(0.5, 3.0), st.integers(8, 40),
       arrays(float, (12, 2), elements=_entries(-0.015, 0.015)),
       arrays(float, 12, elements=_entries(0.0, 2.0 * np.pi)))
def test_reversal_and_momentum_negation_commute_with_the_scheme(se, rho, n, amp, phase):
    # the scheme is mirror-symmetric, stress and energy are even in p and the
    # velocity is odd: reversing the cells and negating p conjugates the evolution
    m = classical_model(rho, se)
    grid = Grid.line(n, 1.0)
    x = grid.positions()[:, 0]
    # two periodic harmonics per component of (F, p), each component at most 0.03
    u = (amp * np.sin(x[:, None, None] * 2.0 * np.pi * np.arange(1, 3) + phase[:, None])).sum(-1)
    fld = Field(grid=grid, F=np.eye(3) + u[:, :9].reshape(n, 3, 3), p=u[:, 9:].copy())
    mirror = Field(grid=grid, F=fld.F[::-1].copy(), p=-fld.p[::-1])
    for _ in range(10):
        fld = step_lax_friedrichs(m, fld, cfl=0.5)
        mirror = step_lax_friedrichs(m, mirror, cfl=0.5)
    assert np.abs(mirror.F - fld.F[::-1]).max() <= 1e-13
    assert np.abs(mirror.p + fld.p[::-1]).max() <= 1e-13
    assert abs(mirror.t - fld.t) <= 1e-13
