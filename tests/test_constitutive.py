import dataclasses

import numpy as np
import pytest

from elastocons import (ConstitutiveModel, State, classical_model, corrupted_model,
                        draw_states, fd_elasticity_tensor, fd_stress, fd_velocity_jacobian,
                        linear_isotropic, momentum_from_velocity, neo_hookean,
                        pointwise_model, st_venant_kirchhoff, stored_energy_registry,
                        tensor_mass_model)
from elastocons.constitutive import zero_energy
from elastocons.errors import DomainError, NotSymmetric, PreconditionFailure, Singular

LAM, MU = 2.0, 1.0
EPS = np.finfo(float).eps


def _random_good_F(rng, lo=0.5, hi=2.0):
    while True:
        F = np.eye(3) + 0.5 * rng.uniform(-1.0, 1.0, size=(3, 3))
        if lo <= np.linalg.det(F) <= hi:
            return F


def test_classical_zero_momentum():
    se = st_venant_kirchhoff(LAM, MU)
    m = classical_model(1.0, se)
    rng = np.random.default_rng(0)
    F = _random_good_F(rng)
    s = State(F, np.zeros(3))
    assert np.allclose(m.velocity(s), 0.0)
    assert m.energy(s) == pytest.approx(se.sigma(F), abs=1e-14)


def test_classical_kinetic_part():
    m = classical_model(2.0, linear_isotropic(LAM, MU))
    s = State(np.eye(3), np.array([2.0, 0.0, 0.0]))
    assert np.allclose(m.velocity(s), [1.0, 0.0, 0.0])
    # kinetic part |p|^2 / (2 rho) = 4 / 4 = 1
    assert m.energy(s) - m.energy(State(s.F, np.zeros(3))) == pytest.approx(1.0, abs=1e-14)
    # on a stack at inexact rho, v = p / rho and tau = |p|^2 / (2 rho) to 4 ulp;
    # the zero stored energy leaves the kinetic part alone in tau
    rng = np.random.default_rng(11)
    s = State(np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (50, 3, 3)), rng.normal(size=(50, 3)))
    for rho in (1.5, 1.7):
        m = classical_model(rho, zero_energy())
        np.testing.assert_allclose(m.velocity(s), s.p / rho, rtol=4 * EPS, atol=0.0)
        np.testing.assert_allclose(m.energy(s), (s.p * s.p).sum(-1) / (2.0 * rho),
                                   rtol=4 * EPS, atol=0.0)


def test_energy_even_in_momentum():
    rng = np.random.default_rng(1)
    for m in (classical_model(1.7, neo_hookean(LAM, MU)),
              tensor_mass_model(np.diag([0.5, 1.0, 2.0]), linear_isotropic(LAM, MU))):
        for _ in range(25):
            s = State(_random_good_F(rng), rng.normal(size=3))
            assert m.energy(s) == m.energy(State(s.F, -s.p))


def test_tensor_identity_matches_classical():
    se = st_venant_kirchhoff(LAM, MU)
    mt = tensor_mass_model(np.eye(3), se)
    mc = classical_model(1.0, se)
    rng = np.random.default_rng(2)
    for _ in range(10):
        s = State(_random_good_F(rng), rng.normal(size=3))
        assert m_eq(mt, mc, s)


def m_eq(m1, m2, s):
    return (np.allclose(m1.velocity(s), m2.velocity(s), atol=1e-14)
            and np.allclose(m1.stress(s), m2.stress(s), atol=1e-14)
            and abs(m1.energy(s) - m2.energy(s)) < 1e-14)


def test_tensor_kinetic_oracle():
    # 1/2 p . V p = 1/2 (1*1 + 1*2 + 1*3) = 3 for V = diag(1,2,3), p = (1,1,1)
    m = tensor_mass_model(np.diag([1.0, 2.0, 3.0]), linear_isotropic(LAM, MU))
    s = State(np.eye(3), np.ones(3))
    assert np.allclose(m.velocity(s), [1.0, 2.0, 3.0])
    assert m.energy(s) - m.energy(State(s.F, np.zeros(3))) == pytest.approx(3.0, abs=1e-14)


def test_tensor_model_input_validation():
    se = linear_isotropic(LAM, MU)
    V = np.eye(3)
    V[0, 1] = 1e-3
    with pytest.raises(NotSymmetric):
        tensor_mass_model(V, se)
    # singular relative to the scale of V: the smallest singular value is at
    # most 1e-12 times the largest
    for d in ([1.0, 1.0, 0.0], [1.0, 1.0, 1e-13], [1e3, 1e3, 1e-10]):
        with pytest.raises(Singular):
            tensor_mass_model(np.diag(d), se)
    # det 1e-15, but as well conditioned as I: the V of classical_model(1e5, se)
    m = tensor_mass_model(1e-5 * np.eye(3), se)
    np.testing.assert_array_equal(m.velocity(State(np.eye(3), np.ones(3))), [1e-5] * 3)
    with pytest.raises(ValueError):
        classical_model(-1.0, se)


def _declaring_models():
    """Every shipped model that declares its V: registry x classical/tensor, three controls."""
    V = np.array([[0.8, 0.3, 0.1], [0.3, 1.4, -0.2], [0.1, -0.2, 0.6]])
    return ([classical_model(1.5, se) for se in stored_energy_registry(LAM, MU)]
            + [tensor_mass_model(V, se) for se in stored_energy_registry(LAM, MU)]
            + [corrupted_model(kind, rho=1.5) for kind in ("thermo", "maxwell", "parity")])


def test_declared_velocity_coefficient_matches_the_velocity_map():
    probes = draw_states(50, np.random.default_rng(5))
    for m in _declaring_models():
        assert m.V.shape == (3, 3) and not m.V.flags.writeable, m.name
        N = fd_velocity_jacobian(m, probes.F, probes.p)
        assert np.abs(N - m.V).max() <= 1e-9, m.name
        hash(m)  # V is left out of equality, so models stay hashable
    np.testing.assert_array_equal(classical_model(1.5, neo_hookean(LAM, MU)).V, np.eye(3) / 1.5)
    se = linear_isotropic(LAM, MU)
    undeclared = [corrupted_model("normality"), corrupted_model("galilean"),
                  pointwise_model("pointwise", lambda s: 0.5 * s.p @ s.p + se.sigma(s.F),
                                  lambda s: s.p, lambda s: se.analytic_stress(s.F))]
    assert all(m.V is None for m in undeclared)


def test_construction_refuses_a_declared_V_the_velocity_map_does_not_have():
    se = linear_isotropic(LAM, MU)
    with pytest.raises(PreconditionFailure, match="declared V"):
        ConstitutiveModel(name="half", energy=lambda s: 0.25 * (s.p * s.p).sum(-1),
                          velocity=lambda s: 0.5 * s.p, stress=lambda s: se.analytic_stress(s.F),
                          V=np.eye(3))
    # a replaced velocity map keeps the declaration, and is checked against it
    with pytest.raises(PreconditionFailure, match="declared V"):
        dataclasses.replace(classical_model(2.0, se), velocity=lambda s: s.p)


def test_construction_refuses_a_replaced_stress_that_keeps_the_combined_map():
    # the solver's flux takes the stress of stress_and_extremes, so a replaced stress
    # must replace or drop it; this one depends on p, as the Maxwell control's does
    base = classical_model(1.0, linear_isotropic(LAM, MU))

    def stress(s):
        return base.stress(s) + s.p[..., 0, None, None] * np.eye(3)
    with pytest.raises(PreconditionFailure, match="stress_and_extremes returns another stress"):
        dataclasses.replace(base, stress=stress)
    assert dataclasses.replace(base, stress=stress, stress_and_extremes=None).V is not None


def test_momentum_from_velocity_classical():
    m = classical_model(2.0, linear_isotropic(LAM, MU))
    p = momentum_from_velocity(m, np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(p, [2.0, 0.0, 0.0], atol=1e-10)


def test_momentum_from_velocity_tensor_hand_solve():
    # V p = v with V = diag(1,2,3), v = (1,2,3)  =>  p = (1,1,1)
    m = tensor_mass_model(np.diag([1.0, 2.0, 3.0]), linear_isotropic(LAM, MU))
    p = momentum_from_velocity(m, np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(p, [1.0, 1.0, 1.0], atol=1e-10)


def test_zero_velocity_maps_to_zero_momentum():
    for m in (classical_model(3.0, linear_isotropic(LAM, MU)),
              tensor_mass_model(np.diag([1.0, 0.5, 2.0]), linear_isotropic(LAM, MU))):
        p = momentum_from_velocity(m, np.eye(3), np.zeros(3))
        assert np.linalg.norm(p) <= 1e-10


def test_velocity_inversion_round_trip():
    rng = np.random.default_rng(3)
    models = [classical_model(1.5, neo_hookean(LAM, MU)),
              tensor_mass_model(np.diag([0.4, 1.1, 2.5]), st_venant_kirchhoff(LAM, MU))]
    for m in models:
        for _ in range(100):
            F = _random_good_F(rng)
            v = rng.normal(size=3)
            p = momentum_from_velocity(m, F, v)
            assert np.abs(m.velocity(State(F, p)) - v).max() <= 1e-8


def test_tensor_velocity_linear_and_split_exact():
    V = np.diag([0.7, 1.3, 2.2])
    m = tensor_mass_model(V, neo_hookean(LAM, MU))
    rng = np.random.default_rng(4)
    for _ in range(30):
        F = _random_good_F(rng)
        p1, p2 = rng.normal(size=(2, 3))
        al, be = rng.normal(size=2)
        lhs = m.velocity(State(F, al * p1 + be * p2))
        rhs = al * m.velocity(State(F, p1)) + be * m.velocity(State(F, p2))
        assert np.abs(lhs - rhs).max() <= 1e-12
        p = rng.normal(size=3)
        kinetic = m.energy(State(F, p)) - m.energy(State(F, np.zeros(3)))
        assert kinetic == pytest.approx(0.5 * p @ (V @ p), abs=1e-12)


def test_registry_stress_free_reference():
    for se in stored_energy_registry(LAM, MU):
        assert se.sigma(np.eye(3)) == pytest.approx(0.0, abs=1e-14)
        assert np.abs(se.analytic_stress(np.eye(3))).max() <= 1e-14


def test_stvk_matches_linear_model_to_first_order():
    rng = np.random.default_rng(5)
    H = rng.normal(size=(3, 3))
    H *= 1e-5 / np.linalg.norm(H)
    F = np.eye(3) + H
    S_stvk = st_venant_kirchhoff(LAM, MU).analytic_stress(F)
    S_lin = linear_isotropic(LAM, MU).analytic_stress(F)
    assert np.abs(S_stvk - S_lin).max() <= 1e-8


def test_neo_hookean_value_oracle():
    # direct formula at F = diag(2,1,1): mu/2*(6-3) - mu ln 2 + lam/2 (ln 2)^2
    se = neo_hookean(LAM, MU)
    expected = 0.5 * MU * 3.0 - MU * np.log(2.0) + 0.5 * LAM * np.log(2.0) ** 2
    assert se.sigma(np.diag([2.0, 1.0, 1.0])) == pytest.approx(expected, rel=1e-14)


def test_neo_hookean_domain_error():
    se = neo_hookean(LAM, MU)
    with pytest.raises(DomainError):
        se.sigma(np.diag([-1.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        se.analytic_stress(np.zeros((3, 3)))


def test_fd_stress_quadratic_exact():
    # central differences are exact for quadratics; only roundoff remains
    se = linear_isotropic(LAM, MU)
    rng = np.random.default_rng(6)
    for _ in range(10):
        F = _random_good_F(rng)
        assert np.abs(fd_stress(se, F) - se.analytic_stress(F)).max() <= 1e-10


def test_fd_stress_linear_isotropic_hand_values():
    se = linear_isotropic(LAM, MU)
    eps = 1e-3
    F = np.eye(3)
    F[0, 0] += eps
    S = fd_stress(se, F)
    assert S[0, 0] == pytest.approx((LAM + 2 * MU) * eps, abs=1e-9)
    assert S[1, 1] == pytest.approx(LAM * eps, abs=1e-9)
    assert S[2, 2] == pytest.approx(LAM * eps, abs=1e-9)
    assert np.abs(S - np.diag(np.diag(S))).max() <= 1e-9


def test_fd_stress_matches_analytic_all_registry():
    rng = np.random.default_rng(7)
    for se in stored_energy_registry(LAM, MU):
        for _ in range(100):
            F = _random_good_F(rng)
            S_fd = fd_stress(se, F)
            S_an = se.analytic_stress(F)
            scale = max(1.0, np.abs(S_an).max())
            assert np.abs(S_fd - S_an).max() / scale <= 1e-6


def test_fd_elasticity_linear_isotropic_closed_form():
    se = linear_isotropic(LAM, MU)
    eye = np.eye(3)
    expected = (LAM * np.einsum("ij,hk->ijhk", eye, eye)
                + MU * (np.einsum("ih,jk->ijhk", eye, eye)
                        + np.einsum("ik,jh->ijhk", eye, eye)))
    rng = np.random.default_rng(8)
    for _ in range(3):
        F = _random_good_F(rng)
        S4 = fd_elasticity_tensor(se, F)
        assert np.abs(S4 - expected).max() <= 1e-8
        assert np.abs(se.analytic_elasticity(F) - expected).max() <= 1e-14


def test_fd_elasticity_major_symmetry_and_analytic_agreement():
    rng = np.random.default_rng(9)
    for se in stored_energy_registry(LAM, MU):
        for _ in range(5):
            F = _random_good_F(rng)
            S4 = fd_elasticity_tensor(se, F)
            assert np.abs(S4 - S4.transpose(2, 3, 0, 1)).max() <= 1e-6
            assert np.abs(S4 - se.analytic_elasticity(F)).max() <= 1e-5
