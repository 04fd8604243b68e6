import numpy as np
import pytest

from elastocons import (State, check_ellipticity,
                        check_galilean, check_maxwell, check_normality,
                        check_parity, check_thermo, classical_model,
                        corrupted_model, draw_ellipticity_probes, draw_states,
                        extract_representation, find_dissipation_violation,
                        full_report, initial_rate_check, linear_isotropic,
                        neo_hookean, outer, pointwise_model, st_venant_kirchhoff,
                        tensor_mass_model)
from elastocons.admissibility import NEGATIVE_CONTROL_EXPECTATIONS, default_shifts
from elastocons.errors import FitDegenerate, PreconditionFailure

LAM, MU = 2.0, 1.0
SEED = 20260810


def _probes(n=30, seed=SEED):
    return draw_states(n, np.random.default_rng(seed))


def test_normality_classical_hand_jacobian():
    # velocity = p / 2 has constant jacobian I/2, det = 1/8
    ok, min_det = check_normality(classical_model(2.0, linear_isotropic(LAM, MU)), _probes())
    assert ok
    assert min_det == pytest.approx(1.0 / 8.0, abs=1e-9)


def test_normality_tensor_constant_jacobian():
    ok, min_det = check_normality(
        tensor_mass_model(np.diag([1.0, 2.0, 3.0]), linear_isotropic(LAM, MU)), _probes())
    assert ok
    assert min_det == pytest.approx(6.0, abs=1e-7)


def test_normality_cubic_velocity_fails_at_origin():
    m = corrupted_model("normality")
    # the probe set always contains the zero-momentum anchor
    ok, min_det = check_normality(m, _probes())
    assert not ok
    assert min_det <= 1e-12


def test_ellipticity_isotropic_closed_form():
    # E = (lam + mu) a (x) a + mu 1 for the linear isotropic model,
    # det E = (lam + 2 mu) mu^2 independent of the unit vector a
    from elastocons.admissibility import ellipticity_tensor
    m = classical_model(1.0, linear_isotropic(LAM, MU))
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        F = np.eye(3) + 0.2 * rng.uniform(-1, 1, size=(3, 3))
        v = 0.3 * rng.normal(size=3)
        E = ellipticity_tensor(m, F, v, a)
        expected = (LAM + MU) * outer(a, a) + MU * np.eye(3)
        assert np.abs(E - expected).max() <= 1e-7
        assert np.linalg.det(E) == pytest.approx((LAM + 2 * MU) * MU ** 2, abs=1e-7)


def test_ellipticity_degenerate_energy_fails():
    m = corrupted_model("ellipticity")
    probes = draw_ellipticity_probes(10, np.random.default_rng(1))
    ok, min_det = check_ellipticity(m, probes)
    assert not ok
    assert min_det <= 1e-12


def test_thermo_constructed_models_pass():
    for m in (classical_model(1.0, linear_isotropic(LAM, MU)),
              classical_model(2.0, st_venant_kirchhoff(LAM, MU)),
              tensor_mass_model(np.diag([0.5, 1.0, 2.0]), neo_hookean(LAM, MU))):
        ok, (rv, rS) = check_thermo(m, _probes())
        assert ok
        assert rv <= 1e-6 and rS <= 1e-6


def test_thermo_scaled_stress_residual_scaling():
    # stress scaled by 1.1 leaves a residual of exactly 0.1 |S| at each probe
    m = corrupted_model("thermo")
    probes = _probes()
    ok, (rv, rS) = check_thermo(m, probes)
    assert not ok
    base = linear_isotropic(LAM, MU).analytic_stress
    expected = max(0.1 * np.abs(base(s.F)).max() for s in probes)
    assert rS == pytest.approx(expected, rel=1e-3)
    assert rv <= 1e-6


def test_maxwell_decoupled_models_zero():
    for m in (classical_model(1.0, linear_isotropic(LAM, MU)),
              tensor_mass_model(np.diag([1.0, 2.0, 3.0]), st_venant_kirchhoff(LAM, MU))):
        ok, res = check_maxwell(m, _probes(15))
        assert ok
        assert res <= 1e-8


def test_maxwell_coupled_model_constant_cross_term():
    # tau = sigma(F) + |p|^2/2 + p . F e1 couples the arguments; both mixed
    # derivatives equal the same constant array so the residual stays tiny
    se = linear_isotropic(LAM, MU)
    e1 = np.array([1.0, 0.0, 0.0])
    m = pointwise_model(
        "coupled",
        energy=lambda s: se.sigma(s.F) + 0.5 * float(s.p @ s.p) + float(s.p @ (s.F @ e1)),
        velocity=lambda s: s.p + s.F @ e1,
        stress=lambda s: se.analytic_stress(s.F) + outer(s.p, e1),
    )
    ok, res = check_maxwell(m, _probes(15))
    assert ok
    assert res <= 1e-6
    # and it satisfies the gradient identities by construction
    ok, (rv, rS) = check_thermo(m, _probes(15))
    assert ok


def test_galilean_linear_models_exact():
    m = tensor_mass_model(np.diag([1.0, 2.0, 3.0]), linear_isotropic(LAM, MU))
    ok, dev = check_galilean(m, _probes())
    assert ok
    assert dev <= 1e-12


def test_galilean_state_dependent_density_fails():
    ok, dev = check_galilean(corrupted_model("galilean"), _probes())
    assert not ok
    assert dev > 1e-3


def test_galilean_zero_shift_is_silent():
    m = corrupted_model("galilean")
    ok, dev = check_galilean(m, _probes(), shifts=[np.zeros(3)])
    assert ok
    assert dev == 0.0


def test_parity_even_models_exact():
    m = tensor_mass_model(np.diag([2.0, 1.0, 0.5]), st_venant_kirchhoff(LAM, MU))
    ok, asym = check_parity(m, _probes())
    assert ok
    assert asym == 0.0


def test_parity_odd_term_asymmetry_oracle():
    m = corrupted_model("parity")
    probes = _probes()
    ok, asym = check_parity(m, probes)
    assert not ok
    expected = max(2.0 * abs(s.p[0]) for s in probes)
    assert asym == pytest.approx(expected, rel=1e-12)


def test_parity_zero_momentum_probes_blind():
    m = corrupted_model("parity")
    probes = [State(np.eye(3), np.zeros(3))]
    ok, asym = check_parity(m, probes)
    assert ok and asym == 0.0


def test_full_report_builders_pass():
    # default probes: det F > 0.3 (wider than the neo-Hookean comfort zone
    # [0.5, 2]), |p| <= 3; every builder-made model must clear all six checks
    models = [classical_model(1.0, linear_isotropic(LAM, MU)),
              classical_model(2.0, st_venant_kirchhoff(LAM, MU)),
              classical_model(1.5, neo_hookean(LAM, MU)),
              tensor_mass_model(np.diag([0.5, 1.25, 2.0]), neo_hookean(LAM, MU))]
    for m in models:
        report = full_report(m, n_probes=100, seed=SEED)
        assert report.passed, report.as_text()
        assert report.thermo_residual_v <= 1e-6
        assert report.thermo_residual_S <= 1e-6
        assert report.maxwell_residual <= 1e-6
        assert report.galilean_deviation <= 1e-9
        assert report.parity_asymmetry <= 1e-9


def test_negative_controls_fail_exactly_their_target():
    for kind, expected in NEGATIVE_CONTROL_EXPECTATIONS.items():
        report = full_report(corrupted_model(kind), n_probes=30, seed=SEED)
        results = report.results()
        assert kind in expected["fail"]
        for name in expected["fail"]:
            assert not results[name], f"{kind} control: {name} unexpectedly passed"
        for name in expected["pass"]:
            assert results[name], f"{kind} control: {name} unexpectedly failed"


def test_representation_recovers_hidden_tensor():
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(A)
        V = Q @ np.diag(rng.uniform(0.2, 5.0, size=3)) @ Q.T
        V = 0.5 * (V + V.T)
        m = tensor_mass_model(V, st_venant_kirchhoff(LAM, MU))
        res = extract_representation(m, draw_states(60, rng))
        assert np.abs(res.V_fit - V).max() <= 1e-8
        assert res.symmetry_residual <= 1e-9
        assert res.linearity_residual <= 1e-8
        assert res.split_residual <= 1e-6
        assert np.abs(res.V_fit @ res.M_fit - np.eye(3)).max() <= 1e-10


def test_representation_classical_scalar():
    m = classical_model(4.0, linear_isotropic(LAM, MU))
    res = extract_representation(m, _probes(40))
    assert np.abs(res.V_fit - 0.25 * np.eye(3)).max() <= 1e-10


def test_representation_split_verdict():
    for se in (linear_isotropic(LAM, MU), st_venant_kirchhoff(LAM, MU), neo_hookean(LAM, MU)):
        res = extract_representation(classical_model(1.5, se), _probes(40))
        assert res.split_pass and res.split_residual <= 1e-6
    # v = p / rho is linear and parity-even, but the kinetic energy carries a
    # factor 1 + |F - I|^2: only the energy split exposes it
    rho, se = 1.5, linear_isotropic(LAM, MU)
    probes = _probes(40)

    def energy(s):
        D = s.F - np.eye(3)
        return 0.5 * float(s.p @ s.p) * (1.0 + float(np.sum(D * D))) / rho + se.sigma(s.F)

    bad = pointwise_model("split_defect", energy, velocity=lambda s: s.p / rho,
                          stress=lambda s: se.analytic_stress(s.F))
    assert check_normality(bad, probes)[0] and check_galilean(bad, probes)[0]
    assert check_parity(bad, probes)[0]
    res = extract_representation(bad, probes)
    assert not res.split_pass
    assert res.split_residual > 1e-3


def test_representation_guard_on_parity_violation():
    with pytest.raises(PreconditionFailure, match="parity"):
        extract_representation(corrupted_model("parity"), _probes())


def test_representation_degenerate_momenta():
    m = classical_model(1.0, linear_isotropic(LAM, MU))
    rng = np.random.default_rng(12)
    # momenta confined to a plane cannot identify the full tensor
    probes = [State(np.eye(3), np.array([rng.normal(), rng.normal(), 0.0]))
              for _ in range(20)]
    with pytest.raises(FitDegenerate):
        extract_representation(m, probes)


def test_dissipation_violation_witness():
    # any model with a visible gradient defect admits rates that break the
    # dissipation inequality; verify with an independent directional derivative
    m = corrupted_model("thermo")
    probe = _probes(10)[3]
    F_rate, p_rate, amount = find_dissipation_violation(m, probe)
    assert amount > 0.01
    eps = 1e-6
    tau_rate = (m.energy(State(probe.F + eps * F_rate, probe.p + eps * p_rate))
                - m.energy(State(probe.F - eps * F_rate, probe.p - eps * p_rate))) / (2 * eps)
    work = float(np.sum(m.stress(probe) * F_rate)) + float(m.velocity(probe) @ p_rate)
    assert tau_rate - work > 0.5 * amount  # the exhibited direction violates it


def test_initial_rates_momentum_independent_stress():
    # for representation models the velocity-eliminated stress ignores v,
    # so B contributes nothing through the first term
    m = tensor_mass_model(np.diag([1.0, 2.0, 0.5]), st_venant_kirchhoff(LAM, MU))
    rng = np.random.default_rng(13)
    A = np.eye(3) + 0.1 * rng.uniform(-1, 1, size=(3, 3))
    B = rng.normal(size=(3, 3))
    c = 0.2 * rng.normal(size=3)
    a = np.array([0.0, 1.0, 0.0])
    F_dot, p_dot = initial_rate_check(m, A, B, a, np.zeros(3), c)
    assert np.array_equal(F_dot, B)
    assert np.abs(p_dot).max() <= 1e-6


def test_initial_rates_reduce_to_acoustic_action():
    from elastocons.admissibility import ellipticity_tensor
    m = tensor_mass_model(np.diag([1.0, 2.0, 0.5]), st_venant_kirchhoff(LAM, MU))
    rng = np.random.default_rng(14)
    A = np.eye(3) + 0.1 * rng.uniform(-1, 1, size=(3, 3))
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    b = rng.normal(size=3)
    c = 0.1 * rng.normal(size=3)
    F_dot, p_dot = initial_rate_check(m, A, np.zeros((3, 3)), a, b, c)
    assert np.abs(F_dot).max() == 0.0
    E = ellipticity_tensor(m, A, c, a)
    assert np.abs(p_dot - E @ b).max() <= 1e-6


def test_initial_rates_surjective_in_b():
    from elastocons.admissibility import ellipticity_tensor
    m = classical_model(1.3, neo_hookean(LAM, MU))
    rng = np.random.default_rng(15)
    A = np.eye(3) + 0.1 * rng.uniform(-1, 1, size=(3, 3))
    a = np.array([1.0, 0.0, 0.0])
    c = 0.1 * rng.normal(size=3)
    target = rng.normal(size=3)
    E = ellipticity_tensor(m, A, c, a)
    b = np.linalg.solve(E, target)
    _, p_dot = initial_rate_check(m, A, np.zeros((3, 3)), a, b, c)
    assert np.abs(p_dot - target).max() <= 1e-8


def test_default_shifts_deterministic():
    s1 = default_shifts()
    s2 = default_shifts()
    assert len(s1) == len(s2) == 9
    for u, v in zip(s1, s2):
        assert np.array_equal(u, v)


def test_checks_return_python_bool_and_float():
    ell = draw_ellipticity_probes(5, np.random.default_rng(SEED))
    for m in (classical_model(1.0, neo_hookean(LAM, MU)), corrupted_model("parity")):
        probes = _probes(10)
        for ok, value in (check_normality(m, probes), check_ellipticity(m, ell),
                          check_thermo(m, probes), check_maxwell(m, probes),
                          check_galilean(m, probes), check_parity(m, probes)):
            assert type(ok) is bool, m.name
            values = value if isinstance(value, tuple) else (value,)
            assert all(type(x) is float for x in values), m.name
        assert all(type(ok) is bool for ok in full_report(m, 10, SEED).results().values())
