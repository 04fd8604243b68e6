import dataclasses
from collections import Counter

import numpy as np
import pytest
from field_fixtures import gradient_field_3d

from elastocons import solver
from elastocons import (Field, Grid, State, affine_initial_field,
                        classical_model, corrupted_model, flux, involution_residual,
                        linear_isotropic, measure_wave_speed,
                        momentum_from_velocity, neo_hookean, plane_wave_speed,
                        rest_field, run, sine_wave_field, st_venant_kirchhoff,
                        step_lax_friedrichs, stored_energy_registry, eig_sym,
                        tensor_mass_model, total_deformation, total_energy,
                        total_momentum, uniform_field)
from elastocons.errors import Blowup, NonHyperbolicState, NotUnit, PreconditionFailure
from elastocons.hyperbolicity import velocity_coefficient_root
from elastocons.solver import CELL_BLOCK, _cell_speeds

LAM, MU = 2.0, 1.0


def _iso_model(rho=1.0):
    return classical_model(rho, linear_isotropic(LAM, MU))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(cells=(3,), h=(0.1,))
    with pytest.raises(ValueError):
        Grid(cells=(8,), h=(-0.1,))
    with pytest.raises(ValueError):
        Grid(cells=(8, 8), h=(0.1, 0.1))
    g = Grid.box(4, 2.0)
    assert g.dims == 3
    assert g.lengths == (2.0, 2.0, 2.0)
    assert g.cell_volume == pytest.approx(0.125)


def test_flux_rest_state_zero():
    m = _iso_model()
    fF, fp = flux(m, State(np.eye(3), np.zeros(3)))
    assert np.abs(fF).max() == 0.0
    assert np.abs(fp).max() == 0.0


def test_flux_carries_velocity_and_stress_columns():
    m = _iso_model()
    s = State(np.eye(3), np.array([1.0, 0.0, 0.0]))
    fF, fp = flux(m, s)
    # axis-0 flux of F carries -v in its first column
    assert np.allclose(fF[0][:, 0], [-1.0, 0.0, 0.0])
    assert np.abs(fF[0][:, 1:]).max() == 0.0
    S = m.stress(s)
    for a in range(3):
        assert np.allclose(fp[a], -S[:, a])


def test_uniform_field_is_stationary():
    rng = np.random.default_rng(0)
    for se in stored_energy_registry(LAM, MU):
        m = classical_model(1.0, se)
        F0 = np.eye(3) + 0.05 * rng.uniform(-1, 1, size=(3, 3))
        p0 = 0.3 * rng.normal(size=3)
        fld = uniform_field(Grid.line(16, 1.0), F0, p0)
        out = step_lax_friedrichs(m, fld, cfl=0.5)
        scale = max(1.0, np.abs(fld.F).max(), np.abs(fld.p).max())
        assert np.abs(out.F - fld.F).max() <= 1e-13 * scale
        assert np.abs(out.p - fld.p).max() <= 1e-13 * scale


def test_exact_conservation_of_momentum_and_deformation():
    m = _iso_model()
    fld = sine_wave_field(m, Grid.line(200, 1.0), "longitudinal", 0.02)
    p_scale = max(1.0, float(np.abs(fld.p).sum()) * fld.grid.cell_volume)
    F_scale = max(1.0, float(np.abs(fld.F).sum()) * fld.grid.cell_volume)
    P0, D0 = total_momentum(fld), total_deformation(fld)
    out, _ = run(m, fld, t_end=0.2, cfl=0.5, monitor_every=1000)
    assert np.abs(total_momentum(out) - P0).max() <= 1e-12 * p_scale
    assert np.abs(total_deformation(out) - D0).max() <= 1e-12 * F_scale


def test_affine_field_discrete_gradients():
    # on a 3-D grid the central differences of the affine data reproduce the
    # defining matrices exactly (the fields are linear in x)
    m = classical_model(1.5, st_venant_kirchhoff(LAM, MU))
    rng = np.random.default_rng(1)
    grid = Grid.box(8, 1.0)
    A = np.eye(3) + 0.05 * rng.uniform(-1, 1, size=(3, 3))
    B = 0.2 * rng.normal(size=(3, 3))
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    b = 0.2 * rng.normal(size=3)
    c = 0.1 * rng.normal(size=3)
    x0 = np.array([0.5, 0.5, 0.5])
    fld = affine_initial_field(m, grid, A, B, a, b, c, x0)

    idx = (4, 4, 4)  # interior cell, away from the periodic seam
    h = grid.h
    for j in range(3):
        up = tuple(np.add(idx, np.eye(3, dtype=int)[j]))
        dn = tuple(np.subtract(idx, np.eye(3, dtype=int)[j]))
        dF = (fld.F[up] - fld.F[dn]) / (2 * h[j])
        v_up = m.velocity(State(fld.F[up], fld.p[up]))
        v_dn = m.velocity(State(fld.F[dn], fld.p[dn]))
        dv = (v_up - v_dn) / (2 * h[j])
        assert np.abs(dF - np.outer(b, a) * a[j]).max() <= 1e-9
        assert np.abs(dv - B[:, j]).max() <= 1e-9


def test_involution_zero_for_axis_aligned_1d_data():
    m = _iso_model()
    fld = sine_wave_field(m, Grid.line(64, 1.0), "transverse", 0.05)
    assert involution_residual(fld) <= 1e-12
    out, trace = run(m, fld, t_end=0.1, cfl=0.5, monitor_every=5)
    assert max(trace.involution) <= 1e-12


def test_involution_small_for_gradient_compatible_3d_data():
    res = {}
    for n in (8, 16, 32):
        res[n] = involution_residual(gradient_field_3d(n))
    # second-order differences of an exact gradient: residual ~ h^2
    # (the 8-cell grid is still pre-asymptotic, hence the looser first ratio)
    assert res[16] < 0.5 * res[8]
    assert res[32] < 0.3 * res[16]


def test_reversal_negation_symmetry():
    # reversing the cell order and negating momentum conjugates the discrete
    # evolution exactly: the scheme is symmetric and the constitutive maps
    # are even (stress, energy) / odd (velocity) in p
    m = classical_model(1.0, neo_hookean(LAM, MU))
    grid = Grid.line(50, 1.0)
    x = grid.positions()[:, 0]
    F = np.tile(np.eye(3), (50, 1, 1))
    F[:, 0, 0] += 0.04 * np.sin(2 * np.pi * x)
    F[:, 1, 0] += 0.02 * np.cos(4 * np.pi * x)
    p = np.zeros((50, 3))
    p[:, 0] = 0.03 * np.sin(2 * np.pi * x + 0.7)
    p[:, 1] = 0.01 * np.cos(2 * np.pi * x)
    fld = Field(grid=grid, F=F, p=p)
    mirror = Field(grid=grid, F=F[::-1].copy(), p=-p[::-1].copy())
    for _ in range(20):
        fld = step_lax_friedrichs(m, fld, cfl=0.4)
        mirror = step_lax_friedrichs(m, mirror, cfl=0.4)
    assert np.abs(mirror.F - fld.F[::-1]).max() <= 1e-13
    assert np.abs(mirror.p + fld.p[::-1]).max() <= 1e-13
    assert mirror.t == pytest.approx(fld.t, abs=1e-15)


def test_rest_state_monitors_stay_zero():
    m = _iso_model()
    fld = rest_field(Grid.line(32, 1.0))
    out, trace = run(m, fld, t_end=0.3, cfl=0.8, monitor_every=3)
    assert max(abs(d) for d in trace.energy_drift) <= 1e-14
    assert max(trace.involution) == 0.0
    assert max(trace.dissipation) <= 1e-14
    assert np.abs(out.F - fld.F).max() == 0.0


def test_wave_speed_measurement_synthetic():
    n, L = 256, 2.0
    x = (np.arange(n) + 0.5) * (L / n)
    shift = 0.3137
    p0 = np.sin(2 * np.pi * x / L)
    p1 = np.sin(2 * np.pi * (x - shift) / L)
    speed = measure_wave_speed(p0, p1, elapsed=0.5, length=L, expected_speed=shift / 0.5)
    assert speed == pytest.approx(shift / 0.5, rel=1e-4)
    # wrap counting: a full period plus the same shift
    speed2 = measure_wave_speed(p0, p1, elapsed=0.5, length=L,
                                expected_speed=(shift + L) / 0.5)
    assert speed2 == pytest.approx((shift + L) / 0.5, rel=1e-4)


def test_blowup_detected():
    m = _iso_model()
    fld = uniform_field(Grid.line(8, 1.0), np.eye(3), np.array([1e13, 0.0, 0.0]))
    with pytest.raises(Blowup):
        run(m, fld, t_end=0.1, cfl=0.5)


def test_non_hyperbolic_state_refused():
    m = classical_model(1.0, linear_isotropic(LAM, -1.0))
    fld = rest_field(Grid.line(8, 1.0))
    with pytest.raises(NonHyperbolicState):
        step_lax_friedrichs(m, fld, cfl=0.5)


def test_cfl_and_argument_validation():
    m = _iso_model()
    fld = rest_field(Grid.line(8, 1.0))
    with pytest.raises(ValueError):
        step_lax_friedrichs(m, fld, cfl=1.5)
    with pytest.raises(ValueError):
        run(m, fld, t_end=-1.0, cfl=0.5)
    with pytest.raises(ValueError):
        run(m, fld, t_end=1.0, cfl=0.5, monitor_every=0)


def test_3d_smoke_run_conserves_and_stays_finite():
    m = _iso_model()
    fld = gradient_field_3d(8)
    P0, D0 = total_momentum(fld), total_deformation(fld)
    out, trace = run(m, fld, t_end=0.05, cfl=0.5, monitor_every=2)
    assert np.isfinite(out.F).all() and np.isfinite(out.p).all()
    p_scale = max(1.0, float(np.abs(fld.p).sum()) * fld.grid.cell_volume)
    F_scale = max(1.0, float(np.abs(fld.F).sum()) * fld.grid.cell_volume)
    assert np.abs(total_momentum(out) - P0).max() <= 1e-12 * p_scale
    assert np.abs(total_deformation(out) - D0).max() <= 1e-12 * F_scale
    assert out.t == pytest.approx(0.05)


def _rolled_step(model, fld, cfl):
    """The Rusanov step written with np.roll: the bit-for-bit reference of the solver's."""
    g = fld.grid
    speeds = _cell_speeds(model, fld, velocity_coefficient_root(solver._declared_V(model)))[0]
    dt = solver._time_step(g, speeds, cfl)
    flux_F, flux_p = flux(model, State(fld.F, fld.p))
    F_new, p_new = fld.F.copy(), fld.p.copy()
    for ax in range(g.dims):
        c = speeds[..., ax]
        alpha = np.maximum(c, np.roll(c, -1, axis=ax))
        for U, U_new, f in ((fld.F, F_new, flux_F[ax]), (fld.p, p_new, flux_p[ax])):
            a = alpha.reshape(alpha.shape + (1,) * (U.ndim - g.dims))
            hat = 0.5 * (f + np.roll(f, -1, axis=ax)) - 0.5 * a * (np.roll(U, -1, axis=ax) - U)
            U_new -= (dt / g.h[ax]) * (hat - np.roll(hat, 1, axis=ax))
    return F_new, p_new, fld.t + dt


def _rolled_involution(fld):
    g = fld.grid
    dF = [(np.roll(fld.F, -1, axis=d) - np.roll(fld.F, 1, axis=d)) / (2.0 * g.h[d])
          if d < g.dims else np.zeros_like(fld.F) for d in range(3)]
    return max(float(np.abs(dF[b][..., :, a] - dF[a][..., :, b]).max())
               for a in range(3) for b in range(a + 1, 3))


GRIDS = {"1d": Grid.line(32), "3d_non_cubic": Grid(cells=(5, 6, 7), h=(0.2, 1 / 6, 1 / 7))}


@pytest.mark.parametrize("grid, energy", [
    pytest.param(grid, energy, id=name + suffix)
    for energy, suffix in ((linear_isotropic, ""), (neo_hookean, "_neo_hookean"))
    for name, grid in GRIDS.items()])
def test_step_and_involution_have_the_bits_of_a_rolled_reference(grid, energy):
    # a non-cubic grid, so that a shift along the wrong axis cannot go unnoticed; the
    # reference's flux takes model.stress, the solver's the stress of stress_and_extremes
    m = classical_model(1.5, energy(LAM, MU))
    rng = np.random.default_rng(21)
    fld = Field(grid=grid, F=np.eye(3) + rng.uniform(-0.1, 0.1, grid.cells + (3, 3)),
                p=rng.uniform(-0.5, 0.5, grid.cells + (3,)))
    for ax in range(fld.F.ndim):
        for k in (1, -1):
            assert np.array_equal(solver._shift(fld.F, ax, k), np.roll(fld.F, -k, axis=ax))
    out = step_lax_friedrichs(m, fld, cfl=0.8)
    F_ref, p_ref, t_ref = _rolled_step(m, fld, 0.8)
    assert np.array_equal(out.F, F_ref) and np.array_equal(out.p, p_ref) and out.t == t_ref
    assert involution_residual(fld) == _rolled_involution(fld) > 0.0


def test_nan_only_in_momentum_is_a_blowup_at_the_step_that_made_it():
    # the stress, and so only the momentum flux, turns nan where F_00 > 1.005; the
    # replaced stress drops the combined map, whose stress the flux would take instead
    base = _iso_model()
    m = dataclasses.replace(base, name="nan_stress", stress=lambda s: np.where(
        (s.F[..., 0, 0] > 1.005)[..., None, None], np.nan, base.stress(s)),
        stress_and_extremes=None)
    fld = sine_wave_field(m, Grid.line(16), "longitudinal", 0.01)
    with pytest.raises(Blowup, match=r"\(step 1\)$"):
        run(m, fld, t_end=0.1, cfl=0.5)


def test_momentum_inversion_consistency_in_builders():
    # sine builder stores p consistent with the requested velocity profile
    m = classical_model(2.0, linear_isotropic(LAM, MU))
    fld = sine_wave_field(m, Grid.line(32, 1.0), "longitudinal", 0.01)
    for i in (0, 7, 19):
        v = m.velocity(State(fld.F[i], fld.p[i]))
        p_back = momentum_from_velocity(m, fld.F[i], v)
        assert np.abs(p_back - fld.p[i]).max() <= 1e-9


# A symmetric positive definite velocity coefficient with off-diagonal coupling
V_COUPLED = np.array([[0.8, 0.3, 0.1], [0.3, 1.4, -0.2], [0.1, -0.2, 0.6]])


def _speeds_squared(V, S4, w):
    """eig(V E(w)), the squared characteristic speeds, ascending."""
    E = np.einsum("ijhk,j,k->ih", S4, w, w)
    lam, R = np.linalg.eig(V @ E)
    order = np.argsort(lam.real)
    return lam.real[order], R.real[:, order]


def test_plane_wave_speed_with_coupled_velocity_coefficient():
    rng = np.random.default_rng(21)
    se = neo_hookean(LAM, MU)
    m = tensor_mass_model(V_COUPLED, se)
    ev, Q = np.linalg.eigh(V_COUPLED)
    V_inv_root = (Q / np.sqrt(ev)) @ Q.T
    for _ in range(5):
        F0 = np.eye(3) + 0.1 * rng.uniform(-1.0, 1.0, size=(3, 3))
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        lam, R = _speeds_squared(V_COUPLED, se.analytic_elasticity(F0), w)
        for k in range(3):
            # V E r = lam r makes V^(-1/2) r the polarization of mode k
            c = plane_wave_speed(m, F0, w, V_inv_root @ R[:, k])
            assert c ** 2 == pytest.approx(lam[k], rel=1e-9)


def test_3d_time_step_with_coupled_velocity_coefficient():
    se = neo_hookean(LAM, MU)
    m = tensor_mass_model(V_COUPLED, se)
    fld = gradient_field_3d(4, amp=0.05)
    cfl = 0.5
    denom = 0.0
    for ax in range(3):
        c_max = max(np.sqrt(_speeds_squared(V_COUPLED, se.analytic_elasticity(fld.F[c]),
                                            np.eye(3)[ax])[0][-1])
                    for c in np.ndindex(*fld.grid.cells))
        denom += c_max / fld.grid.h[ax]
    assert step_lax_friedrichs(m, fld, cfl).t == pytest.approx(cfl / denom, rel=1e-9)


def _random_box_field():
    """A random 3-D field of 9^3 cells, more than one CELL_BLOCK."""
    rng = np.random.default_rng(13)
    grid = Grid.box(9)
    return Field(grid=grid, F=np.eye(3) + rng.uniform(-0.15, 0.15, grid.cells + (3, 3)),
                 p=rng.uniform(-0.5, 0.5, grid.cells + (3,)))


def test_the_solver_scales_speeds_by_the_root_of_the_declared_V():
    fld = gradient_field_3d(6, amp=0.01)

    def speeds(m):
        return _cell_speeds(m, fld, velocity_coefficient_root(solver._declared_V(m)))[0]
    for se in stored_energy_registry(LAM, MU):  # closed form (linear, neo-Hookean) and eig_sym
        c1 = speeds(classical_model(1.0, se)) / np.sqrt(1.5)
        assert np.abs(speeds(classical_model(1.5, se)) - c1).max() <= 1e-14 * c1.max(), se.name
    m = tensor_mass_model(V_COUPLED, neo_hookean(LAM, MU))
    ev, Q = np.linalg.eigh(V_COUPLED)
    root = (Q * np.sqrt(ev)) @ Q.T
    S4 = m.analytic_S4(fld.F.reshape(-1, 3, 3))
    c = np.stack([np.sqrt(np.linalg.eigvalsh(root @ S4[:, :, a, :, a] @ root)[:, -1])
                  for a in range(3)], -1).reshape(fld.grid.cells + (3,))
    assert np.abs(speeds(m) - c).max() <= 1e-12 * c.max()


@pytest.mark.parametrize("model", [classical_model(1.0, neo_hookean(LAM, MU)),
                                   corrupted_model("thermo", LAM, MU)],
                         ids=["closed_form", "contracted_S4"])
def test_plane_wave_speed_refuses_a_direction_that_is_not_unit(model):
    # E(w) is quadratic in w: along 2 e_1 a speed c would read as 2 c
    with pytest.raises(NotUnit):
        plane_wave_speed(model, np.eye(3), [2.0, 0.0, 0.0], np.eye(3)[0])


@pytest.mark.parametrize("d", [np.eye(3)[0], np.eye(3)[1]], ids=["longitudinal", "transverse"])
def test_parity_control_has_the_plane_wave_speed_of_its_base_model(d):
    # v = p / rho + e_1 has the V of the classical model; the S4 contraction of the
    # control and the closed-form E(w) of the classical model agree bit for bit
    base = classical_model(1.5, linear_isotropic(LAM, MU))
    parity = corrupted_model("parity", LAM, MU, rho=1.5)
    assert parity.analytic_acoustic is None
    assert plane_wave_speed(parity, np.eye(3), np.eye(3)[0], d) == \
        plane_wave_speed(base, np.eye(3), np.eye(3)[0], d)


@pytest.mark.parametrize("build", [lambda se: classical_model(1.5, se),
                                   lambda se: tensor_mass_model(V_COUPLED, se)],
                         ids=["classical", "tensor_mass"])
def test_closed_form_and_contracted_S4_give_the_same_speeds_and_step(build):
    # the closed-form extremes (classical only), eig_sym of the closed-form E(e_a) and
    # eig_sym of the contracted S4 on a random 3-D field of more than one CELL_BLOCK
    m = build(neo_hookean(LAM, MU))
    assert (m.stress_and_extremes is None) == (m.name.startswith("tensor_mass"))
    eig = dataclasses.replace(m, stress_and_extremes=None)
    fallback = dataclasses.replace(eig, analytic_acoustic=None)
    fld = _random_box_field()
    assert np.prod(fld.grid.cells) > CELL_BLOCK
    vroot = velocity_coefficient_root(m.V)
    c_ref = _cell_speeds(fallback, fld, vroot)[0]
    dt_ref = step_lax_friedrichs(fallback, fld, 0.9).t
    for x in (m, eig):
        assert np.abs(_cell_speeds(x, fld, vroot)[0] - c_ref).max() <= 1e-12 * np.abs(c_ref).max()
        assert step_lax_friedrichs(x, fld, 0.9).t == pytest.approx(dt_ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("build, closed_form", [
    (lambda: classical_model(1.5, linear_isotropic(LAM, MU)), True),
    (lambda: classical_model(1.5, neo_hookean(LAM, MU)), True),
    (lambda: classical_model(1.5, st_venant_kirchhoff(LAM, MU)), False),
    (lambda: tensor_mass_model(V_COUPLED, neo_hookean(LAM, MU)), False)],
    ids=["linear", "neo_hookean", "stvk", "tensor_mass"])
def test_rank_one_models_step_without_an_eigensolver(monkeypatch, build, closed_form):
    m, calls = build(), []
    monkeypatch.setattr(solver, "eig_sym", lambda M, vectors=True: calls.append(np.shape(M))
                        or eig_sym(M, vectors))
    fld = sine_wave_field(m, Grid.line(16), "longitudinal", 0.01)
    assert calls == [(3, 3)]  # plane_wave_speed: the eigenvectors pick the polarization's mode
    calls.clear()
    run(m, fld, t_end=0.02, cfl=0.5)
    assert (calls == []) == closed_form
    assert all(shape[0] == 16 for shape in calls)  # one call per step, all cells at once


def test_uniform_neo_hookean_field_past_the_rank_one_sign_change_is_refused():
    # ln J = ln 1e5 > (lam + mu) / lam: E(e_0) = I + (3 - 2 ln J) 100 e_0 (x) e_0
    m = classical_model(1.0, neo_hookean(LAM, MU))
    fld = uniform_field(Grid.line(8), np.diag([0.1, 1000.0, 1000.0]), np.zeros(3))
    with pytest.raises(NonHyperbolicState,
                       match=r"negative acoustic eigenvalue -2\.002e\+03 along axis 0$"):
        step_lax_friedrichs(m, fld, cfl=0.5)


def test_registry_wave_speeds_assemble_no_S4():
    m = classical_model(1.0, neo_hookean(LAM, MU))
    calls = []
    spy = dataclasses.replace(
        m, analytic_S4=lambda F: calls.append(np.shape(F)) or m.analytic_S4(F))
    calls.clear()  # the construction check
    run(spy, sine_wave_field(spy, Grid.line(16), "longitudinal", 0.01), t_end=0.02, cfl=0.5)
    assert calls == []


def test_a_run_evaluates_each_monitored_energy_once_and_the_flux_stress_with_the_speeds():
    m, calls = classical_model(1.0, neo_hookean(LAM, MU)), Counter()

    def counted(name):
        fn = getattr(m, name)
        return lambda s: calls.update([name]) or fn(s)
    spy = dataclasses.replace(m, energy=counted("energy"), stress=counted("stress"))
    fld = sine_wave_field(spy, Grid.line(16), "longitudinal", 0.01)
    calls.clear()  # the construction check and the initial field
    out, trace = run(spy, fld, t_end=0.05, cfl=0.5, monitor_every=2)
    monitored = len(trace.steps) - 1
    assert trace.steps[-1] > monitored >= 2  # some steps are not monitored
    # the initial energy, then the new field's (summed and differenced) and the old field's
    # per monitored step; the stress only at the dissipation residual's mid-states
    assert calls == Counter(energy=1 + 2 * monitored, stress=monitored)


def test_tensor_mass_1d_wave_speeds():
    # E(e_0) = diag(4, 1, 1) for linear isotropic (2, 1); V E = diag(2, 1.25, 2),
    # and diag(4, 1, 1) for unit scalar density (the speeds of acceptance criterion 6)
    # a third of a period: the measured lag, not the wrap count, carries the speed
    tensor = tensor_mass_model(np.diag([0.5, 1.25, 2.0]), linear_isotropic(LAM, MU))
    L = 1.0
    for m, pol, comp, c_exact in ((tensor, "longitudinal", 0, np.sqrt(2.0)),
                                  (tensor, "transverse", 1, np.sqrt(1.25)),
                                  (_iso_model(), "longitudinal", 0, 2.0),
                                  (_iso_model(), "transverse", 1, 1.0)):
        f0 = sine_wave_field(m, Grid.line(200, L), pol, amplitude=0.01)
        t = L / (3.0 * c_exact)
        fT, _ = run(m, f0, t_end=t, cfl=0.5, monitor_every=10 ** 9)
        measured = measure_wave_speed(f0.p[:, comp], fT.p[:, comp], t, L, c_exact)
        assert measured == pytest.approx(c_exact, rel=0.02)


def test_run_refuses_a_state_dependent_velocity_coefficient():
    # the Galilean control's density 1 + |F - 1|^2 varies with F, so it declares no V
    # and the solver refuses it on any field, a uniform one included
    base = corrupted_model("galilean")
    calls = []
    m = dataclasses.replace(base, energy=lambda s: calls.append(1) or base.energy(s))
    with pytest.raises(PreconditionFailure, match="control_galilean declares no V"):
        sine_wave_field(m, Grid.line(32), "longitudinal", amplitude=0.01)
    fld = uniform_field(Grid.line(32), np.eye(3), np.zeros(3))
    calls.clear()
    for refused in (lambda: run(m, fld, t_end=0.01, cfl=0.5),
                    lambda: step_lax_friedrichs(m, fld, cfl=0.5)):
        with pytest.raises(PreconditionFailure, match="control_galilean declares no V"):
            refused()
    assert not calls  # refused before the first energy monitor


def test_rusanov_first_order_l1_convergence():
    # the longitudinal sine of the linear isotropic model (rho = 1, speed
    # sqrt(lam + 2 mu) = 2) is an exact right-mover: compare with its translate
    m = _iso_model()
    amp, t_end, speed = 0.01, 0.1, 2.0
    errors = []
    for n in (100, 200, 400):
        grid = Grid.line(n, 1.0)
        out, _ = run(m, sine_wave_field(m, grid, "longitudinal", amp), t_end=t_end,
                     cfl=0.5, monitor_every=1000)
        x = grid.positions()[:, 0]
        exact = amp * np.sin(2.0 * np.pi * (x - speed * t_end))
        err = (np.abs(out.F[:, 0, 0] - 1.0 - exact).sum()
               + np.abs(out.p[:, 0] + speed * exact).sum())
        errors.append(grid.cell_volume * err)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders >= 0.9) & (orders <= 1.1)), orders
