"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

import numpy as np
import pytest

from elastocons import (acoustic_tensor, baseline_directions, classical_model,
                        corrupted_model, draw_states, eig_sym, eigenstructure,
                        ellipticity_loss_bisection,
                        extract_representation, fibonacci_sphere, flux_jacobian,
                        full_report, initial_rate_check, linear_isotropic,
                        measure_wave_speed, neo_hookean,
                        scan_directions, sine_wave_field, st_venant_kirchhoff,
                        step_lax_friedrichs, stored_energy_registry,
                        tensor_mass_model, total_deformation, total_momentum,
                        affine_initial_field, run, Grid, Field)
from elastocons.admissibility import NEGATIVE_CONTROL_EXPECTATIONS
from elastocons.solver import involution_residual

LAM, MU = 2.0, 1.0
SEED = 20260810


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _directions(n=256):
    return np.vstack([fibonacci_sphere(n), baseline_directions()])


def _acoustic_eigenvalues(S4, dirs):
    """Descending eigenvalues of E(w), one row per direction."""
    return eig_sym(acoustic_tensor(S4, dirs), vectors=False)


def _nonzero_eigenvalues(es):
    """The six nonzero eigenvalues per matrix of a stack, ascending; None unless six each."""
    if not np.all(es.nonzero.sum(axis=-1) == 6):
        return None
    return np.sort(es.eigenvalues[es.nonzero].real.reshape(-1, 6), axis=-1)


def test_criterion_1_jacobian_eigenstructure():
    """Zero eigenvalue of multiplicity six; nonzero spectrum {+-2, +-1, +-1}."""
    t0 = time.perf_counter()
    S4 = linear_isotropic(LAM, MU).analytic_elasticity(np.eye(3))
    expected = np.array([-2.0, -1.0, -1.0, 1.0, 1.0, 2.0])
    es = eigenstructure(flux_jacobian(S4, 1.0, _directions(256)))
    lams = _nonzero_eigenvalues(es)
    ok = bool(np.all(es.zero_multiplicity == 6) and np.all(es.independent_count == 6)
              and np.all(es.independence_sv > 1e-6) and lams is not None)
    worst = float(np.abs(lams - expected).max()) if ok else np.inf
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1e-8 and elapsed < 5.0
    _verdict(1, ok, f"282 directions, spectrum defect {worst:.2e}, "
                    f"zero multiplicity 6, runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_mu_equals_rho_lambda_squared():
    """rho lambda^2 over nonzero Jacobian eigenvalues = acoustic spectrum."""
    rng = np.random.default_rng(SEED)
    rho = 1.3
    dirs = _directions(256)
    worst = 0.0
    states_checked = 0
    for se in stored_energy_registry(LAM, MU):
        S4_at = se.analytic_elasticity
        accepted = 0
        while accepted < 10:
            F = np.eye(3) + 0.15 * rng.uniform(-1.0, 1.0, size=(3, 3))
            if np.linalg.det(F) < 0.6:
                continue
            S4 = S4_at(F)
            acoustic = _acoustic_eigenvalues(S4, dirs)
            if acoustic.min() <= 1e-6:
                continue
            accepted += 1
            states_checked += 1
            lams = _nonzero_eigenvalues(eigenstructure(flux_jacobian(S4, rho, dirs)))
            if lams is None:
                _verdict(2, False, "expected 6 nonzero eigenvalues in every direction")
            mus = np.sort(rho * lams ** 2, axis=-1)
            mu_expected = np.sort(np.repeat(acoustic, 2, axis=-1), axis=-1)
            scale = np.maximum(1.0, np.abs(mu_expected).max(axis=-1))
            worst = max(worst, float((np.abs(mus - mu_expected).max(axis=-1) / scale).max()))
    ok = worst <= 1e-8 and states_checked == 30
    _verdict(2, ok, f"3 registry models x 10 states x 282 directions, "
                    f"worst relative defect {worst:.2e} (<= 1e-8)")


def test_criterion_3_gradient_identities_and_controls():
    """Constructed models satisfy the gradient identities; controls fail."""
    t0 = time.perf_counter()
    models = [classical_model(1.0, linear_isotropic(LAM, MU)),
              classical_model(2.0, st_venant_kirchhoff(LAM, MU)),
              classical_model(1.5, neo_hookean(LAM, MU)),
              tensor_mass_model(np.diag([0.5, 1.25, 2.0]), neo_hookean(LAM, MU))]
    ok = True
    worst = 0.0
    for m in models:
        report = full_report(m, n_probes=100, seed=SEED)
        worst = max(worst, report.values["thermo_velocity"], report.values["thermo_stress"],
                    report.values["maxwell"])
        ok = ok and report.passed and worst <= 1e-5

    control_ok = True
    for kind, expected in NEGATIVE_CONTROL_EXPECTATIONS.items():
        results = full_report(corrupted_model(kind), n_probes=30, seed=SEED).results
        targeted_fails = not results[kind]
        others_ok = all(results[name] for name in expected["pass"])
        implied_ok = all(not results[name] for name in expected["fail"])
        control_ok = control_ok and targeted_fails and others_ok and implied_ok

    elapsed = time.perf_counter() - t0
    ok = ok and control_ok and elapsed < 10.0
    _verdict(3, ok, f"4 constructed models, worst residual {worst:.2e} (<= 1e-5); "
                    f"6 negative controls fail exactly their target; "
                    f"runtime {elapsed:.2f}s (< 10s)")


def test_criterion_4_representation_recovery():
    """Hidden velocity-coefficient tensors recovered from black-box probing."""
    rng = np.random.default_rng(SEED + 4)
    worst_V = worst_split = worst_sym = 0.0
    for _ in range(20):
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        V = Q @ np.diag(rng.uniform(0.2, 5.0, size=3)) @ Q.T
        V = 0.5 * (V + V.T)
        m = tensor_mass_model(V, st_venant_kirchhoff(LAM, MU))
        res = extract_representation(m, draw_states(60, rng))
        worst_V = max(worst_V, float(np.abs(res.V_fit - V).max()))
        worst_split = max(worst_split, res.split_residual)
        worst_sym = max(worst_sym, res.symmetry_residual)
    ok = worst_V <= 1e-8 and worst_split <= 1e-6 and worst_sym <= 1e-9
    _verdict(4, ok, f"20 random tensors: recovery {worst_V:.2e} (<= 1e-8), "
                    f"split {worst_split:.2e} (<= 1e-6), symmetry {worst_sym:.2e} (<= 1e-9)")


def test_criterion_5_initial_rates_one_step():
    """One discrete step reproduces the closed-form initial rates at x0."""
    m = classical_model(2.0, neo_hookean(LAM, MU))
    rng = np.random.default_rng(SEED + 5)
    A = np.eye(3) + 0.1 * rng.uniform(-1.0, 1.0, size=(3, 3))
    a = np.array([1.0, 0.0, 0.0])      # data varies along the grid axis only
    b = np.array([0.2, -0.3, 0.1])
    c = np.array([0.05, -0.02, 0.03])
    B = np.outer(np.array([0.15, -0.25, 0.1]), a)

    F_dot, p_dot = initial_rate_check(m, A, B, a, b, c)

    n = 400
    grid = Grid.line(n, 1.0)
    i0 = n // 2
    x0 = np.zeros(3)
    x0[0] = grid.positions()[i0][0]    # closed-form point sits on a cell center
    fld = affine_initial_field(m, grid, A, B, a, b, c, x0)
    stepped = step_lax_friedrichs(m, fld, cfl=0.4)
    dt = stepped.t - fld.t
    h = grid.h[0]

    Fdot_disc = (stepped.F[i0] - fld.F[i0]) / dt
    pdot_disc = (stepped.p[i0] - fld.p[i0]) / dt
    errF = float(np.abs(Fdot_disc - F_dot).max()) / max(1.0, float(np.abs(F_dot).max()))
    errp = float(np.abs(pdot_disc - p_dot).max()) / max(1.0, float(np.abs(p_dot).max()))
    bound = 5.0 * (dt + h * h)

    # surjectivity: solve E b = target and round-trip through the rate formula
    from elastocons.admissibility import ellipticity_tensor
    target = rng.normal(size=3)
    E = ellipticity_tensor(m, A, c, a)
    b_solved = np.linalg.solve(E, target)
    _, p_dot_rt = initial_rate_check(m, A, np.zeros((3, 3)), a, b_solved, c)
    rt_err = float(np.abs(p_dot_rt - target).max())

    ok = errF <= bound and errp <= bound and rt_err <= 1e-8
    _verdict(5, ok, f"scaled rate errors ({errF:.2e}, {errp:.2e}) <= {bound:.2e}; "
                    f"surjectivity round-trip {rt_err:.2e} (<= 1e-8)")


def test_criterion_6_wave_speeds():
    """Longitudinal and transverse speeds 2 and 1 within 2% after one period."""
    t0 = time.perf_counter()
    m = classical_model(1.0, linear_isotropic(LAM, MU))
    n, L, cfl = 400, 1.0, 0.5
    results = {}
    for pol, comp, c_exact in (("longitudinal", 0, 2.0), ("transverse", 1, 1.0)):
        grid = Grid.line(n, L)
        f0 = sine_wave_field(m, grid, pol, amplitude=0.01)
        period = L / c_exact
        fT, _ = run(m, f0, t_end=period, cfl=cfl, monitor_every=10 ** 9)
        measured = measure_wave_speed(f0.p[:, comp], fT.p[:, comp],
                                      period, L, c_exact)
        results[pol] = (measured, c_exact)
    elapsed = time.perf_counter() - t0
    ok = all(abs(meas - ex) / ex <= 0.02 for meas, ex in results.values())
    ok = ok and elapsed < 30.0
    _verdict(6, ok, "; ".join(f"{pol}: {meas:.4f} vs {ex}"
                              for pol, (meas, ex) in results.items())
                    + f"; runtime {elapsed:.1f}s (< 30s)")


def test_criterion_7_conservation_and_monitor_refinement():
    """Exact conservation; drift, dissipation and compatibility refine away."""
    iso = classical_model(1.0, linear_isotropic(LAM, MU))
    nh = classical_model(1.0, neo_hookean(LAM, MU))

    # conservation on a periodic smooth 1-D run
    fld = sine_wave_field(iso, Grid.line(200, 1.0), "longitudinal", 0.02)
    p_scale = max(1.0, float(np.abs(fld.p).sum()) * fld.grid.cell_volume)
    F_scale = max(1.0, float(np.abs(fld.F).sum()) * fld.grid.cell_volume)
    P0, D0 = total_momentum(fld), total_deformation(fld)
    out, _ = run(iso, fld, t_end=0.25, cfl=0.5, monitor_every=10 ** 9)
    cons_p = float(np.abs(total_momentum(out) - P0).max()) / p_scale
    cons_F = float(np.abs(total_deformation(out) - D0).max()) / F_scale
    cons_ok = cons_p <= 1e-12 and cons_F <= 1e-12

    # energy drift and dissipation residual refine under h -> h/2
    drift = {}
    dissip = {}
    for n in (100, 200):
        f0 = sine_wave_field(nh, Grid.line(n, 1.0), "longitudinal", 0.05)
        _, trace = run(nh, f0, t_end=0.25, cfl=0.5, monitor_every=10)
        drift[n] = max(abs(d) for d in trace.energy_drift)
        dissip[n] = max(d for d in trace.dissipation[1:])
    drift_ratio = drift[200] / drift[100]
    dissip_ratio = dissip[200] / dissip[100]
    refine_ok = drift_ratio <= 0.7 and dissip_ratio <= 0.7

    # compatibility residual refines for gradient-compatible 3-D data
    from field_fixtures import gradient_field_3d
    invol = {}
    for n in (8, 16):
        f0 = gradient_field_3d(n)
        _, trace = run(iso, f0, t_end=0.04, cfl=0.5, monitor_every=2)
        invol[n] = trace.involution[-1]
    invol_ok = invol[16] < invol[8]

    ok = cons_ok and refine_ok and invol_ok
    _verdict(7, ok, f"conservation ({cons_p:.1e}, {cons_F:.1e}) <= 1e-12; "
                    f"drift ratio {drift_ratio:.2f}, dissipation ratio {dissip_ratio:.2f} "
                    f"(<= 0.7); compatibility {invol[8]:.2e} -> {invol[16]:.2e}")


def test_criterion_8_strong_ellipticity_boundary():
    """Direction scan flags failures; compression boundary located by bisection."""
    bad = scan_directions(linear_isotropic(LAM, -1.0).analytic_elasticity,
                          np.eye(3), 1.0, n_dirs=64)
    flag_ok = (not bad.strongly_elliptic) and bad.min_eigenvalue < 0.0

    s4at = st_venant_kirchhoff(LAM, MU).analytic_elasticity
    s_star = ellipticity_loss_bisection(s4at, 0.3, 1.0, n_dirs=64)
    dirs = _directions(64)
    below = _acoustic_eigenvalues(s4at((s_star - 0.05) * np.eye(3)), dirs).min()
    above = _acoustic_eigenvalues(s4at((s_star + 0.05) * np.eye(3)), dirs).min()
    boundary_ok = 0.3 < s_star < 1.0 and below < 0.0 < above

    ok = flag_ok and boundary_ok
    _verdict(8, ok, f"negative-shear flagged (min eig {bad.min_eigenvalue:.2f}); "
                    f"compression boundary s* = {s_star:.4f} with sign change "
                    f"({below:.2f} < 0 < {above:.2f})")
