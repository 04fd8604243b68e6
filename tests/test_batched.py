"""Whole-field (batched) constitutive evaluation and the loop-free solver."""

import dataclasses

import numpy as np
import pytest
from field_fixtures import gradient_field_3d

from elastocons import (ConstitutiveModel, State, acoustic_tensor, classical_model,
                        corrupted_model, eig_sym, elasticity_map, momentum_from_velocity,
                        neo_hookean, pointwise_model, run, step_lax_friedrichs,
                        stored_energy_registry, tensor_mass_model)
from elastocons.constitutive import CORRUPTION_KINDS
from elastocons.errors import DomainError, NewtonDivergence, PreconditionFailure

LAM, MU = 2.0, 1.0
V_TENSOR = np.array([[0.8, 0.1, 0.0], [0.1, 0.6, 0.05], [0.0, 0.05, 0.7]])
STACK_SHAPES = [(7,), (3, 2, 4)]


def _models():
    for se in stored_energy_registry(LAM, MU):
        yield classical_model(1.5, se)
        yield tensor_mass_model(V_TENSOR, se)
    for kind in CORRUPTION_KINDS:
        yield corrupted_model(kind, LAM, MU)


def _stack(rng, shape):
    F = np.eye(3) + 0.2 * rng.uniform(-1.0, 1.0, size=shape + (3, 3))
    p = rng.normal(size=shape + (3,))
    return F, p


def _rel_err(batched, pointwise):
    return float(np.abs(batched - pointwise).max()) / max(1.0, float(np.abs(pointwise).max()))


@pytest.mark.parametrize("shape", STACK_SHAPES)
def test_batched_matches_pointwise(shape):
    rng = np.random.default_rng(11)
    F, p = _stack(rng, shape)
    cells = list(np.ndindex(*shape))
    for m in _models():
        st = State(F, p)
        S4_of = elasticity_map(m)  # differences the stress where analytic_S4 is None
        got = {"energy": m.energy(st), "velocity": m.velocity(st),
               "stress": m.stress(st), "S4": S4_of(F)}
        for name, value in got.items():
            if name == "S4":
                ref = [S4_of(F[c]) for c in cells]
            else:
                ref = [getattr(m, name)(State(F[c], p[c])) for c in cells]
            ref = np.array(ref).reshape(value.shape)
            assert value.shape[:len(shape)] == shape, (m.name, name)
            assert _rel_err(value, ref) <= 1e-14, (m.name, name)


def test_batched_neo_hookean_rejects_any_inverted_cell():
    rng = np.random.default_rng(12)
    F, p = _stack(rng, (5,))
    F[3] = np.diag([1.0, 1.0, -1.0])
    m = classical_model(1.0, neo_hookean(LAM, MU))
    st = State(F, p)
    for call in (m.energy, m.stress):
        with pytest.raises(DomainError):
            call(st)
    with pytest.raises(DomainError):
        m.analytic_S4(F)


def _pointwise_only(model):
    """The model's maps behind callables that refuse stacked states, looped by pointwise_model.

    The wrapped model's V is declared, so that the solver steps the looped maps.
    """
    def single(fn):
        def call(s):
            assert s.F.shape == (3, 3) and s.p.shape == (3,)
            return fn(s)
        return call

    def single_S4(F):
        assert np.shape(F) == (3, 3)
        return model.analytic_S4(F)

    looped = pointwise_model("pointwise", single(model.energy), single(model.velocity),
                             single(model.stress), single_S4)
    return dataclasses.replace(looped, V=model.V)


def test_the_stack_contract_is_checked_at_construction():
    se = neo_hookean(LAM, MU)
    stress = se.analytic_stress
    # a pointwise energy sums the whole stack into one number
    with pytest.raises(PreconditionFailure, match="energy"):
        ConstitutiveModel(name="summed", energy=lambda s: 0.5 * np.sum(s.p * s.p),
                          velocity=lambda s: s.p, stress=lambda s: stress(s.F))
    with pytest.raises(PreconditionFailure, match="stress"):
        ConstitutiveModel(name="refuses", energy=lambda s: 0.5 * (s.p * s.p).sum(-1),
                          velocity=lambda s: s.p, stress=lambda s: float(s.p @ s.p) * s.F)
    with pytest.raises(PreconditionFailure, match="analytic_S4"):
        ConstitutiveModel(name="one_S4", energy=lambda s: 0.5 * (s.p * s.p).sum(-1),
                          velocity=lambda s: s.p, stress=lambda s: stress(s.F),
                          analytic_S4=lambda F: se.analytic_elasticity(np.eye(3)))
    # one acoustic tensor per state, not one per state and direction
    with pytest.raises(PreconditionFailure, match="analytic_acoustic"):
        ConstitutiveModel(name="no_direction_axis", energy=lambda s: 0.5 * (s.p * s.p).sum(-1),
                          velocity=lambda s: s.p, stress=lambda s: stress(s.F),
                          analytic_acoustic=lambda F, w: se.analytic_acoustic(F, w)[..., 0, :, :])
    assert _pointwise_only(classical_model(1.0, se)).analytic_acoustic is None


def test_run_through_adapter_matches_batched_model():
    batched = classical_model(1.0, neo_hookean(LAM, MU))
    pointwise = _pointwise_only(batched)

    fld = gradient_field_3d(4)
    fld.p[...] = 0.01 * np.sin(2 * np.pi * fld.grid.positions())
    out_b, trace_b = run(batched, fld, t_end=0.02, cfl=0.5, monitor_every=2)
    out_p, trace_p = run(pointwise, fld, t_end=0.02, cfl=0.5, monitor_every=2)
    assert trace_b.steps == trace_p.steps
    assert np.abs(out_p.F - out_b.F).max() <= 1e-13
    assert np.abs(out_p.p - out_b.p).max() <= 1e-13
    for name in ("times", "energy", "involution", "dissipation"):
        assert np.allclose(getattr(trace_p, name), getattr(trace_b, name),
                           rtol=1e-13, atol=1e-13), name


def test_3d_time_step_uses_exact_speeds_every_step():
    # the step is cfl / sum_a (max_cells c_a / h_a), recomputed at each state,
    # with c_a the largest acoustic speed along e_a (rho = 1)
    m = classical_model(1.0, neo_hookean(LAM, MU))
    fld = gradient_field_3d(4, amp=0.05)
    cfl, t_end = 0.5, 0.06
    _, trace = run(m, fld, t_end=t_end, cfl=cfl, monitor_every=1)
    assert len(trace.times) > 3

    S4_of = m.analytic_S4
    for k in range(len(trace.times) - 1):
        denom = 0.0
        for ax in range(3):
            w = np.eye(3)[ax]
            c_max = max(np.sqrt(eig_sym(acoustic_tensor(S4_of(fld.F[c]), w), vectors=False)[0])
                        for c in np.ndindex(*fld.grid.cells))
            denom += c_max / fld.grid.h[ax]
        dt = min(cfl / denom, t_end - fld.t)
        assert trace.times[k + 1] - trace.times[k] == pytest.approx(dt, rel=1e-12)
        fld = step_lax_friedrichs(m, fld, cfl)  # the same update, unclipped
    assert trace.times[-1] == t_end


def test_momentum_inversion_of_a_stack_matches_single_states():
    rng = np.random.default_rng(13)
    F, _ = _stack(rng, (2, 3))
    v = 0.3 * rng.normal(size=(2, 3, 3))
    m = tensor_mass_model(V_TENSOR, neo_hookean(LAM, MU))
    p = momentum_from_velocity(m, F, v)
    assert p.shape == v.shape
    for c in np.ndindex(2, 3):
        assert np.abs(m.velocity(State(F[c], p[c])) - v[c]).max() <= 1e-10
        assert np.abs(p[c] - momentum_from_velocity(m, F[c], v[c])).max() <= 1e-12
    with pytest.raises(NewtonDivergence, match="state 0"):
        momentum_from_velocity(m, F, v, max_iter=0)


def test_run_leaves_its_input_field_unmodified():
    # run() keeps the pre-step field for the dissipation monitor without copying it
    m = classical_model(1.0, neo_hookean(LAM, MU))
    fld = gradient_field_3d(4)
    F0, p0 = fld.F.copy(), fld.p.copy()
    out, _ = run(m, fld, t_end=0.01, cfl=0.5)
    assert out is not fld
    assert np.array_equal(fld.F, F0) and np.array_equal(fld.p, p0)
