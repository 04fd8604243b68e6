"""Finite-volume evolution of the (F, p) conservation system.

The system

    dF/dt = Div(v (x) 1),    dp/dt = Div S,    v and S from a constitutive model

is advanced on periodic 1-D or 3-D grids, with whole-field constitutive
calls, by a local Lax-Friedrichs (Rusanov) scheme: first order, monotone, and
honest about its dissipation, which the monitors are designed to expose.
Monitored quantities per sample: total energy and its drift (the periodic
boundary flux term vanishes identically), the curl-type compatibility
residual of F, and the pointwise defect of the energy rate identity
d tau/dt = S : dF/dt + v . dp/dt along the discrete trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .constitutive import ConstitutiveModel, State, momentum_from_velocity
from .errors import Blowup, NonHyperbolicState, PreconditionFailure
from .hyperbolicity import _require_unit, acoustic_map, velocity_coefficient_root
from .tensors import EYE3, eig_sym, outer

BLOWUP_NORM = 1e12
CELL_BLOCK = 512  # cells per E(e_a) evaluation: 3-D E is 110 kB, a fallback S4 332 kB


# ---------------------------------------------------------------------------
# Grid and field containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Periodic cell-centered grid; grid axis a lies along space direction a."""

    cells: tuple
    h: tuple

    def __post_init__(self):
        cells = tuple(int(c) for c in self.cells)
        h = tuple(float(x) for x in self.h)
        if len(cells) not in (1, 3) or len(h) != len(cells):
            raise ValueError("grid must be 1-D or 3-D with matching cell sizes")
        if any(c < 4 for c in cells):
            raise ValueError("need at least 4 cells per active axis")
        if any(x <= 0 for x in h):
            raise ValueError("cell size must be positive")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "h", h)

    @classmethod
    def line(cls, n: int, length: float = 1.0) -> "Grid":
        return cls(cells=(n,), h=(length / n,))

    @classmethod
    def box(cls, n: int, length: float = 1.0) -> "Grid":
        return cls(cells=(n, n, n), h=(length / n,) * 3)

    @property
    def dims(self) -> int:
        return len(self.cells)

    @property
    def lengths(self) -> tuple:
        return tuple(c * x for c, x in zip(self.cells, self.h))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def positions(self) -> np.ndarray:
        """Cell-center coordinates embedded in R^3, shape cells + (3,)."""
        pos = np.zeros(self.cells + (3,))
        pos[..., :self.dims] = np.stack(np.meshgrid(
            *((np.arange(c) + 0.5) * h for c, h in zip(self.cells, self.h)), indexing="ij"), -1)
        return pos


@dataclass
class Field:
    """Cell-centered state values F (cells + (3,3)) and p (cells + (3,))."""

    grid: Grid
    F: np.ndarray
    p: np.ndarray
    t: float = 0.0


# ---------------------------------------------------------------------------
# Fluxes
# ---------------------------------------------------------------------------

def flux(model: ConstitutiveModel, U: State):
    """Conservative fluxes of a state or a stack of states, all three axes.

    Returns (flux_F, flux_p) with flux_F[a] = -outer(v, e_a) (the axis-a slice
    of -v (x) 1) and flux_p[a] = -S e_a, each stacked like U.
    """
    v = model.velocity(U)
    S = model.stress(U)
    flux_F = np.zeros((3,) + S.shape)
    for a in range(3):
        flux_F[a, ..., :, a] = -v
    return flux_F, -np.moveaxis(S, -1, 0)


# ---------------------------------------------------------------------------
# Wave-speed estimation
# ---------------------------------------------------------------------------

def _declared_V(model: ConstitutiveModel) -> np.ndarray:
    """The model's velocity coefficient V = dv/dp; PreconditionFailure if it declares none."""
    if model.V is None:
        raise PreconditionFailure(f"velocity coefficient: model {model.name} declares no V; "
                                  "the solver needs a state-independent dv/dp = V")
    return model.V


def _cell_speeds(model: ConstitutiveModel, fld: Field, vroot: np.ndarray) -> np.ndarray:
    """Max characteristic speed per cell and active axis, shape cells + (dims,).

    Speeds come from the extreme eigenvalues of V^(1/2) E(e_a) V^(1/2): in closed form
    from the model's acoustic_extremes (classical linear and neo-Hookean models), else
    from the :func:`eig_sym` spectrum with E(e_a) from :func:`acoustic_map` for
    CELL_BLOCK cells at a time.  A negative lowest eigenvalue beyond roundoff means the
    state left the hyperbolic region and stepping is refused.
    """
    g = fld.grid
    F = fld.F.reshape(-1, 3, 3)
    if model.acoustic_extremes is not None:
        lo, hi = np.moveaxis(model.acoustic_extremes(F, EYE3[:g.dims]), -1, 0)
    else:
        E_of = acoustic_map(model, EYE3[:g.dims])
        eigs = np.empty((len(F), g.dims, 3))  # descending, per cell and axis
        for start in range(0, len(F), CELL_BLOCK):
            block = slice(start, start + CELL_BLOCK)
            eigs[block] = eig_sym(vroot @ E_of(F[block]) @ vroot, vectors=False)
        lo, hi = eigs[..., -1], eigs[..., 0]
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)).max(axis=0))
    bad = np.flatnonzero(lo.min(axis=0) < -1e-10 * scale)
    if bad.size:
        raise NonHyperbolicState(
            f"negative acoustic eigenvalue {lo[:, bad[0]].min():.3e} along axis {bad[0]}")
    return np.sqrt(np.clip(hi, 0.0, None)).reshape(g.cells + (g.dims,))


def _time_step(grid: Grid, speeds: np.ndarray, cfl: float) -> float:
    denom = sum(float(speeds[..., ax].max()) / grid.h[ax] for ax in range(grid.dims))
    if denom <= 0.0:
        raise NonHyperbolicState("maximum wave speed is zero; nothing can propagate")
    return cfl / denom


# ---------------------------------------------------------------------------
# The Rusanov step
# ---------------------------------------------------------------------------

def _shift(arr: np.ndarray, axis: int, k: int) -> np.ndarray:
    """Periodic neighbour out[i] = arr[i + k] along a grid axis, k = +-1.

    Two slice copies give the bits of a roll by -k without its index arithmetic.
    """
    lead = (slice(None),) * axis
    out = np.empty_like(arr)
    out[lead + (slice(None, -k),)] = arr[lead + (slice(k, None),)]
    out[lead + (slice(-k, None),)] = arr[lead + (slice(None, k),)]
    return out


def _apply_step(model: ConstitutiveModel, fld: Field, dt: float,
                speeds: np.ndarray) -> Field:
    g = fld.grid
    flux_F, flux_p = flux(model, State(fld.F, fld.p))
    F_new, p_new = fld.F.copy(), fld.p.copy()
    for ax in range(g.dims):
        c = speeds[..., ax]
        alpha = np.maximum(c, _shift(c, ax, 1))
        for U, U_new, f in ((fld.F, F_new, flux_F[ax]), (fld.p, p_new, flux_p[ax])):
            a = alpha.reshape(alpha.shape + (1,) * (U.ndim - g.dims))
            hat = 0.5 * (f + _shift(f, ax, 1)) - 0.5 * a * (_shift(U, ax, 1) - U)
            U_new -= (dt / g.h[ax]) * (hat - _shift(hat, ax, -1))
    return Field(grid=g, F=F_new, p=p_new, t=fld.t + dt)


def step_lax_friedrichs(model: ConstitutiveModel, fld: Field, cfl: float) -> Field:
    """One explicit step with dt from the CFL condition on sampled speeds."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must be in (0, 1], got {cfl}")
    speeds = _cell_speeds(model, fld, velocity_coefficient_root(_declared_V(model)))
    dt = _time_step(fld.grid, speeds, cfl)
    return _apply_step(model, fld, dt, speeds)


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------

def total_energy(model: ConstitutiveModel, fld: Field) -> float:
    """Cell sum of the energy density times cell volume."""
    return fld.grid.cell_volume * float(model.energy(State(fld.F, fld.p)).sum())


def total_momentum(fld: Field) -> np.ndarray:
    return fld.grid.cell_volume * fld.p.reshape(-1, 3).sum(axis=0)


def total_deformation(fld: Field) -> np.ndarray:
    return fld.grid.cell_volume * fld.F.reshape(-1, 3, 3).sum(axis=0)


def _axis_derivative(arr: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Periodic second-order central difference along a grid axis."""
    return (_shift(arr, axis, 1) - _shift(arr, axis, -1)) / (2.0 * grid.h[axis])


def involution_residual(fld: Field) -> float:
    """Curl-type compatibility defect of the F field.

    For each basis pair (e_a, e_b) the residual vector is
    d_b (F e_a) - d_a (F e_b); derivatives along directions the grid does not
    resolve are zero.  Returns the max-norm over cells and pairs.
    """
    g = fld.grid
    dF = [_axis_derivative(fld.F, g, d) if d < g.dims else np.zeros_like(fld.F) for d in range(3)]
    return max(float(np.abs(dF[b][..., :, a] - dF[a][..., :, b]).max())
               for a in range(3) for b in range(a + 1, 3))


def dissipation_residual(model: ConstitutiveModel, before: Field, after: Field,
                         dt: float) -> float:
    """Worst defect of d tau/dt - S : dF/dt - v . dp/dt across one step.

    Stress and velocity are evaluated at the midpoint state, so the residual
    vanishes to second order in dt for smooth trajectories; what remains is
    the scheme's own dissipation plus chain-rule truncation.
    """
    mid = State(0.5 * (before.F + after.F), 0.5 * (before.p + after.p))
    tau_rate = (model.energy(State(after.F, after.p))
                - model.energy(State(before.F, before.p))) / dt
    work = ((model.stress(mid) * (after.F - before.F)).sum((-2, -1))
            + (model.velocity(mid) * (after.p - before.p)).sum(-1)) / dt
    return float(np.abs(tau_rate - work).max())


@dataclass
class MonitorTrace:
    """Per-sample records collected during a run."""

    steps: list = dataclass_field(default_factory=list)
    times: list = dataclass_field(default_factory=list)
    energy: list = dataclass_field(default_factory=list)
    energy_drift: list = dataclass_field(default_factory=list)
    involution: list = dataclass_field(default_factory=list)
    dissipation: list = dataclass_field(default_factory=list)

    def record(self, step, t, energy, energy0, invol, dissip):
        self.steps.append(int(step))
        self.times.append(float(t))
        self.energy.append(float(energy))
        self.energy_drift.append(float(energy - energy0))
        self.involution.append(float(invol))
        self.dissipation.append(float(dissip))

    def rows(self):
        return zip(self.steps, self.times, self.energy, self.energy_drift,
                   self.involution, self.dissipation)

def run(model: ConstitutiveModel, fld: Field, t_end: float, cfl: float,
        monitor_every: int = 1):
    """Advance to t_end, sampling monitors every ``monitor_every`` steps and at the end.

    Every step recomputes the wave speeds of every cell and takes exactly
    dt = cfl / sum_a (max c_a / h_a), with no safety factor.  Raises Blowup
    when any state norm exceeds 1e12 or a value goes non-finite.  A model that declares
    no V is refused with PreconditionFailure before any of its maps is evaluated.
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must be in (0, 1], got {cfl}")
    if monitor_every < 1:
        raise ValueError("monitor_every must be >= 1")

    V = _declared_V(model)  # refuses a model without V before any map is evaluated
    trace = MonitorTrace()
    energy0 = total_energy(model, fld)
    trace.record(0, fld.t, energy0, energy0, involution_residual(fld), 0.0)

    vroot = velocity_coefficient_root(V)
    step = 0
    t_stop = t_end * (1.0 - 1e-12)
    while fld.t < t_stop:
        speeds = _cell_speeds(model, fld, vroot)
        dt = min(_time_step(fld.grid, speeds, cfl), t_end - fld.t)
        monitored = step % monitor_every == 0 or fld.t + dt >= t_stop
        before = fld  # _apply_step returns a new field and leaves this one alone

        fld = _apply_step(model, fld, dt, speeds)
        step += 1

        # one comparison per array: nan fails <=, and Python's max(1.0, nan) is 1.0
        if not (np.abs(fld.F).max() <= BLOWUP_NORM and np.abs(fld.p).max() <= BLOWUP_NORM):
            raise Blowup(f"field norm exploded at t = {fld.t:.6g} (step {step})")

        if monitored:
            trace.record(step, fld.t, total_energy(model, fld), energy0,
                         involution_residual(fld),
                         dissipation_residual(model, before, fld, dt))
    return fld, trace


# ---------------------------------------------------------------------------
# Initial fields
# ---------------------------------------------------------------------------

def rest_field(grid: Grid) -> Field:
    """Undeformed, momentum-free field."""
    return uniform_field(grid, EYE3, np.zeros(3))

def uniform_field(grid: Grid, F0, p0) -> Field:
    F = np.broadcast_to(np.asarray(F0, dtype=float), grid.cells + (3, 3)).copy()
    p = np.broadcast_to(np.asarray(p0, dtype=float), grid.cells + (3,)).copy()
    return Field(grid=grid, F=F, p=p)


def affine_initial_field(model: ConstitutiveModel, grid: Grid, A, B, a, b, c,
                         x0) -> Field:
    """Cell-centered sampling of affine initial data.

    F(x) = A + (a . (x - x0)) outer(b, a),  v(x) = B (x - x0) + c; the
    momentum field is obtained by inverting the model's velocity map in all
    cells at once.  The data is not periodic, so the wrap seam carries a jump;
    cells away from the seam see smooth affine fields.
    """
    A, B, a, b, c, x0 = (np.asarray(x, dtype=float) for x in (A, B, a, b, c, x0))
    xr = grid.positions() - x0
    F = A + (xr @ a)[..., None, None] * outer(b, a)
    p = momentum_from_velocity(model, F, xr @ B.T + c)
    return Field(grid=grid, F=F, p=p)


def plane_wave_speed(model: ConstitutiveModel, F0, w, d) -> float:
    """Characteristic speed along unit w of the acoustic mode closest to polarization d."""
    F0 = np.asarray(F0, dtype=float)
    w = _require_unit(np.reshape(w, (1, 3)))
    vroot = velocity_coefficient_root(_declared_V(model))
    evals, evecs = eig_sym(vroot @ acoustic_map(model, w)(F0)[0] @ vroot)
    if float(evals.min()) < 0.0:
        raise NonHyperbolicState("no real wave speed: acoustic tensor indefinite")
    pick = int(np.argmax(np.abs(evecs.T @ np.asarray(d, dtype=float))))
    return float(np.sqrt(evals[pick]))


def sine_wave_field(model: ConstitutiveModel, grid: Grid, polarization: str,
                    amplitude: float, axis: int = 0) -> Field:
    """Right-travelling sinusoidal plane wave along a grid axis.

    F = 1 + amp sin(k x_axis) outer(d, e_axis) and v = -c amp sin(k x_axis) d
    form an exact d'Alembert right-mover of the linearized system, with c the
    acoustic speed of the chosen polarization (d = e_axis for longitudinal,
    the next basis vector for transverse).
    """
    if axis >= grid.dims:
        raise ValueError(f"axis {axis} not active on a {grid.dims}-D grid")
    e_ax = EYE3[axis]
    d = {"longitudinal": e_ax, "transverse": EYE3[(axis + 1) % 3]}.get(polarization)
    if d is None:
        raise ValueError(f"unknown polarization {polarization!r}")

    c = plane_wave_speed(model, EYE3, e_ax, d)
    L = grid.lengths[axis]
    k = 2.0 * np.pi / L
    pos = grid.positions()
    s = amplitude * np.sin(k * pos[..., axis])[..., None]
    F = EYE3 + s[..., None] * outer(d, e_ax)
    p = momentum_from_velocity(model, F, -c * s * d)
    return Field(grid=grid, F=F, p=p)


# ---------------------------------------------------------------------------
# Wave-speed measurement
# ---------------------------------------------------------------------------

def measure_wave_speed(profile0, profile1, elapsed: float, length: float,
                       expected_speed: float) -> float:
    """Propagation speed from the circular cross-correlation lag.

    The lag between the two profiles is found to sub-cell accuracy (parabolic
    refinement of the correlation peak); ``expected_speed`` only selects the
    number of full periodic wraps, the measurement itself comes from the lag.
    """
    a, b = (np.asarray(x, dtype=float) for x in (profile0, profile1))
    n = a.size
    corr = np.fft.irfft(np.fft.rfft(b - b.mean()) * np.conj(np.fft.rfft(a - a.mean())), n)
    k0 = int(np.argmax(corr))
    cm, cc, cp = corr[(k0 - 1) % n], corr[k0], corr[(k0 + 1) % n]
    denom = cm - 2.0 * cc + cp
    delta = 0.0 if denom == 0.0 else 0.5 * (cm - cp) / denom
    shift_cells = k0 + delta
    lag = ((shift_cells + n / 2.0) % n) - n / 2.0
    shift_x = lag * (length / n)
    wraps = round((expected_speed * elapsed - shift_x) / length)
    return (wraps * length + shift_x) / elapsed
