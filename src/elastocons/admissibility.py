"""Numerical admissibility checks for constitutive models.

A model is probed at randomly drawn states for the properties that make the
conservation system well-posed and thermodynamically consistent:

* normality       -- invertibility of N = d(velocity)/dp at every probe
* ellipticity     -- invertibility of the direction-contracted derivative of
                     the velocity-eliminated stress map S~(F, v)
* thermo          -- velocity = d(energy)/dp and stress = d(energy)/dF
* maxwell         -- d(stress)/dp = d(velocity)/dF (mixed-derivative symmetry)
* galilean        -- a constant momentum shift changes velocity by a
                     state-independent amount
* parity          -- energy is even in momentum

All derivatives are central finite differences; every check reports the worst
residual over the probe set next to its tolerance.  When the invariance checks
pass, the velocity map must be linear (v = V p with V symmetric) and the
energy must split additively into kinetic and stored parts; both facts are
recovered and certified numerically by :func:`extract_representation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .constitutive import (ConstitutiveModel, State, fd_velocity_jacobian,
                           momentum_from_velocity)
from .errors import FitDegenerate, NewtonDivergence, NotUnit, PreconditionFailure
from .tensors import EYE3, check_finite
from .tolerances import DEFAULT, fd_step

#: Failures mathematically implied by each targeted violation.  A Maxwell
#: violation forces a thermo one (the mixed-derivative identity follows from
#: the two gradient identities for twice-differentiable energies), and the
#: cubic velocity used to break normality is not affine in p, so its shift
#: defect is state-dependent as well.
NEGATIVE_CONTROL_EXPECTATIONS = {
    "normality": {"fail": {"normality", "galilean"},
                  "pass": {"ellipticity", "thermo", "maxwell", "parity"}},
    "ellipticity": {"fail": {"ellipticity"},
                    "pass": {"normality", "thermo", "maxwell", "galilean", "parity"}},
    "thermo": {"fail": {"thermo"},
               "pass": {"normality", "ellipticity", "maxwell", "galilean", "parity"}},
    "maxwell": {"fail": {"maxwell", "thermo"},
                "pass": {"normality", "ellipticity", "galilean", "parity"}},
    "galilean": {"fail": {"galilean"},
                 "pass": {"normality", "ellipticity", "thermo", "maxwell", "parity"}},
    "parity": {"fail": {"parity"},
               "pass": {"normality", "ellipticity", "thermo", "maxwell", "galilean"}},
}


# ---------------------------------------------------------------------------
# Probe generation
# ---------------------------------------------------------------------------

def _uniform_ball(rng: np.random.Generator, radius: float) -> np.ndarray:
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    return radius * rng.random() ** (1.0 / 3.0) * u


def _draw_F(rng: np.random.Generator, min_det: float = 0.3) -> np.ndarray:
    # stays inside the neo-Hookean domain while exercising nonlinearity
    while True:
        F = EYE3 + 0.5 * rng.uniform(-1.0, 1.0, size=(3, 3))
        if np.linalg.det(F) > min_det:
            return F


def draw_states(n: int, rng: np.random.Generator, momentum_radius: float = 3.0,
                include_anchor: bool = True) -> list[State]:
    """Random probe states; the first is always (identity, zero momentum).

    The zero-momentum anchor makes degenerate momentum jacobians at the
    origin visible to the normality check.
    """
    probes = [State(EYE3.copy(), np.zeros(3))] if include_anchor else []
    while len(probes) < n:
        probes.append(State(_draw_F(rng), _uniform_ball(rng, momentum_radius)))
    return probes


def draw_ellipticity_probes(n: int, rng: np.random.Generator,
                            velocity_radius: float = 0.5):
    """Random (F, v, a) triples with unit direction vectors a."""
    out = []
    for _ in range(n):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        out.append((_draw_F(rng), _uniform_ball(rng, velocity_radius), a))
    return out


def default_shifts() -> list[np.ndarray]:
    """Deterministic momentum shifts for the invariance-defect check."""
    shifts = [np.zeros(3)]
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        shifts += [e.copy(), -e]
    shifts.append(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    shifts.append(np.array([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5]))
    return shifts


# ---------------------------------------------------------------------------
# Finite-difference helpers
# ---------------------------------------------------------------------------

def fd_energy_gradients(model: ConstitutiveModel, s: State):
    """(d tau / dF, d tau / dp) by central differences."""
    hF = fd_step(s.F)
    hp = fd_step(s.p)
    gF = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            dF = np.zeros((3, 3))
            dF[i, j] = hF
            gF[i, j] = (model.energy(State(s.F + dF, s.p))
                        - model.energy(State(s.F - dF, s.p))) / (2.0 * hF)
    gp = np.empty(3)
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = hp
        gp[k] = (model.energy(State(s.F, s.p + dp))
                 - model.energy(State(s.F, s.p - dp))) / (2.0 * hp)
    return check_finite(gF, "dtau/dF"), check_finite(gp, "dtau/dp")


def stress_tilde(model: ConstitutiveModel, F, v, p_seed=None) -> np.ndarray:
    """Velocity-eliminated stress S~(F, v) = stress(F, p(F, v))."""
    p = momentum_from_velocity(model, F, v, p0=p_seed)
    return model.stress(State(F, p))


def ellipticity_tensor(model: ConstitutiveModel, F, v, a) -> np.ndarray:
    """E[i, h] = sum_{j,k} dS~_ij/dF_hk a_j a_k at fixed v.

    Each F-perturbation re-inverts the velocity map, so the derivative is
    taken along constant velocity, not constant momentum.
    """
    F = np.asarray(F, dtype=float)
    a = np.asarray(a, dtype=float)
    h = fd_step(F)
    p_center = momentum_from_velocity(model, F, v)
    dS = np.empty((3, 3, 3, 3))
    for b in range(3):
        for k in range(3):
            dF = np.zeros((3, 3))
            dF[b, k] = h
            Sp = stress_tilde(model, F + dF, v, p_seed=p_center)
            Sm = stress_tilde(model, F - dF, v, p_seed=p_center)
            dS[:, :, b, k] = (Sp - Sm) / (2.0 * h)
    return np.einsum("ijhk,j,k->ih", dS, a, a)


# ---------------------------------------------------------------------------
# The six checks
# ---------------------------------------------------------------------------

def check_normality(model: ConstitutiveModel, probes: Sequence[State],
                    tol: float | None = None):
    """Minimum |det N| over probes; passes when it stays above tolerance."""
    if not probes:
        raise ValueError("probe set must be non-empty")
    tol = DEFAULT.normality_tol if tol is None else tol
    min_det = min(abs(float(np.linalg.det(fd_velocity_jacobian(model, s.F, s.p))))
                  for s in probes)
    return min_det > tol, min_det


def check_ellipticity(model: ConstitutiveModel, probes, tol: float | None = None):
    """Minimum |det E(F, v; a)| over (F, v, a) probes."""
    tol = DEFAULT.ellipticity_tol if tol is None else tol
    min_det = min(abs(float(np.linalg.det(ellipticity_tensor(model, F, v, a))))
                  for F, v, a in probes)
    return min_det > tol, min_det


def check_thermo(model: ConstitutiveModel, probes: Sequence[State],
                 tol: float | None = None):
    """Worst residuals of velocity = d tau/dp and stress = d tau/dF."""
    tol = DEFAULT.thermo_tol if tol is None else tol
    res_v = 0.0
    res_S = 0.0
    for s in probes:
        gF, gp = fd_energy_gradients(model, s)
        res_v = max(res_v, float(np.abs(gp - model.velocity(s)).max()))
        res_S = max(res_S, float(np.abs(gF - model.stress(s)).max()))
    return (res_v <= tol and res_S <= tol), (res_v, res_S)


def check_maxwell(model: ConstitutiveModel, probes: Sequence[State],
                  tol: float | None = None):
    """Worst residual of dS_ij/dp_h = dv_h/dF_ij over probes."""
    tol = DEFAULT.maxwell_tol if tol is None else tol
    worst = 0.0
    for s in probes:
        hp = fd_step(s.p)
        hF = fd_step(s.F)
        dSdp = np.empty((3, 3, 3))
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = hp
            dSdp[:, :, k] = (model.stress(State(s.F, s.p + dp))
                             - model.stress(State(s.F, s.p - dp))) / (2.0 * hp)
        dvdF = np.empty((3, 3, 3))
        for i in range(3):
            for j in range(3):
                dF = np.zeros((3, 3))
                dF[i, j] = hF
                dvdF[i, j, :] = (model.velocity(State(s.F + dF, s.p))
                                 - model.velocity(State(s.F - dF, s.p))) / (2.0 * hF)
        worst = max(worst, float(np.abs(dSdp - dvdF).max()))
    return worst <= tol, worst


def check_galilean(model: ConstitutiveModel, probes: Sequence[State],
                   shifts: Sequence[np.ndarray] | None = None,
                   tol: float | None = None):
    """Spread of the velocity shift defect across probes.

    For each shift d the difference velocity(F, p + d) - velocity(F, p) must
    not depend on the state; the deviation is the largest per-component
    spread (max - min across probes), maximized over shifts.
    """
    tol = DEFAULT.galilean_tol if tol is None else tol
    shifts = default_shifts() if shifts is None else shifts
    deviation = 0.0
    for d in shifts:
        diffs = np.array([model.velocity(State(s.F, s.p + d)) - model.velocity(s)
                          for s in probes])
        deviation = max(deviation, float((diffs.max(axis=0) - diffs.min(axis=0)).max()))
    return deviation <= tol, deviation


def check_parity(model: ConstitutiveModel, probes: Sequence[State],
                 tol: float | None = None):
    """Worst asymmetry |tau(F, p) - tau(F, -p)| over probes."""
    tol = DEFAULT.parity_tol if tol is None else tol
    asym = max(abs(model.energy(s) - model.energy(State(s.F, -s.p))) for s in probes)
    return asym <= tol, asym


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    """Structured result of all six checks on one model.

    For normality and ellipticity the recorded value is the minimum
    |determinant| over probes and the check passes when the value stays
    *above* its tolerance; for the remaining checks the value is a residual
    that must stay *below* tolerance.
    """

    model_name: str
    normality_ok: bool
    normality_min_det: float
    ellipticity_ok: bool
    ellipticity_min_det: float
    thermo_ok: bool
    thermo_residual_v: float
    thermo_residual_S: float
    maxwell_ok: bool
    maxwell_residual: float
    galilean_ok: bool
    galilean_deviation: float
    parity_ok: bool
    parity_asymmetry: float
    probes: int = 0
    seed: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (self.normality_ok and self.ellipticity_ok and self.thermo_ok
                and self.maxwell_ok and self.galilean_ok and self.parity_ok)

    def results(self) -> dict[str, bool]:
        return {
            "normality": self.normality_ok,
            "ellipticity": self.ellipticity_ok,
            "thermo": self.thermo_ok,
            "maxwell": self.maxwell_ok,
            "galilean": self.galilean_ok,
            "parity": self.parity_ok,
        }

    def rows(self):
        """(check, residual, tolerance, pass) rows for CSV output."""
        t = DEFAULT
        return [
            ("normality", self.normality_min_det, t.normality_tol, self.normality_ok),
            ("ellipticity", self.ellipticity_min_det, t.ellipticity_tol, self.ellipticity_ok),
            ("thermo_velocity", self.thermo_residual_v, t.thermo_tol, self.thermo_ok),
            ("thermo_stress", self.thermo_residual_S, t.thermo_tol, self.thermo_ok),
            ("maxwell", self.maxwell_residual, t.maxwell_tol, self.maxwell_ok),
            ("galilean", self.galilean_deviation, t.galilean_tol, self.galilean_ok),
            ("parity", self.parity_asymmetry, t.parity_tol, self.parity_ok),
        ]

    def as_text(self) -> str:
        lines = [f"model={self.model_name}", f"probes={self.probes}", f"seed={self.seed}"]
        for name, value, tol, ok in self.rows():
            lines.append(f"{name}_value={value:.17g}")
            lines.append(f"{name}_tolerance={tol:.17g}")
            lines.append(f"{name}_pass={str(ok).lower()}")
        lines.append(f"all_pass={str(self.passed).lower()}")
        for key in sorted(self.notes):
            lines.append(f"note_{key}={self.notes[key]}")
        return "\n".join(lines) + "\n"


def full_report(model: ConstitutiveModel, n_probes: int = 100, seed: int = 0,
                momentum_radius: float = 3.0) -> AdmissibilityReport:
    """Run all six checks on freshly drawn seeded probes.

    A Newton divergence inside the ellipticity check (which needs the
    velocity map inverted at perturbed states) is recorded as a failure of
    that check rather than raised, so a report is always produced.
    """
    rng = np.random.default_rng(seed)
    probes = draw_states(n_probes, rng, momentum_radius=momentum_radius)
    ell_probes = draw_ellipticity_probes(n_probes, rng)
    notes = {}

    n_ok, n_val = check_normality(model, probes)
    try:
        e_ok, e_val = check_ellipticity(model, ell_probes)
    except NewtonDivergence as exc:
        e_ok, e_val = False, float("nan")
        notes["ellipticity"] = f"velocity inversion diverged: {exc}"
    t_ok, (t_v, t_S) = check_thermo(model, probes)
    m_ok, m_val = check_maxwell(model, probes)
    g_ok, g_val = check_galilean(model, probes)
    p_ok, p_val = check_parity(model, probes)

    return AdmissibilityReport(
        model_name=model.name,
        normality_ok=n_ok, normality_min_det=n_val,
        ellipticity_ok=e_ok, ellipticity_min_det=e_val,
        thermo_ok=t_ok, thermo_residual_v=t_v, thermo_residual_S=t_S,
        maxwell_ok=m_ok, maxwell_residual=m_val,
        galilean_ok=g_ok, galilean_deviation=g_val,
        parity_ok=p_ok, parity_asymmetry=p_val,
        probes=n_probes, seed=seed, notes=notes,
    )


# ---------------------------------------------------------------------------
# Representation extraction
# ---------------------------------------------------------------------------

@dataclass
class RepresentationResult:
    """Certified linear velocity representation and energy split.

    V_fit is the least-squares coefficient of the velocity map; M_fit its
    inverse (the recovered mass-density tensor); sigma_fit evaluates the
    stored-energy part tau(F, 0).
    """

    V_fit: np.ndarray
    M_fit: np.ndarray
    symmetry_residual: float
    linearity_residual: float
    split_residual: float
    split_pass: bool  # the split is certified: split_residual <= split_tol
    sigma_fit: Callable[[np.ndarray], float]


def extract_representation(model: ConstitutiveModel, probes: Sequence[State],
                           shifts: Sequence[np.ndarray] | None = None) -> RepresentationResult:
    """Fit v = V p at a reference F and certify the additive energy split.

    Preconditions: the model must pass the normality, galilean-variance and
    parity checks on the given probes; otherwise a linear representation is
    not guaranteed to exist and :class:`PreconditionFailure` is raised.
    """
    failed = []
    ok, _ = check_normality(model, probes)
    if not ok:
        failed.append("normality")
    ok, _ = check_galilean(model, probes, shifts)
    if not ok:
        failed.append("galilean")
    ok, _ = check_parity(model, probes)
    if not ok:
        failed.append("parity")
    if failed:
        raise PreconditionFailure(
            "representation preconditions violated: " + ", ".join(failed))

    F0 = probes[0].F
    fit_probes = probes[0::2]
    held_out = probes[1::2] if len(probes) > 1 else probes

    P = np.array([s.p for s in fit_probes])
    if np.linalg.matrix_rank(P, tol=1e-8 * max(1.0, float(np.abs(P).max()))) < 3:
        raise FitDegenerate("momentum probes do not span three dimensions")
    Vel = np.array([model.velocity(State(F0, s.p)) for s in fit_probes])
    sol, *_ = np.linalg.lstsq(P, Vel, rcond=None)
    V_fit = sol.T

    linearity = max(float(np.abs(model.velocity(s) - V_fit @ s.p).max())
                    for s in held_out)
    symmetry = float(np.abs(V_fit - V_fit.T).max())
    M_fit = np.linalg.inv(V_fit)

    def sigma_fit(F):
        return model.energy(State(F, np.zeros(3)))

    split = max(abs(model.energy(s) - sigma_fit(s.F) - 0.5 * float(s.p @ (V_fit @ s.p)))
                for s in probes)

    return RepresentationResult(
        V_fit=V_fit, M_fit=M_fit,
        symmetry_residual=symmetry,
        linearity_residual=linearity,
        split_residual=split,
        split_pass=bool(split <= DEFAULT.split_tol),
        sigma_fit=sigma_fit,
    )


# ---------------------------------------------------------------------------
# Initial-rate formulas and the dissipation-violation witness
# ---------------------------------------------------------------------------

def initial_rate_check(model: ConstitutiveModel, A, B, a, b, c):
    """Closed-form initial rates for affine initial data.

    For initial fields F(x) = A + (a . (x - x0)) outer(b, a) and
    v(x) = B (x - x0) + c the evolution equations give, at x0,

        dF/dt   = B
        dp_i/dt = sum_{k,j} dS~_ij/dv_k B_kj + (E(A, c; a) b)_i

    with all derivatives of the velocity-eliminated stress map evaluated by
    central finite differences at (A, c).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if abs(float(np.linalg.norm(a)) - 1.0) > 1e-12:
        raise NotUnit("direction a must be a unit vector")

    p_center = momentum_from_velocity(model, A, c)
    hv = fd_step(c)
    dSdv = np.empty((3, 3, 3))
    for k in range(3):
        dv = np.zeros(3)
        dv[k] = hv
        Sp = stress_tilde(model, A, c + dv, p_seed=p_center)
        Sm = stress_tilde(model, A, c - dv, p_seed=p_center)
        dSdv[:, :, k] = (Sp - Sm) / (2.0 * hv)

    E = ellipticity_tensor(model, A, c, a)
    F_dot = B.copy()
    p_dot = np.einsum("ijk,kj->i", dSdv, B) + E @ b
    return F_dot, p_dot


def find_dissipation_violation(model: ConstitutiveModel, probe: State):
    """Exhibit rates (dF/dt, dp/dt) violating the dissipation inequality.

    Aligning the rates with the gradient of the admissibility residual makes
    d tau/dt - S : dF/dt - v . dp/dt equal to the squared residual norm, so
    any thermodynamically inconsistent model yields a strictly positive
    violation.  Returns (F_rate, p_rate, violation_amount).
    """
    gF, gp = fd_energy_gradients(model, probe)
    rF = gF - model.stress(probe)
    rp = gp - model.velocity(probe)
    amount = float(np.sum(rF * rF) + np.sum(rp * rp))
    return rF, rp, amount
