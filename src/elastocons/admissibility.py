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

from .constitutive import (ConstitutiveModel, State, fd_derivative, fd_velocity_jacobian,
                           momentum_from_velocity)
from .errors import FitDegenerate, NewtonDivergence, NotUnit, PreconditionFailure
from .tensors import EYE3
from .tolerances import DEFAULT

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


def draw_states(n: int, rng: np.random.Generator) -> list[State]:
    """Random probe states; the first is always (identity, zero momentum).

    The zero-momentum anchor makes degenerate momentum jacobians at the
    origin visible to the normality check; the others have |p| <= 3.
    """
    probes = [State(EYE3.copy(), np.zeros(3))]
    while len(probes) < n:
        probes.append(State(_draw_F(rng), _uniform_ball(rng, 3.0)))
    return probes


def draw_ellipticity_probes(n: int, rng: np.random.Generator):
    """Random (F, v, a) triples with |v| <= 0.5 and unit direction vectors a."""
    out = []
    for _ in range(n):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        out.append((_draw_F(rng), _uniform_ball(rng, 0.5), a))
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

def _stack(probes: Sequence[State]) -> State:
    return State(np.array([s.F for s in probes]), np.array([s.p for s in probes]))


def fd_energy_gradients(model: ConstitutiveModel, s: State):
    """(d tau / dF, d tau / dp) by central differences, at one state or a stack."""
    return fd_derivative(model.energy, s, "F"), fd_derivative(model.energy, s, "p")


def stress_tilde(model: ConstitutiveModel, F, v, p_seed=None) -> np.ndarray:
    """Velocity-eliminated stress S~(F, v) = stress(F, p(F, v))."""
    p = momentum_from_velocity(model, F, v, p0=p_seed)
    return model.stress(State(F, p))


def ellipticity_tensor(model: ConstitutiveModel, F, v, a) -> np.ndarray:
    """E[..., i, h] = sum_{j,k} dS~_ij/dF_hk a_j a_k at fixed v.

    Takes one triple or stacks F[..., 3, 3], v[..., 3], a[..., 3].  Each
    F-perturbation re-inverts the velocity map, seeded with its probe's
    momentum, so the derivative is taken along constant velocity, not
    constant momentum.
    """
    F, v, a = (np.asarray(x, dtype=float) for x in (F, v, a))

    def stress_at_velocity(t):  # t.p is the Newton seed: its probe's momentum
        return stress_tilde(model, t.F, np.broadcast_to(v, t.p.shape), t.p)

    dS = fd_derivative(stress_at_velocity, State(F, momentum_from_velocity(model, F, v)))
    return np.einsum("...ijhk,...j,...k->...ih", dS, a, a)


# ---------------------------------------------------------------------------
# The six checks
# ---------------------------------------------------------------------------

def check_normality(model: ConstitutiveModel, probes: Sequence[State]):
    """Minimum |det N| over probes; passes when it stays above tolerance."""
    if not probes:
        raise ValueError("probe set must be non-empty")
    s = _stack(probes)
    min_det = float(np.abs(np.linalg.det(fd_velocity_jacobian(model, s.F, s.p))).min())
    return min_det > DEFAULT.normality_tol, min_det


def check_ellipticity(model: ConstitutiveModel, probes):
    """Minimum |det E(F, v; a)| over (F, v, a) probes."""
    F, v, a = (np.array(x) for x in zip(*probes))
    min_det = float(np.abs(np.linalg.det(ellipticity_tensor(model, F, v, a))).min())
    return min_det > DEFAULT.ellipticity_tol, min_det


def check_thermo(model: ConstitutiveModel, probes: Sequence[State]):
    """Worst residuals of velocity = d tau/dp and stress = d tau/dF."""
    s = _stack(probes)
    gF, gp = fd_energy_gradients(model, s)
    res_v = float(np.abs(gp - model.velocity(s)).max())
    res_S = float(np.abs(gF - model.stress(s)).max())
    tol = DEFAULT.thermo_tol
    return (res_v <= tol and res_S <= tol), (res_v, res_S)


def check_maxwell(model: ConstitutiveModel, probes: Sequence[State]):
    """Worst residual of dS_ij/dp_h = dv_h/dF_ij over probes."""
    s = _stack(probes)
    dSdp = fd_derivative(model.stress, s, "p")
    dvdF = np.moveaxis(fd_derivative(model.velocity, s, "F"), -3, -1)
    worst = float(np.abs(dSdp - dvdF).max())
    return worst <= DEFAULT.maxwell_tol, worst


def check_galilean(model: ConstitutiveModel, probes: Sequence[State],
                   shifts: Sequence[np.ndarray] | None = None):
    """Spread of the velocity shift defect across probes.

    For each shift d the difference velocity(F, p + d) - velocity(F, p) must
    not depend on the state; the deviation is the largest per-component
    spread (max - min across probes), maximized over shifts.
    """
    d = np.reshape(default_shifts() if shifts is None else shifts, (-1, 1, 3))
    s = _stack(probes)
    shifted = State(np.broadcast_to(s.F, d.shape[:1] + s.F.shape), s.p + d)
    diffs = model.velocity(shifted) - model.velocity(s)  # [shift, probe, component]
    deviation = float((diffs.max(axis=1) - diffs.min(axis=1)).max(initial=0.0))
    return deviation <= DEFAULT.galilean_tol, deviation


def check_parity(model: ConstitutiveModel, probes: Sequence[State]):
    """Worst asymmetry |tau(F, p) - tau(F, -p)| over probes."""
    s = _stack(probes)
    asym = float(np.abs(model.energy(s) - model.energy(State(s.F, -s.p))).max())
    return asym <= DEFAULT.parity_tol, asym


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


def full_report(model: ConstitutiveModel, n_probes: int = 100,
                seed: int = 0) -> AdmissibilityReport:
    """Run all six checks on freshly drawn seeded probes.

    A Newton divergence inside the ellipticity check (which needs the
    velocity map inverted at perturbed states) is recorded as a failure of
    that check rather than raised, so a report is always produced.
    """
    rng = np.random.default_rng(seed)
    probes = draw_states(n_probes, rng)
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


def extract_representation(model: ConstitutiveModel,
                           probes: Sequence[State]) -> RepresentationResult:
    """Fit v = V p at a reference F and certify the additive energy split.

    Preconditions: the model must pass the normality, galilean-variance and
    parity checks on the given probes; otherwise a linear representation is
    not guaranteed to exist and :class:`PreconditionFailure` is raised.
    """
    failed = []
    ok, _ = check_normality(model, probes)
    if not ok:
        failed.append("normality")
    ok, _ = check_galilean(model, probes)
    if not ok:
        failed.append("galilean")
    ok, _ = check_parity(model, probes)
    if not ok:
        failed.append("parity")
    if failed:
        raise PreconditionFailure(
            "representation preconditions violated: " + ", ".join(failed))

    s = _stack(probes)
    fit = s.p[0::2]
    held_out = State(s.F[1::2], s.p[1::2]) if len(probes) > 1 else s

    if np.linalg.matrix_rank(fit, tol=1e-8 * max(1.0, float(np.abs(fit).max()))) < 3:
        raise FitDegenerate("momentum probes do not span three dimensions")
    Vel = model.velocity(State(np.broadcast_to(s.F[0], fit.shape + (3,)), fit))
    sol, *_ = np.linalg.lstsq(fit, Vel, rcond=None)
    V_fit = sol.T

    linearity = float(np.abs(model.velocity(held_out) - held_out.p @ sol).max())
    symmetry = float(np.abs(V_fit - V_fit.T).max())
    M_fit = np.linalg.inv(V_fit)

    def sigma_fit(F):
        return model.energy(State(F, np.zeros(np.shape(F)[:-1])))

    split = float(np.abs(model.energy(s) - sigma_fit(s.F)
                         - 0.5 * (s.p * (s.p @ sol)).sum(-1)).max())

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

    def stress_at_velocity(t):  # the velocity rides in the momentum slot of t
        return stress_tilde(model, t.F, t.p, np.broadcast_to(p_center, t.p.shape))

    dSdv = fd_derivative(stress_at_velocity, State(A, c), "p")

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
