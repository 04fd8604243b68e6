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

A probe set is one :class:`State` stack from the draw on (the ellipticity
probes are the stacks (F, v, a)), so each check evaluates the model maps on
the whole set at once.  All derivatives are central finite differences;
every check reports the worst residual over the probe set next to its
tolerance.  When the invariance checks pass, the velocity map must be linear
(v = V p with V symmetric) and the energy must split additively into kinetic
and stored parts; both facts are recovered and certified numerically by
:func:`extract_representation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .constitutive import (CORRUPTION_KINDS, ConstitutiveModel, State, fd_derivative,
                           fd_velocity_jacobian, momentum_from_velocity)
from .errors import FitDegenerate, NewtonDivergence, NotUnit, PreconditionFailure
from .tensors import EYE3, det_cofactor
from .tolerances import DEFAULT

#: Failures mathematically implied by each targeted violation.  A Maxwell
#: violation forces a thermo one (the mixed-derivative identity follows from
#: the two gradient identities for twice-differentiable energies), and the
#: cubic velocity used to break normality is not affine in p, so its shift
#: defect is state-dependent as well.  Every other check passes.
_CONTROL_FAILS = {
    "normality": {"normality", "galilean"},
    "ellipticity": {"ellipticity"},
    "thermo": {"thermo"},
    "maxwell": {"maxwell", "thermo"},
    "galilean": {"galilean"},
    "parity": {"parity"},
}
NEGATIVE_CONTROL_EXPECTATIONS = {kind: {"fail": fail, "pass": set(CORRUPTION_KINDS) - fail}
                                 for kind, fail in _CONTROL_FAILS.items()}


# ---------------------------------------------------------------------------
# Probe generation
# ---------------------------------------------------------------------------

def _uniform_ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return radius * rng.random((n, 1)) ** (1.0 / 3.0) * u


def _draw_F(rng: np.random.Generator, n: int, min_det: float = 0.3) -> np.ndarray:
    # stays inside the neo-Hookean domain while exercising nonlinearity; whole
    # blocks are drawn and the rows with det F > min_det kept, in order
    F = np.empty((0, 3, 3))
    while len(F) < n:
        block = EYE3 + 0.5 * rng.uniform(-1.0, 1.0, size=(n, 3, 3))
        F = np.concatenate([F, block[det_cofactor(block)[0] > min_det]])
    return F[:n]


def draw_states(n: int, rng: np.random.Generator) -> State:
    """A stack of n random probe states; row 0 is always (identity, zero momentum).

    The zero-momentum anchor makes degenerate momentum jacobians at the
    origin visible to the normality check; the others have det F > 0.3 and
    |p| <= 3.
    """
    m = max(n - 1, 0)
    F = np.concatenate([EYE3[None], _draw_F(rng, m)])
    p = np.concatenate([np.zeros((1, 3)), _uniform_ball(rng, m, 3.0)])
    return State(F[:n], p[:n])


def draw_ellipticity_probes(n: int, rng: np.random.Generator):
    """Stacks (F[n, 3, 3], v[n, 3], a[n, 3]): det F > 0.3, |v| <= 0.5, unit directions a."""
    F = _draw_F(rng, n)
    v = _uniform_ball(rng, n, 0.5)
    a = rng.normal(size=(n, 3))
    return F, v, a / np.linalg.norm(a, axis=-1, keepdims=True)


def default_shifts() -> list[np.ndarray]:
    """Deterministic momentum shifts for the invariance-defect check."""
    return ([np.zeros(3)] + [sign * e for e in EYE3 for sign in (1.0, -1.0)]
            + [x / np.linalg.norm(x) for x in np.array([[1.0, 1.0, 1.0], [1.0, -2.0, 0.5]])])


# ---------------------------------------------------------------------------
# Finite-difference helpers
# ---------------------------------------------------------------------------

def fd_energy_gradients(model: ConstitutiveModel, s: State):
    """(d tau / dF, d tau / dp) by central differences, at one state or a stack."""
    return fd_derivative(model.energy, s, "F"), fd_derivative(model.energy, s, "p")


def stress_tilde(model: ConstitutiveModel, F, v, p_seed=None) -> np.ndarray:
    """Velocity-eliminated stress S~(F, v) = stress(F, p(F, v))."""
    p = momentum_from_velocity(model, F, v, p0=p_seed)
    return model.stress(State(F, p))


def ellipticity_tensor(model: ConstitutiveModel, F, v, a) -> np.ndarray:
    """E[..., i, h] = sum_{j,k} dS~_ij/dF_hk a_j a_k at fixed v.

    Takes one triple or stacks F[..., 3, 3], v[..., 3], a[..., 3].  Column h
    is one directional difference, E u = d/de [S~(F + e u (x) a, v) a] at
    u = e_h: u rides in the momentum slot of :func:`fd_derivative`, so a
    probe costs 6 perturbed states.  Each re-inverts the velocity map, seeded
    with its probe's momentum, so the derivative is taken along constant
    velocity, not constant momentum.
    """
    F, v, a = (np.asarray(x, dtype=float) for x in (F, v, a))
    p = momentum_from_velocity(model, F, v)

    def traction(t):  # t.p is u, the amplitude of the rank-one perturbation u (x) a
        S = stress_tilde(model, t.F + t.p[..., :, None] * a[..., None, :],
                         np.broadcast_to(v, t.p.shape), np.broadcast_to(p, t.p.shape))
        return (S * a[..., None, :]).sum(-1)

    return fd_derivative(traction, State(F, np.zeros(v.shape)), "p")


# ---------------------------------------------------------------------------
# The six checks
# ---------------------------------------------------------------------------

def check_normality(model: ConstitutiveModel, probes: State):
    """Minimum |det N| over probes; passes when it stays above tolerance."""
    if probes.p.size == 0:
        raise ValueError("probe set must be non-empty")
    min_det = float(np.abs(np.linalg.det(fd_velocity_jacobian(model, probes.F, probes.p))).min())
    return min_det > DEFAULT.normality_tol, min_det


def check_ellipticity(model: ConstitutiveModel, probes):
    """Minimum |det E(F, v; a)| over the probe stacks (F, v, a)."""
    min_det = float(np.abs(np.linalg.det(ellipticity_tensor(model, *probes))).min())
    return min_det > DEFAULT.ellipticity_tol, min_det


def check_thermo(model: ConstitutiveModel, probes: State):
    """Worst residuals of velocity = d tau/dp and stress = d tau/dF."""
    gF, gp = fd_energy_gradients(model, probes)
    res_v = float(np.abs(gp - model.velocity(probes)).max())
    res_S = float(np.abs(gF - model.stress(probes)).max())
    tol = DEFAULT.thermo_tol
    return (res_v <= tol and res_S <= tol), (res_v, res_S)


def check_maxwell(model: ConstitutiveModel, probes: State):
    """Worst residual of dS_ij/dp_h = dv_h/dF_ij over probes."""
    dSdp = fd_derivative(model.stress, probes, "p")
    dvdF = np.moveaxis(fd_derivative(model.velocity, probes, "F"), -3, -1)
    worst = float(np.abs(dSdp - dvdF).max())
    return worst <= DEFAULT.maxwell_tol, worst


def check_galilean(model: ConstitutiveModel, probes: State,
                   shifts: Sequence[np.ndarray] | None = None):
    """Spread of the velocity shift defect across probes.

    For each shift d the difference velocity(F, p + d) - velocity(F, p) must
    not depend on the state; the deviation is the largest per-component
    spread (max - min across probes), maximized over shifts.
    """
    d = np.reshape(default_shifts() if shifts is None else shifts, (-1, 1, 3))
    shifted = State(np.broadcast_to(probes.F, d.shape[:1] + probes.F.shape), probes.p + d)
    diffs = model.velocity(shifted) - model.velocity(probes)  # [shift, probe, component]
    deviation = float((diffs.max(axis=1) - diffs.min(axis=1)).max(initial=0.0))
    return deviation <= DEFAULT.galilean_tol, deviation


def check_parity(model: ConstitutiveModel, probes: State):
    """Worst asymmetry |tau(F, p) - tau(F, -p)| over probes."""
    asym = float(np.abs(model.energy(probes) - model.energy(State(probes.F, -probes.p))).max())
    return asym <= DEFAULT.parity_tol, asym


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

#: The report's rows, in order: (row, check, tolerance).  Thermo has two rows,
#: the velocity and the stress residual, each with its own pass flag.
ROWS = (
    ("normality", "normality", DEFAULT.normality_tol),
    ("ellipticity", "ellipticity", DEFAULT.ellipticity_tol),
    ("thermo_velocity", "thermo", DEFAULT.thermo_tol),
    ("thermo_stress", "thermo", DEFAULT.thermo_tol),
    ("maxwell", "maxwell", DEFAULT.maxwell_tol),
    ("galilean", "galilean", DEFAULT.galilean_tol),
    ("parity", "parity", DEFAULT.parity_tol),
)


@dataclass
class AdmissibilityReport:
    """Structured result of all six checks on one model.

    ``passes`` and ``values`` map each row of :data:`ROWS` to its pass flag and
    value, and ``results`` each check to the ``all`` of its rows' flags.  For
    normality and ellipticity the value is the minimum |determinant| over probes
    and passes when it stays *above* its tolerance; for the remaining checks the
    value is a residual that must stay *below* tolerance.
    """

    model_name: str
    passes: dict[str, bool]
    values: dict[str, float]
    probes: int = 0
    seed: int = 0
    notes: dict = field(default_factory=dict)
    representation: RepresentationResult | None = None  # fitted when every check passes

    @property
    def results(self) -> dict[str, bool]:
        return {check: all(self.passes[row] for row, c, _ in ROWS if c == check)
                for _, check, _ in ROWS}

    @property
    def passed(self) -> bool:
        return all(self.passes.values())

    def rows(self):
        """(row, value, tolerance, pass) rows for CSV output."""
        return [(row, self.values[row], tol, self.passes[row]) for row, _, tol in ROWS]

    def as_text(self) -> str:
        lines = [f"model={self.model_name}", f"probes={self.probes}", f"seed={self.seed}"]
        for name, value, tol, ok in self.rows():
            lines.append(f"{name}_value={value:.17g}")
            lines.append(f"{name}_tolerance={tol:.17g}")
            lines.append(f"{name}_pass={str(ok).lower()}")
        lines.append(f"all_pass={str(self.passed).lower()}")
        for key in sorted(self.notes):
            lines.append(f"note_{key}={self.notes[key]}")
        rep = self.representation
        if rep is not None:
            lines += [f"representation_V_{i}{j}={rep.V_fit[i, j]:.17g}"
                      for i in range(3) for j in range(3)]
            lines += [f"representation_{key}={getattr(rep, key):.17g}" for key in
                      ("symmetry_residual", "linearity_residual", "split_residual")]
            lines.append(f"representation_split_pass={str(rep.split_pass).lower()}")
        return "\n".join(lines) + "\n"


def full_report(model: ConstitutiveModel, n_probes: int = 100,
                seed: int = 0) -> AdmissibilityReport:
    """Run all six checks on freshly drawn seeded probes.

    A Newton divergence inside the ellipticity check (which needs the
    velocity map inverted at perturbed states) is recorded as a failure of
    that check rather than raised, so a report is always produced.  When
    every check passes, the representation is fitted on the same probes; a
    probe set too small to fit it is recorded as a note.
    """
    rng = np.random.default_rng(seed)
    probes = draw_states(n_probes, rng)
    ell_probes = draw_ellipticity_probes(n_probes, rng)
    notes = {}

    outcomes = {"normality": check_normality(model, probes)}
    try:
        outcomes["ellipticity"] = check_ellipticity(model, ell_probes)
    except NewtonDivergence as exc:
        outcomes["ellipticity"] = False, float("nan")
        notes["ellipticity"] = f"velocity inversion diverged: {exc}"
    for name, check in (("thermo", check_thermo), ("maxwell", check_maxwell),
                        ("galilean", check_galilean), ("parity", check_parity)):
        outcomes[name] = check(model, probes)
    # thermo's velocity and stress residuals pass or fail on rows of their own
    for row, value in zip(("thermo_velocity", "thermo_stress"), outcomes.pop("thermo")[1]):
        outcomes[row] = value <= DEFAULT.thermo_tol, value

    report = AdmissibilityReport(
        model_name=model.name,
        passes={row: ok for row, (ok, _) in outcomes.items()},
        values={row: value for row, (_, value) in outcomes.items()},
        probes=n_probes, seed=seed, notes=notes,
    )
    if report.passed:
        try:
            report.representation = _fit_representation(model, probes)
        except FitDegenerate as exc:
            notes["representation"] = str(exc)
    return report


# ---------------------------------------------------------------------------
# Representation extraction
# ---------------------------------------------------------------------------

@dataclass
class RepresentationResult:
    """Certified linear velocity representation and energy split.

    V_fit is the least-squares coefficient of the velocity map; M_fit its
    inverse (the recovered mass-density tensor).
    """

    V_fit: np.ndarray
    M_fit: np.ndarray
    symmetry_residual: float
    linearity_residual: float
    split_residual: float
    split_pass: bool  # the split is certified: split_residual <= split_tol


def extract_representation(model: ConstitutiveModel,
                           probes: State) -> RepresentationResult:
    """Fit v = V p at a reference F and certify the additive energy split.

    Preconditions: the model must pass the normality, galilean-variance and
    parity checks on the given probes; otherwise a linear representation is
    not guaranteed to exist and :class:`PreconditionFailure` is raised.
    """
    failed = [name for name, check in (("normality", check_normality),
                                       ("galilean", check_galilean), ("parity", check_parity))
              if not check(model, probes)[0]]
    if failed:
        raise PreconditionFailure(
            "representation preconditions violated: " + ", ".join(failed))
    return _fit_representation(model, probes)


def _fit_representation(model: ConstitutiveModel, s: State) -> RepresentationResult:
    """Fit v = V p at the first probe's F and measure the energy split, unchecked."""
    fit = s.p[0::2]
    held_out = State(s.F[1::2], s.p[1::2]) if len(s.p) > 1 else s

    if np.linalg.matrix_rank(fit, tol=1e-8 * max(1.0, float(np.abs(fit).max()))) < 3:
        raise FitDegenerate("momentum probes do not span three dimensions")
    Vel = model.velocity(State(np.broadcast_to(s.F[0], fit.shape + (3,)), fit))
    sol, *_ = np.linalg.lstsq(fit, Vel, rcond=None)
    V_fit = sol.T

    linearity = float(np.abs(model.velocity(held_out) - held_out.p @ sol).max())
    symmetry = float(np.abs(V_fit - V_fit.T).max())
    M_fit = np.linalg.inv(V_fit)

    split = float(np.abs(model.energy(s) - model.energy(State(s.F, np.zeros(s.p.shape)))
                         - 0.5 * (s.p * (s.p @ sol)).sum(-1)).max())

    return RepresentationResult(
        V_fit=V_fit, M_fit=M_fit,
        symmetry_residual=symmetry,
        linearity_residual=linearity,
        split_residual=split,
        split_pass=bool(split <= DEFAULT.split_tol),
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
    A, B, a, b, c = (np.asarray(x, dtype=float) for x in (A, B, a, b, c))
    if abs(float(np.linalg.norm(a)) - 1.0) > 1e-12:
        raise NotUnit("direction a must be a unit vector")

    p_center = momentum_from_velocity(model, A, c)

    def stress_at_velocity(t):  # the velocity rides in the momentum slot of t
        return stress_tilde(model, t.F, t.p, np.broadcast_to(p_center, t.p.shape))

    dSdv = fd_derivative(stress_at_velocity, State(A, c), "p")

    E = ellipticity_tensor(model, A, c, a)
    return B.copy(), np.einsum("ijk,kj->i", dSdv, B) + E @ b


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
