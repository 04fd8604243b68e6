"""Constitutive mappings for elasticity in first-order conservation form.

The state of a material point is the pair (F, p) of deformation gradient and
momentum density.  A :class:`ConstitutiveModel` bundles the three response
maps

    energy   (F, p) -> tau        total energy per unit reference volume
    velocity (F, p) -> v          boundary flux of F
    stress   (F, p) -> S          Piola stress, boundary flux of p

together with an optional analytic elasticity tensor dS/dF; a ``batched``
model also takes stacks of states (see :func:`as_batched`).  Builders are
provided for the two standard representations

    classical:  v = p / rho,   tau = |p|^2 / (2 rho) + sigma(F)
    tensor:     v = V p,       tau = p . V p / 2   + sigma(F)

with V a symmetric invertible velocity-coefficient tensor (the inverse of the
mass-density tensor), plus a registry of stored-energy functions sigma(F) and
negative-control models that each break exactly one admissibility property.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DomainError, NewtonDivergence, NotSymmetric, Singular
from .tensors import EYE3, asymmetry, check_finite, outer, sym_part
from .tolerances import DEFAULT, FD_SCALE, fd_step


@dataclass(frozen=True)
class State:
    """Deformation gradient F[..., 3, 3] and momentum p[..., 3] of one or many points.

    F is not required to be a gradient of any motion and det F may have any
    sign; individual stored energies may reject states outside their domain.
    """

    F: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if F.ndim <= 2:  # one material point
            F, p = F.reshape(3, 3), p.reshape(3)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class StoredEnergy:
    """Stored energy sigma(F) with optional analytic derivatives.

    When both derivatives are given, all three callables take stacks F[..., 3, 3].
    """

    name: str
    sigma: Callable[[np.ndarray], float]
    analytic_stress: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic_elasticity: Optional[Callable[[np.ndarray], np.ndarray]] = None
    parameters: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ConstitutiveModel:
    """Black-box triple (energy, velocity, stress) on states (F, p)."""

    name: str
    energy: Callable[[State], float]
    velocity: Callable[[State], np.ndarray]
    stress: Callable[[State], np.ndarray]
    analytic_S4: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batched: bool = False  # all four callables exist and take stacked states


@dataclass(frozen=True)
class MassDensityTensor:
    """Symmetric mass-density tensor M and its inverse V (p = M v)."""

    M: np.ndarray
    V: np.ndarray

    @classmethod
    def from_V(cls, V) -> "MassDensityTensor":
        V = check_finite(V, "V").reshape(3, 3)
        if asymmetry(V) > DEFAULT.sym_tol:
            raise NotSymmetric("velocity coefficient tensor V is not symmetric")
        if abs(float(np.linalg.det(V))) <= 1e-12:
            raise Singular("velocity coefficient tensor V is singular")
        M = np.linalg.inv(V)
        return cls(M=sym_part(M), V=V.copy())

    @classmethod
    def from_rho(cls, rho: float) -> "MassDensityTensor":
        if not rho > 0:
            raise ValueError("rho must be positive")
        return cls(M=rho * np.eye(3), V=np.eye(3) / rho)

    def classical(self, tol: float = 1e-10) -> bool:
        """True when M = rho * identity with rho > 0."""
        rho = self.M[0, 0]
        return rho > 0 and float(np.abs(self.M - rho * np.eye(3)).max()) <= tol * max(1.0, rho)


# ---------------------------------------------------------------------------
# Stored-energy registry
# ---------------------------------------------------------------------------

def linear_isotropic(lam: float = 2.0, mu: float = 1.0) -> StoredEnergy:
    """Quadratic isotropic energy in the symmetric displacement gradient.

    sigma(F) = lam/2 * tr(eps)^2 + mu * eps:eps,   eps = sym(F) - 1
    """

    def sigma(F):
        eps = sym_part(F) - EYE3
        tr = eps.trace(0, -2, -1)
        return 0.5 * lam * tr * tr + mu * (eps * eps).sum((-2, -1))

    def stress(F):
        eps = sym_part(F) - EYE3
        return (lam * eps.trace(0, -2, -1))[..., None, None] * EYE3 + 2.0 * mu * eps

    S4 = (lam * np.einsum("ij,hk->ijhk", EYE3, EYE3)
          + mu * (np.einsum("ih,jk->ijhk", EYE3, EYE3)
                  + np.einsum("ik,jh->ijhk", EYE3, EYE3)))
    S4.setflags(write=False)

    return StoredEnergy(
        name="linear_isotropic",
        sigma=sigma,
        analytic_stress=stress,
        analytic_elasticity=lambda F: np.broadcast_to(S4, np.shape(F)[:-2] + S4.shape),
        parameters={"lambda": lam, "mu": mu},
    )


def st_venant_kirchhoff(lam: float = 2.0, mu: float = 1.0) -> StoredEnergy:
    """Quadratic energy in the Green strain E = (F^T F - 1)/2."""

    def green(F):
        return 0.5 * (F.swapaxes(-1, -2) @ F - EYE3)

    def second_piola(E):
        return (lam * E.trace(0, -2, -1))[..., None, None] * EYE3 + 2.0 * mu * E

    def sigma(F):
        F = np.asarray(F, dtype=float)
        E = green(F)
        tr = E.trace(0, -2, -1)
        return 0.5 * lam * tr * tr + mu * (E * E).sum((-2, -1))

    def stress(F):
        F = np.asarray(F, dtype=float)
        return F @ second_piola(green(F))

    def elasticity(F):
        F = np.asarray(F, dtype=float)
        C2 = second_piola(green(F))
        FFt = F @ F.swapaxes(-1, -2)
        S4 = np.einsum("ih,...kj->...ijhk", EYE3, C2, order="C")  # flat rows for E(w)
        S4 += lam * np.einsum("...ij,...hk->...ijhk", F, F)
        S4 += mu * np.einsum("...ik,...hj->...ijhk", F, F)
        S4 += mu * np.einsum("...ih,jk->...ijhk", FFt, EYE3)
        return S4

    return StoredEnergy(
        name="stvk",
        sigma=sigma,
        analytic_stress=stress,
        analytic_elasticity=elasticity,
        parameters={"lambda": lam, "mu": mu},
    )


def neo_hookean(lam: float = 2.0, mu: float = 1.0) -> StoredEnergy:
    """Compressible neo-Hookean energy; defined only for det F > 0.

    sigma(F) = mu/2 (F:F - 3) - mu ln J + lam/2 (ln J)^2,   J = det F
    """

    def _logdet(F):
        J = np.linalg.det(F)
        bad = J <= 0.0
        if bad.any() if bad.ndim else bad:  # a single state skips the array round trip
            raise DomainError(f"neo-Hookean energy requires det F > 0, got {np.min(J):.3e}")
        return np.log(J)

    def sigma(F):
        F = np.asarray(F, dtype=float)
        lnJ = _logdet(F)
        return 0.5 * mu * ((F * F).sum((-2, -1)) - 3.0) - mu * lnJ + 0.5 * lam * lnJ * lnJ

    def stress(F):
        F = np.asarray(F, dtype=float)
        c = lam * _logdet(F) - mu
        FinvT = np.linalg.inv(F).swapaxes(-1, -2)
        return mu * F + (c * FinvT if F.ndim == 2 else c[..., None, None] * FinvT)

    I4 = mu * np.einsum("ih,jk->ijhk", EYE3, EYE3)

    def elasticity(F):
        F = np.asarray(F, dtype=float)
        lnJ = _logdet(F)
        Finv = np.linalg.inv(F)
        FinvT = Finv.swapaxes(-1, -2)
        S4 = np.multiply((lam * FinvT)[..., :, :, None, None], FinvT[..., None, None, :, :],
                         order="C")  # flat rows for E(w)
        S4 += I4
        c = (lam * lnJ - mu)[..., None, None] * FinvT
        S4 -= c[..., :, None, None, :] * Finv[..., None, :, :, None]  # c_ik Finv_jh
        return S4

    return StoredEnergy(
        name="neo_hookean",
        sigma=sigma,
        analytic_stress=stress,
        analytic_elasticity=elasticity,
        parameters={"lambda": lam, "mu": mu},
    )


def zero_energy() -> StoredEnergy:
    """Degenerate sigma = 0 (stress-free for every F)."""
    return StoredEnergy(
        name="zero",
        sigma=lambda F: np.zeros(np.shape(F)[:-2]),
        analytic_stress=lambda F: np.zeros(np.shape(F)),
        analytic_elasticity=lambda F: np.zeros(np.shape(F) + (3, 3)),
    )


def stored_energy_registry(lam: float = 2.0, mu: float = 1.0) -> list[StoredEnergy]:
    """The stored energies shipped with the package."""
    return [linear_isotropic(lam, mu), st_venant_kirchhoff(lam, mu), neo_hookean(lam, mu)]


def stored_energy_by_name(name: str, lam: float = 2.0, mu: float = 1.0) -> StoredEnergy:
    for se in stored_energy_registry(lam, mu):
        if se.name == name:
            return se
    raise KeyError(f"unknown stored energy {name!r}")


# ---------------------------------------------------------------------------
# Finite-difference derivatives
# ---------------------------------------------------------------------------

def fd_stress(se: StoredEnergy, F, step: float | None = None) -> np.ndarray:
    """Central finite difference of sigma: S[i, j] = d sigma / d F[i, j]."""
    F = np.asarray(F, dtype=float)
    h = fd_step(F) if step is None else step
    S = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            dF = np.zeros((3, 3))
            dF[i, j] = h
            S[i, j] = (se.sigma(F + dF) - se.sigma(F - dF)) / (2.0 * h)
    return check_finite(S, "finite-difference stress")


def fd_jacobian_wrt_tensor(fn: Callable[[np.ndarray], np.ndarray], F,
                           step: float | None = None) -> np.ndarray:
    """Central finite difference of a (3,3)-valued map of a (3,3) argument.

    result[i, j, h, k] = d fn(F)[i, j] / d F[h, k]
    """
    F = np.asarray(F, dtype=float)
    h = fd_step(F) if step is None else step
    out = np.empty((3, 3, 3, 3))
    for a in range(3):
        for b in range(3):
            dF = np.zeros((3, 3))
            dF[a, b] = h
            out[:, :, a, b] = (np.asarray(fn(F + dF)) - np.asarray(fn(F - dF))) / (2.0 * h)
    return check_finite(out, "finite-difference tensor jacobian")


def fd_elasticity_tensor(se: StoredEnergy, F, step: float | None = None) -> np.ndarray:
    """Second derivative of sigma by differencing the stress map.

    Uses the analytic stress when available, otherwise the finite-difference
    stress; the result has major symmetry S4[i,j,h,k] = S4[h,k,i,j] up to the
    finite-difference noise floor.
    """
    stress = se.analytic_stress if se.analytic_stress is not None else (
        lambda G: fd_stress(se, G))
    return fd_jacobian_wrt_tensor(stress, F, step=step)


def elasticity_map(model_or_se) -> Callable[[np.ndarray], np.ndarray]:
    """F -> dS/dF for a model or stored energy, analytic when possible."""
    if isinstance(model_or_se, ConstitutiveModel):
        if model_or_se.analytic_S4 is not None:
            return model_or_se.analytic_S4
        return lambda F, m=model_or_se: fd_jacobian_wrt_tensor(
            lambda G: m.stress(State(G, np.zeros(3))), F)
    se = model_or_se
    if se.analytic_elasticity is not None:
        return se.analytic_elasticity
    return lambda F: fd_elasticity_tensor(se, F)


def fd_velocity_jacobian(model: ConstitutiveModel, F, p, step: float | None = None) -> np.ndarray:
    """N[..., i, h] = d velocity_i / d p_h by central differences.

    Takes one state or, for a batched model, stacks F[..., 3, 3], p[..., 3];
    each state gets its own step.
    """
    F = np.asarray(F, dtype=float)
    p = np.asarray(p, dtype=float)
    if step is not None:
        h = step
    elif p.ndim == 1:
        h = fd_step(p)
    else:
        h = FD_SCALE * np.maximum(1.0, np.linalg.norm(p, axis=-1))
    N = np.empty(p.shape + (3,))
    for k in range(3):
        dp = np.zeros(p.shape)
        dp[..., k] = h
        N[..., k] = model.velocity(State(F, p + dp)) - model.velocity(State(F, p - dp))
    N /= 2.0 * np.asarray(h)[..., None, None]
    return check_finite(N, "velocity jacobian")


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------

def _stress_from(se: StoredEnergy) -> Callable[[np.ndarray], np.ndarray]:
    if se.analytic_stress is not None:
        return se.analytic_stress
    return lambda F: fd_stress(se, F)


def classical_model(rho: float, se: StoredEnergy) -> ConstitutiveModel:
    """Scalar mass density: v = p / rho, tau = |p|^2 / (2 rho) + sigma(F)."""
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    stress = _stress_from(se)
    return ConstitutiveModel(
        name=f"classical(rho={rho:g},{se.name})",
        # p.p as row times column: for one state, the same bits as a plain dot product
        energy=lambda s: ((s.p[..., None, :] @ s.p[..., :, None])[..., 0, 0] / (2.0 * rho)
                          + se.sigma(s.F)),
        velocity=lambda s: s.p / rho,
        stress=lambda s: stress(s.F),
        analytic_S4=se.analytic_elasticity,
        batched=None not in (se.analytic_stress, se.analytic_elasticity),
    )


def tensor_mass_model(V, se: StoredEnergy) -> ConstitutiveModel:
    """Tensorial mass density: v = V p, tau = p . V p / 2 + sigma(F).

    V must be symmetric (to the central symmetry tolerance) and invertible.
    """
    mdt = MassDensityTensor.from_V(V)  # raises NotSymmetric / Singular
    VmT = mdt.V.T.copy()  # p @ VmT is V p for a single p or a stack
    stress = _stress_from(se)
    return ConstitutiveModel(
        name=f"tensor_mass({se.name})",
        energy=lambda s: 0.5 * (s.p * (s.p @ VmT)).sum(-1) + se.sigma(s.F),
        velocity=lambda s: s.p @ VmT,
        stress=lambda s: stress(s.F),
        analytic_S4=se.analytic_elasticity,
        batched=None not in (se.analytic_stress, se.analytic_elasticity),
    )


def as_batched(model: ConstitutiveModel) -> ConstitutiveModel:
    """The model if it is batched, else an adapter that loops it over stacks.

    The adapter lets pointwise black boxes such as the negative controls run
    on whole fields; its S4 is the model's (possibly finite-difference) map.
    """
    if model.batched:
        return model

    def each(fn, of_states=True):
        def call(x):
            lead = x.p.shape[:-1] if of_states else np.shape(x)[:-2]
            items = (map(State, x.F.reshape(-1, 3, 3), x.p.reshape(-1, 3)) if of_states
                     else np.reshape(x, (-1, 3, 3)))
            out = np.array([fn(y) for y in items])
            return out.reshape(lead + out.shape[1:])
        return call

    return replace(model, energy=each(model.energy), velocity=each(model.velocity),
                   stress=each(model.stress), analytic_S4=each(elasticity_map(model), False),
                   batched=True)


def momentum_from_velocity(model: ConstitutiveModel, F, v,
                           p0=None,
                           tol: float | None = None,
                           max_iter: int | None = None) -> np.ndarray:
    """Invert the velocity map at fixed F by damped Newton iteration.

    Solves velocity(F, p) = v for p, at one state or, for a batched model, at
    every state of stacks F[..., 3, 3], v[..., 3].  The Jacobian is the
    finite-difference N matrix; each state's step is halved while it increases
    that state's residual.  The default seed p0 = v is exact for unit mass
    density and harmless otherwise.

    Raises
    ------
    NewtonDivergence
        If the velocity residual is not reduced below tolerance within the
        iteration budget; for stacks the message names the first such state.
    """
    F = np.asarray(F, dtype=float)
    v = np.asarray(v, dtype=float)
    tol = DEFAULT.newton_tol if tol is None else tol
    max_iter = DEFAULT.newton_max_iter if max_iter is None else max_iter

    p = v.copy() if p0 is None else np.array(p0, dtype=float)
    if v.ndim > 1:
        return _momentum_of_stack(model, F, v, p, tol, max_iter)
    # One state: plain scalar tests.  The masked stack loop costs about 30% more
    # per single-state call, which the admissibility probes would pay.
    r = model.velocity(State(F, p)) - v
    rn = float(np.linalg.norm(r))
    for _ in range(max_iter):
        if rn <= tol:
            return p
        N = fd_velocity_jacobian(model, F, p)
        try:
            step = np.linalg.solve(N, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(N, -r, rcond=None)
        for k in range(15):  # t = 1, 1/2, ..., 2**-14 < 1e-4
            cand = p + 0.5 ** k * step
            r_new = model.velocity(State(F, cand)) - v
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < rn:
                break
        else:
            raise NewtonDivergence(
                f"residual stalled at {rn:.3e} (tol {tol:.1e}) for model {model.name}")
        p, r, rn = cand, r_new, rn_new
    if rn <= tol:
        return p
    raise NewtonDivergence(
        f"residual {rn:.3e} above tol {tol:.1e} after {max_iter} iterations")


def _momentum_of_stack(model, F, v, p, tol, max_iter):
    """:func:`momentum_from_velocity` on stacks; each state halves its own step."""

    def residual(q):
        r = model.velocity(State(F, q)) - v
        return r, np.linalg.norm(r, axis=-1)

    r, rn = residual(p)
    for it in range(max_iter + 1):
        live = rn > tol
        if not live.any():
            return p
        if it == max_iter:
            i = np.flatnonzero(live)[0]
            raise NewtonDivergence(f"state {i}: residual {rn.flat[i]:.3e} above "
                                   f"tol {tol:.1e} after {max_iter} iterations")
        N = fd_velocity_jacobian(model, F, p)
        try:
            step = np.linalg.solve(N, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = (np.linalg.pinv(N) @ -r[..., None])[..., 0]
        worse, cand = live, p
        for k in range(15):  # t = 1, 1/2, ..., 2**-14 < 1e-4; converged states stay put
            cand = np.where(worse[..., None], p + 0.5 ** k * step, cand)
            r_new, rn_new = residual(cand)
            worse = live & (rn_new >= rn)
            if not worse.any():
                break
        else:
            i = np.flatnonzero(worse)[0]
            raise NewtonDivergence(f"state {i}: residual stalled at {rn.flat[i]:.3e} "
                                   f"(tol {tol:.1e}) for model {model.name}")
        p, r, rn = cand, r_new, rn_new


# ---------------------------------------------------------------------------
# Negative controls: each breaks one admissibility property on purpose
# ---------------------------------------------------------------------------

CORRUPTION_KINDS = ("normality", "ellipticity", "thermo", "maxwell", "galilean", "parity")


def corrupted_model(kind: str, lam: float = 2.0, mu: float = 1.0,
                    rho: float = 1.0) -> ConstitutiveModel:
    """A model that violates exactly the targeted admissibility property.

    Some violations mathematically force others (see the admissibility
    module's expectation table): a Maxwell violation implies a thermodynamic
    one, and the cubic velocity used to break normality also breaks the
    translational-invariance defect.
    """
    se = linear_isotropic(lam, mu)
    stress = se.analytic_stress

    if kind == "normality":
        # velocity = |p|^2 p has a singular momentum jacobian at p = 0
        return ConstitutiveModel(
            name="control_normality",
            energy=lambda s: 0.25 * float(s.p @ s.p) ** 2 + se.sigma(s.F),
            velocity=lambda s: float(s.p @ s.p) * s.p,
            stress=lambda s: stress(s.F),
            analytic_S4=se.analytic_elasticity,
        )
    if kind == "ellipticity":
        return classical_model(rho, zero_energy())
    if kind == "thermo":
        base = classical_model(rho, se)
        return ConstitutiveModel(
            name="control_thermo",
            energy=base.energy,
            velocity=base.velocity,
            stress=lambda s: 1.1 * stress(s.F),
            analytic_S4=None,
        )
    if kind == "maxwell":
        base = classical_model(rho, se)
        spike = outer(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        return ConstitutiveModel(
            name="control_maxwell",
            energy=base.energy,
            velocity=base.velocity,
            stress=lambda s: stress(s.F) + s.p[0] * spike,
            analytic_S4=None,
        )
    if kind == "galilean":
        # state-dependent effective density rho(F) = 1 + |F - 1|^2; energy,
        # velocity and stress stay mutually consistent so only the invariance
        # defect varies across states
        def rho_of(F):
            D = F - EYE3
            return 1.0 + float(np.sum(D * D))

        return ConstitutiveModel(
            name="control_galilean",
            energy=lambda s: 0.5 * float(s.p @ s.p) / rho_of(s.F) + se.sigma(s.F),
            velocity=lambda s: s.p / rho_of(s.F),
            stress=lambda s: stress(s.F)
            - float(s.p @ s.p) * (s.F - EYE3) / rho_of(s.F) ** 2,
            analytic_S4=None,
        )
    if kind == "parity":
        base = classical_model(rho, se)
        e1 = np.array([1.0, 0.0, 0.0])
        return ConstitutiveModel(
            name="control_parity",
            energy=lambda s: base.energy(s) + float(s.p @ e1),
            velocity=lambda s: s.p / rho + e1,
            stress=base.stress,
            analytic_S4=se.analytic_elasticity,
        )
    raise KeyError(f"unknown corruption kind {kind!r}; expected one of {CORRUPTION_KINDS}")
