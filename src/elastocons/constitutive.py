"""Constitutive mappings for elasticity in first-order conservation form.

The state of a material point is the pair (F, p) of deformation gradient and
momentum density.  A :class:`ConstitutiveModel` bundles the three response
maps

    energy   (F, p) -> tau        total energy per unit reference volume
    velocity (F, p) -> v          boundary flux of F
    stress   (F, p) -> S          Piola stress, boundary flux of p

together with an optional analytic elasticity tensor dS/dF.  Every map takes
stacks of states F[..., 3, 3], p[..., 3] and returns one value per state;
:func:`pointwise_model` loops callables written for one state at a time.
Builders are provided for the two standard representations

    classical:  v = p / rho,   tau = |p|^2 / (2 rho) + sigma(F)
    tensor:     v = V p,       tau = p . V p / 2   + sigma(F)

with V a symmetric invertible velocity-coefficient tensor (the inverse of the
mass-density tensor), plus a registry of stored-energy functions sigma(F) and
negative-control models that each break exactly one admissibility property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (DomainError, NewtonDivergence, NotSymmetric, PreconditionFailure,
                     Singular)
from .tensors import EYE3, asymmetry, check_finite, outer, sym_part
from .tolerances import DEFAULT, FD_SCALE


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

    sigma takes stacks F[..., 3, 3]; when both derivatives are given, they do too.
    """

    name: str
    sigma: Callable[[np.ndarray], np.ndarray]
    analytic_stress: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic_elasticity: Optional[Callable[[np.ndarray], np.ndarray]] = None
    parameters: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ConstitutiveModel:
    """Black-box triple (energy, velocity, stress) on stacks of states (F, p).

    For states with leading shape L, energy returns L, velocity L + (3,),
    stress L + (3, 3) and analytic_S4 (of F) L + (3, 3, 3, 3).  Construction
    evaluates each map once on a two-state stack and raises
    PreconditionFailure, naming the map, if it raises or returns another shape.
    """

    name: str
    energy: Callable[[State], np.ndarray]
    velocity: Callable[[State], np.ndarray]
    stress: Callable[[State], np.ndarray]
    analytic_S4: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        s = State(np.tile(EYE3, (2, 1, 1)), np.zeros((2, 3)))
        maps = [("energy", self.energy, s, ()), ("velocity", self.velocity, s, (3,)),
                ("stress", self.stress, s, (3, 3)),
                ("analytic_S4", self.analytic_S4, s.F, (3, 3, 3, 3))]
        for name, fn, arg, shape in maps:
            if fn is None:
                continue
            try:
                got = np.shape(fn(arg))
            except Exception as exc:
                raise PreconditionFailure(
                    f"model {self.name}: {name} fails on a stack of two states ({exc!r})") from exc
            if got != (2,) + shape:
                raise PreconditionFailure(
                    f"model {self.name}: {name} returns shape {got} for a stack of two "
                    f"states, expected {(2,) + shape}; wrap pointwise maps in pointwise_model")


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

def fd_derivative(fn: Callable[[State], np.ndarray], s: State, wrt: str = "F") -> np.ndarray:
    """Central finite difference of a map of states along every component of s.F or s.p.

    ``fn`` takes a stack of states; the +/- perturbation of every component
    of every state of the stack ``s`` goes through one call.  Each state x
    (= s.F or s.p) gets its own step FD_SCALE * max(1, |x|).  Returns
    result[..., *out, *x] = d fn(s)[..., *out] / d x[..., *x].
    """
    x = getattr(s, wrt)
    lead = s.p.shape[:-1]
    comp = x.shape[len(lead):]
    n = int(np.prod(comp))
    flat = x.reshape(lead + (n,))
    # |x| as a row times a column: the same bits for one state and for a stack
    h = FD_SCALE * np.maximum(1.0, np.sqrt((flat[..., None, :] @ flat[..., :, None])[..., 0, 0]))
    dx = h[..., None] * np.eye(n).reshape((n,) + (1,) * len(lead) + (n,))
    X = np.stack([flat + dx, flat - dx]).reshape((2, n) + x.shape)  # [sign, component, ...]
    if wrt == "F":
        R = fn(State(X, np.broadcast_to(s.p, X.shape[:-1])))
    else:
        R = fn(State(np.broadcast_to(s.F, X.shape + (3,)), X))
    R = np.asarray(R, dtype=float)
    out = R.shape[2 + len(lead):]
    D = (R[0] - R[1]) / (2.0 * h.reshape(lead + (1,) * len(out)))
    return check_finite(np.moveaxis(D, 0, -1).reshape(lead + out + comp),
                        f"finite-difference derivative along {wrt}")


def _at_rest(F) -> State:
    """States with deformation F[..., 3, 3] and zero momentum."""
    F = np.asarray(F, dtype=float)
    return State(F, np.zeros(F.shape[:-1]))


def fd_stress(se: StoredEnergy, F) -> np.ndarray:
    """Central finite difference of sigma: S[..., i, j] = d sigma / d F[..., i, j]."""
    return fd_derivative(lambda s: se.sigma(s.F), _at_rest(F))


def fd_elasticity_tensor(se: StoredEnergy, F) -> np.ndarray:
    """Second derivative of sigma by differencing the stress map.

    Uses the analytic stress when available, otherwise the finite-difference
    stress; the result has major symmetry S4[i,j,h,k] = S4[h,k,i,j] up to the
    finite-difference noise floor.
    """
    stress = _stress_from(se)
    return fd_derivative(lambda s: stress(s.F), _at_rest(F))


def elasticity_map(model_or_se) -> Callable[[np.ndarray], np.ndarray]:
    """F -> dS/dF for a model or stored energy, analytic when possible.

    Without an analytic map, S4 is differenced from the stress at zero momentum.
    """
    if isinstance(model_or_se, ConstitutiveModel):
        model = model_or_se
        if model.analytic_S4 is not None:
            return model.analytic_S4
        return lambda F: fd_derivative(model.stress, _at_rest(F))
    se = model_or_se
    if se.analytic_elasticity is not None:
        return se.analytic_elasticity
    return lambda F: fd_elasticity_tensor(se, F)


def fd_velocity_jacobian(model: ConstitutiveModel, F, p) -> np.ndarray:
    """N[..., i, h] = d velocity_i / d p_h at one state or stacks F[..., 3, 3], p[..., 3]."""
    return fd_derivative(model.velocity, State(F, p), "p")


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------

def _pp(p) -> np.ndarray:
    """p . p per state, as a row times a column: for one state, the bits of a plain dot product."""
    return (p[..., None, :] @ p[..., :, None])[..., 0, 0]


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
        energy=lambda s: _pp(s.p) / (2.0 * rho) + se.sigma(s.F),
        velocity=lambda s: s.p / rho,
        stress=lambda s: stress(s.F),
        analytic_S4=elasticity_map(se),
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
        analytic_S4=elasticity_map(se),
    )


def pointwise_model(name: str, energy, velocity, stress, analytic_S4=None) -> ConstitutiveModel:
    """A model from callables that take one state (F[3, 3], p[3]) at a time.

    Each callable is looped over the states of a stack: the package's only
    per-state Python loop.  Without ``analytic_S4``, :func:`elasticity_map`
    differences the looped stress.
    """
    def each(fn, shape, of_states=True):
        def call(x):
            lead = x.p.shape[:-1] if of_states else np.shape(x)[:-2]
            # views of the states, filled in result by result: a broadcast stack is
            # not copied and no list of small arrays is held
            items = ((State(x.F[i], x.p[i]) for i in np.ndindex(lead)) if of_states
                     else np.reshape(x, (-1, 3, 3)))
            return np.fromiter(map(fn, items), np.dtype((float, shape))).reshape(lead + shape)
        return call

    return ConstitutiveModel(
        name=name, energy=each(energy, ()), velocity=each(velocity, (3,)),
        stress=each(stress, (3, 3)),
        analytic_S4=None if analytic_S4 is None else each(analytic_S4, (3, 3, 3, 3), False))


def momentum_from_velocity(model: ConstitutiveModel, F, v, p0=None,
                           max_iter: int | None = None) -> np.ndarray:
    """Invert the velocity map at fixed F by damped Newton iteration.

    Solves velocity(F, p) = v for p at every state of stacks F[..., 3, 3],
    v[..., 3]; one state is a stack without leading axes.  The Jacobian is
    the finite-difference N matrix; each state's step is halved while it
    increases that state's residual.  The default seed p0 = v is exact for
    unit mass density and harmless otherwise.

    Raises
    ------
    NewtonDivergence
        If the velocity residual is not reduced below tolerance within the
        iteration budget; the message names the first such state.
    """
    F = np.asarray(F, dtype=float)
    v = np.asarray(v, dtype=float)
    tol = DEFAULT.newton_tol
    max_iter = DEFAULT.newton_max_iter if max_iter is None else max_iter

    def residual(q):
        r = model.velocity(State(F, q)) - v
        return r, np.linalg.norm(r, axis=-1)

    p = v.copy() if p0 is None else np.array(p0, dtype=float)
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
            energy=lambda s: 0.25 * _pp(s.p) ** 2 + se.sigma(s.F),
            velocity=lambda s: _pp(s.p)[..., None] * s.p,
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
            stress=lambda s: stress(s.F) + s.p[..., 0, None, None] * spike,
            analytic_S4=None,
        )
    if kind == "galilean":
        # state-dependent effective density rho(F) = 1 + |F - 1|^2; energy,
        # velocity and stress stay mutually consistent so only the invariance
        # defect varies across states
        def rho_of(F):
            # once per distinct F: the broadcast (zero-stride) axes of a stack keep length 1
            F = F[tuple(slice(0, 1) if k == 0 else slice(None) for k in F.strides[:-2])]
            D = F - EYE3
            return 1.0 + (D * D).sum((-2, -1))

        return ConstitutiveModel(
            name="control_galilean",
            energy=lambda s: 0.5 * _pp(s.p) / rho_of(s.F) + se.sigma(s.F),
            velocity=lambda s: s.p / rho_of(s.F)[..., None],
            stress=lambda s: stress(s.F) - _pp(s.p)[..., None, None]
            * (s.F - EYE3) / (rho_of(s.F) ** 2)[..., None, None],
            analytic_S4=None,
        )
    if kind == "parity":
        base = classical_model(rho, se)
        e1 = np.array([1.0, 0.0, 0.0])
        return ConstitutiveModel(
            name="control_parity",
            energy=lambda s: base.energy(s) + s.p[..., 0],  # p . e1
            velocity=lambda s: s.p / rho + e1,
            stress=base.stress,
            analytic_S4=se.analytic_elasticity,
        )
    raise KeyError(f"unknown corruption kind {kind!r}; expected one of {CORRUPTION_KINDS}")
