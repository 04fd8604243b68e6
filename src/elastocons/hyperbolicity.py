"""Acoustic tensor and wave-structure analysis of the conservation system.

For a direction w and the elasticity tensor S4 = dS/dF, the acoustic tensor

    E(w) u = (S4[u (x) w]) w,   i.e.  E[i, h] = sum_{j,k} S4[i, j, h, k] w_j w_k

governs plane-wave propagation: positive definiteness of E(w) for every unit
w is strong ellipticity of the stress map, equivalently strict rank-one
convexity of the stored energy.  With the velocity coefficient V = dv/dp
(symmetric positive definite; identity / rho for a scalar density rho), the
12x12 directional flux Jacobian of the system in (F, p) has the block form

    M = [[0, B], [C, 0]],   B z = -(V z) (x) w,   C Z = -(S4[Z]) w,   CB = E(w) V.

The singular values of B are those of V, so rank B = 3 and the zero
multiplicity is 12 - rank M = 9 - rank C: six, with vanishing z-block, when
E(w) is positive definite.  Each nonzero eigenvalue mu of V^(1/2) E(w) V^(1/2)
gives the pair lam = +-sqrt(mu) with two independent eigenvectors, CB being
similar to a symmetric matrix.  The direction scan classifies from these facts;
the dense 12x12 path is the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import elasticity_map
from .errors import NonHyperbolicState, NotUnit
from .tensors import EYE3, eig_general, eig_sym, sym_part
from .tolerances import DEFAULT


def _require_unit(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    err = np.abs(np.linalg.norm(w, axis=-1) - 1.0)
    if np.any(err > 1e-12):
        raise NotUnit(f"|w| deviates from 1 by {err.max():.3e}")
    return w


def _velocity_tensor(V) -> np.ndarray:
    """V as a 3x3 tensor; a scalar rho > 0 stands for V = identity / rho."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 0 and not V > 0:
        raise ValueError("rho must be positive")
    return EYE3 / V if V.ndim == 0 else V.reshape(3, 3)


def velocity_coefficient_root(V) -> np.ndarray:
    """Symmetric root V^(1/2) of V's symmetric part; NonHyperbolicState unless positive definite."""
    evals, evecs = np.linalg.eigh(sym_part(_velocity_tensor(V)))
    if float(evals.min()) <= 0.0:
        raise NonHyperbolicState(
            f"velocity coefficient not positive definite (eigenvalues {evals})")
    return (evecs * np.sqrt(evals)) @ evecs.T


def acoustic_tensor(S4, w) -> np.ndarray:
    """E(w) of every S4[..., 3, 3, 3, 3] along every unit direction w[..., 3].

    Returns E shaped S4.shape[:-4] + w.shape[:-1] + (3, 3); NotUnit unless |w| = 1.
    """
    w = _require_unit(w)
    w2 = w.reshape(-1, 3)
    # K[j, h, k, d, b] = w_dj delta_hb w_dk: one matrix product with the rows
    # S4[..., a, (j, h, k)] gives every E(w_d)[a, b], exactly for basis w_d
    K = np.einsum("dj,hb,dk->jhkdb", w2, EYE3, w2).reshape(27, -1)
    lead = np.shape(S4)[:-4]
    E = (np.asarray(S4, dtype=float).reshape(-1, 27) @ K).reshape(lead + (3, len(w2), 3))
    return E.swapaxes(-3, -2).reshape(lead + w.shape[:-1] + (3, 3))


def acoustic_map(model, w):
    """F -> E(w_d)[..., d, 3, 3] for directions w[d, 3]: analytic_acoustic, or S4 w w."""
    if model.analytic_acoustic is not None:
        return lambda F: model.analytic_acoustic(F, w)
    S4_of = elasticity_map(model)
    return lambda F: acoustic_tensor(S4_of(F), w)


def _c_block(S4, w) -> np.ndarray:
    """Flux Jacobian block C[..., i, 3a + h] = -sum_j S4[i, j, h, a] w_j, for w[..., 3]."""
    C = -np.einsum("ijha,...j->...iah", np.asarray(S4, dtype=float), w)
    return C.reshape(w.shape[:-1] + (3, 9))


def flux_jacobian(S4, V, w) -> np.ndarray:
    """Dense 12x12 directional Jacobian of the fluxes for velocity coefficient V (or rho).

    Row/column layout: entries 3a..3a+2 hold the a-th column of the tensor
    block Z (a = 0, 1, 2) and entries 9..11 hold the vector block z.  A stack
    of directions w[..., 3] gives a stack of Jacobians M[..., 12, 12].
    """
    V = _velocity_tensor(V)
    w = _require_unit(w)
    M = np.zeros(w.shape[:-1] + (12, 12))
    # M[3a + i, 9 + h] = -w_a V_ih
    M[..., 0:9, 9:12] = np.reshape(-w[..., :, None, None] * V, M.shape[:-2] + (9, 3))
    M[..., 9:12, 0:9] = _c_block(S4, w)
    return M


@dataclass
class EigenStructure:
    """Classified spectrum of a 12x12 flux Jacobian; array fields for a stack."""

    zero_multiplicity: int          # 12 - rank, by singular-value threshold
    eigenvalues: np.ndarray         # all 12, complex
    nonzero: np.ndarray             # mask of the eigenvalues that are modes, not zero
    independent_count: int          # rank of the stacked nonzero eigenvectors
    independence_sv: float          # smallest singular value of that stack


def eigenstructure(M) -> EigenStructure:
    """Zero multiplicity (geometric, via rank) and the nonzero eigenvalues of M[..., n, n].

    The dense reference for the block classification of :func:`scan_directions`.
    An eigenvalue is nonzero (the mask ``nonzero``) when above the zero band and among the
    n - a largest in modulus, a the algebraic multiplicity of 0, so no rounding split of a
    defective zero is a mode.  One SVD of their eigenvectors (other columns zero) counts the
    independent nonzero modes; with k nonzero eigenvalues its k-th singular value is
    ``independence_sv``.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    svals = np.linalg.svd(M, compute_uv=False)
    threshold = DEFAULT.zero_band * svals[..., :1]
    evals = eig_general(M)[0]
    # algebraic multiplicity of 0 by staircase reduction (Golub & Wilkinson, SIAM Review 18
    # (1976) 578-619): deflate the numerical kernel until none is left.  Singular values,
    # unlike the eigenvalues of a Jordan block of size m (eps^(1/m) apart), do not split.
    P, zeros = np.eye(n), np.zeros(M.shape[:-2], dtype=int)
    for _ in range(n):
        _, s, vh = np.linalg.svd(P @ M @ P)
        small = s <= threshold  # the deflated directions included
        if np.array_equal(small.sum(-1), zeros):
            break
        zeros, K = small.sum(-1), vh.swapaxes(-1, -2) * small[..., None, :]
        P = np.eye(n) - K @ K.swapaxes(-1, -2)
    by_modulus = np.argsort(np.argsort(-np.abs(evals), axis=-1), axis=-1)
    nonzero = (np.abs(evals) > threshold) & (by_modulus < n - zeros[..., None])
    # the j-th copy of a nonzero eigenvalue (copies: within the zero band of the first, lam)
    # takes the j-th smallest right singular vector of M - lam I while that singular value is
    # in the zero band, else the smallest: a repeated eigenvalue gets orthonormal eigenvectors
    # where LAPACK's may be nearly parallel, and a split Jordan block repeats its eigenvector
    near = (np.abs(evals[..., :, None] - evals[..., None, :]) <= threshold[..., None]) \
        & nonzero[..., None, :]
    first = np.take_along_axis(evals, np.argmax(near, axis=-1), -1)
    # only a nonzero eigenvalue's M - lam I is factored; the other rows stay zero
    s, vh = np.zeros(nonzero.shape + (n,)), np.zeros(nonzero.shape + (n, n), first.dtype)
    _, s[nonzero], vh[nonzero] = np.linalg.svd(
        M[np.nonzero(nonzero)[:-1]] - first[nonzero][:, None, None] * np.eye(n))
    pick = n - 1 - np.sum(np.tril(near, -1), axis=-1)[..., None]  # [..., eigenvalue, 1]
    pick = np.where(np.take_along_axis(s, pick, -1) <= threshold[..., None], pick, n - 1)
    evecs = np.take_along_axis(vh, pick[..., None], -2)[..., 0, :].conj().swapaxes(-1, -2)
    sv = np.linalg.svd(evecs * nonzero[..., None, :], compute_uv=False)
    kth = np.maximum(nonzero.sum(axis=-1) - 1, 0)[..., None]
    return EigenStructure(
        zero_multiplicity=n - np.sum(svals > threshold, axis=-1),
        eigenvalues=evals,
        nonzero=nonzero,
        independent_count=np.sum(sv > DEFAULT.indep_sv_tol, axis=-1),
        independence_sv=np.take_along_axis(sv, kth, axis=-1)[..., 0],
    )


# ---------------------------------------------------------------------------
# Direction sets
# ---------------------------------------------------------------------------

def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions, shape (n, 3)."""
    if n < 1:
        raise ValueError("n_dirs must be >= 1")
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    dirs = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def baseline_directions() -> np.ndarray:
    """The 26 axis, face-diagonal and corner directions of the unit cube."""
    v = np.indices((3, 3, 3)).reshape(3, -1).T - 1.0
    v = v[np.any(v != 0.0, axis=1)]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Direction scan
# ---------------------------------------------------------------------------

@dataclass
class HyperbolicityReport:
    """The scan, one row per direction: arrays over the n scanned directions."""

    directions: np.ndarray            # [n, 3]
    eigenvalues: np.ndarray           # [n, 3] acoustic eigenvalues, descending
    speeds: np.ndarray                # [n, 3] sqrt(eig V^(1/2) E V^(1/2)), NaN where negative
    zero_multiplicity: np.ndarray     # [n]
    independent_count: np.ndarray     # [n]
    V: np.ndarray                     # velocity coefficient dv/dp
    strongly_elliptic: bool
    min_eigenvalue: float
    worst_direction: np.ndarray

    def rows(self):
        """CSV rows of Python numbers: direction, acoustic eigenvalues, speeds, multiplicities."""
        floats = np.hstack([self.directions, self.eigenvalues, self.speeds]).tolist()
        return [(*f, z, k) for f, z, k in zip(floats, self.zero_multiplicity.tolist(),
                                              self.independent_count.tolist())]


def scan_directions(S4_at, F, V, n_dirs: int = 256) -> HyperbolicityReport:
    """Scan acoustic eigenvalues and Jacobian eigenstructure over directions.

    ``S4_at`` maps a deformation gradient to the elasticity tensor; the scan
    evaluates it once at F, along ``n_dirs`` Fibonacci directions and the 26
    cube directions, with the velocity coefficient V (or a scalar rho).  The
    verdict ``strongly_elliptic`` certifies positivity of every sampled
    acoustic tensor, i.e. strict rank-one convexity of the stored energy at
    F, at scan resolution.  The mode counts come from the block form of M.
    """
    V = _velocity_tensor(V)
    vroot = velocity_coefficient_root(V)
    S4 = np.asarray(S4_at(np.asarray(F, dtype=float)), dtype=float)
    dirs = np.vstack([fibonacci_sphere(n_dirs), baseline_directions()])

    E = acoustic_tensor(S4, dirs)
    evals = eig_sym(E, vectors=False)
    mu = eig_sym(vroot @ E @ vroot, vectors=False)
    sv_V = np.linalg.svd(V, compute_uv=False)
    sv_C = np.linalg.svd(_c_block(S4, dirs), compute_uv=False)
    # the singular values of M are those of V and of C; the largest sets the zero band
    band = DEFAULT.zero_band * np.maximum(sv_V[0], sv_C[:, 0])[:, None]
    zero_mult = 12 - np.sum(sv_V > band, axis=-1) - np.sum(sv_C > band, axis=-1)
    indep = 2 * np.sum(np.sqrt(np.abs(mu)) > band, axis=-1)
    speeds = np.where(mu >= 0.0, np.sqrt(np.clip(mu, 0.0, None)), np.nan)
    worst = int(np.argmin(evals[:, -1]))
    return HyperbolicityReport(
        directions=dirs,
        eigenvalues=evals,
        speeds=speeds,
        zero_multiplicity=zero_mult,
        independent_count=indep,
        V=V,
        strongly_elliptic=bool(evals[worst, -1] > DEFAULT.se_tol),
        min_eigenvalue=float(evals[worst, -1]),
        worst_direction=dirs[worst],
    )


def ellipticity_loss_bisection(S4_at, s_lo: float, s_hi: float, n_dirs: int = 64) -> float:
    """Locate the uniform-stretch level where strong ellipticity is lost.

    Scans F = s * identity; requires the minimum acoustic eigenvalue to have
    opposite signs at the bracket ends, then bisects the sign change 50 times.
    """
    dirs = np.vstack([fibonacci_sphere(n_dirs), baseline_directions()])

    def g(s):
        E = acoustic_tensor(S4_at(s * np.eye(3)), dirs)
        return float(eig_sym(E, vectors=False).min())

    g_lo, g_hi = g(s_lo), g(s_hi)
    if g_lo * g_hi > 0:
        raise ValueError(
            f"no sign change on [{s_lo}, {s_hi}]: g = ({g_lo:.3e}, {g_hi:.3e})")
    for _ in range(50):
        mid = 0.5 * (s_lo + s_hi)
        g_mid = g(mid)
        if g_lo * g_mid <= 0:
            s_hi = mid
        else:
            s_lo, g_lo = mid, g_mid
    return 0.5 * (s_lo + s_hi)
