"""Acoustic tensor and wave-structure analysis of the conservation system.

For a direction w and the elasticity tensor S4 = dS/dF, the acoustic tensor

    E(w) u = (S4[u (x) w]) w,   i.e.  E[i, h] = sum_{j,k} S4[i, j, h, k] w_j w_k

governs plane-wave propagation: positive definiteness of E(w) for every unit
w is strong ellipticity of the stress map, equivalently strict rank-one
convexity of the stored energy.  With scalar mass density rho, the 12x12
directional flux Jacobian of the system in (F, p) acts on pairs (Z, z) as

    (Z, z)  ->  (-(1/rho) z (x) w,  -(S4[Z]) w)

so its nonzero eigenvalues lam satisfy E(w) z = mu z with mu = rho lam^2,
zero is an eigenvalue of geometric multiplicity six whenever E(w) is
positive definite, and the zero-eigenvectors all have vanishing z-block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotUnit
from .tensors import EYE3, eig_general, eig_sym
from .tolerances import DEFAULT

DIRECTION_BLOCK = 16  # directions per stacked solve: keeps the scan's working set near 0.2 MB


def _require_unit(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    err = np.abs(np.linalg.norm(w, axis=-1) - 1.0)
    if np.any(err > 1e-12):
        raise NotUnit(f"|w| deviates from 1 by {err.max():.3e}")
    return w


def acoustic_spectrum(S4, w, vroot=None, vectors: bool = False):
    """E(w) of every S4[..., 3, 3, 3, 3] along every direction w[..., 3], and its spectrum.

    Returns E, shaped S4.shape[:-4] + w.shape[:-1] + (3, 3), and the
    descending :func:`eig_sym` spectrum (with eigenvectors if ``vectors``).
    Given the root ``vroot`` of a velocity coefficient V, E is replaced by
    V^(1/2) E V^(1/2), whose eigenvalues are the squared speeds eig(V E).
    """
    w = np.asarray(w, dtype=float)
    lead, w2 = np.shape(S4)[:-4], w.reshape(-1, 3)
    # K[j, h, k, d, b] = w_dj delta_hb w_dk: one matrix product with the rows
    # S4[..., a, (j, h, k)] gives every E(w_d)[a, b], exactly for basis w_d
    K = np.einsum("dj,hb,dk->jhkdb", w2, EYE3, w2).reshape(27, -1)
    E = (np.asarray(S4, dtype=float).reshape(-1, 27) @ K).reshape(lead + (3, len(w2), 3))
    E = E.swapaxes(-3, -2).reshape(lead + w.shape[:-1] + (3, 3))
    if vroot is not None:
        E = vroot @ E @ vroot
    return E, eig_sym(E, vectors=vectors)


@dataclass
class AcousticTensor:
    """Acoustic tensor for one propagation direction, with eigensystem."""

    w: np.ndarray
    E: np.ndarray
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # columns, matching eigenvalues


def acoustic_tensor(S4, w) -> AcousticTensor:
    """Assemble and diagonalize E(w) from the elasticity tensor."""
    w = _require_unit(np.reshape(w, 3))
    E, (evals, evecs) = acoustic_spectrum(S4, w, vectors=True)
    return AcousticTensor(w=w, E=E, eigenvalues=evals, eigenvectors=evecs)


def flux_jacobian(S4, rho: float, w) -> np.ndarray:
    """Dense 12x12 directional Jacobian of the fluxes, scalar mass density.

    Row/column layout: entries 3a..3a+2 hold the a-th column of the tensor
    block Z (a = 0, 1, 2) and entries 9..11 hold the vector block z.  A stack
    of directions w[..., 3] gives a stack of Jacobians M[..., 12, 12].
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    w = _require_unit(w)
    M = np.zeros(w.shape[:-1] + (12, 12))
    # M[3a + i, 9 + h] = -(w_a / rho) delta_ih
    M[..., 0:9, 9:12] = np.reshape(-(w[..., :, None, None] / rho) * EYE3, M.shape[:-2] + (9, 3))
    # K[..., i, h, a] = -sum_j S4[i, j, h, a] w_j, mapping Z[h, a] to the z-rate
    K = -np.einsum("ijha,...j->...iha", np.asarray(S4, dtype=float), w)
    M[..., 9:12, 0:9] = K.swapaxes(-1, -2).reshape(M.shape[:-2] + (3, 9))
    return M


@dataclass
class EigenStructure:
    """Classified spectrum of a 12x12 flux Jacobian; array fields for a stack."""

    zero_multiplicity: int          # 12 - rank, by singular-value threshold
    eigenvalues: np.ndarray         # all 12, complex
    nonzero_pairs: list | None      # (eigenvalue, eigenvector) above the zero band, one matrix
    independent_count: int          # rank of the stacked nonzero eigenvectors
    independence_sv: float          # smallest singular value of that stack
    spectral_scale: float           # largest singular value of the matrix


def eigenstructure(M) -> EigenStructure:
    """Zero multiplicity (geometric, via rank) and nonzero eigenpairs of M[..., n, n].

    The eigenvectors of zero-band eigenvalues are masked to zero columns, so
    one SVD of the unit eigenvector matrix counts the independent nonzero
    modes; with k of them its k-th singular value is ``independence_sv``.
    """
    M = np.asarray(M, dtype=float)
    svals = np.linalg.svd(M, compute_uv=False)
    smax = svals[..., 0]
    threshold = DEFAULT.zero_band * smax[..., None]
    evals, evecs = eig_general(M)
    nonzero = np.abs(evals) > threshold
    unit = evecs / np.linalg.norm(evecs, axis=-2, keepdims=True)
    unit *= nonzero[..., None, :]
    sv = np.linalg.svd(unit, compute_uv=False)
    kth = np.maximum(nonzero.sum(axis=-1) - 1, 0)[..., None]
    return EigenStructure(
        zero_multiplicity=M.shape[-1] - np.sum(svals > threshold, axis=-1),
        eigenvalues=evals,
        nonzero_pairs=([(evals[i], evecs[:, i]) for i in np.flatnonzero(nonzero)]
                       if M.ndim == 2 else None),
        independent_count=np.sum(sv > DEFAULT.indep_sv_tol, axis=-1),
        independence_sv=np.take_along_axis(sv, kth, axis=-1)[..., 0],
        spectral_scale=smax,
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
    out = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                v = np.array([dx, dy, dz], dtype=float)
                out.append(v / np.linalg.norm(v))
    return np.array(out)


# ---------------------------------------------------------------------------
# Direction scan
# ---------------------------------------------------------------------------

@dataclass
class DirectionRecord:
    w: np.ndarray
    acoustic_eigenvalues: np.ndarray  # descending
    min_eigenvalue: float
    wave_speeds: np.ndarray           # sqrt(mu / rho), NaN where mu < 0
    zero_multiplicity: int
    independent_count: int


@dataclass
class HyperbolicityReport:
    records: list
    rho: float
    strongly_elliptic: bool
    min_eigenvalue: float
    worst_direction: np.ndarray

    def rows(self):
        """CSV rows: direction, acoustic eigenvalues, speeds, multiplicities."""
        for r in self.records:
            yield (*r.w, *r.acoustic_eigenvalues, *r.wave_speeds,
                   r.zero_multiplicity, r.independent_count)


def scan_directions(S4_at, F, rho: float, n_dirs: int = 256) -> HyperbolicityReport:
    """Scan acoustic eigenvalues and Jacobian eigenstructure over directions.

    ``S4_at`` maps a deformation gradient to the elasticity tensor; the scan
    evaluates it once at F, along ``n_dirs`` Fibonacci directions and the 26
    cube directions.  The verdict ``strongly_elliptic`` certifies
    positivity of every sampled acoustic tensor, i.e. strict rank-one
    convexity of the stored energy at F, at scan resolution.
    """
    S4 = np.asarray(S4_at(np.asarray(F, dtype=float)), dtype=float)
    dirs = np.vstack([fibonacci_sphere(n_dirs), baseline_directions()])

    evals = np.empty((len(dirs), 3))
    zero_mult, indep = np.empty((2, len(dirs)), dtype=int)
    for start in range(0, len(dirs), DIRECTION_BLOCK):
        block = slice(start, start + DIRECTION_BLOCK)
        evals[block] = acoustic_spectrum(S4, dirs[block])[1]
        es = eigenstructure(flux_jacobian(S4, rho, dirs[block]))
        zero_mult[block], indep[block] = es.zero_multiplicity, es.independent_count
    speeds = np.where(evals >= 0.0, np.sqrt(np.clip(evals, 0.0, None) / rho), np.nan)
    worst = int(np.argmin(evals[:, -1]))
    records = [DirectionRecord(w=w, acoustic_eigenvalues=e, min_eigenvalue=float(e[-1]),
                               wave_speeds=c, zero_multiplicity=int(z),
                               independent_count=int(k))
               for w, e, c, z, k in zip(dirs, evals, speeds, zero_mult, indep)]
    return HyperbolicityReport(
        records=records,
        rho=rho,
        strongly_elliptic=bool(evals[worst, -1] > DEFAULT.se_tol),
        min_eigenvalue=float(evals[worst, -1]),
        worst_direction=dirs[worst],
    )


def min_acoustic_eigenvalue(S4, dirs) -> float:
    """Smallest acoustic eigenvalue over a direction set."""
    return float(acoustic_spectrum(S4, _require_unit(dirs))[1].min())


def ellipticity_loss_bisection(S4_at, s_lo: float, s_hi: float, n_dirs: int = 64) -> float:
    """Locate the uniform-stretch level where strong ellipticity is lost.

    Scans F = s * identity; requires the minimum acoustic eigenvalue to have
    opposite signs at the bracket ends, then bisects the sign change 50 times.
    """
    dirs = np.vstack([fibonacci_sphere(n_dirs), baseline_directions()])

    def g(s):
        return min_acoustic_eigenvalue(S4_at(s * np.eye(3)), dirs)

    g_lo, g_hi = g(s_lo), g(s_hi)
    if g_lo * g_hi > 0:
        raise ValueError(
            f"no sign change on [{s_lo}, {s_hi}]: g = ({g_lo:.3e}, {g_hi:.3e})")
    for _ in range(50):
        mid = 0.5 * (s_lo + s_hi)
        if g_lo * g(mid) <= 0:
            s_hi = mid
        else:
            s_lo = mid
            g_lo = g(s_lo)
    return 0.5 * (s_lo + s_hi)
