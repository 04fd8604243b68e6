"""Dense tensor algebra in three dimensions.

Vectors are numpy arrays of shape (3,), second-order tensors (3, 3) (stacks
of them for ``sym_part``, ``asymmetry`` and the eigensolvers), and fourth-order
tensors (3, 3, 3, 3).  Everything here is a pure function of its inputs; nothing
is mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NonFinite, NotSymmetric
from .tolerances import DEFAULT

EYE3 = np.eye(3)


def outer(a, b) -> np.ndarray:
    """Dyad of two vectors: result[i, j] = a[i] * b[j]."""
    return np.multiply.outer(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def apply4(S4, Z) -> np.ndarray:
    """Contract a fourth-order tensor with a second-order one.

    result[i, j] = sum_{h, k} S4[i, j, h, k] * Z[h, k]
    """
    return np.einsum("ijhk,hk->ij", np.asarray(S4, dtype=float), np.asarray(Z, dtype=float))


def check_finite(arr, what="tensor"):
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{what} has non-finite entries")
    return arr


def sym_part(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.swapaxes(-1, -2))


def asymmetry(M) -> float:
    """Relative deviation of M from its own transpose; the worst one of a stack."""
    M = np.asarray(M, dtype=float)
    scale = np.maximum(1.0, np.abs(M).max((-2, -1)))
    return float((np.abs(M - M.swapaxes(-1, -2)).max((-2, -1)) / scale).max())


def eig_sym(M, vectors: bool = True):
    """Eigendecomposition of a symmetric matrix or a stack of them.

    Parameters
    ----------
    M : (..., n, n) array
        Each matrix must be symmetric to within ``DEFAULT.sym_tol`` (relative).
    vectors : bool
        When False only the eigenvalues are computed and returned.

    Returns
    -------
    (evals, evecs)
        ``evals[..., :]`` sorted in descending order; ``evecs[..., :, i]`` is
        the unit eigenvector for ``evals[..., i]``.

    Raises
    ------
    NonFinite
        If M has a non-finite entry.
    NotSymmetric
        If the relative asymmetry of M exceeds the tolerance.
    """
    M = np.asarray(M, dtype=float)
    tol = DEFAULT.sym_tol
    # the relative asymmetry is at most the absolute one: full checks only if this fails
    if not np.abs(M - M.swapaxes(-1, -2)).max() <= tol:
        check_finite(M, "eig_sym input")
        if asymmetry(M) > tol:
            raise NotSymmetric(f"asymmetry {asymmetry(M):.3e} exceeds {tol:.3e}")
    if not vectors:
        return np.linalg.eigvalsh(sym_part(M))[..., ::-1]
    evals, evecs = np.linalg.eigh(sym_part(M))
    return evals[..., ::-1].copy(), evecs[..., ::-1].copy()


def eig_general(M):
    """Eigenvalues and right eigenvectors of small dense real matrices.

    Intended for the 12x12 directional flux Jacobian; accepts any square
    matrix up to 16x16, or a stack M[..., n, n] of them.  Returns complex
    eigenvalues and the matrices of right eigenvectors (one per column).
    """
    M = check_finite(M, "eig_general input")
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[-1] > 16:
        raise ValueError(f"matrix of order {M.shape[-1]} exceeds the supported 16")
    try:
        evals, evecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(str(exc)) from exc
    return evals, evecs
