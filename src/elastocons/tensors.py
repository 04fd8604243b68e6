"""Dense tensor algebra in three dimensions.

Vectors are numpy arrays of shape (3,) and second-order tensors (3, 3)
(stacks of them for ``sym_part``, ``asymmetry``, ``det_cofactor`` and
``eig_sym``).  Everything here is a pure function of its inputs; nothing is
mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, NotSymmetric
from .tolerances import DEFAULT

EYE3 = np.eye(3)
_ROW, _COL = np.indices((3, 3))
# cofactor (i, j) takes rows r, s = i+1, i+2 and columns c, d = j+1, j+2, mod 3
_R, _S, _C, _D = (_ROW + 1) % 3, (_ROW + 2) % 3, (_COL + 1) % 3, (_COL + 2) % 3


def outer(a, b) -> np.ndarray:
    """Dyad of two vectors: result[i, j] = a[i] * b[j]."""
    return np.multiply.outer(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


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


def det_cofactor(F):
    """Determinant J and cofactor matrix J F^-T of F[..., 3, 3], in closed form.

    The nine 2x2 cofactors F[r, c] F[s, d] - F[r, d] F[s, c] come from one
    gather over the cyclic indices _R, _S, _C, _D (the cyclic order gives each
    its sign), and J is expanded along row 0, so a matrix gives the same bits
    alone as in any stack.  Nothing is divided, so a singular F is accepted.
    """
    F = np.asarray(F, dtype=float)
    cof = F[..., _R, _C] * F[..., _S, _D] - F[..., _R, _D] * F[..., _S, _C]
    return (F[..., 0, 0] * cof[..., 0, 0] + F[..., 0, 1] * cof[..., 0, 1]
            + F[..., 0, 2] * cof[..., 0, 2]), cof


def eig_sym(M, vectors: bool = True):
    """Eigenvalues evals[..., i], descending, of a symmetric M[..., n, n], and unit
    eigenvectors evecs[..., :, i] as (evals, evecs); with ``vectors=False`` evals alone.

    Raises NonFinite if M has a non-finite entry and NotSymmetric if its relative
    asymmetry exceeds ``DEFAULT.sym_tol``.
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
