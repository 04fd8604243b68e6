"""Dense reference for the direction scan's block classification.

``scan_directions`` counts the zero multiplicity and the independent modes of
the 12x12 flux Jacobian from its block form.  The functions here compute the
same counts from the dense matrix, by eigenvalues, singular values and
eigenvectors, so the tests can compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from elastocons.tensors import check_finite
from elastocons.tolerances import DEFAULT


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
    return np.linalg.eig(M)


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

    The dense reference for the block classification of ``scan_directions``.
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
