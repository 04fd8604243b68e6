import warnings

import numpy as np
import pytest

from elastocons import det_cofactor, eig_general, eig_sym, neo_hookean, outer
from elastocons.errors import DomainError, NonFinite, NotSymmetric

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def test_outer_basis_dyad():
    D = outer(E1, E2)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert np.array_equal(D, expected)


def test_outer_annihilates_zero():
    assert np.array_equal(outer(np.array([1.0, 2.0, 3.0]), np.zeros(3)), np.zeros((3, 3)))


def test_outer_componentwise_oracle():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    D = outer(a, b)
    for i in range(3):
        for j in range(3):
            assert D[i, j] == a[i] * b[j]


def test_bilinearity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b1, b2 = rng.normal(size=(3, 3))
        al, be = rng.normal(size=2)
        assert np.allclose(outer(a, al * b1 + be * b2),
                           al * outer(a, b1) + be * outer(a, b2), atol=1e-13)


def test_eig_sym_identity():
    evals, evecs = eig_sym(np.eye(3))
    assert np.allclose(evals, [1.0, 1.0, 1.0])
    assert np.allclose(evecs.T @ evecs, np.eye(3), atol=1e-12)


def test_eig_sym_diagonal():
    evals, _ = eig_sym(np.diag([4.0, 1.0, 1.0]))
    assert np.allclose(evals, [4.0, 1.0, 1.0])


def test_eig_sym_reconstruction_1000():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        A = rng.uniform(-1.0, 1.0, size=(3, 3))
        M = 0.5 * (A + A.T)
        evals, evecs = eig_sym(M)
        recon = sum(evals[i] * outer(evecs[:, i], evecs[:, i]) for i in range(3))
        assert np.abs(recon - M).max() <= 1e-10
        assert np.abs(evecs.T @ evecs - np.eye(3)).max() <= 1e-9
        assert evals[0] >= evals[1] >= evals[2]


def test_eig_sym_rejects_asymmetric():
    M = np.eye(3)
    M[0, 1] = 1e-3
    with pytest.raises(NotSymmetric):
        eig_sym(M)


def test_eig_general_zero_and_diagonal():
    evals, _ = eig_general(np.zeros((5, 5)))
    assert np.allclose(evals, 0.0)
    d = np.array([3.0, -1.0, 0.5, 7.0])
    evals, _ = eig_general(np.diag(d))
    assert np.allclose(sorted(evals.real), sorted(d))
    assert np.allclose(evals.imag, 0.0)


def test_eig_general_symmetric_gives_real():
    rng = np.random.default_rng(4)
    for _ in range(50):
        A = rng.normal(size=(6, 6))
        M = A + A.T
        evals, _ = eig_general(M)
        assert np.abs(evals.imag).max() <= 1e-10 * np.linalg.norm(M)


def test_eig_general_residual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = rng.normal(size=(12, 12))
        evals, evecs = eig_general(M)
        scale = np.linalg.norm(M)
        for i in range(12):
            res = np.linalg.norm(M @ evecs[:, i] - evals[i] * evecs[:, i])
            assert res <= 1e-9 * scale


def test_eig_general_rejects_large_and_nonsquare():
    with pytest.raises(ValueError):
        eig_general(np.zeros((17, 17)))
    with pytest.raises(ValueError):
        eig_general(np.zeros((3, 4)))


def test_eigensolvers_on_stacks_match_single_matrices_and_keep_their_checks():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(4, 2, 3, 3))
    S = A + A.swapaxes(-1, -2)
    evals, evecs = eig_sym(S)
    assert np.abs(eig_sym(S, vectors=False) - evals).max() <= 1e-14 * np.abs(evals).max()
    G = rng.normal(size=(4, 2, 12, 12))
    gvals, gvecs = eig_general(G)
    for idx in np.ndindex(4, 2):
        single, single_vecs = eig_sym(S[idx])
        assert np.allclose(evals[idx], single, rtol=0.0, atol=1e-13)
        assert np.allclose(np.abs(evecs[idx]), np.abs(single_vecs), rtol=0.0, atol=1e-12)
        assert np.allclose(gvals[idx], eig_general(G[idx])[0], rtol=0.0, atol=1e-12)
    S[3, 1, 0, 2] += 1e-3  # one asymmetric matrix spoils the stack
    with pytest.raises(NotSymmetric):
        eig_sym(S)
    S[3, 1, 0, 2] = np.nan
    with pytest.raises(NonFinite):
        eig_sym(S, vectors=False)
    with pytest.raises(ValueError):
        eig_general(np.zeros((4, 17, 17)))
    with pytest.raises(ValueError):
        eig_general(np.zeros((4, 3, 4)))


def test_det_cofactor_agrees_with_lapack_to_the_conditioning():
    rng = np.random.default_rng(7)
    F = rng.normal(size=(2000, 3, 3))
    F = F[np.abs(np.linalg.det(F)) > 1e-3]
    J, cof = det_cofactor(F)
    det, inv_t = np.linalg.det(F), np.linalg.inv(F).swapaxes(-1, -2)
    bound = 4.0 * np.linalg.cond(F) * np.finfo(float).eps
    assert (np.abs(J - det) <= bound * np.abs(det)).all()
    err = np.abs(cof / J[:, None, None] - inv_t).max((-2, -1))
    assert (err <= bound * np.abs(inv_t).max((-2, -1))).all()


def test_det_cofactor_of_one_matrix_is_its_row_of_a_stack():
    F = np.random.default_rng(8).normal(size=(5, 2, 3, 3))
    J, cof = det_cofactor(F)
    for idx in np.ndindex(5, 2):
        one_J, one_cof = det_cofactor(F[idx])
        assert np.array_equal(one_J, J[idx]) and np.array_equal(one_cof, cof[idx])


def test_det_cofactor_has_the_bits_of_the_cyclic_cofactor_loop():
    F = np.random.default_rng(10).normal(size=(400, 3, 3))
    ref = np.empty_like(F)
    for i in range(3):
        r, s = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            c, d = (j + 1) % 3, (j + 2) % 3
            ref[:, i, j] = F[:, r, c] * F[:, s, d] - F[:, r, d] * F[:, s, c]
    J, cof = det_cofactor(F)
    assert np.array_equal(cof, ref)
    assert np.array_equal(J, F[:, 0, 0] * ref[:, 0, 0] + F[:, 0, 1] * ref[:, 0, 1]
                          + F[:, 0, 2] * ref[:, 0, 2])


def test_neo_hookean_refuses_a_singular_cell_before_dividing():
    F = np.eye(3) + 0.1 * np.random.default_rng(9).normal(size=(6, 3, 3))
    F[4] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]  # rank 2
    assert det_cofactor(F)[0][4] == 0.0
    se = neo_hookean(2.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (se.sigma, se.analytic_stress, se.analytic_elasticity):
            with pytest.raises(DomainError):
                call(F)
