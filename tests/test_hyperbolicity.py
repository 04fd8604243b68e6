import dataclasses

import numpy as np
import pytest

from elastocons import (acoustic_tensor, baseline_directions, corrupted_model, eig_sym,
                        ellipticity_loss_bisection, elasticity_map,
                        fibonacci_sphere, flux_jacobian, linear_isotropic,
                        neo_hookean, outer, scan_directions,
                        st_venant_kirchhoff)
from elastocons.errors import NonHyperbolicState, NotSymmetric, NotUnit
from elastocons.tolerances import DEFAULT
from reference import eigenstructure

LAM, MU = 2.0, 1.0
E1 = np.array([1.0, 0.0, 0.0])


def _iso_S4(lam=LAM, mu=MU):
    return linear_isotropic(lam, mu).analytic_elasticity(np.eye(3))


def _unit(rng):
    w = rng.normal(size=3)
    return w / np.linalg.norm(w)


def test_acoustic_isotropic_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = _unit(rng)
        E = acoustic_tensor(_iso_S4(), w)
        assert np.abs(E - ((LAM + MU) * outer(w, w) + MU * np.eye(3))).max() <= 1e-12
        assert np.allclose(eig_sym(E, vectors=False), [LAM + 2 * MU, MU, MU], atol=1e-12)


def test_acoustic_zero_tensor():
    assert np.array_equal(acoustic_tensor(np.zeros((3, 3, 3, 3)), E1), np.zeros((3, 3)))


def test_acoustic_direction_invariance_isotropic():
    rng = np.random.default_rng(1)
    ref = eig_sym(acoustic_tensor(_iso_S4(), E1), vectors=False)
    for _ in range(20):
        evals = eig_sym(acoustic_tensor(_iso_S4(), _unit(rng)), vectors=False)
        assert np.abs(evals - ref).max() <= 1e-10


def test_acoustic_requires_unit_direction():
    with pytest.raises(NotUnit):
        acoustic_tensor(_iso_S4(), np.array([1.0, 1.0, 0.0]))


def test_acoustic_symmetric_for_major_symmetric_input():
    rng = np.random.default_rng(2)
    for _ in range(10):
        R = rng.normal(size=(3, 3, 3, 3))
        S4 = 0.5 * (R + R.transpose(2, 3, 0, 1))  # impose major symmetry
        w = _unit(rng)
        E = acoustic_tensor(S4, w)
        assert np.abs(E - E.T).max() <= 1e-12 * max(1.0, np.abs(E).max())
        # without major symmetry E(w) is not symmetric, and eig_sym refuses it
        E_R = acoustic_tensor(R, w)
        assert np.abs(E_R - E_R.T).max() > 1e-3 * np.abs(E_R).max()
        with pytest.raises(NotSymmetric):
            eig_sym(E_R, vectors=False)


def test_flux_jacobian_zero_elasticity():
    M = flux_jacobian(np.zeros((3, 3, 3, 3)), np.eye(3), E1)
    es = eigenstructure(M)
    # only the momentum-to-F blocks survive: rank 3, no propagating modes
    assert es.zero_multiplicity == 12 - np.linalg.matrix_rank(M)
    assert es.zero_multiplicity == 9
    assert not es.nonzero.any()
    assert np.abs(es.eigenvalues).max() <= 1e-7


def test_flux_jacobian_trace_zero():
    rng = np.random.default_rng(3)
    for _ in range(5):
        S4 = rng.normal(size=(3, 3, 3, 3))
        M = flux_jacobian(S4, np.eye(3) / 1.7, _unit(rng))
        assert abs(np.trace(M)) <= 1e-12


def test_flux_jacobian_isotropic_spectrum():
    M = flux_jacobian(_iso_S4(), np.eye(3), E1)
    es = eigenstructure(M)
    assert es.zero_multiplicity == 6
    lams = np.sort(es.eigenvalues[es.nonzero].real)
    assert np.abs(lams - np.array([-2.0, -1.0, -1.0, 1.0, 1.0, 2.0])).max() <= 1e-8
    assert es.independent_count == 6
    assert es.independence_sv > 1e-6


def test_nonzero_eigenvalues_in_plus_minus_pairs():
    rng = np.random.default_rng(4)
    se = st_venant_kirchhoff(LAM, MU)
    F = np.eye(3) + 0.1 * rng.uniform(-1, 1, size=(3, 3))
    dirs = np.array([_unit(rng) for _ in range(5)])
    es = eigenstructure(flux_jacobian(se.analytic_elasticity(F), np.eye(3) / 1.2, dirs))
    # with the zeros in the middle, a sorted +- paired spectrum is antisymmetric
    lams = np.sort(np.where(es.nonzero, es.eigenvalues.real, 0.0), axis=-1)
    scale = np.maximum(1.0, np.abs(lams).max(axis=-1, keepdims=True))
    assert (np.abs(lams + lams[:, ::-1]) <= 1e-8 * scale).all()


def test_mu_equals_rho_lambda_squared():
    # the squared wave speeds scaled by rho must be acoustic eigenvalues
    rng = np.random.default_rng(5)
    rho = 1.3
    for se in (linear_isotropic(LAM, MU), st_venant_kirchhoff(LAM, MU),
               neo_hookean(LAM, MU)):
        F = np.eye(3) + 0.15 * rng.uniform(-1, 1, size=(3, 3))
        S4 = se.analytic_elasticity(F)
        dirs = np.array([_unit(rng) for _ in range(5)])
        evals = eig_sym(acoustic_tensor(S4, dirs), vectors=False)
        keep = evals[:, -1] > 1e-6
        es = eigenstructure(flux_jacobian(S4, np.eye(3) / rho, dirs[keep]))
        assert (es.nonzero.sum(axis=-1) == 6).all()
        mus = np.sort(rho * es.eigenvalues[es.nonzero].real.reshape(-1, 6) ** 2, axis=-1)
        expected = np.sort(np.repeat(evals[keep], 2, axis=-1), axis=-1)
        scale = np.maximum(1.0, np.abs(expected).max(axis=-1, keepdims=True))
        assert (np.abs(mus - expected) <= 1e-8 * scale).all()


def test_zero_multiplicity_six_when_positive_definite():
    rng = np.random.default_rng(6)
    se = neo_hookean(LAM, MU)
    F = np.eye(3) + 0.1 * rng.uniform(-1, 1, size=(3, 3))
    S4 = se.analytic_elasticity(F)
    dirs = np.array([_unit(rng) for _ in range(10)])
    keep = eig_sym(acoustic_tensor(S4, dirs), vectors=False)[:, -1] > 1e-6
    es = eigenstructure(flux_jacobian(S4, np.eye(3) / 2.0, dirs[keep]))
    assert (es.zero_multiplicity == 6).all()


def test_kernel_vectors_have_vanishing_momentum_block():
    M = flux_jacobian(_iso_S4(), np.eye(3), E1)
    _, svals, Vt = np.linalg.svd(M)
    null_basis = Vt[np.sum(svals > 1e-8 * svals[0]):]
    assert null_basis.shape[0] == 6
    assert np.abs(null_basis[:, 9:12]).max() <= 1e-8


def test_direction_sets():
    dirs = fibonacci_sphere(100)
    assert dirs.shape == (100, 3)
    assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-12
    base = baseline_directions()
    assert base.shape == (26, 3)
    assert np.abs(np.linalg.norm(base, axis=1) - 1.0).max() <= 1e-12
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


def test_scan_isotropic_strongly_elliptic():
    se = linear_isotropic(LAM, MU)
    report = scan_directions(se.analytic_elasticity, np.eye(3), np.eye(3), n_dirs=64)
    assert report.strongly_elliptic
    assert report.min_eigenvalue == pytest.approx(MU, abs=1e-10)
    assert len(report.directions) == 64 + 26
    assert np.all(report.zero_multiplicity == 6)
    assert np.all(report.independent_count == 6)
    assert np.allclose(report.speeds ** 2, report.eigenvalues, atol=1e-10)


def test_scan_negative_shear_modulus_fails():
    se = linear_isotropic(LAM, -1.0)
    report = scan_directions(se.analytic_elasticity, np.eye(3), np.eye(3), n_dirs=16)
    assert not report.strongly_elliptic
    assert report.min_eigenvalue < 0.0
    # failed directions carry NaN speeds for the negative modes
    worst = int(np.argmin(report.eigenvalues[:, -1]))
    assert np.isnan(report.speeds[worst, -1])


def test_stvk_compression_loses_ellipticity():
    se = st_venant_kirchhoff(LAM, MU)
    s4at = se.analytic_elasticity
    assert scan_directions(s4at, np.eye(3), np.eye(3), n_dirs=32).strongly_elliptic
    assert not scan_directions(s4at, 0.4 * np.eye(3), np.eye(3), n_dirs=32).strongly_elliptic
    s_star = ellipticity_loss_bisection(s4at, 0.3, 1.0, n_dirs=32)
    assert 0.3 < s_star < 1.0
    # transverse acoustic branch 5 s^2 - 4 crosses zero at sqrt(4/5)
    assert s_star == pytest.approx(np.sqrt(0.8), abs=1e-6)


def _direction_oracle(S4, V, w):
    """One direction at a time: acoustic spectrum, zero multiplicity and the
    independent-mode count and margin of the 12x12 Jacobian, in plain numpy."""
    mu = np.linalg.eigh(np.einsum("ijhk,j,k->ih", S4, w, w))[0][::-1]
    M = flux_jacobian(S4, V, w)
    svals = np.linalg.svd(M, compute_uv=False)
    band = DEFAULT.zero_band * svals[0]
    lam, vecs = np.linalg.eig(M)
    # an orthonormal basis per eigenspace: LAPACK's eigenvectors of a repeated eigenvalue
    # are one basis of many, and the margin is a property of the span
    spaces = {}
    for i in np.flatnonzero(np.abs(lam) > band):
        first = next((k for k in spaces if abs(lam[k] - lam[i]) <= band), i)
        spaces.setdefault(first, []).append(i)
    if not spaces:
        return mu, 12 - int(np.sum(svals > band)), 0, 0.0
    keep = np.hstack([np.linalg.qr(vecs[:, space])[0] for space in spaces.values()])
    sv = np.linalg.svd(keep, compute_uv=False)
    return mu, 12 - int(np.sum(svals > band)), int(np.sum(sv > DEFAULT.indep_sv_tol)), sv[-1]


@pytest.mark.parametrize("case", ["linear", "stvk", "neo_hookean", "stvk_compressed", "zero"])
def test_scan_matches_per_direction_oracle(case):
    rng = np.random.default_rng(8)
    F = np.eye(3) + 0.15 * rng.uniform(-1.0, 1.0, size=(3, 3))
    if case == "stvk_compressed":
        F = 0.5 * np.eye(3)  # past the ellipticity boundary: negative and complex modes
    # the zero-energy control: zero multiplicity 9, no propagating modes
    S4_at = (elasticity_map(corrupted_model("ellipticity")) if case == "zero" else
             {"linear": linear_isotropic, "stvk": st_venant_kirchhoff,
              "neo_hookean": neo_hookean,
              "stvk_compressed": st_venant_kirchhoff}[case](LAM, MU).analytic_elasticity)
    rho = 1.3
    V = np.eye(3) / rho
    S4 = S4_at(F)
    report = scan_directions(S4_at, F, V)
    dirs = np.vstack([fibonacci_sphere(256), baseline_directions()])
    es = eigenstructure(flux_jacobian(S4, V, dirs))
    assert len(report.directions) == len(dirs) == 282
    assert np.array_equal(report.directions, dirs)
    for d, w in enumerate(dirs):
        mu, zero_mult, indep, margin = _direction_oracle(S4, V, w)
        scale = max(1.0, float(np.abs(mu).max()))
        assert np.abs(report.eigenvalues[d] - mu).max() <= 1e-13 * scale
        speeds = np.sqrt(np.where(mu >= 0.0, mu, np.nan) / rho)
        real = ~np.isnan(speeds)
        assert np.array_equal(np.isnan(report.speeds[d]), ~real)
        assert np.all(np.abs(report.speeds[d] - speeds)[real] <= 1e-13 * np.sqrt(scale))
        assert ((report.zero_multiplicity[d], report.independent_count[d]) == (zero_mult, indep)
                == (es.zero_multiplicity[d], es.independent_count[d]))
        assert abs(es.independence_sv[d] - margin) <= 1e-13
    mins = report.eigenvalues[:, -1]
    assert report.min_eigenvalue == mins.min()
    assert np.array_equal(report.worst_direction, dirs[int(np.argmin(mins))])
    assert report.strongly_elliptic == (case not in ("stvk_compressed", "zero"))


V_TENSOR = np.array([[0.8, 0.1, 0.0], [0.1, 0.6, 0.05], [0.0, 0.05, 0.7]])


@pytest.mark.parametrize("case", ["linear", "stvk", "neo_hookean", "linear_F", "stvk_F",
                                  "neo_hookean_F", "stvk_compressed", "zero"])
def test_scan_with_a_tensor_velocity_coefficient(case):
    # squared speeds are eig(V E(w)); eig1..3 stay eig E(w)
    name = case.removesuffix("_F")
    F = np.eye(3)
    if case.endswith("_F"):
        F = F + 0.15 * np.random.default_rng(9).uniform(-1.0, 1.0, size=(3, 3))
    if case == "stvk_compressed":
        name, F = "stvk", 0.5 * np.eye(3)
    S4_at = (elasticity_map(corrupted_model("ellipticity")) if case == "zero" else
             {"linear": linear_isotropic, "stvk": st_venant_kirchhoff,
              "neo_hookean": neo_hookean}[name](LAM, MU).analytic_elasticity)
    S4 = S4_at(F)
    report = scan_directions(S4_at, F, V_TENSOR)
    assert np.array_equal(report.V, V_TENSOR)
    dirs = np.vstack([fibonacci_sphere(256), baseline_directions()])
    es = eigenstructure(flux_jacobian(S4, V_TENSOR, dirs))
    assert np.array_equal(report.directions, dirs)
    for w, eig, c in zip(dirs, report.eigenvalues, report.speeds):
        E = np.einsum("ijhk,j,k->ih", S4, w, w)
        eig_E = np.linalg.eigvalsh(E)[::-1]
        assert np.abs(eig - eig_E).max() <= 1e-13 * max(1.0, np.abs(eig_E).max())
        mu = np.sort(np.linalg.eig(V_TENSOR @ E)[0].real)[::-1]
        tol = 1e-12 * np.maximum(1.0, np.abs(mu))
        real = ~np.isnan(c)
        assert np.all(np.abs(c[real] ** 2 - mu[real]) <= tol[real])
        assert np.all(mu[~real] < 0.0)
    assert np.array_equal(report.zero_multiplicity, es.zero_multiplicity)
    assert np.array_equal(report.independent_count, es.independent_count)
    assert report.strongly_elliptic == (case not in ("stvk_compressed", "zero"))


def test_jacobian_speeds_with_a_tensor_velocity_coefficient():
    # the nonzero Jacobian eigenvalues come in +- pairs with lam^2 = eig(V E)
    rng = np.random.default_rng(10)
    S4 = neo_hookean(LAM, MU).analytic_elasticity(np.eye(3) + 0.1 * rng.uniform(-1, 1, (3, 3)))
    dirs = np.array([_unit(rng) for _ in range(5)])
    es = eigenstructure(flux_jacobian(S4, V_TENSOR, dirs))
    assert (es.zero_multiplicity == 6).all() and (es.nonzero.sum(axis=-1) == 6).all()
    lam2 = np.sort(es.eigenvalues[es.nonzero].real.reshape(-1, 6) ** 2, axis=-1)
    mu = np.linalg.eig(V_TENSOR @ acoustic_tensor(S4, dirs))[0].real
    scale = np.maximum(1.0, mu.max(axis=-1, keepdims=True))
    assert (np.abs(lam2 - np.sort(np.repeat(mu, 2, axis=-1), axis=-1)) <= 1e-8 * scale).all()


def test_eigenstructure_of_a_stack_is_that_of_each_matrix():
    # every field, the mask of the nonzero eigenvalues included, is the same for a
    # matrix alone as for the matrix in a stack
    S4 = np.random.default_rng(11).normal(size=(3, 3, 3, 3))
    M = flux_jacobian(S4, V_TENSOR, baseline_directions())
    stack = eigenstructure(M)
    assert stack.nonzero.shape == (26, 12)
    for i, matrix in enumerate(M):
        alone = eigenstructure(matrix)
        for field in dataclasses.fields(stack):
            np.testing.assert_array_equal(getattr(stack, field.name)[i],
                                          getattr(alone, field.name), err_msg=field.name)


def test_scan_refuses_a_velocity_coefficient_without_real_speeds():
    S4_at = linear_isotropic(LAM, MU).analytic_elasticity
    with pytest.raises(NonHyperbolicState):
        scan_directions(S4_at, np.eye(3), np.diag([1.0, -1.0, 1.0]), n_dirs=4)
    with pytest.raises(NonHyperbolicState):
        scan_directions(S4_at, np.eye(3), 0.0 * np.eye(3), n_dirs=4)


def test_scan_pairs_the_modes_at_a_singular_acoustic_tensor():
    # lambda + 2 mu = 0: E(w) has eigenvalues (0, -1, -1) in every direction, so
    # two nonzero +- pairs with two eigenvectors each, whatever roundoff leaves
    # in the zero eigenvalue
    report = scan_directions(linear_isotropic(2.0, -1.0).analytic_elasticity, np.eye(3),
                             np.eye(3))
    assert len(report.directions) == 256 + 26
    assert report.independent_count.tolist() == [4] * 282


def test_dense_reference_does_not_count_a_split_defective_zero():
    # at lambda + 2 mu = 0 the zero eigenvalue of M has a Jordan block of size 3,
    # which rounding splits into three eigenvalues of about 4e-7 with nearly parallel
    # eigenvectors; they are not modes, so the dense count is the scan's 4 everywhere
    S4 = linear_isotropic(2.0, -1.0).analytic_elasticity(np.eye(3))
    report = scan_directions(lambda _: S4, np.eye(3), np.eye(3))
    dirs = np.vstack([fibonacci_sphere(256), baseline_directions()])
    es = eigenstructure(flux_jacobian(S4, np.eye(3), dirs))
    assert es.independent_count.tolist() == report.independent_count.tolist()
    assert es.zero_multiplicity.tolist() == report.zero_multiplicity.tolist()


def test_dense_reference_counts_a_repeated_eigenvalue_whatever_the_rounding():
    # the double shear eigenvalue of isotropic elasticity: in the frame of Q the tensor is
    # the same up to rounding, yet along two cube diagonals LAPACK's two eigenvectors for
    # it are nearly parallel (singular value 4e-7); the eigenspace is not
    A = np.array([[0.0, -0.20739016789880593, 1.0], [0.9559756208213863, -0.7548206441257657, 0.0],
                  [0.57933034089279, 0.0, 0.0]])
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    S4 = linear_isotropic(LAM, MU).analytic_elasticity(np.eye(3))
    rotated = np.einsum("ai,bj,ch,dk,abcd->ijhk", Q, Q, Q, Q, S4)
    es, ref = (eigenstructure(flux_jacobian(S, np.eye(3) / 8.965733765739847,
                                                 baseline_directions()))
               for S in (rotated, S4))
    assert es.independent_count.tolist() == ref.independent_count.tolist() == [6] * 26
    assert np.abs(es.independence_sv - ref.independence_sv).max() <= 1e-12


def test_bisection_evaluates_each_stretch_once():
    S4_at, calls = st_venant_kirchhoff(LAM, MU).analytic_elasticity, []

    def counted(F):
        calls.append(F)
        return S4_at(F)

    assert ellipticity_loss_bisection(counted, 0.3, 1.0, n_dirs=64) == 0.8944271909999162
    assert len(calls) == 2 + 50  # the two bracket ends, then one per halving
