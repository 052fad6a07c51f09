import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
import oracles
from oracles import newton_fit, objective
from releff.gee import (
    IDENTITY,
    LOGIT,
    Link,
    _paired_quadratic,
    _shared_row_column_meat,
    design_second_moment,
    estimating_function,
    fit,
    jacobian,
    sandwich_covariance_uncensored,
    solve_closed_form_identity,
    solve_identity,
    solve_newton,
)
from releff.inference import BootstrapEnsemble
from releff.predict import predict_profiles
from releff.pseudo import _indicator_matrix, pseudo_matrix
from releff.survival import TwoSampleDataset


def instance(rng, n1=12, n2=10, p1=2, p2=2, censored=True):
    data = random_dataset(rng, n1, n2, p1, p2, censored=censored)
    pm = pseudo_matrix(data)
    return pm, data.covariates1, data.covariates2


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestLinks:
    def test_shipped_links_validate(self):
        IDENTITY.validate()
        LOGIT.validate()

    def test_logit_overflow_is_quiet_and_finite(self):
        # the pair indicator is 1 only in the column of the earliest group-2
        # time and there only for the group-1 rows beyond it: the data are
        # separated, and the fit ends with eta below -900 on some pairs,
        # where exp(-eta) overflows to inf for mu = 0
        Z1 = np.array([[-0.7], [-0.5], [-1.1], [0.4]])
        Z2 = np.array([[-0.4], [0.9], [1.0]])
        data = TwoSampleDataset(np.array([0.35, 0.25, 0.15, 0.45]), np.ones(4), Z1,
                                np.array([0.7, 0.6, 0.2]), np.ones(3), Z2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(pseudo_matrix(data), Z1, Z2, LOGIT)
            ens = BootstrapEnsemble(replicates=np.tile(res.beta, (2, 1)), B=2, seed=0,
                                    base_fit=res)
            pred = predict_profiles(res, ens, [[-1.1], [0.4]], [[-0.4], [2.5]], link=LOGIT)
        assert res.converged and np.isfinite(res.beta).all()
        eta = res.beta @ [[1.0, 1.0], [-1.1, 0.4], [-0.4, 2.5]]
        assert eta[0] < -800 and eta[1] > 800
        np.testing.assert_array_equal(pred.point, [0.0, 1.0])
        assert np.isfinite(pred.ci_low).all() and np.isfinite(pred.ci_high).all()

    def test_inconsistent_link_caught(self):
        bad = Link(
            mu=lambda x: np.asarray(x, dtype=float) ** 2,
            mu_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            mu_double_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            name="broken",
        )
        with pytest.raises(ValueError):
            bad.validate()


class TestEstimatingFunction:
    def test_scalar_root_is_grand_mean(self, rng):
        pm, _, _ = instance(rng, p1=0, p2=0)
        Z1 = np.zeros((pm.n1, 0))
        Z2 = np.zeros((pm.n2, 0))
        u = estimating_function(np.array([pm.grand_mean]), pm.values, Z1, Z2, IDENTITY)
        assert abs(u[0]) < 1e-12

    def test_zero_at_closed_form_solution(self, rng):
        pm, Z1, Z2 = instance(rng)
        beta = solve_closed_form_identity(pm, Z1, Z2).beta
        u = estimating_function(beta, pm.values, Z1, Z2, IDENTITY)
        assert np.max(np.abs(u)) < 1e-10

    def test_matches_gradient_of_potential(self, rng):
        for link in (IDENTITY, LOGIT):
            pm, Z1, Z2 = instance(rng)
            beta = rng.uniform(-0.5, 0.5, 5)
            u = estimating_function(beta, pm.values, Z1, Z2, link)
            g = fd_gradient(lambda b: objective(b, pm.values, Z1, Z2, link), beta)
            np.testing.assert_allclose(u, g, rtol=1e-6, atol=1e-8)

    def test_dimension_mismatch(self, rng):
        pm, Z1, Z2 = instance(rng)
        with pytest.raises(ValueError):
            estimating_function(np.zeros(3), pm.values, Z1, Z2, IDENTITY)


class TestJacobian:
    def test_identity_is_negative_design_moment(self, rng):
        pm, Z1, Z2 = instance(rng)
        J = jacobian(rng.uniform(-1, 1, 5), pm.values, Z1, Z2, IDENTITY)
        np.testing.assert_allclose(J, -design_second_moment(Z1, Z2), atol=1e-12)

    def test_scalar_identity_is_minus_one(self, rng):
        pm, _, _ = instance(rng, p1=0, p2=0)
        Z1 = np.zeros((pm.n1, 0))
        Z2 = np.zeros((pm.n2, 0))
        J = jacobian(np.array([0.3]), pm.values, Z1, Z2, IDENTITY)
        assert J[0, 0] == pytest.approx(-1.0)

    def test_logit_matches_finite_differences(self, rng):
        pm, Z1, Z2 = instance(rng)
        beta = rng.uniform(-0.5, 0.5, 5)
        J = jacobian(beta, pm.values, Z1, Z2, LOGIT)
        h = 1e-6
        fd = np.zeros_like(J)
        for k in range(5):
            e = np.zeros(5)
            e[k] = h
            fd[:, k] = (
                estimating_function(beta + e, pm.values, Z1, Z2, LOGIT)
                - estimating_function(beta - e, pm.values, Z1, Z2, LOGIT)
            ) / (2 * h)
        np.testing.assert_allclose(J, fd, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(J, J.T, atol=1e-12)


class TestWorkspaceMatchesOracle:
    """The in-place workspace against U and J recomputed from the ``Link``
    functions over an explicit pair design."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(3, 25),
        n2=st.integers(3, 25),
        censored=st.booleans(),
        link=st.sampled_from([IDENTITY, LOGIT]),
        warm=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_score_and_jacobian(self, seed, n1, n2, censored, link, warm):
        rng = np.random.default_rng(seed)
        pm, Z1, Z2 = instance(rng, n1, n2, censored=censored)
        # Newton's two starts; the warm one is also the identity-link root,
        # where U cancels to rounding level, hence the absolute tolerance
        beta = solve_closed_form_identity(pm, Z1, Z2).beta if warm else np.zeros(5)
        for b in (beta, beta + rng.uniform(-0.5, 0.5, 5)):
            np.testing.assert_allclose(
                estimating_function(b, pm.values, Z1, Z2, link),
                oracles.score(b, pm.values, Z1, Z2, link), rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(
                jacobian(b, pm.values, Z1, Z2, link),
                oracles.jacobian(b, pm.values, Z1, Z2, link), rtol=1e-10, atol=1e-13)


class TestSolvers:
    def test_closed_form_equals_newton(self, rng):
        for censored in (False, True):
            pm, Z1, Z2 = instance(rng, censored=censored)
            cf = solve_closed_form_identity(pm, Z1, Z2)
            nt = solve_newton(pm, Z1, Z2, IDENTITY)
            assert nt.converged
            np.testing.assert_allclose(cf.beta, nt.beta, atol=1e-8)

    def test_newton_one_step_on_identity(self, rng):
        pm, Z1, Z2 = instance(rng)
        nt = solve_newton(pm, Z1, Z2, IDENTITY)
        assert nt.iterations <= 1

    def test_scalar_logit_root_inverts_grand_mean(self, rng):
        pm, _, _ = instance(rng, censored=False, p1=0, p2=0)
        Z1 = np.zeros((pm.n1, 0))
        Z2 = np.zeros((pm.n2, 0))
        assert 0 < pm.grand_mean < 1
        nt = solve_newton(pm, Z1, Z2, LOGIT)
        assert nt.converged
        mu = 1 / (1 + np.exp(-nt.beta[0]))
        assert mu == pytest.approx(pm.grand_mean, abs=1e-9)

    def test_duplicate_column_flags_pinv(self, rng):
        pm, Z1, Z2 = instance(rng)
        Z1dup = np.column_stack((Z1, Z1[:, 0]))
        res = solve_closed_form_identity(pm, Z1dup, Z2)
        assert res.used_pinv
        assert "pseudo-inverse" in res.message
        with pytest.raises(np.linalg.LinAlgError):
            solve_closed_form_identity(pm, Z1dup, Z2, strict_singular=True)

    def test_affine_shift_leaves_fit_invariant(self, rng):
        pm, Z1, Z2 = instance(rng)
        base = solve_closed_form_identity(pm, Z1, Z2)
        c = 2.7
        shifted = Z1.copy()
        shifted[:, 0] += c
        moved = solve_closed_form_identity(pm, shifted, Z2)
        # only the intercept absorbs the shift
        assert moved.beta[0] == pytest.approx(base.beta[0] - c * base.beta[1], abs=1e-8)
        np.testing.assert_allclose(moved.beta[1:], base.beta[1:], atol=1e-8)
        mu_base = base.beta[0] + Z1 @ base.beta[1:3]
        mu_moved = moved.beta[0] + shifted @ moved.beta[1:3]
        np.testing.assert_allclose(mu_base, mu_moved, atol=1e-8)

    def test_fit_dispatches(self, rng):
        pm, Z1, Z2 = instance(rng)
        assert fit(pm, Z1, Z2, IDENTITY).method == "closed-form"
        assert fit(pm, Z1, Z2, LOGIT).method == "newton"

    def test_logit_recovers_limiting_logistic_model(self):
        # equal Weibull shapes with tau = inf induce an exact logistic model
        # in k*(eta1 - eta2); a large-sample logit fit recovers (0, k*g1, -k*g2)
        rng = np.random.default_rng(7)
        n, k = 2000, 2.0
        g1, g2 = 0.4, -0.3
        Z1 = rng.standard_normal((n, 1))
        Z2 = rng.standard_normal((n, 1))
        T1 = np.exp(g1 * Z1[:, 0]) * rng.weibull(k, n)
        T2 = np.exp(g2 * Z2[:, 0]) * rng.weibull(k, n)
        data = TwoSampleDataset(T1, np.ones(n), Z1, T2, np.ones(n), Z2)
        pm = pseudo_matrix(data)
        res = fit(pm, Z1, Z2, LOGIT)
        assert res.converged
        mu = 1 / (1 + np.exp(-(res.beta[0] + res.beta[1] * Z1[:, 0][:, None]
                               + res.beta[2] * Z2[:, 0][None, :])))
        assert np.all((mu > 0) & (mu < 1))
        np.testing.assert_allclose(res.beta, [0.0, k * g1, -k * g2], atol=0.1)


class TestSolveIdentity:
    def stack(self, rng, count=6):
        pms, Z1s, Z2s = zip(*(instance(rng) for _ in range(count)))
        Z1s, Z2s = np.stack(Z1s), np.stack(Z2s)
        # one dataset with a duplicated group-1 covariate: a singular design
        Z1s[2, :, 1] = Z1s[2, :, 0]
        rows = np.stack([pm.row_means for pm in pms])
        cols = np.stack([pm.col_means for pm in pms])
        return pms, rows, cols, Z1s, Z2s

    def test_rows_match_single_fits_and_report_the_exact_gradient(self, rng):
        pms, rows, cols, Z1s, Z2s = self.stack(rng)
        fits = solve_identity(rows, cols, Z1s, Z2s)
        assert fits.used_pinv.tolist() == [k == 2 for k in range(6)]
        for k, pm in enumerate(pms):
            single = solve_closed_form_identity(pm, Z1s[k], Z2s[k])
            np.testing.assert_allclose(fits.beta[k], single.beta, rtol=0, atol=1e-12)
            u = estimating_function(fits.beta[k], pm.values, Z1s[k], Z2s[k], IDENTITY)
            assert fits.gradient_norm[k] == pytest.approx(np.max(np.abs(u)), abs=1e-13)

    def test_strict_singular_leaves_only_singular_rows_unsolved(self, rng):
        _, rows, cols, Z1s, Z2s = self.stack(rng)
        loose = solve_identity(rows, cols, Z1s, Z2s)
        strict = solve_identity(rows, cols, Z1s, Z2s, strict_singular=True)
        assert strict.singular.tolist() == [k == 2 for k in range(6)]
        assert not strict.used_pinv.any()
        assert np.isnan(strict.beta[2]).all()
        keep = np.arange(6) != 2
        np.testing.assert_array_equal(strict.beta[keep], loose.beta[keep])
        with pytest.raises(np.linalg.LinAlgError):
            strict.result(2)
        assert strict.result(0).method == "closed-form"


    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(2, 12),
        n2=st.integers(2, 12),
        p1=st.integers(2, 4),
        p2=st.integers(0, 4),
        binary=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_decisions_match_matrix_rank(self, seed, n1, n2, p1, p2, binary):
        # eight designs per draw; the odd ones are made rank-deficient, the
        # even ones are random and may be deficient too (few rows or binary
        # columns)
        rng = np.random.default_rng(seed)
        if binary:
            Z1 = rng.integers(0, 2, (8, n1, p1)).astype(float)
            Z2 = rng.integers(0, 2, (8, n2, p2)).astype(float)
        else:
            Z1 = rng.standard_normal((8, n1, p1))
            Z2 = rng.standard_normal((8, n2, p2))
        Z1[1, :, 0] = 3.0                    # a constant column
        Z1[3, :, -1] = 2.0 * Z1[3, :, 0]     # a multiple of another column
        Z1[5, :, 0] = 0.0                    # an all-zero column
        Z1[7] = Z1[7, :1]                    # one subject repeated
        rows, cols = rng.random((8, n1)), rng.random((8, n2))
        p = 1 + p1 + p2
        deficient = np.linalg.matrix_rank(design_second_moment(Z1, Z2)) < p
        assert deficient[1::2].all()
        loose = solve_identity(rows, cols, Z1, Z2)
        strict = solve_identity(rows, cols, Z1, Z2, strict_singular=True)
        assert loose.used_pinv.tolist() == deficient.tolist()
        assert not loose.singular.any()
        assert strict.singular.tolist() == deficient.tolist()
        assert not strict.used_pinv.any()

    def test_overflowing_design_is_left_unsolved(self):
        Z1 = np.array([[[1e200], [2e200], [3e200]], [[0.1], [0.5], [0.2]]])
        Z2 = np.array([[[1e200], [2.5e200], [3e200]], [[0.3], [0.9], [0.4]]])
        rows, cols = np.full((2, 3), 0.5), np.full((2, 3), 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            fits = solve_identity(rows, cols, Z1, Z2)
        assert np.isnan(fits.beta[0]).all() and np.isfinite(fits.beta[1]).all()
        assert not fits.used_pinv.any() and not fits.singular.any()


def assert_same_fit(got, want):
    np.testing.assert_allclose(got.beta, want.beta, rtol=0, atol=1e-12)
    assert (got.iterations, got.converged, got.used_pinv, got.message) == (
        want.iterations, want.converged, want.used_pinv, want.message)


class TestNewtonMatchesOracle:
    """``solve_newton`` reuses one link evaluation per iterate; the oracle
    re-evaluates the public estimating function and Jacobian instead."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(3, 25),
        n2=st.integers(3, 25),
        censored=st.booleans(),
        link=st.sampled_from([IDENTITY, LOGIT]),
        warm=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_data(self, seed, n1, n2, censored, link, warm):
        rng = np.random.default_rng(seed)
        pm, Z1, Z2 = instance(rng, n1, n2, censored=censored)
        x0 = solve_closed_form_identity(pm, Z1, Z2).beta if warm else None
        assert_same_fit(solve_newton(pm, Z1, Z2, link, x0=x0), newton_fit(pm, Z1, Z2, link, x0=x0))

    def test_duplicate_column_takes_pinv_step(self, rng):
        pm, Z1, Z2 = instance(rng)
        Z1zero = np.column_stack((Z1, np.zeros(pm.n1)))
        Z1dup = np.column_stack((Z1, Z1[:, 0]))
        for Z in (Z1zero, Z1dup):
            got = solve_newton(pm, Z, Z2, LOGIT)
            assert got.used_pinv
            assert_same_fit(got, newton_fit(pm, Z, Z2, LOGIT))

    def test_iteration_cap(self, rng):
        pm, Z1, Z2 = instance(rng)
        got = solve_newton(pm, Z1, Z2, LOGIT, max_iter=1)
        assert not got.converged and got.message == "max iterations reached"
        assert_same_fit(got, newton_fit(pm, Z1, Z2, LOGIT, max_iter=1))

    def test_accepted_iterates_logged_at_debug(self, rng, caplog):
        pm, Z1, Z2 = instance(rng)
        with caplog.at_level("DEBUG", logger="releff"):
            res = solve_newton(pm, Z1, Z2, LOGIT)
        lines = [r.getMessage() for r in caplog.records if r.name == "releff"]
        assert len(lines) == res.iterations
        assert lines[0].startswith("newton iterate 1: norm ")
        assert "step scale" in lines[-1]

    def test_peak_memory_of_a_logit_fit(self):
        # the four n1 x n2 buffers of the fit's workspace (mu, residual, mu'
        # and scratch) above the held pseudo matrix; no candidate and no
        # Jacobian allocates an n1 x n2 array of its own
        data = random_dataset(np.random.default_rng(3), 200, 200, censored=True, tau=2.0)
        pm = pseudo_matrix(data)
        tracemalloc.start()
        try:
            res = fit(pm, data.covariates1, data.covariates2, LOGIT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations >= 2
        assert peak <= 4.2 * pm.values.nbytes


class TestSandwich:
    def test_symmetric_psd(self, rng):
        data = random_dataset(rng, 25, 30, censored=False)
        cov = sandwich_covariance_uncensored(data)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10

    def test_censored_input_rejected(self, rng):
        data = random_dataset(rng, 10, 10, censored=True)
        with pytest.raises(ValueError, match="bootstrap"):
            sandwich_covariance_uncensored(data)

    def test_omega_components_match_loop_oracle(self, rng):
        data = random_dataset(rng, 4, 4, censored=False)
        Z1, Z2 = data.covariates1, data.covariates2
        n1, n2 = 4, 4
        D = (data.times1[:, None] > data.times2[None, :]).astype(float)
        z = lambda i, j: np.concatenate(([1.0], Z1[i], Z2[j]))
        p = 5
        m = np.zeros(p)
        for i in range(n1):
            for j in range(n2):
                m += D[i, j] * z(i, j)
        m /= n1 * n2
        o0 = np.zeros((p, p))
        o1 = np.zeros((p, p))
        o2 = np.zeros((p, p))
        for i in range(n1):
            for j in range(n2):
                o0 += D[i, j] * np.outer(z(i, j), z(i, j))
                for jj in range(n2):
                    o1 += D[i, j] * D[i, jj] * np.outer(z(i, j), z(i, jj))
                for ii in range(n1):
                    o2 += D[i, j] * D[ii, j] * np.outer(z(i, j), z(ii, j))
        o0 = o0 / (n1 * n2) - np.outer(m, m)
        o1 = o1 / (n1 * n2**2) - np.outer(m, m)
        o2 = o2 / (n1**2 * n2) - np.outer(m, m)
        # the production blocks with raw indicators in place of residuals
        got0 = _paired_quadratic(D, Z1, Z2) / (n1 * n2) - np.outer(m, m)
        got1, got2 = _shared_row_column_meat(D, Z1, Z2)
        np.testing.assert_allclose(got0, o0, atol=1e-12)
        np.testing.assert_allclose(got1, o1, atol=1e-12)
        np.testing.assert_allclose(got2, o2, atol=1e-12)

    def test_constant_indicator_leaves_covariate_dispersion(self, rng):
        # all T1 beyond all T2: the indicator is identically 1 and the
        # same-pair block reduces to the design's second-moment dispersion
        Z1 = rng.standard_normal((6, 2))
        Z2 = rng.standard_normal((5, 2))
        data = TwoSampleDataset(
            np.full(6, 10.0) + rng.uniform(0, 1, 6), np.ones(6), Z1,
            rng.uniform(0, 1, 5), np.ones(5), Z2,
        )
        D = _indicator_matrix(data)
        np.testing.assert_array_equal(D, 1.0)
        m = np.concatenate(([1.0], Z1.mean(axis=0), Z2.mean(axis=0)))
        o0 = _paired_quadratic(D, Z1, Z2) / D.size - np.outer(m, m)
        expected = design_second_moment(Z1, Z2) - np.outer(m, m)
        np.testing.assert_allclose(o0, expected, atol=1e-12)
