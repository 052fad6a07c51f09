import dataclasses
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
import oracles
from oracles import identity_fit, newton_fit, objective
from releff import gee
from releff.cli import EXIT_CONVERGENCE, main
from releff.gee import (
    IDENTITY,
    LOGIT,
    FitResult,
    _paired_quadratic,
    _shared_row_column_meat,
    design_second_moment,
    sandwich_covariance_uncensored,
    solve_identity,
    solve_newton,
)
from releff.inference import BootstrapEnsemble, FitSpec
from releff.predict import predict_profiles
from releff.pseudo import _indicator_matrix, pseudo_matrix
from releff.survival import TwoSampleDataset


def instance(rng, n1=12, n2=10, p1=2, p2=2, censored=True):
    data = random_dataset(rng, n1, n2, p1, p2, censored=censored)
    pm = pseudo_matrix(data)
    return pm, data.covariates1, data.covariates2


def paired_quadratic(G, Z1, Z2):
    """The production pair sum of G * z z' from G's margins and Z1' G Z2."""
    return _paired_quadratic(G.sum(axis=1), G.sum(axis=0), Z1.T @ G @ Z2, Z1, Z2)


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestLinks:
    def test_logit_overflow_is_quiet_and_finite(self, tmp_path, caplog):
        # the pair indicator is 1 only in the column of the earliest group-2
        # time and there only for the group-1 rows beyond it: the data are
        # separated and the MLE does not exist; Newton's line search stalls
        # where every shorter step leaves the evaluator's range
        Z1 = np.array([[-0.7], [-0.5], [-1.1], [0.4]])
        Z2 = np.array([[-0.4], [0.9], [1.0]])
        data = TwoSampleDataset(np.array([0.35, 0.25, 0.15, 0.45]), np.ones(4), Z1,
                                np.array([0.7, 0.6, 0.2]), np.ones(3), Z2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = FitSpec(link=LOGIT).fit(data)
        assert not res.converged and res.message == "line search stalled"
        assert np.isfinite(res.beta).all()
        assert gee.max_abs_eta(res.beta, Z1, Z2) <= 2 * gee.EXP_FACTOR_LIMIT
        path = tmp_path / "separated.csv"
        path.write_text("group,time,status,z\n" + "".join(
            f"{g},{t},1,{z}\n" for g, T, Z in ((1, data.times1, Z1), (2, data.times2, Z2))
            for t, (z,) in zip(T, Z)))
        # the base fit stops saturated, and the refusal says so, also where
        # the bootstrap refuses it
        assert gee.max_abs_eta(res.beta, Z1, Z2) > gee.SATURATED_ETA
        for command in (["fit"], ["test", "--seed", "1", "--bootstrap", "5"]):
            caplog.clear()
            with caplog.at_level("ERROR", logger="releff"):
                assert main([*command, "--link", "logit", "--data", str(path), "--tau", "inf",
                             "--cov1", "z", "--cov2", "z",
                             "--out-dir", str(tmp_path / "out")]) == EXIT_CONVERGENCE
            assert ("fit did not converge: line search stalled; some |beta'z| exceeds 30: "
                    "the fit is saturated") in caplog.text

    def test_logit_prediction_overflow_is_quiet(self):
        # a fit saturated beyond the evaluator's range: exp(-eta) overflows
        # to inf where mu = 0
        fit = FitResult(np.array([-702.10, 49.38, 746.43]), True, 27, 0.0)
        ens = BootstrapEnsemble(replicates=np.tile(fit.beta, (2, 1)), B=2, seed=0, base_fit=fit)
        eta = fit.beta @ [[1.0, 1.0], [-1.1, 0.4], [-0.4, 2.5]]
        assert eta[0] < -800 and eta[1] > 800
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = predict_profiles(fit, ens, [[-1.1], [0.4]], [[-0.4], [2.5]], link=LOGIT)
        np.testing.assert_array_equal(pred.point, [0.0, 1.0])
        np.testing.assert_array_equal(pred.ci_low, [0.0, 1.0])
        np.testing.assert_array_equal(pred.ci_high, [0.0, 1.0])

    def test_unknown_link_refused(self, rng):
        data = random_dataset(rng, 8, 6, censored=True)
        pm, Z1, Z2 = pseudo_matrix(data), data.covariates1, data.covariates2
        fit = identity_fit(pm, Z1, Z2)
        ens = BootstrapEnsemble(replicates=np.tile(fit.beta, (2, 1)), B=2, seed=0, base_fit=fit)
        for refused in (
            lambda: FitSpec(link="probit"),
            lambda: predict_profiles(fit, ens, Z1, Z1, link="probit"),
        ):
            with pytest.raises(ValueError, match="unknown link 'probit'"):
                refused()


class TestEstimatingFunction:
    def test_scalar_root_is_grand_mean(self, rng):
        pm, _, _ = instance(rng, p1=0, p2=0)
        Z1 = np.zeros((pm.shape[0], 0))
        Z2 = np.zeros((pm.shape[1], 0))
        beta = identity_fit(pm, Z1, Z2).beta
        assert beta[0] == pytest.approx(pm.mean(), abs=1e-12)
        u = oracles.score(beta, pm, Z1, Z2, IDENTITY)
        assert abs(u[0]) < 1e-12

    def test_zero_at_closed_form_solution(self, rng):
        pm, Z1, Z2 = instance(rng)
        beta = identity_fit(pm, Z1, Z2).beta
        u = oracles.score(beta, pm, Z1, Z2, IDENTITY)
        assert np.max(np.abs(u)) < 1e-10

    def test_matches_gradient_of_potential(self, rng):
        pm, Z1, Z2 = instance(rng)
        beta = rng.uniform(-0.5, 0.5, 5)
        u, _ = gee._Evaluator(pm, Z1, Z2).evaluate(beta)
        g = fd_gradient(lambda b: objective(b, pm, Z1, Z2, LOGIT), beta)
        np.testing.assert_allclose(u, g, rtol=1e-6, atol=1e-8)


class TestJacobian:
    def test_logit_matches_finite_differences(self, rng):
        pm, Z1, Z2 = instance(rng)
        beta = rng.uniform(-0.5, 0.5, 5)
        evaluate = gee._Evaluator(pm, Z1, Z2).evaluate
        _, J = evaluate(beta)
        h = 1e-6
        fd = np.zeros_like(J)
        for k in range(5):
            e = np.zeros(5)
            e[k] = h
            fd[:, k] = (evaluate(beta + e)[0] - evaluate(beta - e)[0]) / (2 * h)
        np.testing.assert_allclose(J, fd, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(J, J.T, atol=1e-12)


class TestWorkspaceMatchesOracle:
    """The blocked evaluator ``gee._Evaluator`` against U and J recomputed
    from the oracle's own link terms over an explicit pair design."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(3, 25),
        n2=st.integers(3, 25),
        censored=st.booleans(),
        warm=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_score_and_jacobian(self, seed, n1, n2, censored, warm):
        rng = np.random.default_rng(seed)
        pm, Z1, Z2 = instance(rng, n1, n2, censored=censored)
        # two starts: zero, and the identity-link root, where U may cancel to
        # rounding level, hence the absolute tolerance
        beta = identity_fit(pm, Z1, Z2).beta if warm else np.zeros(5)
        evaluator = gee._Evaluator(pm, Z1, Z2)
        for b in (beta, beta + rng.uniform(-0.5, 0.5, 5)):
            U, J = evaluator.evaluate(b)
            np.testing.assert_allclose(U, oracles.score(b, pm, Z1, Z2, LOGIT),
                                       rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(J, oracles.jacobian(b, pm, Z1, Z2, LOGIT),
                                       rtol=1e-10, atol=1e-13)


class TestSolvers:
    def test_dimension_mismatch(self, rng):
        pm, Z1, Z2 = instance(rng)
        with pytest.raises(ValueError):
            solve_newton(pm, Z1, Z2, x0=np.zeros(3))
        for rows in ((Z1[:-1], Z2), (Z1, Z2[:-1])):
            with pytest.raises(ValueError, match="covariate rows do not match"):
                solve_newton(pm, *rows)

    def test_a_link_is_no_argument(self, rng):
        pm, Z1, Z2 = instance(rng)
        with pytest.raises(TypeError):
            solve_newton(pm, Z1, Z2, LOGIT)

    def test_closed_form_equals_newton(self, rng):
        # U is linear in beta for the identity link, so one dense Newton step
        # from 0 is its root
        for censored in (False, True):
            pm, Z1, Z2 = instance(rng, censored=censored)
            cf = identity_fit(pm, Z1, Z2)
            zero = np.zeros(5)
            nt = -np.linalg.solve(oracles.jacobian(zero, pm, Z1, Z2, IDENTITY),
                                  oracles.score(zero, pm, Z1, Z2, IDENTITY))
            np.testing.assert_allclose(cf.beta, nt, atol=1e-8)

    def test_scalar_logit_root_inverts_grand_mean(self, rng):
        pm, _, _ = instance(rng, censored=False, p1=0, p2=0)
        Z1 = np.zeros((pm.shape[0], 0))
        Z2 = np.zeros((pm.shape[1], 0))
        assert 0 < pm.mean() < 1
        nt = solve_newton(pm, Z1, Z2)
        assert nt.converged
        mu = 1 / (1 + np.exp(-nt.beta[0]))
        assert mu == pytest.approx(pm.mean(), abs=1e-9)

    def test_duplicate_column_flags_pinv(self, rng):
        pm, Z1, Z2 = instance(rng)
        Z1dup = np.column_stack((Z1, Z1[:, 0]))
        res = identity_fit(pm, Z1dup, Z2)
        assert res.used_pinv
        with pytest.raises(np.linalg.LinAlgError):
            identity_fit(pm, Z1dup, Z2, strict_singular=True)

    def test_affine_shift_leaves_fit_invariant(self, rng):
        pm, Z1, Z2 = instance(rng)
        base = identity_fit(pm, Z1, Z2)
        c = 2.7
        shifted = Z1.copy()
        shifted[:, 0] += c
        moved = identity_fit(pm, shifted, Z2)
        # only the intercept absorbs the shift
        assert moved.beta[0] == pytest.approx(base.beta[0] - c * base.beta[1], abs=1e-8)
        np.testing.assert_allclose(moved.beta[1:], base.beta[1:], atol=1e-8)
        mu_base = base.beta[0] + Z1 @ base.beta[1:3]
        mu_moved = moved.beta[0] + shifted @ moved.beta[1:3]
        np.testing.assert_allclose(mu_base, mu_moved, atol=1e-8)

    def test_fit_dispatches(self, rng):
        # the closed form takes no sweep of the evaluator and keeps no Jacobian
        data = random_dataset(rng, 12, 10, censored=True)
        identity, logit = (FitSpec(link=link).fit(data) for link in (IDENTITY, LOGIT))
        assert (identity.iterations, identity.sweeps, identity.jacobian) == (0, 0, None)
        assert logit.sweeps >= 1 and logit.jacobian.shape == (5, 5)

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
        res = FitSpec(link=LOGIT).fit(data)
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
        rows = np.stack([pm.mean(axis=1) for pm in pms])
        cols = np.stack([pm.mean(axis=0) for pm in pms])
        return pms, rows, cols, Z1s, Z2s

    def test_rows_match_single_fits_and_report_the_exact_gradient(self, rng):
        pms, rows, cols, Z1s, Z2s = self.stack(rng)
        fits = solve_identity(rows, cols, Z1s, Z2s)
        assert fits.used_pinv.tolist() == [k == 2 for k in range(6)]
        for k, pm in enumerate(pms):
            single = identity_fit(pm, Z1s[k], Z2s[k])
            np.testing.assert_allclose(fits.beta[k], single.beta, rtol=0, atol=1e-12)
            u = oracles.score(fits.beta[k], pm, Z1s[k], Z2s[k], IDENTITY)
            assert fits.gradient_norm[k] == pytest.approx(np.max(np.abs(u)), abs=1e-13)

    def test_strict_singular_leaves_only_singular_rows_unsolved(self, rng):
        _, rows, cols, Z1s, Z2s = self.stack(rng)
        loose = solve_identity(rows, cols, Z1s, Z2s)
        strict = solve_identity(rows, cols, Z1s, Z2s, strict_singular=True)
        assert (~strict.converged).tolist() == [k == 2 for k in range(6)]
        assert not strict.used_pinv.any()
        assert np.isnan(strict.beta[2]).all()
        keep = np.arange(6) != 2
        np.testing.assert_array_equal(strict.beta[keep], loose.beta[keep])
        assert not strict[2].converged


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
        assert loose.converged.all()
        assert (~strict.converged).tolist() == deficient.tolist()
        assert not strict.used_pinv.any()

    @staticmethod
    def rank_edge_designs(rng):
        """(Z1, Z2) stacks at the edge of the rank rule: a second group-1
        column equal to the first plus delta times noise, for delta from
        1e-2 to 1e-14; covariates scaled by 1e-100 and 1e100; and no
        covariates at all (p = 1)."""
        Z1 = rng.standard_normal((13, 4, 20, 2))
        Z1[..., 1] = Z1[..., 0] + 10.0 ** -np.arange(2, 15)[:, None, None] * Z1[..., 1]
        yield Z1.reshape(52, 20, 2), rng.standard_normal((52, 15, 1))
        for scale in (1e-100, 1e100):
            Z1, Z2 = rng.standard_normal((4, 20, 2)), rng.standard_normal((4, 15, 1))
            yield scale * Z1, scale * Z2
            yield scale * Z1, Z2
        yield np.zeros((4, 20, 0)), np.zeros((4, 15, 0))

    def test_rank_decisions_at_the_edges_match_matrix_rank(self, rng):
        certified, deficient_all = [], []
        for Z1, Z2 in self.rank_edge_designs(rng):
            Sigma = design_second_moment(Z1, Z2)
            deficient = np.linalg.matrix_rank(Sigma, hermitian=True) < Sigma.shape[-1]
            rows, cols = rng.random((len(Z1), Z1.shape[1])), rng.random((len(Z2), Z2.shape[1]))
            loose = solve_identity(rows, cols, Z1, Z2)
            strict = solve_identity(rows, cols, Z1, Z2, strict_singular=True)
            assert loose.used_pinv.tolist() == deficient.tolist()
            assert loose.converged.all()
            assert (~strict.converged).tolist() == deficient.tolist()
            assert not strict.used_pinv.any()
            certified.append(gee._full_rank_certified(Sigma))
            deficient_all.append(deficient)
            assert not (certified[-1] & deficient).any()
        certified, deficient = np.concatenate(certified), np.concatenate(deficient_all)
        # both paths are taken: some designs are certified, and both full-rank
        # and deficient designs fall back to matrix_rank
        assert certified.any()
        assert (~certified & ~deficient).any() and deficient.any()

    def test_underflowing_singular_design_is_not_certified(self, rng):
        # a group-1 covariate of about 1e-307 squares to exactly 0, so Sigma
        # is singular and slogdet takes the log of a zero pivot; that must not
        # warn, and the design must reach matrix_rank
        tiny = 3.051345044157546e-307
        Z1 = np.array([tiny, tiny, 0.0])[None, :, None]
        Z2 = np.array([-1.5, -2.98046875, -0.75, -0.75, -1.5, -0.75, 0.0, 0.0])[None, :, None]
        Sigma = design_second_moment(Z1, Z2)
        assert Sigma[0, 1, 1] == 0.0
        assert not gee._full_rank_certified(Sigma).any()
        fits = solve_identity(rng.random((1, 3)), rng.random((1, 8)), Z1, Z2)
        assert fits.used_pinv.tolist() == [True]

    @staticmethod
    def designs_handed_to_matrix_rank(monkeypatch):
        handed = []
        real = np.linalg.matrix_rank

        def counted(A, *args, **kwargs):
            handed.extend(A)
            return real(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counted)
        return handed

    @pytest.mark.parametrize("censored", [True, False], ids=["censored", "uncensored"])
    def test_simulated_chunk_designs_are_all_certified(self, monkeypatch, censored):
        from releff.inference import _chunk_size, warp_speed
        from releff.sim import make_scenario

        assert _chunk_size(50, 50) == 160
        handed = self.designs_handed_to_matrix_rank(monkeypatch)
        # one chunk: 160 base fits and 160 refits of their resamples
        result = warp_speed(make_scenario("iv", "II", 50, 50, censored), M=160, seed=3)
        assert result.failed == 0
        assert handed == []

    def test_deficient_designs_all_reach_matrix_rank(self, monkeypatch, rng):
        handed = self.designs_handed_to_matrix_rank(monkeypatch)
        deficient = []
        for Z1, Z2 in self.rank_edge_designs(rng):
            Sigma = design_second_moment(Z1, Z2)
            fits = solve_identity(rng.random(Z1.shape[:2]), rng.random(Z2.shape[:2]), Z1, Z2)
            deficient += list(Sigma[fits.used_pinv])
        assert len(deficient) > 0
        for S in deficient:
            assert any(np.array_equal(S, h) for h in handed)

    def test_overflowing_design_is_left_unsolved(self):
        Z1 = np.array([[[1e200], [2e200], [3e200]], [[0.1], [0.5], [0.2]]])
        Z2 = np.array([[[1e200], [2.5e200], [3e200]], [[0.3], [0.9], [0.4]]])
        rows, cols = np.full((2, 3), 0.5), np.full((2, 3), 0.5)
        fits = solve_identity(rows, cols, Z1, Z2)
        assert np.isnan(fits.beta[0]).all() and np.isfinite(fits.beta[1]).all()
        assert not fits.used_pinv.any() and fits.converged.all()


def assert_same_fit(got, want):
    np.testing.assert_array_equal(got.beta, want.beta)
    assert (got.iterations, got.converged, got.used_pinv, got.message) == (
        want.iterations, want.converged, want.used_pinv, want.message)


class TestNewtonMatchesOracle:
    """``solve_newton`` reuses one link evaluation per iterate and takes a
    certified last step without evaluating it; the oracle re-evaluates the
    public estimating function and Jacobian, at every candidate, instead."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(3, 25),
        n2=st.integers(3, 25),
        censored=st.booleans(),
        warm=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_data(self, seed, n1, n2, censored, warm):
        rng = np.random.default_rng(seed)
        pm, Z1, Z2 = instance(rng, n1, n2, censored=censored)
        x0 = identity_fit(pm, Z1, Z2).beta if warm else None
        assert_same_fit(solve_newton(pm, Z1, Z2, x0=x0), newton_fit(pm, Z1, Z2, x0=x0))

    def test_duplicate_column_takes_pinv_step(self, rng):
        pm, Z1, Z2 = instance(rng)
        Z1zero = np.column_stack((Z1, np.zeros(pm.shape[0])))
        Z1dup = np.column_stack((Z1, Z1[:, 0]))
        for Z in (Z1zero, Z1dup):
            got = solve_newton(pm, Z, Z2)
            assert got.used_pinv
            assert_same_fit(got, newton_fit(pm, Z, Z2))

    def test_iteration_cap(self, rng, monkeypatch):
        pm, Z1, Z2 = instance(rng)
        monkeypatch.setattr(gee, "MAX_ITER", 1)
        got = solve_newton(pm, Z1, Z2)
        assert not got.converged and got.message == "max iterations reached"
        assert_same_fit(got, newton_fit(pm, Z1, Z2, max_iter=1))

    def test_accepted_iterates_logged_at_debug(self, rng, caplog):
        pm, Z1, Z2 = instance(rng)
        with caplog.at_level("DEBUG", logger="releff"):
            res = solve_newton(pm, Z1, Z2)
        lines = [r.getMessage() for r in caplog.records if r.name == "releff"]
        assert len(lines) == res.iterations
        assert lines[0].startswith("newton iterate 1: norm ")
        assert "step scale" in lines[-1]

    def test_certified_step_is_logged_as_an_iterate(self, rng, caplog):
        pm, Z1, Z2 = instance(rng, 30, 30)
        with caplog.at_level("DEBUG", logger="releff"):
            res = solve_newton(pm, Z1, Z2)
        lines = [r.getMessage() for r in caplog.records if r.name == "releff"]
        assert len(lines) == res.iterations and res.sweeps == res.iterations
        assert lines[-1] == (f"newton iterate {res.iterations}: "
                             f"norm {res.gradient_norm:.3e} certified, step scale 1")

    def test_peak_memory_of_a_logit_fit(self):
        # above the held pseudo matrix: the evaluator's three block buffers
        # (40 of the 800 rows each here) and vectors of length n1 or n2; no
        # candidate and no Jacobian allocates an n1 x n2 array of its own
        n = 800
        data = random_dataset(np.random.default_rng(3), n, n, censored=True, tau=2.0)
        pm = pseudo_matrix(data)
        blocks = 3 * 8 * gee.BLOCK_ELEMENTS
        tracemalloc.start()
        try:
            Z1, Z2 = data.covariates1, data.covariates2
            res = solve_newton(pm, Z1, Z2, x0=identity_fit(pm, Z1, Z2).beta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations >= 2
        assert blocks <= 0.2 * pm.nbytes
        assert peak <= blocks + 16 * 8 * (n + n)

    @pytest.mark.parametrize("n1, n2, censored", [
        (400, 400, True), (120, 720, True), (720, 120, True), (700, 700, True),
        (400, 400, False),
    ], ids=["censored", "censored-wide", "censored-tall", "censored-large", "uncensored"])
    def test_working_set_bounds_the_whole_fit(self, n1, n2, censored):
        # the guard's figure covers the build of the pseudo matrix too, whose
        # leave-one-out curves take several (n + 1) x K arrays; about 0.8 of
        # the group-2 times here are distinct events (K ~ n2); at 700 x 700
        # the (n1 + n2) x K arrays of the build weigh about as much as the
        # n1 x n2 matrix
        data = random_dataset(np.random.default_rng(5), n1, n2, censored=censored)
        tracemalloc.start()
        try:
            res = FitSpec(link=LOGIT).fit(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged
        figure = gee.logit_working_set(data)
        assert 0.5 * figure <= peak <= figure


class TestCertifiedStep:
    """A last Newton step that ``gee._step_bound`` certifies is taken without
    the sweep that would evaluate it.  The fit is the one that evaluates
    every candidate; its ``gradient_norm`` bounds the score evaluated at
    ``beta`` and stays below TOL, and the largest eigenvalue of the Jacobian
    at ``beta`` has the sign of the returned ``jacobian``'s."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(3, 25),
        n2=st.integers(3, 25),
        censored=st.booleans(),
        weighted=st.booleans(),
        warm=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_certified_fits_bound_the_evaluated_score(self, seed, n1, n2, censored, weighted,
                                                      warm):
        rng = np.random.default_rng(seed)
        pm, Z1, Z2 = instance(rng, n1, n2, censored=censored)
        weights = None
        if weighted:
            weights = (rng.integers(1, 5, n1).astype(float), rng.integers(1, 5, n2).astype(float))
        x0 = identity_fit(pm, Z1, Z2).beta if warm else None
        bounds = []
        real = gee._step_bound

        def recording(*args):
            bounds.append(real(*args))
            return bounds[-1]

        with unittest.mock.patch.object(gee, "_step_bound", recording):
            got = solve_newton(pm, Z1, Z2, x0=x0, weights=weights)
        with unittest.mock.patch.object(gee, "_step_bound", lambda *args: None):
            want = solve_newton(pm, Z1, Z2, x0=x0, weights=weights)
        assert_same_fit(got, want)
        if bounds and bounds[-1] is not None:
            assert got.gradient_norm == bounds[-1] and got.sweeps == want.sweeps - 1
            U, J = gee._Evaluator(pm, Z1, Z2, weights).evaluate(got.beta)
            assert np.max(np.abs(U)) <= got.gradient_norm < gee.TOL
            assert np.sign(np.linalg.eigvalsh(J)[-1]) == np.sign(
                np.linalg.eigvalsh(got.jacobian)[-1])
        else:
            assert (got.gradient_norm, got.sweeps) == (want.gradient_norm, want.sweeps)
            np.testing.assert_array_equal(got.jacobian, want.jacobian)

    def test_a_converging_fit_certifies_its_last_step(self, rng):
        pm, Z1, Z2 = instance(rng, 40, 30)
        res = solve_newton(pm, Z1, Z2)
        U, J = gee._Evaluator(pm, Z1, Z2).evaluate(res.beta)
        assert res.converged and res.sweeps == res.iterations >= 1
        assert np.max(np.abs(U)) <= res.gradient_norm < gee.CERTIFIED_SHARE * gee.TOL

    @pytest.mark.parametrize("scale, shift", [(60.0, 0.0), (10.0, 60.0)],
                             ids=["times-60", "years"])
    def test_a_covariate_in_raw_units_certifies_as_a_standardised_one(self, rng, scale, shift):
        # every covariate z as scale * z + shift, as age in years would be: the
        # same fit in other coordinates, whose last step moves eta alike
        pm, Z1, Z2 = instance(rng, 40, 30)
        R1, R2 = Z1 * scale + shift, Z2 * scale + shift

        def in_raw_units(beta):
            return np.concatenate(([beta[0] - shift * beta[1:].sum() / scale], beta[1:] / scale))

        for raw in (False, True):
            res = solve_newton(pm, *((R1, R2) if raw else (Z1, Z2)))
            assert res.converged and res.sweeps == res.iterations
        root = solve_newton(pm, Z1, Z2).beta
        np.testing.assert_allclose(in_raw_units(root), res.beta, rtol=1e-6, atol=1e-9)
        # a step of about 1e-7 in eta certifies at any scale and shift, also
        # where the intercept is nearly collinear with the covariates
        evaluator = gee._Evaluator(pm, R1, R2)
        beta = in_raw_units(root + 1e-7)
        U, J = evaluator.evaluate(beta)
        assert gee._step_bound(evaluator, beta, U, J, np.linalg.solve(J, -U)) is not None

    def test_abs_design_means_are_the_pair_means(self, rng):
        pm, Z1, Z2 = instance(rng, 9, 7, p1=2, p2=3)
        w1, w2 = rng.integers(1, 5, 9).astype(float), rng.integers(1, 5, 7).astype(float)
        a, b = rng.normal(size=9), rng.normal(size=7)
        X = np.concatenate((np.ones((9, 7, 1)), np.broadcast_to(Z1[:, None], (9, 7, 2)),
                            np.broadcast_to(Z2[None], (9, 7, 3))), axis=2)
        w, d = np.outer(w1, w2)[..., None], (a[:, None] + b)[..., None]
        means, square = gee._abs_design_means(gee._Evaluator(pm, Z1, Z2, (w1, w2)), a, b)
        np.testing.assert_allclose(means, (w * np.abs(X)).sum(axis=(0, 1)) / w.sum(), rtol=1e-13)
        np.testing.assert_allclose(square, (w * np.abs(X) * d**2).sum(axis=(0, 1)) / w.sum(),
                                   rtol=1e-13)

    @pytest.mark.parametrize("top", [0.0, -1e-11], ids=["zero", "near-zero"])
    def test_jacobian_that_may_turn_over_the_step_is_not_certified(self, rng, top):
        # an eigenvalue of J at 0, or nearer 0 than the step may move it, can
        # change sign over the step
        pm, Z1, Z2 = instance(rng, 20, 20)
        evaluator = gee._Evaluator(pm, Z1, Z2)
        beta = solve_newton(pm, Z1, Z2).beta
        U, J = evaluator.evaluate(beta)
        assert gee._step_bound(evaluator, beta, U, J, np.linalg.solve(J, -U)) is not None
        values, vectors = np.linalg.eigh(J)
        values[-1] = top
        flat = (vectors * values) @ vectors.T
        U = U - vectors[:, -1] * (vectors[:, -1] @ U)
        step = np.linalg.lstsq(flat, -U, rcond=None)[0]
        assert np.max(np.abs(U + flat @ step)) < 0.1 * gee.TOL
        assert gee._step_bound(evaluator, beta, U, flat, step) is None


@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(6, 25), n2=st.integers(6, 25),
       censored=st.booleans())
@settings(max_examples=40, deadline=None)
def test_step_bound_pre_test_refuses_only_steps_the_full_bound_refuses(seed, n1, n2,
                                                                      censored):
    # steps from points ever nearer a weighted root: wherever the O(p)
    # pre-test refuses a step (no group part of it is computed), the full
    # bound, taken with no margin to meet, is not below CERTIFIED_SHARE * TOL
    rng = np.random.default_rng(seed)
    pm, Z1, Z2 = instance(rng, n1, n2, censored=censored)
    weights = (rng.integers(1, 5, n1).astype(float), rng.integers(1, 5, n2).astype(float))
    evaluator = gee._Evaluator(pm, Z1, Z2, weights)
    root = solve_newton(pm, Z1, Z2, weights=weights).beta
    real, parts = gee._group_parts, []

    def recording(*args):
        parts.append(None)
        return real(*args)

    refused = 0
    for scale in 10.0 ** np.arange(-10, 0):
        beta = root + scale * rng.standard_normal(root.size)
        U, J = evaluator.evaluate(beta)
        step = np.linalg.solve(J, -U)
        parts.clear()
        with unittest.mock.patch.object(gee, "_group_parts", recording):
            pre_refused = gee._step_bound(evaluator, beta, U, J, step) is None and not parts
        with unittest.mock.patch.object(gee, "CERTIFIED_SHARE", np.inf):
            full = gee._step_bound(evaluator, beta, U, J, step)
        refused += pre_refused
        if pre_refused and full is not None:
            assert full >= gee.CERTIFIED_SHARE * gee.TOL
    assert refused


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_a_second_evaluation_allocates_no_vector(monkeypatch, weighted):
    # given the factors of exp(-eta) (``_exp_factors``), an evaluation writes
    # only into the evaluator's buffers: no array of length n1 or n2 beyond
    # U and J, and the same U and J
    rng = np.random.default_rng(11)
    n1, n2 = 700, 1000
    Y = rng.uniform(-0.5, 1.5, (n1, n2))
    Z1, Z2 = rng.standard_normal((n1, 2)), rng.standard_normal((n2, 2))
    weights = None
    if weighted:
        weights = (rng.integers(1, 5, n1).astype(float), rng.integers(1, 5, n2).astype(float))
    evaluator = gee._Evaluator(Y, Z1, Z2, weights)
    beta = rng.uniform(-0.5, 0.5, 5)
    want = evaluator.evaluate(beta)
    factors = gee._exp_factors(*gee._group_parts(beta, Z1, Z2))
    monkeypatch.setattr(gee, "_group_parts", lambda *args: (None, None))
    monkeypatch.setattr(gee, "_exp_factors", lambda a, b: factors)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = evaluator.evaluate(beta)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert evaluator.blocks.shape[1] < n1 and peak < 8 * min(n1, n2)


class TestBlockedEvaluator:
    """The row-blocked evaluator against the oracle's U and J across block
    boundaries and below the factored exp's limit; beyond the limit it
    returns a NaN score without a sweep."""

    @pytest.mark.parametrize("n1", [3, 4, 11], ids=["below-one-block", "one-block",
                                                   "blocks-and-remainder"])
    def test_block_boundaries(self, monkeypatch, rng, n1):
        n2 = 7
        monkeypatch.setattr(gee, "BLOCK_ELEMENTS", 4 * n2)   # blocks of 4 rows
        pm, Z1, Z2 = instance(rng, n1, n2)
        beta = identity_fit(pm, Z1, Z2).beta + rng.uniform(-0.5, 0.5, 5)
        evaluator = gee._Evaluator(pm, Z1, Z2)
        assert evaluator.blocks.shape == (3, min(n1, 4), n2)
        U, J = evaluator.evaluate(beta)
        np.testing.assert_allclose(U, oracles.score(beta, pm, Z1, Z2, LOGIT),
                                   rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(J, oracles.jacobian(beta, pm, Z1, Z2, LOGIT),
                                   rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("beta, factored", [
        ([0.0, 599.3, 1.0], True),
        ([0.0, 599.7, 1.0], False),
        ([-900.0, 1800.0, 1.0], False),
    ], ids=["factored-just-below", "per-pair-just-above", "separated"])
    def test_both_exp_branches(self, rng, beta, factored):
        # a = b0 + b1 Z1 spans [0, b1] or [-900, 900] and b = Z2 [-0.5, 0.5],
        # so the balanced factor exponent is (b1 + 0.5) / 2: 299.9 or 300.1
        # against the limit 300, and 900.5 on separated data; the rows with
        # a near 0 keep mu' well away from 0
        Z1 = np.array([[0.0], [0.002], [0.01], [0.5], [1.0]])
        Z2 = np.array([[-0.5], [-0.1], [0.2], [0.5]])
        beta = np.array(beta)
        Y = rng.uniform(-0.5, 1.5, (5, 4))
        a, b = gee._group_parts(beta, Z1, Z2)
        assert (gee._exp_factors(a, b) is not None) == factored
        evaluator = gee._Evaluator(Y, Z1, Z2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U, J = evaluator.evaluate(beta)
        if not factored:
            assert not np.isfinite(U).any() and evaluator.sweeps == 0
            return
        assert evaluator.sweeps == 1
        np.testing.assert_allclose(U, oracles.score(beta, Y, Z1, Z2, LOGIT), rtol=1e-10, atol=0)
        np.testing.assert_allclose(J, oracles.jacobian(beta, Y, Z1, Z2, LOGIT),
                                   rtol=1e-10, atol=0)

    def test_start_beyond_the_limit_is_not_converged(self, rng):
        pm, Z1, Z2 = instance(rng, 6, 5, p1=1, p2=1)
        x0 = np.array([0.0, 700.0 / np.abs(Z1).max(), 0.0])   # |eta| 700 on some pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_newton(pm, Z1, Z2, x0=x0)
        assert not res.converged and res.message == "start out of range"
        assert (res.iterations, res.sweeps) == (0, 0)
        np.testing.assert_array_equal(res.beta, x0)

    def test_factors_balance_an_offset_between_the_groups(self):
        # uncentered covariates: a and b near +-750, beyond the range of exp,
        # while eta = a + b is small; the balancing shift keeps u and v finite
        a = 750.0 + np.array([0.0, 0.3, 1.0])
        b = -750.0 + np.array([-0.5, 0.2])
        u, v = gee._exp_factors(a, b)
        np.testing.assert_allclose(np.outer(u, v), np.exp(-(a[:, None] + b)), rtol=1e-12)


class TestMultiplicityWeights:
    """Resample-as-weights gate (ROADMAP item 7, for item 6): distinct rows
    and columns weighted by their numbers of copies give the score and
    Jacobian of the expanded matrix."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(1, 12),
        n2=st.integers(1, 12),
        block_rows=st.integers(1, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_weighted_evaluator_is_the_expanded_evaluator(self, seed, n1, n2, block_rows):
        rng = np.random.default_rng(seed)
        Y = rng.uniform(-0.5, 1.5, (n1, n2))
        Z1, Z2 = rng.standard_normal((n1, 2)), rng.standard_normal((n2, 1))
        w1, w2 = rng.integers(1, 5, n1), rng.integers(1, 5, n2)
        beta = rng.uniform(-1, 1, 4)
        expanded = np.repeat(np.repeat(Y, w1, axis=0), w2, axis=1)
        with unittest.mock.patch.object(gee, "BLOCK_ELEMENTS", block_rows * max(n2, w2.sum())):
            got = gee._Evaluator(Y, Z1, Z2, (w1.astype(float), w2.astype(float)))
            want = gee._Evaluator(expanded, np.repeat(Z1, w1, axis=0), np.repeat(Z2, w2, axis=0))
            for g, w in zip(got.evaluate(beta), want.evaluate(beta)):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())

    @given(seed=st.integers(0, 2**32 - 1), n1=st.integers(1, 9), n2=st.integers(1, 9))
    @settings(max_examples=50, deadline=None)
    def test_max_abs_eta_is_the_pair_maximum(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        Z1, Z2 = rng.standard_normal((n1, 2)), rng.standard_normal((n2, 2))
        beta = rng.uniform(-20, 20, 5)
        pairs = np.abs(oracles._pair_design(Z1, Z2) @ beta).max()
        assert gee.max_abs_eta(beta, Z1, Z2) == pytest.approx(pairs, rel=1e-14, abs=1e-13)

    def test_weights_must_match_the_matrix(self, rng):
        pm, Z1, Z2 = instance(rng, 6, 5)
        with pytest.raises(ValueError, match="weights"):
            solve_newton(pm, Z1, Z2, weights=(np.ones(6), np.ones(4)))


def sandwich_case(times, tau, covariates, seed=0):
    """A fully observed dataset for the sandwich tests.

    ``times``: "continuous" normal times, some negative, or "tied" integer
    times from -1 to 6 with T1 = T2 ties.  ``tau``: "inf", "inside" the
    data or "low", below most times; a finite tau is also a group-2 time.
    ``covariates``: "normal" or "binary", two in group 1 and one in group 2.
    """
    rng = np.random.default_rng(seed)
    n1, n2 = 23, 17
    if times == "continuous":
        T1, T2 = rng.standard_normal(n1) + 1.5, rng.standard_normal(n2) + 1.5
        tau = {"inf": np.inf, "inside": 1.5, "low": 0.3}[tau]
    else:
        T1, T2 = (rng.integers(-1, 7, n).astype(float) for n in (n1, n2))
        tau = {"inf": np.inf, "inside": 3.0, "low": 1.0}[tau]
    if np.isfinite(tau):
        T2[0] = tau
    if covariates == "normal":
        Z1, Z2 = rng.standard_normal((n1, 2)), rng.standard_normal((n2, 1))
    else:
        Z1, Z2 = ((rng.uniform(size=(n, p)) < 0.4).astype(float) for n, p in ((n1, 2), (n2, 1)))
    return TwoSampleDataset(T1, np.ones(n1), Z1, T2, np.ones(n2), Z2, tau=tau)


SANDWICH_CASES = [(t, tau, z) for t in ("continuous", "tied") for tau in ("inf", "inside", "low")
                  for z in ("normal", "binary")]


@st.composite
def sandwich_datasets(draw):
    """Fully observed datasets on a grid of eighths, so that exp and affine
    maps keep distinct times distinct, with heavy ties and tau infinite or
    an observed time.  At least five subjects a group keep the design of
    one group-1 and two group-2 covariates well conditioned (at three, its
    condition number reaches 1e7 and the covariance carries its rounding)."""
    n1, n2 = draw(st.integers(5, 12)), draw(st.integers(5, 12))
    ticks = st.integers(-16, 48)
    T1 = np.array(draw(st.lists(ticks, min_size=n1, max_size=n1))) / 8
    T2 = np.array(draw(st.lists(ticks, min_size=n2, max_size=n2))) / 8
    positive = np.concatenate((T1, T2))
    positive = positive[positive > 0]
    tau = draw(st.sampled_from([np.inf, *positive]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    Z1, Z2 = rng.standard_normal((n1, 1)), rng.standard_normal((n2, 2))
    return TwoSampleDataset(T1, np.ones(n1), Z1, T2, np.ones(n2), Z2, tau=tau)


class TestSandwich:
    @pytest.mark.parametrize("times, tau, covariates", SANDWICH_CASES)
    def test_matches_matrix_oracle(self, times, tau, covariates):
        for seed in range(3):
            data = sandwich_case(times, tau, covariates, seed)
            ref = oracles.sandwich_covariance_uncensored(data)
            np.testing.assert_allclose(sandwich_covariance_uncensored(data), ref,
                                       rtol=0, atol=1e-10 * np.abs(ref).max())

    @pytest.mark.parametrize("times, tau, covariates", SANDWICH_CASES)
    def test_indicator_products_match_brute_products(self, times, tau, covariates):
        data = sandwich_case(times, tau, covariates)
        X1 = np.column_stack((np.ones(data.n1), data.covariates1))
        X2 = np.column_stack((np.ones(data.n2), data.covariates2))
        D = _indicator_matrix(data)
        DX2, DtX1 = gee._indicator_products(data, X1, X2)
        np.testing.assert_allclose(DX2, D @ X2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(DtX1, D.T @ X1, rtol=0, atol=1e-12)
        # the counts are exact, so beta is fitted from D's means bit for bit
        np.testing.assert_array_equal(DX2[:, 0] / data.n2, D.mean(axis=1))
        np.testing.assert_array_equal(DtX1[:, 0] / data.n1, D.mean(axis=0))

    @settings(max_examples=100, deadline=None)
    @given(data=sandwich_datasets())
    def test_identity_fit_is_the_fit_on_exact_counts(self, data):
        """The closed-form fit of fully observed data is ``solve_identity`` on
        the sandwich's exact indicator counts, bit for bit."""
        X1 = np.column_stack((np.ones(data.n1), data.covariates1))
        X2 = np.column_stack((np.ones(data.n2), data.covariates2))
        DX2, DtX1 = gee._indicator_products(data, X1, X2)
        counts = solve_identity(DX2[None, :, 0] / data.n2, DtX1[None, :, 0] / data.n1,
                                data.covariates1[None], data.covariates2[None])
        np.testing.assert_array_equal(FitSpec().fit(data).beta, counts.beta[0])

    @settings(max_examples=100, deadline=None)
    @given(data=sandwich_datasets(), permutation_seed=st.integers(0, 2**16))
    def test_permuting_subjects_within_groups(self, data, permutation_seed):
        """Metamorphic gate (ROADMAP item 7) of the matrix-free sandwich:
        relabelling the subjects of each group leaves the covariance
        unchanged up to rounding."""
        rng = np.random.default_rng(permutation_seed)
        p1, p2 = rng.permutation(data.n1), rng.permutation(data.n2)
        permuted = TwoSampleDataset(data.times1[p1], data.events1, data.covariates1[p1],
                                    data.times2[p2], data.events2, data.covariates2[p2],
                                    tau=data.tau)
        cov = sandwich_covariance_uncensored(data)
        # residuals that vanish in exact arithmetic (e.g. every T1 beyond
        # every T2) leave a covariance of pure rounding; its scale is then
        # that of unit residuals, the bread times (n1 + n2) / (n1 n2)
        bread = np.linalg.pinv(design_second_moment(data.covariates1, data.covariates2))
        scale = max(np.abs(cov).max(),
                    np.abs(bread).max() * (data.n1 + data.n2) / (data.n1 * data.n2))
        np.testing.assert_allclose(sandwich_covariance_uncensored(permuted), cov,
                                   rtol=0, atol=1e-12 * scale)

    @settings(max_examples=100, deadline=None)
    @given(data=sandwich_datasets(), transform=st.sampled_from([np.exp, lambda t: 2 * t + 5]))
    def test_increasing_time_transform(self, data, transform):
        """Metamorphic gate (ROADMAP item 7) of the matrix-free sandwich: a
        strictly increasing map of time, with tau mapped alike, leaves the
        covariance bitwise equal."""
        mapped = dataclasses.replace(data, times1=transform(data.times1),
                                     times2=transform(data.times2), tau=transform(data.tau))
        np.testing.assert_array_equal(sandwich_covariance_uncensored(mapped),
                                      sandwich_covariance_uncensored(data))

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
        # the production blocks with raw indicators in place of residuals,
        # the row and column blocks from the loop's D (1, Z2) and D' (1, Z1)
        X1 = np.column_stack((np.ones(n1), Z1))
        X2 = np.column_stack((np.ones(n2), Z2))
        got0 = paired_quadratic(D, Z1, Z2) / (n1 * n2) - np.outer(m, m)
        got1, got2 = _shared_row_column_meat(D @ X2, D.T @ X1, Z1, Z2)
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
        o0 = paired_quadratic(D, Z1, Z2) / D.size - np.outer(m, m)
        expected = design_second_moment(Z1, Z2) - np.outer(m, m)
        np.testing.assert_allclose(o0, expected, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), p1=st.integers(0, 6), p2=st.integers(0, 6),
       n1=st.integers(2, 3000), n2=st.integers(2, 3000), stack=st.sampled_from([None, 1, 3]))
@settings(max_examples=80, deadline=None)
def test_design_second_moment_is_the_mean_form_bit_for_bit(seed, p1, p2, n1, n2, stack):
    # the column means of p >= 2 columns are summed without mean(axis=-2)'s
    # strided reduction, in its order of rows; 2-D and stacked 3-D designs,
    # columns scaled from 1e-5 to 1e5
    rng = np.random.default_rng(seed)
    lead = () if stack is None else (stack,)
    Z1, Z2 = (rng.standard_normal(lead + (n, p)) * 10.0 ** rng.uniform(-5, 5, p) + rng.uniform(-3, 3, p)
              for n, p in ((n1, p1), (n2, p2)))
    assert np.array_equal(design_second_moment(Z1, Z2), oracles.design_second_moment(Z1, Z2))
