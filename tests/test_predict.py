import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_dataset
from oracles import kaplan_meier, prediction_interval
from releff.gee import FitResult, IDENTITY, LOGIT
from releff.inference import BootstrapEnsemble, FitSpec, bootstrap
from releff.predict import Predictions, predict_profiles
from releff.pseudo import tie_correction_term
from releff.survival import TwoSampleDataset


def fixed_fit(beta):
    return FitResult(beta=np.asarray(beta, dtype=float), converged=True,
                     iterations=0, gradient_norm=0.0)


def point_prediction(fit, z1, z2, link=IDENTITY, correction=None):
    """The point prediction of the single profile (z1, z2), from an ensemble
    whose replicates all equal the fit."""
    ens = BootstrapEnsemble(replicates=np.tile(fit.beta, (2, 1)), B=2, seed=0, base_fit=fit)
    return predict_profiles(fit, ens, [z1], [z2], link=link, correction=correction)


def two_samples(t1, t2, tau, e1=None, e2=None):
    """A dataset without covariates; ``e=None`` means fully observed."""
    n1, n2 = len(t1), len(t2)
    e1 = np.ones(n1) if e1 is None else e1
    e2 = np.ones(n2) if e2 is None else e2
    return TwoSampleDataset(t1, e1, np.zeros((n1, 0)), t2, e2, np.zeros((n2, 0)), tau=tau)


TIED_TIMES = (0.5, 1.0, 1.5, 2.0, 3.0)


@st.composite
def tied_samples(draw):
    """Times on TIED_TIMES, each subject an event or a censoring, so that
    censorings fall on event times; tau on one of the times (often a common
    jump), between them, beyond them or below every time."""
    groups = []
    for _ in range(2):
        n = draw(st.integers(2, 12))
        groups.append((draw(st.lists(st.sampled_from(TIED_TIMES), min_size=n, max_size=n)),
                       draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))))
    tau = draw(st.sampled_from(TIED_TIMES + (0.25, 1.75, 4.0)))
    (t1, e1), (t2, e2) = groups
    return two_samples(t1, t2, tau, e1, e2)


class TestTieCorrection:
    def test_no_events_before_tau_gives_half(self):
        assert tie_correction_term(two_samples([5.0, 6.0], [7.0, 8.0], 1.0)) == pytest.approx(0.5)

    def test_exhausted_curves_without_common_jumps_give_zero(self):
        assert tie_correction_term(two_samples([1.0, 2.0], [1.5, 2.5], 3.0)) == 0.0

    def test_identical_samples_split_tie_mass(self):
        # both groups {1, 2}: tie probability 1/2, correction 1/4
        assert tie_correction_term(two_samples([1.0, 2.0], [1.0, 2.0], 3.0)) == pytest.approx(0.25)

    def test_boundary_jump_included(self):
        # tau exactly at the second jump: both jumps counted, plateau zero
        assert tie_correction_term(two_samples([1.0, 2.0], [1.0, 2.0], 2.0)) == pytest.approx(0.25)

    def test_infinite_tau_rejected(self):
        with pytest.raises(ValueError):
            tie_correction_term(two_samples([1.0, 2.0], [1.0, 2.0], np.inf))

    @given(
        st.lists(st.floats(0.1, 10), min_size=2, max_size=20),
        st.lists(st.floats(0.1, 10), min_size=2, max_size=20),
        st.floats(0.1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_range(self, s1, s2, tau):
        c = tie_correction_term(two_samples(s1, s2, tau))
        assert 0.0 <= c <= 0.5

    @given(tied_samples())
    # tau on a common jump, with censorings at it in both groups
    @example(two_samples([1.0, 2.0, 2.0, 2.0], [2.0, 2.0, 3.0], 2.0, [1, 1, 0, 1], [1, 0, 1]))
    # tau below every time
    @example(two_samples([1.0, 1.0, 3.0], [0.5, 1.0], 0.25, [1, 0, 1], [1, 1]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_two_curve_oracle_under_heavy_ties(self, data):
        S1 = kaplan_meier(data.times1, data.events1)
        S2 = kaplan_meier(data.times2, data.events2)
        expected = oracles.tie_correction_term(S1, S2, data.tau)
        assert tie_correction_term(data) == pytest.approx(expected, rel=0, abs=1e-15)


class TestPredictProbability:
    """Point predictions of one profile through ``predict_profiles``."""

    def test_requires_converged_fit(self):
        bad = FitResult(beta=np.zeros(3), converged=False, iterations=50, gradient_norm=1.0)
        with pytest.raises(ValueError):
            point_prediction(bad, [0.0], [0.0])

    def test_reduced_convention_at_zero_covariates(self):
        fit = fixed_fit([0.2, 0.3, -0.1])
        pred = point_prediction(fit, [0.0], [0.0], correction=0.36)
        assert pred.point[0] == pytest.approx(0.36)

    def test_constant_when_slopes_cancel(self, rng):
        fit = fixed_fit([0.1, 0.25, -0.25])
        vals = [
            point_prediction(fit, [z], [z], correction=0.3).point[0]
            for z in rng.standard_normal(100)
        ]
        np.testing.assert_allclose(vals, 0.3, atol=1e-12)

    def test_plain_mode_uses_link(self):
        fit = fixed_fit([0.0, 1.0, 0.0])
        pred = point_prediction(fit, [0.0], [0.0], link=LOGIT)
        assert pred.point[0] == pytest.approx(0.5)

    def test_out_of_range_flagged_not_clamped(self):
        fit = fixed_fit([0.9, 0.5, 0.0])
        pred = point_prediction(fit, [1.0], [1.0], correction=0.9)
        assert pred.point[0] > 1.0
        assert pred.out_of_range[0]

    def test_correction_rejected_for_nonidentity(self):
        fit = fixed_fit([0.0, 0.1, 0.1])
        with pytest.raises(ValueError):
            point_prediction(fit, [1.0], [1.0], link=LOGIT, correction=0.3)


class TestClassify:
    def test_three_way_rule(self):
        cases = [
            ((0.55, 0.70), "intervention-benefit"),
            ((0.30, 0.45), "control-benefit"),
            ((0.45, 0.55), "indeterminate"),
            ((0.50, 0.60), "indeterminate"),   # boundary touches 0.5
            ((0.40, 0.50), "indeterminate"),
        ]
        intervals, expected = zip(*cases)
        lo, hi = np.array(intervals).T
        preds = Predictions(point=(lo + hi) / 2, ci_low=lo, ci_high=hi, interval="emp")
        assert preds.classification.tolist() == list(expected)


class TestPredictWithCI:
    """Predictions with CIs of one profile through ``predict_profiles``."""

    def test_interval_brackets_point(self, rng):
        data = random_dataset(rng, 20, 20, censored=True, tau=3.0)
        ens = bootstrap(data, B=80, seed=4)
        corr = tie_correction_term(data)
        for method in ("emp", "quantile"):
            pred = predict_profiles(ens.base_fit, ens, [[0.3, -0.2]], [[0.3, -0.2]],
                                    correction=corr, method=method)
            assert pred.ci_low[0] < pred.ci_high[0]
            assert pred.ci_low[0] < pred.point[0] + 1e-9

    def test_unknown_method(self, rng):
        data = random_dataset(rng, 10, 10, censored=False)
        ens = bootstrap(data, B=20, seed=0)
        with pytest.raises(ValueError):
            predict_profiles(ens.base_fit, ens, [[0.0, 0.0]], [[0.0, 0.0]],
                             correction=0.3, method="bc_a")

    def test_large_sample_prediction_tracks_conditional_frequency(self):
        # logistic-regime data with a strong covariate effect: binned empirical
        # frequencies of T1 > T2 should track the identity-link prediction
        rng = np.random.default_rng(11)
        n, k, g = 4000, 2.0, 0.8
        Z1 = rng.uniform(-1, 1, (n, 1))
        Z2 = rng.uniform(-1, 1, (n, 1))
        T1 = np.exp(g * Z1[:, 0]) * rng.weibull(k, n)
        T2 = np.exp(-g * Z2[:, 0]) * rng.weibull(k, n)
        data = TwoSampleDataset(T1, np.ones(n), Z1, T2, np.ones(n), Z2)
        fit = FitSpec().fit(data)
        z0 = 0.5
        pred = point_prediction(fit, [z0], [z0]).point[0]
        sel1 = np.abs(Z1[:, 0] - z0) < 0.1
        sel2 = np.abs(Z2[:, 0] - z0) < 0.1
        freq = np.mean(T1[sel1][:, None] > T2[sel2][None, :])
        assert pred == pytest.approx(freq, abs=0.05)


class TestPredictProfiles:
    @pytest.mark.parametrize("method", ["emp", "quantile"])
    @pytest.mark.parametrize(
        "link, correction", [(IDENTITY, 0.37), (IDENTITY, None), (LOGIT, None)],
        ids=["link0-0.37", "link1-None", "link2-None"],
    )
    def test_batch_matches_each_row(self, rng, method, link, correction):
        data = random_dataset(rng, 25, 20, p1=2, p2=1, censored=True, tau=3.0)
        ens = bootstrap(data, spec=FitSpec(link=link), B=60, seed=5)
        Z1, Z2 = data.covariates1[:20], data.covariates2
        batch = predict_profiles(ens.base_fit, ens, Z1, Z2, link=link,
                                 correction=correction, method=method)
        assert batch.point.shape == batch.ci_low.shape == batch.ci_high.shape == (20,)
        for i in range(20):
            row = predict_profiles(ens.base_fit, ens, Z1[i : i + 1], Z2[i : i + 1], link=link,
                                   correction=correction, method=method)
            got = [batch.point[i], batch.ci_low[i], batch.ci_high[i]]
            np.testing.assert_allclose(got, [row.point[0], row.ci_low[0], row.ci_high[0]],
                                       rtol=0, atol=1e-12)
            want = prediction_interval(ens.base_fit, ens, Z1[i], Z2[i], link,
                                       correction=correction, method=method)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert batch.out_of_range[i] == row.out_of_range[0]
            assert batch.classification[i] == row.classification[0]

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05])
    @pytest.mark.parametrize("method", ["emp", "quantile"])
    def test_alpha_off_the_unit_interval_is_refused(self, rng, method, alpha):
        # at alpha = 1.5 both intervals came out with ci_low > ci_high
        data = random_dataset(rng, 20, 20, p1=1, p2=1)
        ens = bootstrap(data, B=30, seed=0)
        Z = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            predict_profiles(ens.base_fit, ens, Z, Z, alpha=alpha, method=method)

    @pytest.mark.parametrize("method", ["emp", "quantile"])
    def test_logit_intervals_lie_in_unit_interval_and_contain_point(self, method):
        # built on beta'z and mapped through expit; built as a probability
        # +- a log-odds spread, 90% (emp) and 82% (quantile) of them left [0, 1]
        data = random_dataset(np.random.default_rng(7), 30, 30, p1=2, p2=2, censored=True)
        ens = bootstrap(data, spec=FitSpec(link=LOGIT), B=40, seed=3)
        Z = np.vstack((data.covariates1, data.covariates2))
        pred = predict_profiles(ens.base_fit, ens, Z, Z, link=LOGIT, method=method)
        assert (0.0 <= pred.ci_low).all() and (pred.ci_high <= 1.0).all()
        assert (pred.ci_low <= pred.point).all() and (pred.point <= pred.ci_high).all()
        assert not pred.out_of_range.any()

    def test_out_of_range_and_labels(self):
        fit = fixed_fit([0.0, 1.0, 0.0])
        # identical replicates: zero spread, so each CI is its point
        ens = BootstrapEnsemble(replicates=np.tile(fit.beta, (2, 1)), B=2, seed=0, base_fit=fit)
        Z = np.array([[-0.3], [0.1], [0.8]])
        batch = predict_profiles(fit, ens, Z, Z, correction=0.0)
        np.testing.assert_array_equal(batch.out_of_range, [True, False, False])
        np.testing.assert_array_equal(
            batch.classification, ["control-benefit", "control-benefit", "intervention-benefit"]
        )
