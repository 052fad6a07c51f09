"""The Kaplan-Meier oracles (step-function curves, product-limit estimator,
Stieltjes sums), the prefix-product leave-one-out curves against them, and
the dataset's validation and stacking."""

import dataclasses
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import SurvivalCurve, kaplan_meier, leave_one_out_km, theta_integral
from releff.pseudo import _SortedLeaveOneOut
from conftest import random_dataset
from releff.survival import TwoSampleDataset, stack_datasets


def empirical_survivor(sample, t):
    sample = np.asarray(sample, dtype=float)
    return np.mean(sample > t)


class TestSurvivalCurve:
    def test_right_continuity(self):
        S = SurvivalCurve(np.array([1.0, 2.0]), np.array([0.5, 0.0]))
        assert S(0.5) == 1.0
        assert S(1.0) == 0.5          # value after the jump
        assert S(1.5) == 0.5
        assert S(2.0) == 0.0
        assert S(10.0) == 0.0

    def test_jump_sizes(self):
        S = SurvivalCurve(np.array([1.0, 3.0]), np.array([0.75, 0.25]))
        np.testing.assert_allclose(S.jumps(), [0.25, 0.5])

    def test_rejects_increasing_values(self):
        with pytest.raises(ValueError):
            SurvivalCurve(np.array([1.0, 2.0]), np.array([0.4, 0.6]))

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            SurvivalCurve(np.array([2.0, 1.0]), np.array([0.6, 0.4]))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            SurvivalCurve(np.array([1.0]), np.array([1.5]))


class TestKaplanMeier:
    def test_uncensored_two_points(self):
        S = kaplan_meier([1.0, 2.0], [1.0, 1.0])
        np.testing.assert_allclose(S.jump_times, [1.0, 2.0])
        np.testing.assert_allclose(S.values, [0.5, 0.0])

    def test_censored_classic(self):
        # times 1,2+,3,4: drop to 3/4 at 1, then 3/8 at 3 (risk set {3,4}), 0 at 4
        S = kaplan_meier([1, 2, 3, 4], [1, 0, 1, 1])
        np.testing.assert_allclose(S.jump_times, [1, 3, 4])
        np.testing.assert_allclose(S.values, [0.75, 0.375, 0.0])

    def test_ties_with_mixed_statuses(self):
        # event and censoring at t=1: risk set of size 3 includes the censored one
        S = kaplan_meier([1, 1, 2], [1, 0, 1])
        np.testing.assert_allclose(S.jump_times, [1, 2])
        np.testing.assert_allclose(S.values, [2 / 3, 0.0])

    def test_flat_tail_beyond_censored_maximum(self):
        S = kaplan_meier([1, 2], [1, 0])
        assert S(100.0) == 0.5

    def test_events_none_means_uncensored(self):
        a = kaplan_meier([3.0, 1.0, 2.0])
        b = kaplan_meier([3.0, 1.0, 2.0], [1, 1, 1])
        np.testing.assert_array_equal(a.jump_times, b.jump_times)
        np.testing.assert_array_equal(a.values, b.values)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            kaplan_meier([])

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=25),
        st.floats(-6, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_uncensored_equals_empirical(self, sample, t):
        S = kaplan_meier(sample)
        assert S(t) == pytest.approx(empirical_survivor(sample, t), abs=1e-12)


class TestLeaveOneOut:
    def test_dropping_only_censored_subject(self):
        grid = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
        curves = _SortedLeaveOneOut(np.array([1.0, 2, 3]), np.array([1.0, 0, 1])).curves(grid)
        np.testing.assert_array_equal(curves[2], kaplan_meier([1, 3])(grid))

    def test_matches_direct_recomputation(self, rng):
        times = rng.uniform(0, 4, 12)
        events = (rng.uniform(size=12) < 0.7).astype(float)
        grid = np.linspace(-1, 5, 200)
        curves = _SortedLeaveOneOut(times, events).curves(grid)
        np.testing.assert_allclose(curves[0], kaplan_meier(times, events)(grid))
        for i in range(12):
            keep = np.arange(12) != i
            slow = kaplan_meier(times[keep], events[keep])
            np.testing.assert_allclose(curves[i + 1], slow(grid))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            leave_one_out_km([1, 2], [1, 1], 5)


class TestThetaIntegral:
    def test_two_by_two_uncensored(self):
        S1 = kaplan_meier([3.0, 5.0])
        S2 = kaplan_meier([1.0, 4.0])
        # pairs (3,1),(3,4),(5,1),(5,4): three of four have T1 > T2
        assert theta_integral(S1, S2) == pytest.approx(0.75)

    def test_tau_cuts_open_interval(self):
        S1 = kaplan_meier([3.0, 5.0])
        S2 = kaplan_meier([1.0, 4.0])
        # jump of S2 at 4 is excluded when tau == 4
        assert theta_integral(S1, S2, tau=4.0) == pytest.approx(0.5)

    def test_no_group2_jumps_below_tau(self):
        S1 = kaplan_meier([1.0, 2.0])
        S2 = kaplan_meier([5.0, 6.0])
        assert theta_integral(S1, S2, tau=3.0) == 0.0

    def test_negative_times_supported(self):
        S1 = kaplan_meier([-1.0, 2.0])
        S2 = kaplan_meier([-3.0, 1.0])
        # pairs: (-1,-3),(-1,1),(2,-3),(2,1) -> 3/4
        assert theta_integral(S1, S2) == pytest.approx(0.75)

    @given(
        st.lists(st.floats(-3, 3), min_size=2, max_size=15),
        st.lists(st.floats(-3, 3), min_size=2, max_size=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_uncensored_equals_pair_count(self, s1, s2):
        S1 = kaplan_meier(s1)
        S2 = kaplan_meier(s2)
        t1 = np.asarray(s1)[:, None]
        t2 = np.asarray(s2)[None, :]
        brute = np.mean(t1 > t2)
        assert theta_integral(S1, S2) == pytest.approx(brute, abs=1e-12)


class TestTwoSampleDataset:
    def test_minimum_group_size(self):
        with pytest.raises(ValueError):
            TwoSampleDataset([1.0], [1.0], [[0.0]], [1.0, 2.0], [1.0, 1.0], [[0.0], [0.0]])

    def test_rejects_nonbinary_status(self):
        with pytest.raises(ValueError):
            TwoSampleDataset([1, 2], [1, 2], np.zeros((2, 0)), [1, 2], [1, 1], np.zeros((2, 0)))

    def test_negative_time_needs_uncensored(self):
        with pytest.raises(ValueError):
            TwoSampleDataset([-1, 2], [1, 0], np.zeros((2, 0)), [1, 2], [1, 1], np.zeros((2, 0)))
        d = TwoSampleDataset([-1, 2], [1, 1], np.zeros((2, 0)), [1, 2], [1, 1], np.zeros((2, 0)))
        assert d.uncensored

    def test_one_dimensional_covariates_are_one_column(self):
        d = TwoSampleDataset([1, 2], [1, 1], [0.5, 0.7], [1, 2], [1, 1], [])
        assert d.covariates1.shape == (2, 1) and d.covariates2.shape == (2, 0)
        np.testing.assert_array_equal(d.covariates1[:, 0], [0.5, 0.7])

    @pytest.mark.parametrize("times1, tau, message", [
        ([1, 2, 3], np.inf, "group 1: times and events differ in length"),
        ([1, np.inf], np.inf, "group 1: times must be finite"),
        ([1, np.nan], np.inf, "group 1: times must be finite"),
        ([1, 2], 0.0, "tau must be positive"),
        ([1, 2], -1.0, "tau must be positive"),
        ([1, 2], np.nan, "tau must be positive"),
    ], ids=["lengths", "inf-time", "nan-time", "tau-zero", "tau-negative", "tau-nan"])
    def test_rejects_malformed_times_and_horizon(self, times1, tau, message):
        with pytest.raises(ValueError, match=message):
            TwoSampleDataset(times1, [1, 1], np.zeros((len(times1), 0)),
                             [1, 2], [1, 1], np.zeros((2, 0)), tau=tau)


class TestStack:
    @staticmethod
    def datasets(rng, tau=1.5):
        return [random_dataset(rng, 7, 5, p1=2, p2=1, censored=k % 2 == 0, tau=tau)
                for k in range(4)]

    def test_item_k_is_dataset_k(self, rng):
        datasets = self.datasets(rng)
        stack = stack_datasets(datasets)
        for k, data in enumerate(datasets):
            for f in fields(TwoSampleDataset):
                assert np.array_equal(getattr(stack[k], f.name), getattr(data, f.name)), f.name
            assert stack[k].tau == stack.tau == 1.5

    @given(seed=st.integers(0, 2**32 - 1), n_sets=st.integers(1, 6), n1=st.integers(2, 9),
           n2=st.integers(2, 9), negative=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rows_of_a_stack_are_the_checked_datasets(self, seed, n_sets, n1, n2, negative):
        # stack[k], stack[mask] and stack.resampled skip the constructor's
        # checks; each is the dataset that the checked constructor builds
        rng = np.random.default_rng(seed)
        p1 = int(rng.integers(0, 3))
        datasets = [random_dataset(rng, n1, n2, p1=p1, p2=1, tau=1.5,
                                   censored=bool(rng.integers(0, 2)) and not negative)
                    for _ in range(n_sets)]
        if negative:
            datasets = [dataclasses.replace(d, times1=d.times1 - 1.0, times2=d.times2 - 1.0)
                        for d in datasets]
        stack = stack_datasets(datasets)

        def checked(data):
            return TwoSampleDataset(*(getattr(data, f.name) for f in fields(TwoSampleDataset)))

        def assert_same(got, want):
            assert type(got) is TwoSampleDataset
            for f in fields(TwoSampleDataset):
                g, w = getattr(got, f.name), getattr(want, f.name)
                assert np.shape(g) == np.shape(w) and np.asarray(g).dtype == np.asarray(w).dtype
                assert np.array_equal(g, w), f.name
            assert (got.n1, got.n2, got.uncensored) == (want.n1, want.n2, want.uncensored)

        mask = rng.integers(0, 2, n_sets).astype(bool)
        for k in [*range(n_sets), mask, np.flatnonzero(mask)]:
            assert_same(stack[k], checked(stack[k]))
        idx1 = rng.integers(0, n1, (n_sets, n1 + int(rng.integers(0, 3))))
        idx2 = rng.integers(0, n2, (n_sets, n2))
        resampled = stack.resampled(idx1, idx2)
        assert_same(resampled, checked(resampled))
        for k, data in enumerate(datasets):
            assert_same(resampled[k], checked(stack_datasets([data]).resampled(
                idx1[k : k + 1], idx2[k : k + 1])[0]))

    @pytest.mark.parametrize("n_sets, p1, p2, n1, n2, rows", [
        (1, 2, 1, 7, 5, 6), (4, 2, 1, 7, 5, 4), (3, 0, 0, 6, 9, 3), (1, 0, 3, 2, 11, 8),
        (5, 3, 0, 12, 4, 5)], ids=["one", "many", "p0", "one-p0", "many-p0"])
    def test_resamples_are_the_fancy_indexed_rows(self, rng, n_sets, p1, p2, n1, n2, rows):
        # the flat gather takes what 2-D fancy indexing takes: index rows for
        # each dataset, one 1-D index for all, a stack of one once per row,
        # and 2N rows over N datasets (row r resamples dataset r mod N) as
        # the N datasets stacked twice over
        datasets = [random_dataset(rng, n1, n2, p1=p1, p2=p2) for _ in range(n_sets)]
        stack = stack_datasets(datasets)
        twice = stack_datasets(datasets + datasets)
        for lead in ((rows if n_sets == 1 else n_sets,), (1,), (), (2 * n_sets,)):
            idx1 = rng.integers(0, n1, lead + (n1 + 2,))
            idx2 = rng.integers(0, n2, lead + (n2,))
            got = stack.resampled(idx1, idx2)
            wrapped = lead == (2 * n_sets,)
            want = oracles.stack_resampled(twice if wrapped else stack, idx1, idx2)
            for f in fields(TwoSampleDataset):
                g, w = getattr(got, f.name), getattr(want, f.name)
                assert np.shape(g) == np.shape(w) and np.asarray(g).dtype == np.asarray(w).dtype
                assert np.array_equal(g, w), f.name

    def test_rows_and_resamples_need_a_stack_and_two_subjects_per_group(self, rng):
        data = random_dataset(rng, 7, 5)
        stack = stack_datasets([data])
        for call in (lambda: data[0], lambda: data.resampled(np.zeros((1, 7), int),
                                                             np.zeros((1, 5), int))):
            with pytest.raises(ValueError, match="not a stack"):
                call()
        for idx1, idx2 in (([[0]], [[0, 1]]), ([[0, 1]], [[4]]), (0, [[0, 1]])):
            with pytest.raises(ValueError, match="at least 2 subjects"):
                stack.resampled(np.array(idx1), np.array(idx2))
        assert stack.resampled(np.array([0, 1]), np.array([3, 4])).times1.shape == (1, 2)

    def test_sizes_are_per_dataset(self, rng):
        stack = stack_datasets(self.datasets(rng))
        assert (stack.n1, stack.n2) == (7, 5)
        assert stack.times1.shape == (4, 7) and stack.covariates2.shape == (4, 5, 1)

    def test_covariate_rows_must_match_the_stacked_times(self, rng):
        stack = stack_datasets(self.datasets(rng))
        with pytest.raises(ValueError, match="covariate rows"):
            TwoSampleDataset(stack.times1, stack.events1, stack.covariates1[:3],
                             stack.times2, stack.events2, stack.covariates2)

    def test_status_two_in_one_dataset_is_rejected(self, rng):
        stack = stack_datasets(self.datasets(rng))
        events2 = stack.events2.copy()
        events2[2, 1] = 2.0
        with pytest.raises(ValueError, match="status"):
            TwoSampleDataset(stack.times1, stack.events1, stack.covariates1,
                             stack.times2, events2, stack.covariates2)

    def test_horizons_must_agree(self, rng):
        datasets = self.datasets(rng)
        with pytest.raises(ValueError, match="horizon"):
            stack_datasets(datasets[:2] + self.datasets(rng, tau=np.inf)[:1])

    def test_negative_times_are_checked_per_dataset(self):
        observed = TwoSampleDataset([-1, 2], [1, 1], np.zeros((2, 0)), [1, 2], [1, 1],
                                    np.zeros((2, 0)))
        censored = TwoSampleDataset([1, 2], [1, 0], np.zeros((2, 0)), [1, 2], [1, 1],
                                    np.zeros((2, 0)))
        stack = stack_datasets([observed, censored])
        assert not stack.uncensored
        with pytest.raises(ValueError, match="negative"):
            TwoSampleDataset(stack.times1, stack.events1[::-1], stack.covariates1,
                             stack.times2, stack.events2, stack.covariates2)
