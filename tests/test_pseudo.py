import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from oracles import brute_matrix, kaplan_meier, leave_one_out_km, theta_hat
from releff import pseudo
from releff.pseudo import (
    _SortedLeaveOneOut,
    _indicator_matrix,
    _stieltjes_matrix,
    pseudo_marginals,
    pseudo_matrix,
)
from releff.survival import TwoSampleDataset, stack_datasets


def make(t1, e1, t2, e2, tau=np.inf):
    n1, n2 = len(t1), len(t2)
    return TwoSampleDataset(t1, e1, np.zeros((n1, 0)), t2, e2, np.zeros((n2, 0)), tau=tau)


def test_two_by_two_indicator_matrix():
    data = make([3.0, 5.0], [1, 1], [1.0, 4.0], [1, 1])
    pm = pseudo_matrix(data)
    np.testing.assert_allclose(pm, [[1.0, 0.0], [1.0, 1.0]])
    assert pm.mean() == pytest.approx(0.75)
    assert pm.mean() == pytest.approx(theta_hat(data))


def test_uncensored_entries_binary(rng):
    data = random_dataset(rng, 12, 9, censored=False)
    pm = pseudo_matrix(data)
    assert np.all(np.isin(pm, (0.0, 1.0)))


def test_uncensored_marginals_match_km_curves(rng):
    data = random_dataset(rng, 10, 11, censored=False)
    pm = pseudo_matrix(data)
    S1 = kaplan_meier(data.times1)
    S2 = kaplan_meier(data.times2)
    # S2 just below each group-1 time: no event time lies in between
    S2_before = S2(np.nextafter(data.times1, -np.inf))
    np.testing.assert_allclose(pm.mean(axis=1), 1.0 - S2_before, atol=1e-12)
    np.testing.assert_allclose(pm.mean(axis=0), S1(data.times2), atol=1e-12)


def test_stieltjes_matches_indicator_on_uncensored(rng):
    for _ in range(20):
        data = random_dataset(rng, rng.integers(2, 15), rng.integers(2, 15), censored=False)
        np.testing.assert_allclose(
            _indicator_matrix(data), _stieltjes_matrix(data), atol=1e-10
        )


def test_stieltjes_matches_indicator_with_finite_tau(rng):
    data = random_dataset(rng, 8, 8, censored=False, tau=1.0)
    np.testing.assert_allclose(
        _indicator_matrix(data), _stieltjes_matrix(data), atol=1e-10
    )


def test_censored_matches_brute_oracle(rng):
    for _ in range(8):
        data = random_dataset(rng, rng.integers(3, 9), rng.integers(3, 9), censored=True)
        np.testing.assert_allclose(_stieltjes_matrix(data), brute_matrix(data), atol=1e-10)


def test_censored_five_by_five_entrywise(rng):
    data = make([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1, 1],
                [0.5, 1.5, 2.5, 3.5, 4.5], [1, 0, 1, 1, 1])
    np.testing.assert_allclose(_stieltjes_matrix(data), brute_matrix(data), atol=1e-10)


def test_entries_exceed_unit_interval_and_are_not_clipped(rng):
    found = False
    for seed in range(40):
        data = random_dataset(np.random.default_rng(seed), 8, 8, censored=True)
        pm = pseudo_matrix(data)
        if pm.min() < -1e-6 or pm.max() > 1 + 1e-6:
            found = True
            break
    assert found, "expected at least one censored dataset with out-of-range entries"


def test_group2_all_censored_gives_zero(rng):
    data = make([1.0, 2.0, 3.0], [1, 1, 1], [0.5, 0.6], [0, 0])
    pm = pseudo_matrix(data)
    assert theta_hat(data) == 0.0
    np.testing.assert_allclose(pm, 0.0)


@st.composite
def heavy_tie_datasets(draw, status=st.integers(0, 1)):
    """Times on a grid of 5 integers, so event and censoring times tie often;
    tau is either infinite or one of the observed times."""
    sample = st.lists(st.tuples(st.integers(1, 5), status), min_size=2, max_size=8)
    group1 = draw(sample)
    group2 = draw(sample)
    observed = sorted({t for t, _ in group1 + group2})
    tau = draw(st.one_of(st.just(np.inf), st.sampled_from(observed)))
    (t1, e1), (t2, e2) = zip(*group1), zip(*group2)
    return make(list(t1), list(e1), list(t2), list(e2), tau=float(tau))


@given(heavy_tie_datasets())
@settings(max_examples=150, deadline=None)
# every subject still at risk at the last time has an event (r - d = 0 there)
@example(make([1, 2, 2], [1, 1, 1], [1, 2, 2], [0, 1, 1]))
# censored at an event time in both groups, tau cutting at a tied time
@example(make([2, 2, 3, 4], [1, 0, 1, 0], [1, 2, 2, 3], [1, 1, 0, 1], tau=2.0))
def test_stieltjes_matches_brute_oracle_under_heavy_ties(data):
    np.testing.assert_allclose(_stieltjes_matrix(data), brute_matrix(data), atol=1e-10)


@given(heavy_tie_datasets())
@settings(max_examples=150, deadline=None)
# every subject still at risk at the last time has an event (r - d = 0 there)
@example(make([1, 2, 2], [1, 1, 1], [1, 2, 2], [0, 1, 1]))
# the largest time is held by one subject, so dropping it empties the risk set
@example(make([1, 2, 3], [1, 0, 1], [1, 3, 3], [1, 1, 0]))
# a subject censored at an event time in both groups
@example(make([2, 2, 3, 4], [1, 0, 1, 0], [1, 2, 2, 3], [1, 1, 0, 1]))
# tau on a tied time
@example(make([2, 2, 3, 4], [1, 0, 1, 0], [1, 2, 2, 3], [1, 1, 0, 1], tau=2.0))
def test_leave_one_out_curves_match_refitted_curves(data):
    grid = np.arange(0.5, 6.0, 0.5)
    grid = grid[grid < data.tau]
    for times, events in ((data.times1, data.events1), (data.times2, data.events2)):
        curves = _SortedLeaveOneOut(times, events).curves(grid)
        assert curves.shape == (times.size + 1, grid.size)
        np.testing.assert_allclose(curves[0], kaplan_meier(times, events)(grid), atol=1e-12)
        for i in range(times.size):
            np.testing.assert_allclose(
                curves[i + 1], leave_one_out_km(times, events, i)(grid), atol=1e-12
            )


@pytest.mark.parametrize("rows", [1, 4, 11], ids=["row-per-block", "blocks-and-remainder",
                                                "one-block"])
def test_curves_in_row_blocks_match_refitted_curves(monkeypatch, rng, rows):
    data = random_dataset(rng, 11, 9, censored=True)
    grid = np.sort(data.times2)
    monkeypatch.setattr(pseudo, "CURVE_BLOCK_ELEMENTS", rows * grid.size)
    curves = _SortedLeaveOneOut(data.times1, data.events1).curves(grid)
    for i in range(data.n1):
        np.testing.assert_allclose(
            curves[i + 1], leave_one_out_km(data.times1, data.events1, i)(grid), atol=1e-12
        )
    np.testing.assert_allclose(_stieltjes_matrix(data), brute_matrix(data), atol=1e-10)


@given(heavy_tie_datasets(status=st.just(1)))
@settings(max_examples=150, deadline=None)
# tau on a tied time shared by both groups
@example(make([1, 2, 2, 3], [1, 1, 1, 1], [2, 2, 3], [1, 1, 1], tau=2.0))
def test_uncensored_theta_hat_is_indicator_mean(data):
    assert data.uncensored
    assert pseudo_matrix(data).mean() == pytest.approx(theta_hat(data), abs=1e-12)


def stacked_marginals(datasets):
    return pseudo_marginals(stack_datasets(datasets))


def assert_marginals_match_matrix(m, k, data):
    pm = pseudo_matrix(data)
    row_means, col_means = m
    np.testing.assert_allclose(row_means[k], pm.mean(axis=1), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(col_means[k], pm.mean(axis=0), rtol=1e-9, atol=1e-12)


@given(st.one_of(heavy_tie_datasets(), heavy_tie_datasets(status=st.just(1))))
@settings(max_examples=200, deadline=None)
# every subject still at risk at the last time has an event (r - d = 0 there)
@example(make([1, 2, 2], [1, 1, 1], [1, 2, 2], [0, 1, 1]))
# the last group-1 subject alone has an event there, so S1 ends at 0
@example(make([1, 2, 3], [1, 1, 1], [1, 3, 4], [1, 1, 1]))
# the largest time is held by one censored subject
@example(make([1, 2, 3], [1, 0, 0], [1, 3, 3], [1, 1, 0]))
# censored at an event time in both groups, tau on a tied time
@example(make([2, 2, 3, 4], [1, 0, 1, 0], [1, 2, 2, 3], [1, 1, 0, 1], tau=2.0))
# fully observed with tau on a time shared by both groups
@example(make([1, 2, 2, 3], [1, 1, 1, 1], [2, 2, 3], [1, 1, 1], tau=2.0))
def test_marginals_match_pseudo_matrix_under_heavy_ties(data):
    assert_marginals_match_matrix(stacked_marginals([data]), 0, data)


@given(heavy_tie_datasets(status=st.just(1)), st.sampled_from([0.0, 3.0]))
@settings(max_examples=150, deadline=None)
# negative times, tau on a time both groups hold, n1 != n2
@example(make([-1, 2, 2, 3], [1, 1, 1, 1], [2, 2, -1], [1, 1, 1], tau=2.0), 0.0)
def test_fully_observed_marginals_are_exact_indicator_means(data, shift):
    """Fully observed marginals are the pair-indicator means bit for bit.  A
    shift of 3 puts the times on -2..2; tau moves with them where it stays
    positive and is kept otherwise."""
    data = dataclasses.replace(data, times1=data.times1 - shift, times2=data.times2 - shift,
                               tau=data.tau - shift if data.tau > shift else data.tau)
    D = _indicator_matrix(data)
    row_means, col_means = stacked_marginals([data])
    np.testing.assert_array_equal(row_means[0], D.mean(axis=1))
    np.testing.assert_array_equal(col_means[0], D.mean(axis=0))


def test_mixed_stack_gives_each_dataset_its_own_marginals(rng):
    """Each dataset of a stack mixing censored and fully observed datasets
    gets exactly the marginals of its own one-dataset stack, in either order."""
    datasets = [random_dataset(rng, 7, 5, censored=k % 3 == 0, tau=1.0) for k in range(12)]
    assert {d.uncensored for d in datasets} == {False, True}
    for order in (datasets, datasets[::-1]):
        row_means, col_means = stacked_marginals(order)
        for k, data in enumerate(order):
            alone = stacked_marginals([data])
            np.testing.assert_array_equal(row_means[k], alone[0][0])
            np.testing.assert_array_equal(col_means[k], alone[1][0])


@pytest.mark.parametrize("censored", [True, False])
def test_one_dataset_that_is_not_a_stack_is_refused(rng, censored):
    data = random_dataset(rng, 8, 5, censored=censored, tau=1.5)
    assert data.times1.ndim == 1 and data.uncensored != censored
    with pytest.raises(ValueError, match="not a stack of datasets"):
        pseudo_marginals(data)


def test_stacked_marginals_match_each_pseudo_matrix(rng):
    datasets = []
    for k in range(24):
        data = random_dataset(rng, 9, 6, censored=k % 3 > 0, tau=(np.inf, 1.0)[k % 2])
        # round so that times tie within and across groups
        datasets.append(TwoSampleDataset(
            np.round(data.times1, 1), data.events1, data.covariates1,
            np.round(data.times2, 1), data.events2, data.covariates2, tau=data.tau))
    # a stack has one horizon: the datasets at tau = inf, then those at tau = 1
    for same_tau in (datasets[0::2], datasets[1::2]):
        m = stacked_marginals(same_tau)
        assert m[0].shape == (12, 9) and m[1].shape == (12, 6)
        for k, data in enumerate(same_tau):
            assert_marginals_match_matrix(m, k, data)


@given(st.one_of(heavy_tie_datasets(), heavy_tie_datasets(status=st.just(1))), st.data())
@settings(max_examples=150, deadline=None)
def test_restricted_matrix_is_the_full_matrix_entries(data, draw):
    """Resample-as-weights gate (ROADMAP item 7, for item 6): the entries in
    any group-1 rows and group-2 columns, repeats included, are those of
    the whole matrix, within the brute-oracle tolerance."""
    index = lambda n: st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
    rows = np.array(draw.draw(index(data.n1)))
    cols = np.array(draw.draw(index(data.n2)))
    restricted = pseudo_matrix(data, rows=rows, cols=cols)
    assert restricted.shape == (rows.size, cols.size)
    np.testing.assert_allclose(restricted, pseudo_matrix(data)[np.ix_(rows, cols)], atol=1e-10)
