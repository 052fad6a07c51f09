import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

import oracles
from conftest import degenerate_resamples, random_dataset
from releff import gee, inference
from oracles import PerRun, resampled
from releff.gee import IDENTITY, LOGIT, FitResult
from releff.inference import (
    BootstrapEnsemble,
    FitSpec,
    bootstrap,
    scale_estimates,
    warp_speed,
    _logit_reference,
    _ndtri,
    _two_sided_z,
    resample_indices,
)
from releff.inference import test_coefficient as coefficient_report
from releff.pseudo import pseudo_matrix

# keep pytest from collecting the imported library function as a test
coefficient_report.__test__ = False
test_coefficient = coefficient_report
from releff.survival import TwoSampleDataset, stack_datasets


def synthetic_ensemble(replicates, beta=None):
    replicates = np.asarray(replicates, dtype=float)
    if replicates.ndim == 1:
        replicates = replicates[:, None]
    p = replicates.shape[1]
    beta = np.zeros(p) if beta is None else np.asarray(beta, dtype=float)
    base = FitResult(beta=beta, converged=True, iterations=0, gradient_norm=0.0)
    return BootstrapEnsemble(replicates=replicates, B=replicates.shape[0],
                             seed=0, base_fit=base)


def test_bootstrap_is_deterministic(rng):
    data = random_dataset(rng, 15, 12, censored=True)
    a = bootstrap(data, B=25, seed=42)
    b = bootstrap(data, B=25, seed=42)
    np.testing.assert_array_equal(a.replicates, b.replicates)


def test_replicate_streams_are_order_independent():
    # stream b must not depend on how many replicates ran before it
    draws_forward = [oracles.replicate_rng(9, b).integers(0, 1000, 4) for b in range(5)]
    draws_reversed = [oracles.replicate_rng(9, b).integers(0, 1000, 4) for b in reversed(range(5))]
    for b in range(5):
        np.testing.assert_array_equal(draws_forward[b], draws_reversed[4 - b])


@pytest.mark.parametrize("runs", [range(0, 5), range(160, 320), range(2**32 - 3, 2**32 + 3)],
                         ids=["0-4", "160-319", "2**32-3..2**32+2"])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70, 3**80, 20260117,
                                  np.int64(7)], ids=repr)
def test_chunk_generators_are_seed_sequence_streams(seed, runs):
    # a chunk's generators, seeded in one pass, are numpy's
    # default_rng(SeedSequence(seed, spawn_key=(m,))) bit for bit; runs from
    # 2**32 on take a second spawn word
    got = inference._replicate_rngs(seed, runs)
    assert len(got) == len(runs)
    for rng, m in zip(got, runs):
        want = oracles.replicate_rng(seed, m)
        assert rng.bit_generator.state == want.bit_generator.state, m
        np.testing.assert_array_equal(rng.integers(0, 2**63, 5), want.integers(0, 2**63, 5))
        assert rng.random() == want.random()


@pytest.mark.parametrize("seed", [3, 2**70])
def test_run_generator_does_not_depend_on_its_chunk(seed):
    runs = range(2**32 - 4, 2**32 + 4)
    whole = inference._replicate_rngs(seed, runs)
    halves = inference._replicate_rngs(seed, runs[:3]) + inference._replicate_rngs(seed, runs[3:])
    for rng, half, m in zip(whole, halves, runs):
        (alone,) = inference._replicate_rngs(seed, range(m, m + 1))
        assert rng.bit_generator.state == alone.bit_generator.state == half.bit_generator.state


@pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2**70)], ids=repr)
def test_negative_seed_is_refused(rng, seed):
    from releff.sim import make_scenario

    data = random_dataset(rng, 8, 8, censored=True)
    with pytest.raises(ValueError, match="non-negative"):
        bootstrap(data, B=5, seed=seed)
    with pytest.raises(ValueError, match="non-negative"):
        warp_speed(make_scenario("i", "II", 10, 10, censored=False), M=5, seed=seed)


@pytest.mark.parametrize("n1, n2", [(2, 2), (7, 7), (11, 11), (13, 17), (40, 60), (50, 50),
                                    (3, 1000), (80, 50), (3, 2)])
def test_scalar_bound_resample_is_the_per_group_stream(n1, n2):
    # both groups are drawn in one call, scalar-bound for equal groups and
    # array-bound otherwise (the bound built per call or once per chunk);
    # either must draw what one scalar-bound call per group draws and leave
    # the generator in the same state, so the pinned Monte Carlo and
    # bootstrap streams do not move
    for seed in range(200):
        for high in (None, inference._resample_bound(n1, n2)):
            got_rng, want_rng = oracles.replicate_rng(seed, 5), oracles.replicate_rng(seed, 5)
            got = resample_indices(got_rng, n1, n2, high)
            want = oracles.resample_indices(want_rng, n1, n2)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n1, n2", [(7, 7), (11, 17), (50, 50)])
def test_chunk_index_blocks_stack_the_per_run_draws(n1, n2):
    whole = stack_datasets([random_dataset(np.random.default_rng(n1), n1, n2)])
    runs = range(3, 43)
    stack, idx1, idx2 = inference._simulated_chunk(lambda rngs: whole, 5, runs)
    assert stack is whole
    want = [oracles.resample_indices(oracles.replicate_rng(5, m), n1, n2) for m in runs]
    for got, per_run in zip((idx1, idx2), zip(*want)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.stack(per_run))


def test_single_replicate_matches_manual_refit(rng):
    data = random_dataset(rng, 10, 10, censored=True)
    spec = FitSpec()
    ens = bootstrap(data, spec=spec, B=1, seed=3)
    idx1, idx2 = oracles.resample_indices(oracles.replicate_rng(3, 0), data.n1, data.n2)
    manual = spec.fit(resampled(data, idx1, idx2))
    np.testing.assert_allclose(ens.replicates[0], manual.beta)


def test_degenerate_groups_give_zero_spread():
    data = TwoSampleDataset(
        np.full(5, 2.0), np.ones(5), np.zeros((5, 0)),
        np.full(5, 1.0), np.ones(5), np.zeros((5, 0)),
    )
    ens = bootstrap(data, B=20, seed=0)
    assert np.allclose(ens.replicates, ens.base_fit.beta)
    rep = test_coefficient(ens, 0)
    scale, (lo, hi), reject = rep.decisions["emp"]
    assert scale == 0.0 and reject is None and np.isnan([lo, hi]).all()
    assert rep.decisions["mad"][2] is None
    assert rep.degenerate
    # centered quantiles collapse to 0, so the estimate 1 lands in a tail
    # while the percentile CI is the width-zero point at the estimate
    assert rep.decisions["quantile"] == (None, (1.0, 1.0), True)


def test_degenerate_null_estimate_never_rejected():
    # same degeneracy but with the estimate itself at 0: no rejection
    data = TwoSampleDataset(
        np.full(5, 1.0), np.ones(5), np.zeros((5, 0)),
        np.full(5, 2.0), np.ones(5), np.zeros((5, 0)),
    )
    ens = bootstrap(data, B=20, seed=0)
    rep = test_coefficient(ens, 0)
    assert rep.estimate == 0.0
    assert not rep.decisions["quantile"][2]


def test_scale_estimates_on_normal_replicates():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(10_000)
    emp, iqr, mad = scale_estimates(values)
    for s in (emp, iqr, mad):
        assert s == pytest.approx(1.0, rel=0.05)


def test_quantile_ci_formula():
    reps = np.array([0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7])
    ens = synthetic_ensemble(reps, beta=[1.0])
    rep = test_coefficient(ens, 0, alpha=0.10)
    centered = reps - 1.0
    q_lo, q_hi = np.quantile(centered, [0.05, 0.95])
    scale, ci, reject = rep.decisions["quantile"]
    assert scale is None
    assert ci == pytest.approx((1.0 - q_hi, 1.0 - q_lo))
    assert reject == bool(1.0 < q_lo or 1.0 > q_hi)


def test_scale_reject_flag_matches_definition():
    rng = np.random.default_rng(1)
    reps = rng.normal(0.5, 0.1, 500)
    ens = synthetic_ensemble(reps, beta=[0.5])
    rep = test_coefficient(ens, 0, alpha=0.05)
    z = norm.ppf(0.975)
    scale, (lo, hi), reject = rep.decisions["emp"]
    assert reject == (abs(0.5) / scale > z)
    assert lo == pytest.approx(0.5 - z * scale)
    assert hi == pytest.approx(0.5 + z * scale)


def test_two_sided_z_is_the_normal_quantile_bit_for_bit():
    # _ndtri ports Cephes' ndtri, which scipy.special.ndtri and norm.ppf
    # evaluate, so every CI and decision is unchanged; inputs cover both
    # tails, the branch points exp(-2), 1 - exp(-2) and exp(-32) with their
    # neighbours, subnormals and the values with no finite quantile
    grid = np.linspace(1e-6, 0.999, 2001).tolist()
    for alpha in [0.05, 0.1, 0.01, 0.001, 1e-10, 0.5, 0.999] + grid:
        assert _two_sided_z(alpha) == float(norm.ppf(1 - alpha / 2)), alpha
    rng = np.random.default_rng(20)
    edges = [math.exp(-2), 1 - math.exp(-2), math.exp(-32), 0.5, 5e-324, 2.2e-308, 1e-300]
    y = np.concatenate([
        rng.random(10**5),
        10.0 ** rng.uniform(-300, 0, 10**4),
        1 - 10.0 ** -rng.uniform(0, 16, 10**4),
        1 - 10.0 ** -np.arange(1, 17),
        edges, np.nextafter(edges, 0), np.nextafter(edges, 1),
        [0.0, -0.0, 1.0, math.nan, -1e-300, -1.0, 1 + 2**-52, 2.0, math.inf, -math.inf],
    ])
    got = np.array([_ndtri(v) for v in y.tolist()])
    np.testing.assert_array_equal(got.view(np.uint64)[~np.isnan(got)],
                                  ndtri(y).view(np.uint64)[~np.isnan(got)])
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ndtri(y)))
    assert got[-10:-7].tolist() == [-math.inf, -math.inf, math.inf]
    assert np.isnan(got[-7:]).all()     # NaN, below 0 and above 1


def test_rejection_monotone_in_alpha():
    rng = np.random.default_rng(2)
    reps = rng.normal(0.2, 0.12, 400)
    ens = synthetic_ensemble(reps, beta=[0.2])
    previous = False
    for alpha in (0.01, 0.05, 0.10, 0.20, 0.40):
        rep = test_coefficient(ens, 0, alpha=alpha)
        assert not (previous and not rep.decisions["emp"][2])
        previous = previous or rep.decisions["emp"][2]


def test_failed_replicates_are_nan_and_flagged():
    base = FitResult(beta=np.zeros(2), converged=True, iterations=0, gradient_norm=0.0)
    reps = np.array([[0.1, 0.2], [np.nan, np.nan], [0.3, 0.1]])
    ens = BootstrapEnsemble(replicates=reps, B=3, seed=0, base_fit=base,
                            failures={"singular": 0, "nonconverged": 1, "saturated": 0})
    assert (ens.failed, ens.unreliable) == (1, True)
    assert ens.ok.tolist() == [True, False, True]
    rep = test_coefficient(ens, 0)
    # the failed row drops out of the scale
    assert rep.decisions["emp"][0] == pytest.approx(np.std([0.1, 0.3], ddof=1))


@pytest.mark.parametrize("failed, unreliable", [(5, False), (6, True)])
def test_unreliable_beyond_five_percent_failed(failed, unreliable):
    # MAX_FAILURE_FRACTION = 0.05: at B = 100, 5 failed refits are tolerated
    base = FitResult(beta=np.zeros(1), converged=True, iterations=0, gradient_norm=0.0)
    reps = np.where(np.arange(100)[:, None] < failed, np.nan, 0.1)
    ens = BootstrapEnsemble(replicates=reps, B=100, seed=0, base_fit=base,
                            failures={"singular": 2, "nonconverged": failed - 3, "saturated": 1})
    assert ens.failed == failed
    assert ens.unreliable is unreliable


def test_failed_is_the_sum_of_the_failure_counts(monkeypatch, rng):
    data = random_dataset(rng, 10, 10, censored=True)
    degenerate_resamples(monkeypatch, {2, 6})
    non_finite_rows(monkeypatch, {1}, 3)        # call 0 is the base fit
    ens = bootstrap(data, spec=FitSpec(strict_singular=True), B=10, seed=0)
    assert list(ens.failures) == list(inference.FAILURE_CAUSES)
    assert ens.failures == {"singular": 2, "nonconverged": 1, "saturated": 0}
    assert ens.failed == sum(ens.failures.values()) == (~ens.ok).sum()


def test_bootstrap_alpha_validation(rng):
    data = random_dataset(rng, 8, 8, censored=False)
    ens = bootstrap(data, B=10, seed=0)
    with pytest.raises(ValueError):
        test_coefficient(ens, 0, alpha=1.5)
    with pytest.raises(ValueError):
        bootstrap(data, B=0, seed=0)


def test_coefficient_test_needs_a_usable_replicate():
    with pytest.raises(RuntimeError, match="no successful bootstrap replicates"):
        test_coefficient(synthetic_ensemble(np.full((5, 2), np.nan)), 0)


def test_warp_speed_needs_a_run_and_a_usable_one():
    with pytest.raises(ValueError, match="M must be at least 1"):
        warp_speed(PerRun(lambda r: random_dataset(r, 8, 8), 8, 8), M=0)

    def singular(r):
        # a group-1 covariate repeated: every design is singular
        data = random_dataset(r, 8, 8, censored=False)
        data.covariates1[:, 1] = data.covariates1[:, 0]
        return data

    with pytest.raises(RuntimeError, match="all Monte Carlo runs failed"):
        warp_speed(PerRun(singular, 8, 8), M=5, seed=0, spec=FitSpec(strict_singular=True))


def test_warp_speed_flags_degenerate_dgp():
    data = TwoSampleDataset(
        np.full(4, 2.0), np.ones(4), np.zeros((4, 0)),
        np.full(4, 1.0), np.ones(4), np.zeros((4, 0)),
    )
    res = warp_speed(PerRun(lambda rng: data, 4, 4), M=30, seed=0)
    assert res.degenerate
    assert res.estimates.shape == (30, 1)
    np.testing.assert_allclose(res.centered_replicates, 0.0)


def test_warp_speed_pools_centered_replicates(rng):
    def make(r):
        return random_dataset(r, 12, 12, censored=False)

    res = warp_speed(PerRun(make, 12, 12), M=60, seed=5, coefficients=[1])
    assert res.failed == 0
    assert np.isfinite(res.rejection_rates["emp"][1])
    assert np.isnan(res.rejection_rates["emp"][0])  # not requested


def test_bootstrap_empirical_sd_tracks_monte_carlo_sd():
    # scenario-style null data: the bootstrap spread of the first group-1
    # slope should approximate the sampling spread across datasets
    from releff.sim import make_scenario, simulate_dataset

    sc = make_scenario("i", "II", 50, 50, censored=False)
    spec = FitSpec()
    betas = []
    for m in range(150):
        r = np.random.default_rng(np.random.SeedSequence(77, spawn_key=(m,)))
        betas.append(spec.fit(simulate_dataset(sc, r)).beta[1])
    mc_sd = np.std(betas, ddof=1)

    data = simulate_dataset(sc, np.random.default_rng(123))
    ens = bootstrap(data, spec=spec, B=400, seed=9)
    boot_sd = test_coefficient(ens, 1).decisions["emp"][0]
    assert boot_sd == pytest.approx(mc_sd, rel=0.3)


def raising_on_calls(monkeypatch, name, calls, exc=ValueError):
    """Make ``inference.<name>`` raise ``exc`` on the given 0-based call
    numbers and work normally otherwise."""
    from releff import inference

    real = getattr(inference, name)
    seen = []

    def flaky(*args, **kwargs):
        seen.append(None)
        if len(seen) - 1 in calls:
            raise exc("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(inference, name, flaky)


def test_error_inside_a_bootstrap_refit_propagates(monkeypatch, rng):
    data = random_dataset(rng, 10, 10, censored=True)
    # identity refits run as one stacked call per chunk (call 0 is the base
    # fit); logit refits build one pseudo matrix each
    for name, link, call in (("pseudo_marginals", IDENTITY, 1), ("pseudo_matrix", LOGIT, 3)):
        with monkeypatch.context() as patch:
            raising_on_calls(patch, name, {call})
            with pytest.raises(ValueError, match="injected"):
                bootstrap(data, spec=FitSpec(link=link), B=10, seed=0)


def test_bootstrap_with_every_refit_failed_raises(monkeypatch, rng):
    data = random_dataset(rng, 10, 10, censored=True)
    degenerate_resamples(monkeypatch, range(10))
    with pytest.raises(RuntimeError, match="all bootstrap replicates failed"):
        bootstrap(data, spec=FitSpec(strict_singular=True), B=10, seed=0)


def test_singular_bootstrap_refit_counts_as_failed(monkeypatch, rng):
    data = random_dataset(rng, 10, 10, censored=True)
    degenerate_resamples(monkeypatch, {2, 6})
    ens = bootstrap(data, spec=FitSpec(strict_singular=True), B=10, seed=0)
    assert (ens.failed, ens.failures["singular"], ens.failures["nonconverged"]) == (2, 2, 0)
    assert ens.ok.tolist() == [True, True, False, True, True, True, False, True, True, True]


@pytest.mark.parametrize("link", [IDENTITY, LOGIT])
def test_strict_singular_fit_is_refused(rng, link):
    # a second group-1 covariate twice the first: the design is singular
    data = random_dataset(rng, 10, 10, p1=1, censored=True)
    z = data.covariates1
    collinear = TwoSampleDataset(data.times1, data.events1, np.column_stack((z, 2 * z)),
                                 data.times2, data.events2, data.covariates2)
    with pytest.raises(np.linalg.LinAlgError):
        FitSpec(link=link, strict_singular=True).fit(collinear)
    assert FitSpec(link=link).fit(collinear).used_pinv


@pytest.mark.parametrize("censored", [True, False], ids=["censored", "uncensored"])
@pytest.mark.parametrize("link", [IDENTITY, LOGIT])
def test_fit_is_the_bootstrap_base_fit(rng, link, censored):
    # both are _fit_stack of the data as a stack of one, returned as it is
    data = random_dataset(rng, 25, 20, censored=censored)
    spec = FitSpec(link=link)
    got, want = spec.fit(data), bootstrap(data, spec, B=5).base_fit
    for name in ("converged", "iterations", "gradient_norm", "used_pinv", "message", "sweeps"):
        assert getattr(got, name) == getattr(want, name), name
    np.testing.assert_array_equal(got.beta, want.beta)
    if link == IDENTITY:
        assert got.jacobian is want.jacobian is None
    else:
        np.testing.assert_array_equal(got.jacobian, want.jacobian)


def test_singular_logit_bootstrap_refit_counts_as_failed(monkeypatch, rng):
    data = random_dataset(rng, 10, 10, censored=True)
    spec = FitSpec(link=LOGIT, strict_singular=True)
    unpatched = bootstrap(data, spec=spec, B=10, seed=0)
    degenerate_resamples(monkeypatch, {2, 6})
    ens = bootstrap(data, spec=spec, B=10, seed=0)
    forced = np.isin(np.arange(10), [2, 6])
    assert ens.failures["singular"] == 2
    assert ens.ok.tolist() == (unpatched.ok & ~forced).tolist()
    assert ens.failures["nonconverged"] == (
        unpatched.failures["nonconverged"] - int((~unpatched.ok & forced).sum()))


def test_nonconverged_bootstrap_refit_counts_as_failed(monkeypatch, rng):
    data = random_dataset(rng, 10, 10, censored=True)
    real = gee.solve_newton
    # resamples 2 and 6 stall from every start, the fallback's included;
    # Newton sees a resample's distinct subjects, known by their covariates
    def subjects(Z1, Z2):
        return np.unique(Z1, axis=0).tobytes(), np.unique(Z2, axis=0).tobytes()

    stalling_data = [resampled(data, *oracles.resample_indices(oracles.replicate_rng(0, b), 10, 10))
                     for b in (2, 6)]
    stalled_subjects = {subjects(s.covariates1, s.covariates2) for s in stalling_data}

    def stalling(matrix, Z1, Z2, *args, **kwargs):
        result = real(matrix, Z1, Z2, *args, **kwargs)
        result.converged &= subjects(Z1, Z2) not in stalled_subjects
        return result

    spec = FitSpec(link=LOGIT)
    unpatched = bootstrap(data, spec=spec, B=10, seed=0)
    monkeypatch.setattr(gee, "solve_newton", stalling)
    ens = bootstrap(data, spec=spec, B=10, seed=0)
    stalled = np.isin(np.arange(10), [2, 6])
    assert ens.ok.tolist() == (unpatched.ok & ~stalled).tolist()
    # a stalled refit counts as not converged even where it is saturated
    failures = ens.failures
    assert (ens.failed, failures["singular"], failures["nonconverged"] + failures["saturated"]) == (
        10 - ens.ok.sum(), 0, ens.failed)
    assert ens.failures["saturated"] <= unpatched.failures["saturated"]


def test_error_inside_a_warp_speed_fit_propagates(monkeypatch, rng):
    # call 0 fits the chunk's datasets, call 1 their resamples
    raising_on_calls(monkeypatch, "pseudo_marginals", {1})
    with pytest.raises(ValueError, match="injected"):
        warp_speed(PerRun(lambda r: random_dataset(r, 10, 10, censored=False), 10, 10),
                   M=5, seed=0)


def test_singular_warp_speed_fit_counts_as_failed(monkeypatch, rng):
    # run 0's resample and run 2's own dataset have singular designs
    degenerate_resamples(monkeypatch, {0})
    made = []

    def make(r):
        data = random_dataset(r, 10, 10, censored=False)
        made.append(None)
        if len(made) == 3:
            data.covariates1[:, 0] = 1.0
        return data

    res = warp_speed(PerRun(make, 10, 10), M=5, seed=0, spec=FitSpec(strict_singular=True))
    assert (res.failed, res.failures["singular"], res.failures["nonconverged"]) == (2, 2, 0)
    assert res.estimates.shape == (3, 5)


@pytest.mark.parametrize("link", [IDENTITY, LOGIT])
def test_overflowing_base_fit_stops_the_bootstrap_before_any_refit(monkeypatch, link):
    # covariates near 1e200 overflow the design moments: the identity fit is
    # NaN, and the logit base fit is that fit, with no Newton run from it
    data = TwoSampleDataset(
        [1.0, 2.0, 3.0], [1, 1, 0], [[1e200], [2e200], [3e200]],
        [1.5, 2.5, 0.5], [1, 1, 1], [[1e200], [2.5e200], [3e200]],
    )

    def no_refit(*args, **kwargs):
        pytest.fail("a refit ran after a non-finite base fit")

    def no_newton(*args, **kwargs):
        pytest.fail("Newton ran from a non-finite identity fit")

    # the base fit is itself a _fit_stack call; every chunk of refits first
    # draws its resamples
    monkeypatch.setattr(inference, "_simulated_chunk", no_refit)
    monkeypatch.setattr(gee, "solve_newton", no_newton)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite coefficients"):
            bootstrap(data, spec=FitSpec(link=link), B=20, seed=0)


def test_nonconverged_base_fit_stops_the_bootstrap_before_any_refit(monkeypatch, rng):
    from releff import gee

    data = random_dataset(rng, 10, 10, censored=True)
    real = gee.solve_newton

    def stalled(*args, **kwargs):
        result = real(*args, **kwargs)
        result.converged, result.message = False, "line search stalled"
        return result

    def no_refit(*args, **kwargs):
        pytest.fail("a refit ran after a base fit that did not converge")

    monkeypatch.setattr(gee, "solve_newton", stalled)
    monkeypatch.setattr(inference, "_simulated_chunk", no_refit)
    with pytest.raises(RuntimeError, match="did not converge: line search stalled"):
        bootstrap(data, spec=FitSpec(link=LOGIT), B=20, seed=0)


def non_finite_rows(monkeypatch, calls, row):
    """Make ``row`` of the given 0-based ``gee.solve_identity`` calls
    infinite, as an overflowing design would."""
    from releff import gee

    real = gee.solve_identity
    seen = []

    def overflowing(*args, **kwargs):
        fits = real(*args, **kwargs)
        seen.append(None)
        if len(seen) - 1 in calls:
            fits.beta[row] = np.inf
        return fits

    monkeypatch.setattr(gee, "solve_identity", overflowing)


def test_non_finite_bootstrap_refit_counts_as_failed(monkeypatch, rng):
    data = random_dataset(rng, 10, 10, censored=True)
    non_finite_rows(monkeypatch, {1}, 3)        # call 0 is the base fit
    ens = bootstrap(data, B=10, seed=0)
    assert (ens.failed, ens.failures["singular"], ens.failures["nonconverged"]) == (1, 0, 1)
    assert ens.ok.tolist() == [k != 3 for k in range(10)]
    assert np.isnan(ens.replicates[3]).all()


def test_non_finite_warp_speed_fit_counts_as_failed(monkeypatch):
    # run 1's own fit (call 0) and run 3's refit (call 1) are not finite
    make = PerRun(lambda r: random_dataset(r, 10, 10, censored=False), 10, 10)
    want = warp_speed(make, M=5, seed=0)
    non_finite_rows(monkeypatch, {0}, 1)
    non_finite_rows(monkeypatch, {1}, 3)
    res = warp_speed(make, M=5, seed=0)
    assert (res.failed, res.failures["singular"], res.failures["nonconverged"]) == (2, 0, 2)
    np.testing.assert_array_equal(res.estimates, want.estimates[[0, 2, 4]])
    assert np.isfinite(res.centered_replicates).all()


def oracle_cases():
    """(simulator, spec) pairs with per-dataset makers: censored and
    uncensored identity fits, a finite horizon, logit, and a design that is
    often singular."""
    def binary(r):
        data = random_dataset(r, 6, 6, p1=1, p2=1, censored=True)
        return TwoSampleDataset(data.times1, data.events1, r.integers(0, 2, (6, 1)),
                                data.times2, data.events2, data.covariates2)

    return [
        (PerRun(lambda r: random_dataset(r, 12, 9, censored=True), 12, 9), FitSpec()),
        (PerRun(lambda r: random_dataset(r, 12, 9, censored=False), 12, 9), FitSpec()),
        (PerRun(lambda r: random_dataset(r, 8, 11, censored=True, tau=1.0), 8, 11), FitSpec()),
        (PerRun(lambda r: random_dataset(r, 10, 10, censored=True), 10, 10),
         FitSpec(link=LOGIT)),
        (PerRun(binary, 6, 6), FitSpec(strict_singular=True)),
    ]


def test_warp_speed_matches_per_run_oracle():
    for simulator, spec in oracle_cases():
        got = warp_speed(simulator, M=60, seed=4, spec=spec)
        want = oracles.warp_speed(simulator.make_dataset, M=60, seed=4, spec=spec)
        assert (got.failed, got.failures) == (want.failed, want.failures)
        assert got.degenerate == want.degenerate
        np.testing.assert_allclose(got.estimates, want.estimates, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.centered_replicates, want.centered_replicates,
                                   rtol=0, atol=1e-10)
        for name in want.rejection_rates:
            np.testing.assert_array_equal(got.rejection_rates[name], want.rejection_rates[name])
    # the often-singular design did fail some runs, and by cause
    assert got.failed > 0 and got.failures["singular"] == got.failed


def test_bootstrap_matches_per_replicate_refits():
    for simulator, spec in oracle_cases()[:4]:
        data = simulator.make_dataset(np.random.default_rng(8))
        ens = bootstrap(data, spec=spec, B=30, seed=2)
        # logit refits start from the base fit and the data's identity fit
        identity = oracles.identity_fit(pseudo_matrix(data), data.covariates1, data.covariates2)
        reference = _logit_reference(identity.beta, data.covariates1, data.covariates2,
                                     ens.base_fit.beta)
        for b in range(30):
            idx1, idx2 = oracles.resample_indices(oracles.replicate_rng(2, b), data.n1, data.n2)
            star = resampled(data, idx1, idx2)
            want = oracles.matrix_fit(spec, star, reference)
            usable = want.converged and not oracles.saturated(spec, want, star)
            want = want.beta if usable else np.full(want.beta.shape, np.nan)
            np.testing.assert_allclose(ens.replicates[b], want, rtol=0, atol=1e-10)


@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(5, 30), n2=st.integers(5, 30),
       censored=st.booleans())
@settings(max_examples=60, deadline=None)
def test_logit_fit_on_distinct_subjects_matches_full_matrix_oracle(seed, n1, n2, censored):
    """Resample-as-weights gate (ROADMAP item 7, for item 6): the logit fit
    of a resample, run on its distinct subjects, equals the unweighted
    Newton fit of its full matrix within 1e-10 where that fit converged, is
    not saturated and has a determined root.  Newton stops at max |U| below
    gee.TOL, so two runs may differ by up to ||J^-1|| * TOL: where J at the
    root is nearly singular (a resample with a rank-deficient design, or
    near-separation) beta is not determined at 1e-10, and such fits are not
    compared."""
    rng = np.random.default_rng(seed)
    base = random_dataset(rng, n1, n2, censored=censored)
    data = resampled(base, rng.integers(0, n1, n1), rng.integers(0, n2, n2))
    spec = FitSpec(link=LOGIT)
    want = oracles.matrix_fit(spec, data)
    if not want.converged or oracles.saturated(spec, want, data):
        return
    J = oracles.jacobian(want.beta, pseudo_matrix(data), data.covariates1, data.covariates2, LOGIT)
    if np.abs(np.linalg.eigvalsh(J)).min() < 1e-8:
        return
    got = spec.fit(data)
    assert got.converged
    np.testing.assert_allclose(got.beta, want.beta, rtol=0, atol=1e-10)


def test_logit_refits_run_newton_on_distinct_subjects(monkeypatch, rng):
    # each refit hands Newton one row per distinct group-1 subject and one
    # column per distinct group-2 subject of its resample; the base fit has
    # no repeats
    data = random_dataset(rng, 15, 12, p1=1, p2=1, censored=True)
    real = gee.solve_newton
    shapes = []

    def recording(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(gee, "solve_newton", recording)
    bootstrap(data, spec=FitSpec(link=LOGIT), B=5, seed=1)
    want = [(15, 12)]
    for b in range(5):
        idx1, idx2 = oracles.resample_indices(oracles.replicate_rng(1, b), 15, 12)
        want.append((np.unique(idx1).size, np.unique(idx2).size))
    # a refit that fails from next to the base fit, or stops at a root that
    # is not a maximum, is fitted once more on the same subjects
    assert shapes[0] == want[0] and len(want) <= len(shapes) <= 2 * len(want) - 1
    assert [s for s, _ in itertools.groupby(shapes)] == [s for s, _ in itertools.groupby(want)]
    assert all(n1 < 15 and n2 < 12 for n1, n2 in want[1:])


def repeated_subjects(rng):
    """A censored dataset that repeats subjects in both groups: a resample
    of a random one."""
    data = random_dataset(rng, 20, 16, censored=True)
    return resampled(data, rng.integers(0, 20, 20), rng.integers(0, 16, 16))


def test_refits_read_their_distinct_subjects_from_the_labels_of_the_data(rng):
    # a bootstrap labels the subjects of its data once; the rows and copies
    # a refit reads from the labels at its resample's indices are those of
    # grouping the resample itself, in the same order
    data = repeated_subjects(rng)
    labels = inference._subject_labels(data)
    assert all(np.unique(label).size < label.size for label in labels)
    groups = ((data.times1, data.events1, data.covariates1),
              (data.times2, data.events2, data.covariates2))
    draws = [(np.arange(data.n1), np.arange(data.n2))]
    draws += [oracles.resample_indices(oracles.replicate_rng(3, b), data.n1, data.n2) for b in range(30)]
    for idx in draws:
        for label, index, columns in zip(labels, idx, groups):
            got = inference._distinct_subjects(label[index])
            want = oracles.distinct_subjects(*(x[index] for x in columns))
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), distinct=st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_distinct_subjects_are_the_unique_labels_in_row_order(seed, n, distinct):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, distinct, n)
    _, first, copies = np.unique(labels, return_index=True, return_counts=True)
    order = np.argsort(first)
    rows, got = inference._distinct_subjects(labels)
    assert rows.dtype == first.dtype and got.dtype == float
    np.testing.assert_array_equal(rows, first[order])
    np.testing.assert_array_equal(got, copies[order].astype(float))


# evaluations of (U, J) in the fixed logit bootstrap below, the base fit and
# 30 refits: with certified last steps, and with every candidate evaluated
PINNED_SWEEPS = (149, 170)


def test_certified_steps_save_sweeps_and_change_no_replicate(monkeypatch):
    data = random_dataset(np.random.default_rng(8), 40, 36, censored=True, tau=2.0)
    spec = FitSpec(link=LOGIT)
    calls = []
    evaluate = gee._Evaluator.evaluate

    def counting(self, beta):
        calls.append(None)
        return evaluate(self, beta)

    monkeypatch.setattr(gee._Evaluator, "evaluate", counting)
    got = bootstrap(data, spec=spec, B=30, seed=4)
    assert len(calls) == got.base_fit.sweeps + got.newton_sweeps == PINNED_SWEEPS[0]
    calls.clear()
    monkeypatch.setattr(gee, "_step_bound", lambda *args: None)
    want = bootstrap(data, spec=spec, B=30, seed=4)
    assert len(calls) == want.base_fit.sweeps + want.newton_sweeps == PINNED_SWEEPS[1]
    np.testing.assert_array_equal(got.replicates, want.replicates)
    np.testing.assert_array_equal(got.base_fit.beta, want.base_fit.beta)
    assert (got.failures, got.newton_iterations) == (want.failures, want.newton_iterations)


def test_logit_bootstrap_equals_refits_that_group_their_own_resamples(monkeypatch, rng):
    data = repeated_subjects(rng)
    spec = FitSpec(link=LOGIT)
    real = FitSpec._fit_stack
    passed = []

    def recording(self, stack, reference=None, labels=None):
        passed.append(labels)
        return real(self, stack, reference, labels)

    monkeypatch.setattr(FitSpec, "_fit_stack", recording)
    got = bootstrap(data, spec=spec, B=40, seed=3)
    assert passed and all(labels is not None for labels in passed)
    monkeypatch.setattr(FitSpec, "_fit_stack",
                        lambda self, stack, reference=None, labels=None: real(self, stack, reference))
    want = bootstrap(data, spec=spec, B=40, seed=3)
    np.testing.assert_array_equal(got.replicates, want.replicates)
    assert (got.failures, got.newton_iterations, got.newton_sweeps) == (
        want.failures, want.newton_iterations, want.newton_sweeps)


def test_logit_bootstrap_solves_the_identity_fit_of_its_data_once(monkeypatch, rng):
    # the base fit's identity solution is both its Newton start and the
    # refits' reference; then one stacked solve per chunk of refits
    data = random_dataset(rng, 15, 12, censored=True)
    real = gee.solve_identity
    sizes = []

    def counting(row_means, *args, **kwargs):
        sizes.append(len(row_means))
        return real(row_means, *args, **kwargs)

    monkeypatch.setattr(gee, "solve_identity", counting)
    bootstrap(data, spec=FitSpec(link=LOGIT), B=10, seed=0)
    assert sizes == [1, 10]


@pytest.mark.parametrize("censored", [True, False], ids=["censored", "uncensored"])
@pytest.mark.parametrize("seed", range(15))
def test_anchored_refits_stay_within_the_determination_of_the_cold_root(seed, censored):
    # logit refits start next to the base fit, not at their own identity
    # fit; Newton stops at max |U| < gee.TOL, so two starts may stop up to
    # about ||J^-1|| * TOL apart, J at the root: the start moves no refit by
    # more than that and does not change which refits are usable
    spec = FitSpec(link=LOGIT)
    rng = np.random.default_rng(seed)
    n1, n2 = rng.integers(20, 81, size=2)
    data = random_dataset(rng, n1, n2, censored=censored)
    ens = bootstrap(data, spec=spec, B=20, seed=seed)
    for b in range(20):
        idx1, idx2 = oracles.resample_indices(oracles.replicate_rng(seed, b), n1, n2)
        star = resampled(data, idx1, idx2)
        # Newton on the distinct subjects of the resample from its identity fit
        (rows, w1), (cols, w2) = map(inference._distinct_subjects,
                                     inference._subject_labels(star))
        cold = gee.solve_newton(pseudo_matrix(star, rows=rows, cols=cols),
                                star.covariates1[rows], star.covariates2[cols],
                                x0=FitSpec().fit(star).beta, weights=(w1, w2))
        usable = (cold.converged and np.isfinite(cold.beta).all()
                  and not oracles.saturated(spec, cold, star))
        assert ens.ok[b] == usable, b
        if usable:
            J = oracles.jacobian(cold.beta, pseudo_matrix(star), star.covariates1,
                                 star.covariates2, LOGIT)
            bound = 2 * np.linalg.norm(np.linalg.inv(J), np.inf) * gee.TOL + 1e-12
            assert np.abs(ens.replicates[b] - cold.beta).max() <= bound, b


@pytest.mark.parametrize("censored", [False, True], ids=["uncensored", "censored"])
@pytest.mark.parametrize("later", [1, 2], ids=["group-1-later", "group-2-later"])
def test_separated_data_start_logit_fits_at_a_finite_point(monkeypatch, later, censored):
    # every time of one group lies above every time of the other, whose last
    # time is an event, so the mean pair prediction of the identity fit is 0
    # or 1 and the logit start clips it.  The logit MLE does not exist, so
    # where Newton stops depends on its start, but every start is finite and
    # nothing raises.  The fits end as from the identity start: the base fit
    # converged and not saturated, no refit singular or saturated (a refit
    # that fails from next to the base fit is fitted again from there), and
    # without censoring, where the pseudo matrix is constant, none failed
    starts = []
    real = gee.solve_newton

    def recording(matrix, Z1, Z2, *, x0=None, weights=None):
        starts.append(x0)
        return real(matrix, Z1, Z2, x0=x0, weights=weights)

    monkeypatch.setattr(gee, "solve_newton", recording)
    spec = FitSpec(link=LOGIT)
    for seed in range(4):
        d = random_dataset(np.random.default_rng(seed), 15, 12, censored=censored)
        # the last time of the earlier group is an event, so its curve ends at 0
        events1, events2 = d.events1.copy(), d.events2.copy()
        if later == 1:
            shift1, shift2 = d.times2.max(), 0.0
            events2[np.argmax(d.times2)] = 1.0
        else:
            shift1, shift2 = 0.0, d.times1.max()
            events1[np.argmax(d.times1)] = 1.0
        data = TwoSampleDataset(d.times1 + shift1, events1, d.covariates1,
                                d.times2 + shift2, events2, d.covariates2)
        identity = FitSpec().fit(data).beta
        a, b = gee._group_parts(identity, data.covariates1, data.covariates2)
        assert not inference.THETA_CLIP[0] <= a.mean() + b.mean() <= inference.THETA_CLIP[1]
        fit = spec.fit(data)
        assert fit.converged and np.isfinite(fit.beta).all()
        assert not oracles.saturated(spec, fit, data)
        ens = bootstrap(data, spec=spec, B=20, seed=1)
        assert ens.failures["singular"] == ens.failures["saturated"] == 0
        if not censored:
            assert ens.failed == 0
    assert all(np.isfinite(x0).all() for x0 in starts)
    assert len(starts) >= 4 * 21


@pytest.mark.parametrize("per_chunk", [1, 7], ids=["one-per-chunk", "with-remainder"])
def test_chunking_does_not_change_identity_results(monkeypatch, per_chunk):
    # every identity case, warp-speed and bootstrap, chunked per_chunk at a
    # time (60 = 8 * 7 + 4) against the whole task in one chunk
    def outputs(simulator, spec, per_chunk):
        size = simulator.n1 + simulator.n2 + 2
        monkeypatch.setattr(inference, "STACK_ELEMENTS", per_chunk * size)
        assert inference._chunk_size(simulator.n1, simulator.n2) == per_chunk
        res = warp_speed(simulator, M=60, seed=4, spec=spec)
        ens = bootstrap(simulator.make_dataset(np.random.default_rng(8)), spec=spec, B=60, seed=2)
        return [res.estimates, res.centered_replicates, *res.rejection_rates.values(),
                res.failed, *res.failures.values(), res.degenerate,
                ens.replicates, ens.failed, *ens.failures.values()]

    cases = [(simulator, spec) for simulator, spec in oracle_cases() if spec.link == IDENTITY]
    assert len(cases) == 4
    for simulator, spec in cases:
        whole = outputs(simulator, spec, 60)
        for got, want in zip(outputs(simulator, spec, per_chunk), whole, strict=True):
            np.testing.assert_array_equal(got, want)


def test_warp_speed_memory_does_not_grow_with_runs():
    def make(r):
        return random_dataset(r, 10, 10, censored=True)

    def peak(M):
        tracemalloc.start()
        try:
            res = warp_speed(PerRun(make, 10, 10), M=M, seed=1)
            return tracemalloc.get_traced_memory()[1], res
        finally:
            tracemalloc.stop()

    # whole chunks at both sizes, so both peaks hold one full chunk
    chunk = inference._chunk_size(10, 10)
    small, _ = peak(2 * chunk)
    large, res = peak(6 * chunk)
    # beyond the (M, p) results themselves, which warp_speed returns
    results = res.estimates.nbytes + res.centered_replicates.nbytes
    assert large - small < 2 * results
