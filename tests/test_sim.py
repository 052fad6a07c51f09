import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from releff.inference import (
    FitSpec,
    _simulated_chunk,
    warp_speed,
)
from releff import sim
from releff.sim import (
    SHAPES,
    censoring_rates,
    make_scenario,
    run_scenario,
    simulate_dataset,
    true_theta_weibull_equal_shapes,
)
from releff.survival import TwoSampleDataset

from oracles import true_theta_weibull_numeric

REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references"


class TestScenarioDefinitions:
    def test_named_parameter_vectors(self):
        sc = make_scenario("ii", "II", 50, 50, censored=False)
        np.testing.assert_array_equal(sc.gamma1, [0.2, 0.0])
        np.testing.assert_array_equal(sc.gamma2, [0.0, 0.5])
        assert (sc.k1, sc.k2) == (3.0, 3.0)

        sc4 = make_scenario("iv", "I", 40, 60, censored=True)
        np.testing.assert_array_equal(sc4.gamma1, [0.0, 0.2, 0.4, 0.6])
        np.testing.assert_array_equal(sc4.gamma2, [-0.2, 0.4, -0.6, 0.0])
        assert (sc4.k1, sc4.k2) == (2.0, 3.0)
        assert sc4.p == 4

    def test_null_scenarios_have_zero_gammas(self):
        for sid, p in (("i", 2), ("iii", 4)):
            sc = make_scenario(sid, "I", 50, 50, censored=False)
            assert sc.p == p
            assert not sc.gamma1.any() and not sc.gamma2.any()

    def test_settings(self):
        assert SHAPES["I"] == (2.0, 3.0)
        assert SHAPES["II"] == (3.0, 3.0)

    def test_unknown_ids_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("v", "I", 10, 10, False)
        with pytest.raises(ValueError):
            make_scenario("i", "III", 10, 10, False)


def covariates(scenario_id, group, seed, n=100_000):
    """One group's covariates from a simulated uncensored dataset."""
    sc = make_scenario(scenario_id, "II", n, n, censored=False)
    data = simulate_dataset(sc, np.random.default_rng(seed))
    return data.covariates1 if group == 1 else data.covariates2


class TestCovariateDesigns:
    def test_bivariate_normal_blocks_match_multivariate_normal(self):
        # the p = 4 designs turn the standard normals that Scenario.simulate
        # draws into the same numbers Generator.multivariate_normal would
        for group, cov in ((1, [[1.0, 0.2], [0.2, 1.0]]), (2, [[1.1, 0.3], [0.3, 1.1]])):
            for seed in range(6):
                for n in (1, 7, 50):
                    rng = np.random.default_rng(seed)
                    normal = rng.standard_normal((1, n, 2))
                    got = sim._covariates(group, 4, normal, rng.random((1, 2, n)))[0, :, :2]
                    want = np.random.default_rng(seed).multivariate_normal(
                        np.zeros(2), np.array(cov), size=n)
                    assert np.array_equal(got, want), (group, seed, n)

    def test_group1_p2_bernoulli_is_sign_balanced(self):
        Z = covariates("i", 1, seed=0)
        assert Z[:, 1].mean() == pytest.approx(0.5, abs=0.01)
        # conditional on the normal's sign the rate moves by +-0.1
        pos = Z[Z[:, 0] > 0, 1].mean()
        assert pos == pytest.approx(0.6, abs=0.01)

    def test_group2_p2_normal_variance(self):
        Z = covariates("i", 2, seed=1)
        assert Z[:, 0].var() == pytest.approx(1.2, abs=0.03)

    def test_group1_p4_correlation(self):
        Z = covariates("iii", 1, seed=2)
        assert np.corrcoef(Z[:, 0], Z[:, 1])[0, 1] == pytest.approx(0.2, abs=0.01)
        assert Z[:, 2].mean() == pytest.approx(0.4, abs=0.01)
        assert Z[:, 3].mean() == pytest.approx(0.6, abs=0.01)

    def test_group2_p4_covariance(self):
        Z = covariates("iii", 2, seed=3)
        assert Z[:, 0].var() == pytest.approx(1.1, abs=0.03)
        assert np.cov(Z[:, 0], Z[:, 1])[0, 1] == pytest.approx(0.3, abs=0.02)

    def test_unsupported_design(self):
        sc = make_scenario("i", "I", 10, 10, censored=False)
        p3 = replace(sc, gamma1=np.zeros(3), gamma2=np.zeros(3))
        with pytest.raises(ValueError):
            p3.simulate([np.random.default_rng(0)])


class TestEventAndCensoringDraws:
    def test_unit_scale_weibull_survival(self):
        # scenario i has unit scale and setting I shapes 2 and 3, so group j
        # survives past t with probability exp(-t^k_j)
        sc = make_scenario("i", "I", 500_000, 500_000, censored=False)
        data = simulate_dataset(sc, np.random.default_rng(4))
        for times, k in ((data.times1, 2.0), (data.times2, 3.0)):
            for t in (0.5, 1.0):
                assert np.mean(times > t) == pytest.approx(np.exp(-(t**k)), abs=0.002), (k, t)

    def test_weibull_survival_at_hazard_crossing(self):
        # shapes 2 and 3 at unit scale cross at t = 2/3 (displayed as 0.667)
        t = 2.0 / 3.0
        assert round(float(np.exp(-(t**2))), 3) == 0.641
        assert round(float(np.exp(-(t**3))), 3) == 0.744

    def test_censoring_rate_reasonable(self):
        sc = make_scenario("i", "II", 50, 50, censored=True)
        rates = censoring_rates(sc, 200_000, seed=0)
        assert 0.050 <= rates[1] <= 0.087
        # the rates are those of the censored design whatever the scenario's flag
        uncensored = replace(sc, censored=False)
        assert censoring_rates(uncensored, 200_000, seed=0) == rates


class TestTrueTheta:
    def test_symmetric_null(self):
        assert true_theta_weibull_equal_shapes(0, [], [], 0, [], [], 3.0) == pytest.approx(0.5)

    def test_logistic_at_log3(self):
        # k * (eta1 - eta2) = log 3 puts the infinite-horizon value at 3/4
        assert true_theta_weibull_equal_shapes(
            np.log(3) / 2, [], [], 0, [], [], 2.0
        ) == pytest.approx(0.75)

    def test_unit_scale_closed_form(self):
        for tau in (0.3, 1.0, 2.5):
            expected = (1 - np.exp(-2 * tau**3)) / 2
            got = true_theta_weibull_equal_shapes(0, [], [], 0, [], [], 3.0, tau)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_against_quadrature(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            e1, e2 = rng.uniform(-0.6, 0.6, 2)
            k = rng.uniform(1.0, 4.0)
            tau = rng.uniform(0.5, 6.0)
            cf = true_theta_weibull_equal_shapes(e1, [], [], e2, [], [], k, tau)
            nm = true_theta_weibull_numeric(np.exp(e1), k, np.exp(e2), k, tau)
            assert cf == pytest.approx(nm, abs=1e-6)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            true_theta_weibull_equal_shapes(0, [], [], 0, [], [], -1.0)


class TestScenarioRunner:
    def test_simulated_dataset_shapes(self):
        sc = make_scenario("iv", "I", 13, 17, censored=True)
        data = simulate_dataset(sc, np.random.default_rng(0))
        assert (data.n1, data.n2) == (13, 17)
        assert (data.covariates1.shape, data.covariates2.shape) == ((13, 4), (17, 4))
        assert not data.uncensored  # overwhelmingly likely at these rates

    def test_run_scenario_deterministic(self):
        sc = make_scenario("i", "II", 15, 15, censored=False)
        rows_a, res_a = run_scenario(sc, M=120, seed=8)
        rows_b, res_b = run_scenario(sc, M=120, seed=8)
        assert rows_a == rows_b
        np.testing.assert_array_equal(res_a.estimates, res_b.estimates)

    def test_hypothesis_labels(self):
        for scenario_id, labels in (
            ("i", ["H0(1)", "H0(2)"]), ("ii", ["H1(1)", "H0(2)"]),
            ("iii", ["H0(1)", "H0(2)"]), ("iv", ["H0(1)", "H1(2)"]),
        ):
            sc = make_scenario(scenario_id, "II", 15, 15, censored=False)
            rows, _ = run_scenario(sc, M=100, seed=0)
            assert [r["hypothesis"] for r in rows] == labels, scenario_id

    def test_minimum_monte_carlo_size(self):
        sc = make_scenario("i", "II", 15, 15, censored=False)
        with pytest.raises(ValueError):
            run_scenario(sc, M=10)

    def test_null_intercept_concentrates_at_half(self):
        sc = make_scenario("i", "II", 50, 50, censored=False)
        spec = FitSpec()
        intercepts = []
        for m in range(200):
            r = np.random.default_rng(np.random.SeedSequence(17, spawn_key=(m,)))
            intercepts.append(spec.fit(simulate_dataset(sc, r)).beta[0])
        assert np.mean(intercepts) == pytest.approx(0.5, abs=0.02)

    def test_null_slopes_center_at_zero(self):
        sc = make_scenario("i", "II", 40, 40, censored=True)
        spec = FitSpec()
        slopes = []
        for m in range(120):
            r = np.random.default_rng(np.random.SeedSequence(19, spawn_key=(m,)))
            fit = spec.fit(simulate_dataset(sc, r))
            slopes.append([fit.beta[1], fit.beta[3]])
        med = np.median(slopes, axis=0)
        np.testing.assert_allclose(med, 0.0, atol=0.03)


class TestStackSimulation:
    """A chunk is simulated straight into stacked arrays; each run keeps its
    stream and draw order."""

    @pytest.mark.parametrize("censored", [True, False], ids=["censored", "uncensored"])
    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("scenario_id", ["i", "ii", "iii", "iv"])
    def test_chunks_match_per_run_datasets_and_resamples(self, scenario_id, setting, censored):
        sc = make_scenario(scenario_id, setting, 13, 17, censored)
        for size in (1, 7, 40):
            runs = range(5, 5 + size)
            stack, idx1, idx2 = _simulated_chunk(sc.simulate, 7, runs)
            for k, m in enumerate(runs):
                rng = oracles.replicate_rng(7, m)
                data = simulate_dataset(sc, rng)
                want1, want2 = oracles.resample_indices(rng, sc.n1, sc.n2)
                drawn = oracles.simulate_dataset(sc, oracles.replicate_rng(7, m))
                for f in fields(TwoSampleDataset):
                    got = getattr(stack[k], f.name)
                    assert np.array_equal(got, getattr(data, f.name)), (size, m, f.name)
                    assert np.array_equal(got, getattr(drawn, f.name)), (size, m, f.name)
                assert np.array_equal(idx1[k], want1) and np.array_equal(idx2[k], want2)

    def test_scenario_warp_speed_matches_per_run_oracle(self):
        for censored in (True, False):
            sc = make_scenario("ii", "I", 20, 15, censored)
            got = warp_speed(sc, M=90, seed=11)
            want = oracles.warp_speed(lambda r: oracles.simulate_dataset(sc, r), M=90, seed=11)
            assert got.failed == want.failed
            np.testing.assert_allclose(got.estimates, want.estimates, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got.centered_replicates, want.centered_replicates,
                                       rtol=0, atol=1e-10)


@pytest.mark.parametrize("name, censored", [("mc_censored", True), ("mc_uncensored", False)])
def test_run_scenario_matches_pinned_benchmark_reference(name, censored):
    # the benchmark's pinned Monte Carlo cases, checked to its tolerance
    ref = json.loads((REFERENCES / f"{name}.json").read_text())
    sc = make_scenario("iv", "II", 50, 50, censored)
    rows, result = run_scenario(sc, M=ref["M"], seed=ref["seed"])
    assert result.failed == ref["failed"]
    assert len(rows) == len(ref["rows"])
    for got, want in zip(rows, ref["rows"]):
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=0, abs=1e-8), key
            else:
                assert got[key] == value, key
    np.testing.assert_allclose(result.estimates, ref["estimates"], rtol=0, atol=1e-8)
