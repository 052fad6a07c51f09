"""Metamorphic gates (ROADMAP item 7): properties of the pseudo matrix, the
tie correction, the fits and the bootstrap that hold at any n and for any
data, so they need no reference code.  Item 7 keeps them as the check that
a refactor leaves results unchanged."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from releff.gee import IDENTITY, LOGIT
from releff.inference import FitSpec, bootstrap
from releff.pseudo import pseudo_matrix, tie_correction_term


@st.composite
def datasets(draw, finite_tau=False):
    """A censored or fully observed dataset of 6-20 subjects per group, two
    covariates each; tied times round up to a grid of 0.5.  tau is one of the
    observed times, or infinite unless ``finite_tau``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n1, n2 = draw(st.integers(6, 20)), draw(st.integers(6, 20))
    data = random_dataset(rng, n1, n2, censored=draw(st.booleans()))
    if draw(st.booleans()):
        data = dataclasses.replace(data, times1=np.ceil(2 * data.times1) / 2,
                                   times2=np.ceil(2 * data.times2) / 2)
    observed = np.concatenate((data.times1, data.times2))
    tau = rng.choice(observed) if finite_tau or draw(st.booleans()) else np.inf
    return dataclasses.replace(data, tau=float(tau))


def _replicates(data, link):
    """Replicates of a B = 8 bootstrap, or the message that refused it."""
    try:
        return bootstrap(data, FitSpec(link=link), B=8, seed=3).replicates
    except RuntimeError as err:
        return str(err)


INCREASING = [np.exp, np.sqrt, lambda t: 2 * t + 5]


@settings(max_examples=40, deadline=None)
@given(data=datasets(finite_tau=True), transform=st.sampled_from(INCREASING))
def test_increasing_time_transform_is_bitwise_invariant(data, transform):
    """Metamorphic gate (ROADMAP item 7): a strictly increasing map of time,
    with tau mapped alike, leaves the pseudo matrix, the tie correction,
    both fits and the bootstrap replicates bitwise equal."""
    mapped = dataclasses.replace(data, times1=transform(data.times1),
                                 times2=transform(data.times2), tau=float(transform(data.tau)))
    # the map keeps the order and the ties of every time and of tau
    before = np.concatenate((data.times1, data.times2, [data.tau]))
    after = np.concatenate((mapped.times1, mapped.times2, [mapped.tau]))
    np.testing.assert_array_equal(np.sign(after[:, None] - after), np.sign(before[:, None] - before))

    np.testing.assert_array_equal(pseudo_matrix(mapped), pseudo_matrix(data))
    assert tie_correction_term(mapped) == tie_correction_term(data)
    for link in (IDENTITY, LOGIT):
        got, want = FitSpec(link=link).fit(mapped), FitSpec(link=link).fit(data)
        np.testing.assert_array_equal(got.beta, want.beta)
        assert got.converged == want.converged
        np.testing.assert_array_equal(_replicates(mapped, link), _replicates(data, link))


@settings(max_examples=40, deadline=None)
@given(data=datasets(), permutation_seed=st.integers(0, 2**16))
def test_permuting_subjects_within_groups(data, permutation_seed):
    """Metamorphic gate (ROADMAP item 7): relabelling the subjects of each
    group permutes the rows and columns of the pseudo matrix and leaves the
    identity-link fit unchanged, both up to rounding."""
    rng = np.random.default_rng(permutation_seed)
    p1, p2 = rng.permutation(data.n1), rng.permutation(data.n2)
    permuted = dataclasses.replace(
        data, times1=data.times1[p1], events1=data.events1[p1], covariates1=data.covariates1[p1],
        times2=data.times2[p2], events2=data.events2[p2], covariates2=data.covariates2[p2])
    matrix = pseudo_matrix(data)
    np.testing.assert_allclose(pseudo_matrix(permuted), matrix[np.ix_(p1, p2)],
                               rtol=0, atol=1e-12 * max(1.0, np.abs(matrix).max()))
    want = FitSpec().fit(data).beta
    np.testing.assert_allclose(FitSpec().fit(permuted).beta, want,
                               rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


@settings(max_examples=40, deadline=None)
@given(data=datasets(), group=st.sampled_from([1, 2]), column=st.integers(0, 1),
       c=st.floats(0.01, 100.0))
def test_rescaling_a_covariate_rescales_its_coefficient(data, group, column, c):
    """Metamorphic gate (ROADMAP item 7): multiplying one covariate column by
    c > 0 divides its identity-link coefficient by c, within rtol 1e-10.
    Each coefficient is compared as its part of the linear predictor,
    beta_j * max |z_j|, so that one which vanishes in exact arithmetic is
    rounding on the scale of the whole predictor."""
    name = f"covariates{group}"
    Z = getattr(data, name).copy()
    Z[:, column] *= c
    index = 1 + column + (data.covariates1.shape[1] if group == 2 else 0)
    reach = np.concatenate(([1.0], np.abs(data.covariates1).max(axis=0),
                            np.abs(data.covariates2).max(axis=0)))
    before = FitSpec().fit(data).beta * reach
    after = FitSpec().fit(dataclasses.replace(data, **{name: Z})).beta * reach
    np.testing.assert_allclose(after[index] * c, before[index],
                               rtol=1e-10, atol=1e-10 * np.abs(before).max())
