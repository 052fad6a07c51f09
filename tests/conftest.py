import numpy as np
import pytest

from releff.survival import TwoSampleDataset


def random_dataset(rng, n1, n2, p1=2, p2=2, censored=True, tau=np.inf):
    """Weibull-ish two-sample dataset with optional uniform censoring."""
    Z1 = rng.standard_normal((n1, p1))
    Z2 = rng.standard_normal((n2, p2))
    T1 = np.exp(0.2 + Z1 @ rng.uniform(-0.4, 0.4, p1)) * rng.weibull(2.0, n1)
    T2 = np.exp(0.0 + Z2 @ rng.uniform(-0.4, 0.4, p2)) * rng.weibull(2.0, n2)
    if censored:
        C1 = rng.uniform(0.2, 5.0, n1)
        C2 = rng.uniform(0.2, 5.0, n2)
        X1, d1 = np.minimum(T1, C1), (T1 <= C1).astype(float)
        X2, d2 = np.minimum(T2, C2), (T2 <= C2).astype(float)
    else:
        X1, d1 = T1, np.ones(n1)
        X2, d2 = T2, np.ones(n2)
    return TwoSampleDataset(X1, d1, Z1, X2, d2, Z2, tau=tau)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def two_subject_group(p2=2):
    """A censored dataset whose group 1 has two subjects and one covariate:
    a resample that draws one of them twice has a constant group-1
    covariate, a singular design.  With two group-2 covariates the logit
    base fit stalls, saturated."""
    return random_dataset(np.random.default_rng(12345), 2, 10, p1=1, p2=p2)


def pytest_configure(config):
    config.addinivalue_line("markers", "given: a hypothesis @given test (select with -m given)")


def pytest_collection_modifyitems(items):
    for item in items:
        if getattr(getattr(item, "obj", None), "is_hypothesis_test", False):
            item.add_marker("given")
