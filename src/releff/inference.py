"""Bootstrap resampling of the fitting pipeline and coefficient tests.

Subjects are resampled with replacement within each group.  Replicate b of
a run with seed s uses the stream of ``SeedSequence(s, spawn_key=(b,))``, so
results are identical no matter in which order replicates are computed;
``_replicate_rngs`` seeds the generators of a whole chunk in one pass.

Every fit is a fit of a stack (``FitSpec._fit_stack``): ``FitSpec.fit``
and a bootstrap's base fit fit a stack of one dataset, and bootstrap
replicates and warp-speed Monte Carlo runs are fitted in chunks, the
resampled (and simulated) datasets of a chunk stacked on a leading axis.
For the identity link a stack is fitted by one ``pseudo_marginals`` and one
``gee.solve_identity`` call.  For the logit link that call gives every
dataset's Newton start, its identity fit mapped onto the logit scale next
to a reference fit (``_logit_start``; a bootstrap refit's reference is the
base fit), and each dataset is then fitted on its distinct subjects: rows
equal in time, status and covariates are copies of one subject, so the
pseudo matrix is built for one row or column per distinct subject and
Newton weights them by their numbers of copies.  A bootstrap labels the
subjects of its data once (``_subject_labels``, a sort of each group's
rows), and a refit reads its distinct subjects and their copies from the
labels at its resample's indices (``_distinct_subjects``); a fit with no
bootstrap behind it labels its own rows.  A chunk holds at most
``STACK_ELEMENTS // (n1 + n2 + 2)`` datasets (160 at n1 = n2 = 50), so
memory does not grow with B or M, and a Monte Carlo task of a few hundred
runs at that size pays the fixed cost of a stacked fit once or twice.
A chunk is one ``TwoSampleDataset`` stack: warp-speed runs are simulated
straight into it, and no dataset object is built per run.  Each run or
replicate takes its resample's raw values in one generator call, and
``_bounded_draws`` turns a chunk's raw values into its index blocks at once,
as ``integers`` would; ``_simulated_chunk`` draws the streams of a chunk for
both loops.  A failed fit is counted under the first of ``FAILURE_CAUSES``
that applies to it.

``decide`` turns the centered replicates of a stack of coefficients into
the four test decisions, one row per coefficient; ``test_coefficient`` is
its one-row case, and ``warp_speed`` decides the estimates of all runs of
every tested coefficient in one call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import gee
from .pseudo import pseudo_marginals, pseudo_matrix
from .survival import TwoSampleDataset, stack_datasets

__all__ = [
    "METHODS",
    "FAILURE_CAUSES",
    "FitSpec",
    "BootstrapEnsemble",
    "TestReport",
    "bootstrap",
    "decide",
    "require_usable",
    "test_coefficient",
    "warp_speed",
]

# normal-consistency constants: q75 - q25 and 1/qnorm(0.75) of N(0,1)
IQR_TO_SD = 1.349
MAD_TO_SD = 1.4826

# the four coefficient tests: three scale-based, one percentile
METHODS = ("emp", "iqr", "mad", "quantile")

# why a fit fails, in order of precedence: a singular design (strict_singular),
# no convergence to finite coefficients, some |beta'z| > gee.SATURATED_ETA
FAILURE_CAUSES = ("singular", "nonconverged", "saturated")

# more than this fraction of failed replicates marks the ensemble unreliable
MAX_FAILURE_FRACTION = 0.05

# a reference fit's mean pair prediction theta is clipped to this interval
# before the logit start takes logit(theta) and divides by theta (1 - theta):
# a (quasi-)separated dataset has theta 0 or 1, where both are infinite,
# and a start only has to be finite for Newton to run
THETA_CLIP = (0.02, 0.98)

# element budget of one chunk: it holds at most STACK_ELEMENTS // (n1 + n2
# + 2) bootstrap replicates or warp-speed runs (160 at n1 = n2 = 50, so a
# task of M = 100 runs is one chunk); a warp-speed fit holds twice that many
# datasets, each run's own and its resample (a few MB of working set)
STACK_ELEMENTS = 1 << 14


# Cephes ndtri: sqrt(2 pi), exp(-2), and the (numerator, denominator)
# coefficients of the centre, |y - 1/2| <= 1/2 - exp(-2), and of the tails
# with x = sqrt(-2 log y) below and from 8 (y = exp(-32))
_SQRT_2PI, _EXP_M2 = 2.50662827463100050242E0, 0.13533528323661269189
_NDTRI_CENTRE = (
    (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
     1.39312609387279679503E1, -1.23916583867381258016E0),
    (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
     -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
     1.59056225126211695515E1, -1.18331621121330003142E0),
)
_NDTRI_TAIL = (
    (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
     4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
     -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4),
    (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
     1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
     -3.80806407691578277194E-2, -9.33259480895457427372E-4),
)
_NDTRI_FAR = (
    (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
     1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
     3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9),
    (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
     2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
     2.89247864745380683936E-6, 6.79019408009981274425E-9),
)

# glibc raises its mmap and trim thresholds (mallopt(3)) to the size of the
# largest mmap'd block freed so far.  Freeing this 8 MiB block, never
# written and so never resident, lifts them for the whole process: the
# temporaries of a stacked Monte Carlo chunk are then reused from the heap
# instead of being unmapped and faulted back in on every task.
np.empty(1 << 20)


def _chunk_size(n1: int, n2: int) -> int:
    return max(1, STACK_ELEMENTS // (n1 + n2 + 2))


def _subject_labels(data: TwoSampleDataset):
    """The subject of each row of ``data``, one label array per group: rows
    equal in time, status and covariates are copies of one subject and
    share its label.  Labels number the subjects in the order their rows
    sort."""
    labels = []
    for rows in (np.column_stack((data.times1, data.events1, data.covariates1)),
                 np.column_stack((data.times2, data.events2, data.covariates2))):
        order = np.lexsort(rows.T)
        ranked = rows[order]
        new = np.empty(len(rows), dtype=bool)
        new[0] = True
        np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
        labels.append(np.empty(len(rows), dtype=np.intp))
        labels[-1][order] = np.cumsum(new) - 1
    return tuple(labels)


def _distinct_subjects(labels):
    """The first row of each distinct subject, in row order, and its number
    of copies (float), from the subject label of every row of one group:
    labels are counted, and a row is first when it is its label's least
    row."""
    copies = np.bincount(labels)
    index = np.arange(len(labels))
    first = np.full(copies.size, len(labels))
    np.minimum.at(first, labels, index)
    rows = index[first[labels] == index]
    return rows, copies[labels[rows]].astype(float)


def _logit_reference(identity_beta, Z1, Z2, logit_beta=None):
    """The reference (beta_L, beta_I, theta) of ``_logit_start``: the logit
    fit ``logit_beta`` and the closed-form identity fit ``identity_beta`` of
    a dataset with covariates Z1, Z2, and the mean pair prediction theta of
    the identity fit, clipped to THETA_CLIP.  Without a logit fit the
    reference is the dataset's constant model, beta_L = (logit theta, 0,
    ...) and beta_I = (theta, 0, ...)."""
    a, b = gee._group_parts(identity_beta, Z1, Z2)
    theta = min(max(float(a.mean() + b.mean()), THETA_CLIP[0]), THETA_CLIP[1])
    if logit_beta is None:
        identity_beta, logit_beta = np.zeros((2, identity_beta.size))
        identity_beta[0], logit_beta[0] = theta, math.log(theta / (1.0 - theta))
    return logit_beta, identity_beta, theta


def _logit_start(identity_beta, reference):
    """Newton's start for the logit fit of a dataset whose closed-form
    identity fit is ``identity_beta``, next to ``reference`` = (beta_L,
    beta_I, theta) of ``_logit_reference``:

        x0 = beta_L + (identity_beta - beta_I) / (theta (1 - theta)).

    From a dataset's own constant model this maps its identity fit linearly
    onto the logit scale; from a bootstrap's base fit a refit starts next
    to the base estimate."""
    logit_ref, identity_ref, theta = reference
    return logit_ref + (identity_beta - identity_ref) / (theta * (1.0 - theta))


@dataclass(frozen=True)
class FitSpec:
    """Everything needed to refit the model on a resampled dataset.

    ``_fit_stack`` is the one link dispatch: ``fit`` is its fit of a stack
    of one dataset, and a bootstrap and warp-speed take every fit from it.
    It solves the identity link in closed form from the pseudo-matrix
    marginals.  For the logit link that solution, mapped onto the logit
    scale by ``_logit_start``, starts ``gee.solve_newton``: from a
    reference given to ``_fit_stack`` (a bootstrap passes its base fit), or
    else from the constant model.  Newton runs on the distinct subjects of
    the dataset: the pseudo matrix restricted to one row or column per
    distinct subject, each weighted by its number of copies, has the score
    and Jacobian of the whole matrix.  A link not in ``gee.LINKS`` raises
    ValueError."""

    link: str = gee.IDENTITY
    strict_singular: bool = False

    def __post_init__(self):
        gee.check_link(self.link)

    def fit(self, data: TwoSampleDataset) -> gee.FitResult:
        """Fit one dataset; a singular design under ``strict_singular``
        raises LinAlgError.  A saturated or non-converged logit fit is
        returned as it is."""
        _, outcome, _, _, _, fits = self._fit_stack(stack_datasets([data]))
        return _own_fit(outcome, fits)

    def _fit_stack(self, stack: TwoSampleDataset, reference=None, labels=None):
        """Fit every dataset of ``stack``.  Returns the coefficients (N, p),
        NaN where the fit failed; each fit's outcome, the index in
        FAILURE_CAUSES of the first cause that applies, or
        len(FAILURE_CAUSES) for a usable fit; the Newton iterations and
        evaluator sweeps summed over every Newton run; the closed-form
        identity fits as one stacked FitResult; and each dataset's fit on
        this link, indexed by dataset: that stack for the identity link, a
        list of Newton fits (None where the design is singular, the NaN
        identity fit where the design moments overflow) for the logit link.
        A fit with non-finite coefficients counts as not converged.  Newton
        starts only from a finite identity fit, at ``_logit_start`` next to
        ``reference``, or else next to the dataset's own constant model.  The
        reference only saves iterations, so a fit from it that fails, or
        that stops at a root of U other than a maximum (J at the root not
        negative definite), is done again from its identity fit as it is, a
        start that no reference moves.  Logit fits run on the distinct
        subjects of ``labels``, the subject labels (N, n1) and (N, n2) of
        the rows of the stack (a bootstrap passes its data's labels at each
        resample's indices); without them each dataset labels its own
        rows."""
        identity = gee.solve_identity(*pseudo_marginals(stack), stack.covariates1,
                                      stack.covariates2, strict_singular=self.strict_singular)
        beta, singular, fits = identity.beta.copy(), ~identity.converged, identity
        nonconverged = np.zeros(len(beta), dtype=bool)
        saturated = np.zeros(len(beta), dtype=bool)
        iterations = sweeps = 0
        if self.link == gee.LOGIT:
            fits = [None] * len(beta)
            for k in np.flatnonzero(identity.converged):
                if not np.isfinite(beta[k]).all():
                    fits[k] = identity[k]    # design moments overflowed: no start
                    continue
                data = stack[k]
                Z1, Z2 = data.covariates1, data.covariates2
                subjects = _subject_labels(data) if labels is None else (labels[0][k], labels[1][k])
                (rows, w1), (cols, w2) = map(_distinct_subjects, subjects)
                matrix = pseudo_matrix(data, rows=rows, cols=cols)
                if reference is None:
                    starts = [_logit_start(beta[k], _logit_reference(beta[k], Z1, Z2))]
                else:
                    starts = [_logit_start(beta[k], reference), beta[k].copy()]
                for start in starts:
                    fits[k] = result = gee.solve_newton(matrix, Z1[rows], Z2[cols], x0=start,
                                                        weights=(w1, w2))
                    iterations += result.iterations
                    sweeps += result.sweeps
                    nonconverged[k] = not (result.converged and np.isfinite(result.beta).all())
                    saturated[k] = gee.max_abs_eta(result.beta, Z1, Z2) > gee.SATURATED_ETA
                    if not (nonconverged[k] or saturated[k]
                            or np.linalg.eigvalsh(result.jacobian).max() >= 0):
                        break
                beta[k] = result.beta
        nonconverged |= ~np.isfinite(beta).all(axis=1)
        usable = np.ones_like(saturated)    # the rows below follow FAILURE_CAUSES
        outcome = np.argmax([singular, nonconverged, saturated, usable], axis=0)
        beta[outcome < len(FAILURE_CAUSES)] = np.nan
        return beta, outcome, iterations, sweeps, identity, fits


def _own_fit(outcome, fits) -> gee.FitResult:
    """The link fit of the one dataset that ``FitSpec._fit_stack`` fitted
    to ``outcome`` and ``fits``, as it is; a singular design raises
    LinAlgError."""
    if outcome[0] == FAILURE_CAUSES.index("singular"):
        raise np.linalg.LinAlgError("design second-moment matrix is singular")
    return fits[0]


def _failures(outcomes=()) -> dict:
    """Cause -> number of failed fits among the ``_fit_stack`` outcomes."""
    counts = np.bincount(np.asarray(outcomes, dtype=int), minlength=len(FAILURE_CAUSES))
    return dict(zip(FAILURE_CAUSES, counts.tolist()))


@dataclass
class BootstrapEnsemble:
    replicates: np.ndarray        # (B, p); failed rows are NaN
    B: int
    seed: int
    base_fit: gee.FitResult
    failures: dict = field(default_factory=_failures)   # cause -> failed refits
    newton_iterations: int = 0    # summed over the refits; 0 for the identity link
    newton_sweeps: int = 0        # evaluations of (U, J), summed as newton_iterations

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def unreliable(self) -> bool:
        return self.failed > MAX_FAILURE_FRACTION * self.B

    @property
    def ok(self) -> np.ndarray:
        return ~np.any(np.isnan(self.replicates), axis=1)


def require_usable(fit: gee.FitResult, data: TwoSampleDataset) -> None:
    """Raise RuntimeError unless ``fit`` of ``data`` converged to finite
    coefficients; the message names a fit that stopped saturated."""
    if not fit.converged:
        eta = gee.max_abs_eta(fit.beta, data.covariates1, data.covariates2)
        raise RuntimeError(f"fit did not converge: {fit.message}" + (
            f"; some |beta'z| exceeds {gee.SATURATED_ETA:g}: the fit is saturated, the data "
            "look separated" if eta > gee.SATURATED_ETA else ""))
    if not np.all(np.isfinite(fit.beta)):
        raise RuntimeError(
            "fit has non-finite coefficients; covariates this large in magnitude "
            "overflow the design moments, so rescale them"
        )


# numpy's SeedSequence hash (O'Neill's seed_seq_fe, pool of four uint32 words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _StateWords:
    """A seed sequence that has already generated ``words``, the state a
    PCG64 asks it for (registered as an ``ISeedSequence`` at first use)."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _replicate_rngs(seed: int, runs: range) -> list:
    """One generator per run m in ``runs``, on the stream of
    ``default_rng(SeedSequence(seed, spawn_key=(m,)))``.

    SeedSequence hashes its entropy, the 32-bit words of ``seed`` padded
    with zeros to four and then the one or two words of m (m < 2**64), into
    a pool of four words, and PCG64 takes the four 64-bit words that
    ``generate_state`` draws from that pool.  The hash is uint32
    arithmetic: the seed's words are hashed once, as Python ints, and each
    spawn word for all runs at once, as arrays.  A negative seed raises
    ValueError, as SeedSequence does."""
    from numpy.random.bit_generator import ISeedSequence

    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    ISeedSequence.register(_StateWords)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value, const = value ^ const, const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
        return x ^ x >> 16

    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pool = [hashmix(word) for word in words[:4]]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    m = np.asarray(runs, dtype=np.uint64)
    high = (m >> 32).astype(np.uint32)
    for word in words[4:] + [(m & _MASK32).astype(np.uint32), high]:
        previous, pool = pool, [mix(p, hashmix(word)) for p in pool]
    pool = np.where(high > 0, pool, previous).T     # m < 2**32 has no second word
    hash_b = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9)], np.uint32)
    state = (np.tile(pool, 2) ^ hash_b[:8]) * hash_b[1:]
    state ^= state >> 16
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in state]


def bootstrap(
    data: TwoSampleDataset,
    spec: FitSpec | None = None,
    B: int = 2000,
    seed: int = 0,
) -> BootstrapEnsemble:
    """Nonparametric bootstrap of the full pipeline; a base fit that
    ``require_usable`` refuses stops it before any refit.  A refit fails
    by the causes of ``FitSpec._fit_stack``; a saturated base fit is not
    refused.  The base fit is ``_fit_stack`` of ``data`` as a stack of one,
    and logit refits start next to it, the reference of ``_logit_start``
    with the identity fit of ``data`` that started it.
    The subjects of ``data`` are labelled once, and a logit refit reads its
    distinct subjects and their copies from the labels of its resample."""
    if B < 1:
        raise ValueError("B must be at least 1")
    spec = spec or FitSpec()
    labels = _subject_labels(data) if spec.link == gee.LOGIT else None
    whole = stack_datasets([data])
    _, outcome, _, _, identity, fits = spec._fit_stack(
        whole, labels=None if labels is None else (labels[0][None], labels[1][None]))
    base = _own_fit(outcome, fits)
    require_usable(base, data)
    reference = None
    if labels is not None:
        reference = _logit_reference(identity.beta[0], data.covariates1, data.covariates2,
                                     base.beta)
    replicates = np.full((B, base.beta.size), np.nan)
    outcomes = np.empty(B, dtype=int)
    newton_iterations = newton_sweeps = 0
    step = _chunk_size(data.n1, data.n2)
    for start in range(0, B, step):
        runs = range(start, min(start + step, B))
        _, idx1, idx2 = _simulated_chunk(lambda rngs: whole, seed, runs)
        resampled = None if labels is None else (labels[0][idx1], labels[1][idx2])
        replicates[start : runs.stop], outcomes[start : runs.stop], iterations, sweeps, *_ = (
            spec._fit_stack(whole.resampled(idx1, idx2), reference, resampled))
        newton_iterations += iterations
        newton_sweeps += sweeps
    ensemble = BootstrapEnsemble(replicates=replicates, B=B, seed=seed, base_fit=base,
                                 failures=_failures(outcomes),
                                 newton_iterations=newton_iterations, newton_sweeps=newton_sweeps)
    if ensemble.failed == B:
        raise RuntimeError("all bootstrap replicates failed")
    return ensemble


@dataclass
class TestReport:
    estimate: float
    decisions: dict               # method -> (scale, ci, reject), see ``decide``
    degenerate: bool = False      # the empirical SD is not positive


def scale_estimates(values: np.ndarray):
    """The three bootstrap spread estimates calibrated to a normal SD, of
    each row of ``values`` (along its last axis)."""
    values = np.asarray(values, dtype=float)
    emp = (np.std(values, axis=-1, ddof=1) if values.shape[-1] > 1
           else np.zeros(values.shape[:-1]))
    q25, q75 = np.quantile(values, [0.25, 0.75], axis=-1)
    iqr = abs(q75 - q25) / IQR_TO_SD
    centre = np.median(values, axis=-1, keepdims=True)
    mad = np.median(np.abs(values - centre), axis=-1) * MAD_TO_SD
    return emp, iqr, mad


def _polynomial_ratio(x: float, p, q) -> float:
    """x * polevl(x, p) / p1evl(x, q) in Cephes' order of operations; the
    denominator's leading coefficient 1 is implicit."""
    num = p[0]
    for c in p[1:]:
        num = num * x + c
    den = x + q[0]
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def _ndtri(y0: float) -> float:
    """The standard normal quantile at y0 by Cephes' ``ndtri`` (Moshier,
    *Methods and Programs for Mathematical Functions*, 1989), the algorithm
    of ``scipy.special.ndtri``: the same coefficients, branch points and
    order of operations give the same bits.  -inf at 0, inf at 1, NaN at
    NaN and off [0, 1]."""
    if y0 == 0:
        return -math.inf
    if y0 == 1:
        return math.inf
    if not 0 < y0 < 1:
        return math.nan
    y, negate = (1 - y0, False) if y0 > 1 - _EXP_M2 else (y0, True)
    if y > _EXP_M2:
        y -= 0.5
        return (y + y * _polynomial_ratio(y * y, *_NDTRI_CENTRE)) * _SQRT_2PI
    x = math.sqrt(-2 * math.log(y))
    x = x - math.log(x) / x - _polynomial_ratio(1 / x, *(_NDTRI_TAIL if x < 8 else _NDTRI_FAR))
    return -x if negate else x


def _two_sided_z(alpha: float) -> float:
    """z at 1 - alpha/2, bit for bit what ``scipy.stats.norm.ppf`` gives; the
    one check of every test level: an alpha off (0, 1) raises ValueError."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return _ndtri(1 - alpha / 2)


def decide(estimates: np.ndarray, centered: np.ndarray, alpha: float = 0.05) -> dict:
    """The four bootstrap tests of H0: beta = 0 for k coefficients at once:
    row i of ``estimates`` (k, m) is tested on the centered replicates in
    row i of ``centered`` (k, R), each statistic one call along the last
    axis (a contiguous row is summed in the order of a 1-D call, a strided
    one is not, so pass contiguous rows).

    Returns method -> (scale, (ci_low, ci_high), reject) in the order of
    METHODS, a scale per row and intervals and flags (1.0 reject, 0.0 not)
    shaped as ``estimates``.  A scale-based test rejects when |estimate| /
    scale > z, with the interval estimate +- z * scale; a row whose scale is
    <= 0 decides nothing (flags and interval NaN).  The percentile test has
    no scale (None): with q_lo, q_hi the alpha/2 and 1 - alpha/2 quantiles
    of a row's centered replicates it rejects when estimate < q_lo or
    estimate > q_hi, with the interval (estimate - q_hi, estimate - q_lo).
    An alpha off (0, 1) raises ValueError.
    """
    z = _two_sided_z(alpha)
    scales = np.stack(scale_estimates(centered))[..., None]     # (3, k, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rejects = (abs(estimates) / scales > z).astype(float)
    lows, highs = estimates - z * scales, estimates + z * scales
    for values in (rejects, lows, highs):
        np.copyto(values, np.nan, where=scales <= 0)
    decisions = {name: (scales[j, :, 0], (lows[j], highs[j]), rejects[j])
                 for j, name in enumerate(METHODS[:3])}
    q_lo, q_hi = np.quantile(centered, [alpha / 2, 1 - alpha / 2], axis=-1)[..., None]
    reject = ((estimates < q_lo) | (estimates > q_hi)).astype(float)
    decisions["quantile"] = (None, (estimates - q_hi, estimates - q_lo), reject)
    return decisions


def _test_reports(ensemble: BootstrapEnsemble, coefficients, alpha: float) -> list:
    """The ``TestReport`` of each of ``coefficients``, from one ``decide``
    call on their estimates and centered replicates."""
    estimates = ensemble.base_fit.beta[coefficients]
    reps = ensemble.replicates[ensemble.ok][:, coefficients]
    if reps.size == 0:
        raise RuntimeError("no successful bootstrap replicates")
    decisions = decide(estimates[:, None], (reps - estimates).T.copy(), alpha)

    def row(i):
        return {name: (None if scale is None else scale.item(i),
                       (low.item(i, 0), high.item(i, 0)),
                       None if math.isnan(reject[i, 0]) else bool(reject[i, 0]))
                for name, (scale, (low, high), reject) in decisions.items()}

    emp = decisions["emp"][0]
    return [TestReport(estimate=estimate, decisions=row(i), degenerate=bool(emp[i] <= 0))
            for i, estimate in enumerate(estimates.tolist())]


def test_coefficient(
    ensemble: BootstrapEnsemble, coefficient: int, alpha: float = 0.05
) -> TestReport:
    """Four bootstrap tests of H0: beta[coefficient] = 0, each as in
    ``decide``: a flag is a bool, or None where the test decides nothing."""
    return _test_reports(ensemble, [coefficient], alpha)[0]


@dataclass
class WarpSpeedResult:
    rejection_rates: dict          # test name -> array over coefficients
    estimates: np.ndarray          # (M_ok, p)
    centered_replicates: np.ndarray  # (M_ok, p)
    degenerate: bool = False       # a pooled scale of a tested coefficient is <= 0
    failures: dict = field(default_factory=_failures)   # cause -> failed runs

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _bounded_draws(rngs, bound) -> np.ndarray:
    """The int64 block (N, len(bound)) whose row k is what
    ``rngs[k].integers(0, bound)`` draws for uint64 bounds b from 2 to
    2**32 - 1, by numpy's method: Lemire's multiply-shift w b >> 32 on the
    32-bit words w of the raw values, low half first, where a word is
    rejected while the low half of w b is below (2**32 - b) mod b.  It runs
    on ceil(len(bound) / 2) raw values per generator at once.  A row that
    meets a rejected word rewinds its generator (PCG64 has period 2**128)
    and is drawn again by ``integers``.  A generator must hold no spare
    32-bit half when it starts; a spare half after an odd number of words is
    dropped."""
    raw = np.empty((len(rngs), (len(bound) + 1) // 2), dtype="<u8")
    for k, rng in enumerate(rngs):
        raw[k] = rng.bit_generator.random_raw(raw.shape[1])
    idx = np.multiply(raw.view("<u4")[:, : len(bound)], bound,
                      out=np.empty((len(rngs), len(bound)), dtype="<u8"))
    rejected = idx.view("<u4")[:, ::2] < (2**32 - bound) % bound
    idx >>= 32
    for k in np.flatnonzero(rejected.any(axis=1)):
        rngs[k].bit_generator.advance(2**128 - raw.shape[1])
        idx[k] = rngs[k].integers(0, bound)
    return idx.view("<i8")


def _simulated_chunk(draw, seed: int, runs: range):
    """The stack ``draw(rngs)``, one generator per run in ``runs``, and each
    run's resample as rows of two int64 blocks (idx1, idx2): run m draws its
    dataset, then its resample, from the stream (seed, m), as
    ``rng.integers(0, n1, size=n1)`` and ``rng.integers(0, n2, size=n2)``
    would.  The bootstrap's ``draw`` draws nothing."""
    rngs = _replicate_rngs(seed, runs)
    stack = draw(rngs)
    n1, n2 = stack.n1, stack.n2
    idx = _bounded_draws(rngs, np.repeat(np.array([n1, n2], dtype=np.uint64), (n1, n2)))
    return stack, idx[:, :n1], idx[:, n1:]


def warp_speed(
    simulator,
    M: int,
    seed: int = 0,
    spec: FitSpec | None = None,
    coefficients=None,
    alpha: float = 0.05,
) -> WarpSpeedResult:
    """One bootstrap replicate per simulated dataset, pooled for scale.

    The centered replicates from all Monte Carlo runs are pooled to estimate
    the bootstrap scales and quantiles, which are then applied to each run's
    estimate.  ``simulator`` has the sizes ``n1`` and ``n2`` and
    ``simulate(rngs)``, which returns a stacked ``TwoSampleDataset`` whose
    dataset k is drawn from ``rngs[k]`` alone (a ``sim.Scenario`` is one).
    Run m draws its dataset, then its resample, from the stream (seed, m).
    The resample is what ``integers`` would draw when the generator holds no
    spare 32-bit half, as after the 64-bit draws of ``Scenario.simulate``.
    A ``simulate`` that leaves one (say through ``integers`` with a small
    bound) still gets resamples that depend only on (seed, m), but not those
    of ``integers``.
    A chunk of N runs is fitted by one ``FitSpec._fit_stack`` call on 2N
    datasets, taken by one ``resampled`` gather: row m is run m's dataset as
    drawn, row N + m its resample.  A run fails, counted under the first of
    FAILURE_CAUSES that applies to its base fit or its refit, when either
    fit fails.  All tested coefficients are decided by one ``decide`` call.
    An alpha off (0, 1) raises ValueError before any run.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    _two_sided_z(alpha)
    spec = spec or FitSpec()
    estimates = []
    centered = []
    outcomes = []
    step = _chunk_size(simulator.n1, simulator.n2)
    for start in range(0, M, step):
        runs = range(start, min(start + step, M))
        N = len(runs)
        stack, idx1, idx2 = _simulated_chunk(simulator.simulate, seed, runs)
        # index rows 0..N-1 take each dataset as drawn, N..2N-1 its resample
        joint = [np.concatenate((np.broadcast_to(np.arange(idx.shape[1]), idx.shape), idx))
                 for idx in (idx1, idx2)]
        beta, outcome, *_ = spec._fit_stack(stack.resampled(*joint))
        outcomes.append(np.minimum(outcome[:N], outcome[N:]))
        ok = outcomes[-1] == len(FAILURE_CAUSES)
        estimates.append(beta[:N][ok])
        centered.append(beta[N:][ok] - estimates[-1])
    estimates = np.concatenate(estimates)
    centered = np.concatenate(centered)
    if not len(estimates):
        raise RuntimeError("all Monte Carlo runs failed")
    p = estimates.shape[1]
    tested = list(range(p) if coefficients is None else coefficients)
    decisions = decide(estimates[:, tested].T.copy(), centered[:, tested].T.copy(), alpha)
    rates = {name: np.full(p, np.nan) for name in METHODS}
    for name, (_, _, reject) in decisions.items():
        rates[name][tested] = reject.mean(axis=-1)
    degenerate = any((scale <= 0).any() for scale, _, _ in decisions.values()
                     if scale is not None)
    return WarpSpeedResult(rejection_rates=rates, estimates=estimates, centered_replicates=centered,
                           degenerate=degenerate, failures=_failures(np.concatenate(outcomes)))
