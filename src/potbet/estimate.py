"""Frequency estimation and minimal-length Poisson intervals.

Under the fitted model each of the exceedances expected in the unseen runs
crosses the event threshold independently with one probability, so a
replication's count is binomial and is drawn as such; replicated counts
give a median point estimate on the 1/total_runs grid and a
Poisson-approximation confidence interval of minimal integer length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .ingest import DAYS_PER_YEAR
from .potmodel import PotModel
from .reduce import TargetSpec, UnivariateTarget, exceedances

QUARTER_PI = math.pi / 4.0
QUADRATURE_NODES = 64  # Gauss-Legendre nodes for the angular integral


@dataclass
class EstimateConfig:
    """Replication and interval settings for the frequency estimator."""

    n_replications: int = 1000
    total_runs: int = 50
    given_runs: int = 4
    years: int = 165
    confidence: float = 0.92
    seed: int = 0

    def __post_init__(self):
        if self.n_replications < 100:
            raise ValueError("n_replications must be >= 100")
        if self.n_replications * 8 > np.iinfo(np.intp).max:  # numpy's largest int64 array
            raise ValueError(f"n_replications must be <= {np.iinfo(np.intp).max // 8}")
        if not 0.5 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0.5, 1)")
        if self.confidence > 0.999999:  # poisson_pmf's masses sum to 1 only within ~1e-9
            raise ValueError("confidence must be <= 0.999999, the most the interval search reaches")
        if not 0 <= self.given_runs < self.total_runs:
            raise ValueError("need 0 <= given_runs < total_runs")
        if self.years < 1:
            raise ValueError("years must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class FrequencyEstimate:
    """Point estimate and confidence interval, both on the 1/total_runs grid."""

    point: float
    counts: np.ndarray
    lam: float            # mean replication count (Poisson parameter)
    ci_lo: float
    ci_hi: float
    achieved_coverage: float


def poisson_pmf(k, mu):
    """Poisson(mu) probability of k, as ``scipy.stats.poisson.pmf`` computes
    it for integer k >= 0 and mu >= 0 (scipy.stats costs a second to import)."""
    return np.exp(special.xlogy(k, mu) - special.gammaln(k + 1) - mu)


def poisson_ppf(q, mu):
    """Smallest k with Poisson(mu) cdf at least q, as
    ``scipy.stats.poisson.ppf`` computes it for 0 < q < 1 and mu >= 0."""
    vals = np.ceil(special.pdtrik(q, mu))
    below = np.maximum(vals - 1, 0)
    return np.where(special.pdtr(below, mu) >= q, below, vals)


def poisson_interval(lam: float, confidence: float) -> tuple:
    """Minimal-length integer interval [a, b] with Poisson(lam) mass >= confidence.

    Ties at minimal length are broken by larger mass, then smaller a.
    Returns (a, b, achieved_mass).

    The largest window mass never falls as the length grows, so the minimal
    length is found by bisection, each step one numpy pass over the windows.
    """
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    bmax = int(math.ceil(lam + 10.0 * math.sqrt(lam + 1.0) + 10.0))
    pmf = poisson_pmf(np.arange(bmax + 1), lam)
    cum = np.concatenate([[0.0], np.cumsum(pmf)])
    need = confidence - 1e-12
    if cum[-1] < need:
        raise RuntimeError("search bound exhausted without reaching confidence")

    def masses(length: int) -> np.ndarray:  # of [a, a + length], a = 0..bmax - length
        return cum[length + 1:] - cum[:-length - 1]

    lo, hi = 0, bmax  # the minimal feasible length lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if masses(mid).max() >= need:
            hi = mid
        else:
            lo = mid + 1
    window = masses(hi)
    best = None
    for a in np.flatnonzero(window >= need):  # ascending a, as the tie rule needs
        if best is None or window[a] > window[best] + 1e-15:
            best = a
    return int(best), int(best) + hi, float(window[best])


def exceedance_probability(model: PotModel, threshold: float) -> float:
    """Probability that one ``sample_model`` draw is at or above the threshold.

    A draw on day d is q + f(d) * E, so it reaches the threshold with
    probability exp(-(threshold - q)+ / f(d)), averaged over the day pool.
    The angular kind multiplies by min(sin T, cos T), T ~ U(0, pi/2), which
    has the law of sin T', T' ~ U(0, pi/4); that average over T' is taken
    by Gauss-Legendre quadrature.  The integrand is exactly 1 where
    sin T' >= threshold / q, so the quadrature stops at that kink and the
    flat part is added in closed form.
    """
    table = model.scale.table
    if model.kind == "direct":
        per_day = np.exp(-max(threshold - model.q, 0.0) / table)
    else:
        top = QUARTER_PI
        if 0.0 < threshold < model.q:
            top = min(top, math.asin(threshold / model.q))
        x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
        theta = 0.5 * top * (x + 1.0)
        excess = np.maximum(threshold / np.sin(theta) - model.q, 0.0)
        integral = np.exp(-excess / table[:, None]) @ w * (0.5 * top)
        per_day = (integral + (QUARTER_PI - top)) / QUARTER_PI
    # integer day weights, divided last: a certain event gives exactly 1.0
    weights = np.bincount(model.day_pool, minlength=DAYS_PER_YEAR + 1)[1:]
    return float(weights @ per_day) / model.day_pool.size


def body_event_rate(target: UnivariateTarget, model: PotModel, spec: TargetSpec) -> float:
    """Share of the target's body days (tail series <= q) with y at or above
    the threshold.

    The tail model never sees these days, so their events are counted at
    this observed rate.
    """
    tail = exceedances(target, model.p, model.q).t
    n_body = target.y.size - tail.size
    if n_body == 0:
        return 0.0
    hits = target.y >= spec.event_threshold
    return (int(np.sum(hits)) - int(np.sum(hits[tail]))) / n_body


def lower_median(counts: np.ndarray) -> int:
    """Median that stays on the integer grid for even sample sizes."""
    return int(np.sort(counts)[(len(counts) - 1) // 2])


def estimate_frequency(
    model: PotModel,
    spec: TargetSpec,
    observed_count: int,
    cfg: EstimateConfig,
    body_rate: float = 0.0,
) -> FrequencyEstimate:
    """Replicated count of threshold crossings in the unseen runs.

    Each replication counts the m = ceil((1-p) * unseen_days) exceedances
    that cross the event threshold, Binomial(m, pi) with pi from
    ``exceedance_probability``; the other unseen days, which lie at or
    below q, cross at ``body_rate`` (see ``body_event_rate``).  The count
    observed in the given runs is added to every replication.
    """
    if model.target_id != spec.target_id:
        raise ValueError(
            f"model is for {model.target_id}, spec is for {spec.target_id}"
        )
    if observed_count < 0:
        raise ValueError("observed_count must be >= 0")
    unseen_days = (cfg.total_runs - cfg.given_runs) * cfg.years * DAYS_PER_YEAR
    m = int(math.ceil((1.0 - model.p) * unseen_days))
    pi = exceedance_probability(model, spec.event_threshold)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xE57]))
    counts = rng.binomial(m, pi, size=cfg.n_replications) + observed_count
    counts += rng.binomial(unseen_days - m, body_rate, size=cfg.n_replications)
    lam = float(np.mean(counts))
    lo, hi, achieved = poisson_interval(lam, cfg.confidence)
    return FrequencyEstimate(
        point=lower_median(counts) / cfg.total_runs,
        counts=counts,
        lam=lam,
        ci_lo=lo / cfg.total_runs,
        ci_hi=hi / cfg.total_runs,
        achieved_coverage=achieved,
    )
