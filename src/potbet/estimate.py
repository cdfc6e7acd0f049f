"""Monte Carlo frequency estimation and minimal-length Poisson intervals.

The fitted model generates the exceedances expected in the unseen runs;
replicated counts give a median point estimate on the 1/total_runs grid and
a Poisson-approximation confidence interval of minimal integer length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .potmodel import PotModel, sample_model
from .reduce import TargetSpec

DAYS_PER_YEAR = 365


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
        if not 0.5 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0.5, 1)")
        if not 0 <= self.given_runs < self.total_runs:
            raise ValueError("need 0 <= given_runs < total_runs")

    @property
    def unseen_runs(self) -> int:
        return self.total_runs - self.given_runs


@dataclass
class FrequencyEstimate:
    """Point estimate and confidence interval, both on the 1/total_runs grid."""

    target_id: str
    point: float
    counts: np.ndarray
    lam: float            # mean replication count (Poisson parameter)
    ci_lo: float
    ci_hi: float
    achieved_coverage: float
    confidence: float
    seed: int


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
    pmf = stats.poisson.pmf(np.arange(bmax + 1), lam)
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


def interval_to_frequency(lo_count: int, hi_count: int, total_runs: int = 50) -> tuple:
    """Convert a count interval to a frequency interval (multiples of 1/total_runs)."""
    if lo_count > hi_count:
        raise ValueError("lo_count must be <= hi_count")
    return lo_count / total_runs, hi_count / total_runs


def lower_median(counts: np.ndarray) -> int:
    """Median that stays on the integer grid for even sample sizes."""
    return int(np.sort(counts)[(len(counts) - 1) // 2])


def estimate_frequency(
    model: PotModel,
    spec: TargetSpec,
    observed_count: int,
    cfg: EstimateConfig,
) -> FrequencyEstimate:
    """Replicated Monte Carlo count of threshold crossings in the unseen runs.

    Each replication draws ceil((1-p) * unseen_days) exceedance-level
    samples, counts those at or above the event threshold, and adds the
    count observed in the given runs.
    """
    if model.target_id != spec.target_id:
        raise ValueError(
            f"model is for {model.target_id}, spec is for {spec.target_id}"
        )
    if observed_count < 0:
        raise ValueError("observed_count must be >= 0")
    unseen_days = cfg.unseen_runs * cfg.years * DAYS_PER_YEAR
    m = int(math.ceil((1.0 - model.p) * unseen_days))
    root = np.random.SeedSequence([cfg.seed, 0xE57])
    counts = np.empty(cfg.n_replications, dtype=np.int64)
    for i, child in enumerate(root.spawn(cfg.n_replications)):
        sample = sample_model(model, m, child)
        counts[i] = int(np.sum(sample >= spec.event_threshold)) + observed_count
    lam = float(np.mean(counts))
    lo, hi, achieved = poisson_interval(lam, cfg.confidence)
    ci_lo, ci_hi = interval_to_frequency(lo, hi, cfg.total_runs)
    return FrequencyEstimate(
        target_id=spec.target_id,
        point=lower_median(counts) / cfg.total_runs,
        counts=counts,
        lam=lam,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        achieved_coverage=achieved,
        confidence=cfg.confidence,
        seed=cfg.seed,
    )
