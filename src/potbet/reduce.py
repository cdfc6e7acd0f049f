"""Reduction of the 25-location daily panel to univariate target series.

Targets 1 and 2 are single-day order statistics across the grid; Target 3
pairs the 3rd-largest value of two consecutive days, tracked together with
the Euclidean norm of the pair (the auxiliary series used for exceedance
modeling) and its angular decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ingest import Dataset, N_LOCATIONS, rankth_largest

_CANONICAL = {
    "T1": (25, 1.7, False),
    "T2": (6, 5.7, False),
    "T3": (3, 5.0, True),
}
TARGET_IDS = tuple(_CANONICAL)
MIN_QQ_VALUES = 20  # the fewest exceedances a Q-Q or angular report is made from


class InsufficientDataError(ValueError):
    """Raised when a diagnostic or fit has too few points to proceed."""


@dataclass(frozen=True)
class TargetSpec:
    """Definition of a univariate target event.

    rank is the order-statistic rank, descending (1 = maximum, 25 = minimum).
    consecutive targets take the min of the rank-th largest on days t, t+1.
    """

    target_id: str
    rank: int
    event_threshold: float
    consecutive: bool = False

    def __post_init__(self):
        if not 1 <= self.rank <= N_LOCATIONS:
            raise ValueError(f"rank must be in 1..{N_LOCATIONS}, got {self.rank}")
        if self.target_id in _CANONICAL:
            expected = _CANONICAL[self.target_id]
            got = (self.rank, self.event_threshold, self.consecutive)
            if got != expected:
                raise ValueError(
                    f"{self.target_id} must be {expected}, got {got}"
                )

    @classmethod
    def canonical(cls, target_id: str) -> "TargetSpec":
        if target_id not in _CANONICAL:
            raise ValueError(f"unknown target {target_id!r}; expected one of {TARGET_IDS}")
        rank, thr, consec = _CANONICAL[target_id]
        return cls(target_id=target_id, rank=rank, event_threshold=thr,
                   consecutive=consec)


@dataclass
class UnivariateTarget:
    """Reduced univariate series, with auxiliary pair data for paired targets."""

    target_id: str
    y: np.ndarray
    d: np.ndarray                       # day_of_year aligned with y
    y31: Optional[np.ndarray] = None    # first coordinate of the pair
    y32: Optional[np.ndarray] = None    # second coordinate of the pair
    ybar: Optional[np.ndarray] = None   # Euclidean norm of the pair

    @property
    def has_aux(self) -> bool:
        return self.ybar is not None

    @property
    def tail_series(self) -> np.ndarray:
        """The series the tail model thresholds: the pair's norm, else y."""
        return self.ybar if self.has_aux else self.y


@dataclass
class ExceedanceSet:
    """Strict exceedances of a tail series above q, a model's threshold at level p."""

    p: float
    q: float
    t: np.ndarray       # indices into the source series
    days: np.ndarray    # day_of_year labels
    excess: np.ndarray  # tail series - q, all > 0

    def __len__(self) -> int:
        return len(self.excess)


def exceedances(target: UnivariateTarget, p: float, q: float) -> ExceedanceSet:
    """The days whose tail series lies strictly above q."""
    series = target.tail_series
    t = np.flatnonzero(series > q)
    return ExceedanceSet(p=p, q=q, t=t, days=target.d[t], excess=series[t] - q)


def empirical_quantile(y: np.ndarray, p: float) -> float:
    """Ascending order statistic at index ceil(n*p) (1-based)."""
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("empty input")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    # guard against ceil() flipping on float noise like 100*0.99 = 99.0000...01
    k = int(math.ceil(y.size * p - 1e-9))
    k = min(max(k, 1), y.size)
    return float(np.partition(y, k - 1)[k - 1])


def reduce_target(data: Dataset, spec: TargetSpec) -> UnivariateTarget:
    """Reduce each day's 25 values to the target's order statistic.

    For consecutive targets, pairs (t, t+1) are formed within each run only
    and the day label is that of the pair's first day.
    """
    stats = [rankth_largest(run.values, spec.rank) for run in data.runs]
    if not spec.consecutive:
        return UnivariateTarget(target_id=spec.target_id, y=np.concatenate(stats),
                                d=data.concat_days())
    y31 = np.concatenate([s[:-1] for s in stats])
    y32 = np.concatenate([s[1:] for s in stats])
    return UnivariateTarget(
        target_id=spec.target_id,
        y=np.minimum(y31, y32),
        d=np.concatenate([run.day_of_year[:-1] for run in data.runs]),
        y31=y31,
        y32=y32,
        ybar=np.hypot(y31, y32),
    )


def count_events(target: UnivariateTarget, spec: TargetSpec) -> int:
    """Number of days (or day pairs) with y_t >= the event threshold."""
    return int(np.sum(target.y >= spec.event_threshold))


@dataclass
class AngularReport:
    """Angular diagnostic of the pair decomposition above a model's norm threshold."""

    angles: np.ndarray        # arcsin(y31 / ybar), in [0, pi/2]
    hist_counts: np.ndarray   # 20 equal bins over [0, pi/2]
    bin_edges: np.ndarray
    ks_distance: float        # KS distance to U([0, pi/2])
    n_exceedances: int


def angular_diagnostic(target: UnivariateTarget, exc: ExceedanceSet) -> AngularReport:
    """Check that the pairs on the exceedance days of the norm look like
    (sin, cos) of a uniform angle."""
    if not target.has_aux:
        raise ValueError("angular diagnostic requires a paired target")
    n = len(exc)
    if n < MIN_QQ_VALUES:
        raise InsufficientDataError(
            f"only {n} exceedances above q={exc.q}; need >= {MIN_QQ_VALUES}")
    ratio = np.clip(target.y31[exc.t] / target.ybar[exc.t], 0.0, 1.0)
    angles = np.arcsin(ratio)
    half_pi = math.pi / 2
    hist, edges = np.histogram(angles, bins=20, range=(0.0, half_pi))
    # exact KS statistic against U([0, pi/2])
    xs = np.sort(angles) / half_pi
    k = np.arange(1, n + 1)
    ks = float(max(np.max(k / n - xs), np.max(xs - (k - 1) / n)))
    return AngularReport(
        angles=angles, hist_counts=hist, bin_edges=edges,
        ks_distance=ks, n_exceedances=n,
    )
