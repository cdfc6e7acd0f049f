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

from .ingest import Dataset, N_LOCATIONS

_CANONICAL = {
    "T1": (25, 1.7, False),
    "T2": (6, 5.7, False),
    "T3": (3, 5.0, True),
}
TARGET_IDS = tuple(_CANONICAL)


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


def _rankth_largest(values: np.ndarray, rank: int) -> np.ndarray:
    idx = N_LOCATIONS - rank  # ascending-sorted position of the rank-th largest
    return np.partition(values, idx, axis=1)[:, idx]


def reduce_target(data: Dataset, spec: TargetSpec) -> UnivariateTarget:
    """Reduce each day's 25 values to the target's order statistic.

    For consecutive targets, pairs (t, t+1) are formed within each run only
    and the day label is that of the pair's first day.
    """
    if not spec.consecutive:
        ys = []
        ds = []
        for run in data.runs:
            ys.append(_rankth_largest(run.values, spec.rank))
            ds.append(run.day_of_year)
        return UnivariateTarget(
            target_id=spec.target_id,
            y=np.concatenate(ys),
            d=np.concatenate(ds),
        )

    y31s, y32s, ds = [], [], []
    for run in data.runs:
        s = _rankth_largest(run.values, spec.rank)
        y31s.append(s[:-1])
        y32s.append(s[1:])
        ds.append(run.day_of_year[:-1])
    y31 = np.concatenate(y31s)
    y32 = np.concatenate(y32s)
    return UnivariateTarget(
        target_id=spec.target_id,
        y=np.minimum(y31, y32),
        d=np.concatenate(ds),
        y31=y31,
        y32=y32,
        ybar=np.hypot(y31, y32),
    )


def count_events(target: UnivariateTarget, spec: TargetSpec) -> int:
    """Number of days (or day pairs) with y_t >= the event threshold."""
    return int(np.sum(target.y >= spec.event_threshold))


@dataclass
class AngularReport:
    """Angular diagnostic of the pair decomposition above a high norm quantile."""

    angles: np.ndarray        # arcsin(y31 / ybar), in [0, pi/2]
    hist_counts: np.ndarray   # 20 equal bins over [0, pi/2]
    bin_edges: np.ndarray
    ks_distance: float        # KS distance to U([0, pi/2])
    n_exceedances: int


def angular_diagnostic(target: UnivariateTarget, p: float) -> AngularReport:
    """Check that pairs above the norm's p-quantile look like (sin, cos) of a uniform angle."""
    from .potmodel import empirical_quantile

    if not target.has_aux:
        raise ValueError("angular diagnostic requires a paired target")
    u = empirical_quantile(target.ybar, p)
    mask = target.ybar > u
    n = int(mask.sum())
    if n < 20:
        raise InsufficientDataError(
            f"only {n} exceedances above the {p} quantile; need >= 20"
        )
    ratio = np.clip(target.y31[mask] / target.ybar[mask], 0.0, 1.0)
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


def write_target_csv(target: UnivariateTarget, path, header_comment: str = "") -> None:
    """Export a reduced series as CSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        if target.has_aux:
            fh.write("target_id,t,day_of_year,y,y31,y32,ybar\n")
            for i in range(len(target.y)):
                fh.write(
                    f"{target.target_id},{i + 1},{target.d[i]},"
                    f"{float(target.y[i])!r},{float(target.y31[i])!r},"
                    f"{float(target.y32[i])!r},{float(target.ybar[i])!r}\n"
                )
        else:
            fh.write("target_id,t,day_of_year,y\n")
            for i in range(len(target.y)):
                fh.write(
                    f"{target.target_id},{i + 1},{target.d[i]},{float(target.y[i])!r}\n"
                )
