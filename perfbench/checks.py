"""Reference computations the benchmark checks potbet's answers against.

Nothing here imports potbet: the exact event frequencies come from the
synthetic generator's algebra and the interval check from its own search.

Generator (potbet's SynthSpec with unit spatial loading): on a day with
day-of-year d the latent factor is Z = s(d) * E, E ~ Exp(1),
s(d) = tail_scale * (1 + amplitude * sin(2 pi d / 365)), and each of the 25
locations observes Z plus independent Exp(1) noise.  Given Z = z, the number
of locations at or above t is Binomial(25, min(1, exp(z - t))), so
P(rank-r largest >= t) is a binomial tail integrated over Z.  Days are
independent, so a consecutive-day target multiplies the probabilities of the
two days of a pair.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

N_LOCATIONS = 25
DAYS_PER_YEAR = 365
GRID_RUNS = 50  # answers are multiples of 1 / GRID_RUNS
QUAD_NODES = 400  # Gauss-Legendre nodes of daily_probability
WINDOW_SLACK = 1e-12  # a window reaches the confidence at confidence - slack
GRID_TOL = 1e-9  # tolerance of the grid, mass and coverage comparisons

# (rank, threshold, consecutive) of the canonical targets
CANONICAL = {"T1": (25, 1.7, False), "T2": (6, 5.7, False), "T3": (3, 5.0, True)}


def _seasonal_scale(amplitude: float, tail_scale: float) -> np.ndarray:
    d = np.arange(1, DAYS_PER_YEAR + 1, dtype=np.float64)
    return tail_scale * (1.0 + amplitude * np.sin(2.0 * np.pi * d / DAYS_PER_YEAR))


def daily_probability(rank: int, threshold: float, amplitude: float = 0.5,
                      tail_scale: float = 1.0) -> np.ndarray:
    """P(rank-th largest of the 25 values >= threshold) for d = 1..365.

    P = P(Z >= t) + int_0^t P(Bin(25, e^(z-t)) >= rank) f_Z(z) dz, the
    integral by Gauss-Legendre on [0, t] (the integrand is smooth there).
    """
    s = _seasonal_scale(amplitude, tail_scale)[:, None]
    x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
    z = 0.5 * threshold * (x + 1.0)
    half = 0.5 * threshold * w
    tail = stats.binom.sf(rank - 1, N_LOCATIONS, np.exp(z - threshold))
    density = np.exp(-z / s) / s
    return np.exp(-threshold / s[:, 0]) + (tail * density) @ half


def min_of_25_probability(threshold: float, amplitude: float,
                          tail_scale: float) -> np.ndarray:
    """Closed form of daily_probability(25, ...): min of 25 = Z + Exp(rate 25).

    P(Z + M >= t) = e^(-t/s) (25 s) / (25 s - 1) - e^(-25 t) / (25 s - 1).
    """
    s = _seasonal_scale(amplitude, tail_scale)
    a = N_LOCATIONS * s - 1.0
    return np.exp(-threshold / s) * (1.0 + 1.0 / a) - np.exp(-N_LOCATIONS * threshold) / a


def events_per_run(daily: np.ndarray, run_days: int, consecutive: bool) -> float:
    """Expected events in one run of run_days days starting on day-of-year 1.

    Consecutive targets count the run_days - 1 within-run pairs (t, t+1).
    """
    p = daily[np.arange(run_days) % DAYS_PER_YEAR]
    if consecutive:
        return float(np.sum(p[:-1] * p[1:]))
    return float(np.sum(p))


def canonical_frequency(target_id: str, run_days: int) -> float:
    """Exact events per run for T1-T3 on the default synthetic spec."""
    rank, threshold, consecutive = CANONICAL[target_id]
    return events_per_run(daily_probability(rank, threshold), run_days, consecutive)


def x1_frequency() -> float:
    """Exact events per 50-year run of the coverage scenario X1.

    X1 is the minimum of the 25 locations at or above 146.084 under seasonal
    amplitude 0.25 and tail scale 10.
    """
    return events_per_run(min_of_25_probability(146.084, 0.25, 10.0),
                          50 * DAYS_PER_YEAR, consecutive=False)


# ------------------------------------------------------------ Poisson interval

def _poisson_pmf(lam: float, bmax: int) -> np.ndarray:
    k = np.arange(bmax + 1, dtype=np.float64)
    if lam == 0.0:
        return (k == 0).astype(np.float64)
    return np.exp(k * math.log(lam) - lam - special.gammaln(k + 1.0))


def minimal_poisson_windows(lam: float, confidence: float):
    """Shortest integer windows [a, a + L] whose Poisson(lam) mass reaches
    confidence - WINDOW_SLACK.

    Returns (L, masses) where masses[a] is the mass of [a, a + L].  The best
    window mass grows with L, so L is found by bisection, each step one
    vectorised pass over the window masses.
    """
    bmax = int(math.ceil(lam + 12.0 * math.sqrt(lam + 1.0) + 20.0))
    cum = np.concatenate([[0.0], np.cumsum(_poisson_pmf(lam, bmax))])
    target = confidence - WINDOW_SLACK

    def masses(length):
        return cum[length + 1:] - cum[:-length - 1]

    lo, hi = 0, bmax
    while lo < hi:
        mid = (lo + hi) // 2
        if masses(mid).max() >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo, masses(lo)


def interval_problems(point: float, ci_lo: float, ci_hi: float, lam: float,
                      confidence: float, achieved: float) -> list[str]:
    """Reasons an answer's interval is not the minimal one; empty if it is.

    The point and both bounds must be multiples of 1/50.  The count interval
    [50 ci_lo, 50 ci_hi] must have the minimal length among windows whose
    Poisson(lam) mass reaches the confidence, and the largest such mass,
    which must equal the reported coverage ``achieved``.
    """
    problems = []
    counts = []
    for name, value in (("point", point), ("ci_lo", ci_lo), ("ci_hi", ci_hi)):
        scaled = value * GRID_RUNS
        if abs(scaled - round(scaled)) > GRID_TOL:
            problems.append(f"{name}={value!r} is off the 1/{GRID_RUNS} grid")
        counts.append(int(round(scaled)))
    if problems:
        return problems
    _, a, b = counts
    length, masses = minimal_poisson_windows(lam, confidence)
    if b - a != length:
        problems.append(f"count interval [{a}, {b}] has length {b - a}, "
                        f"minimal is {length}")
    elif not 0 <= a < masses.size or masses[a] < masses.max() - GRID_TOL:
        mass = masses[a] if 0 <= a < masses.size else 0.0
        problems.append(f"count interval [{a}, {b}] has mass {mass:.12f}, "
                        f"best window of length {length} has {masses.max():.12f}")
    elif abs(masses[a] - achieved) > GRID_TOL:
        problems.append(f"reported coverage {achieved!r} but [{a}, {b}] "
                        f"has mass {masses[a]!r}")
    return problems
