"""Seasonal peaks-over-threshold model with an exponential tail.

Exceedances above a high empirical quantile are modeled as f(D) * E where
D follows the empirical day-of-year distribution of the exceedances, f is
a cyclic cubic regression spline fitted by least squares, and E is
standard exponential (tail shape fixed at zero throughout).  The spline
basis at the 365 days is built once per n_basis; a fit gathers its rows.

sample_model draws a sample of n values, and survival(model, y) is the
probability that one of them is at least y.  sample_tops draws many rows
of a sample's k largest in law, not bit for bit: it draws only the values
above a threshold, about (sqrt(k) + DIRECT_MARGIN)**2 of them for the
direct kind and OVERSAMPLE * k for the angular one, their days as a
multinomial count per distinct pool day in random order, and the rest only
when they could reach the top k; of those it computes the angle only where
the value could.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ingest import DAYS_PER_YEAR, check_json, is_json
from .reduce import (MIN_QQ_VALUES, ExceedanceSet, InsufficientDataError,
                     UnivariateTarget, empirical_quantile, exceedances)

SQRT50 = math.sqrt(50.0)

DEFAULT_N_BASIS = 10

QUARTER_PI = math.pi / 4.0
QUADRATURE_NODES = 64  # Gauss-Legendre nodes for the angular survival integral

# the JSON type of each key of a model file; older files may also carry
# knots, which is derived from n_basis, and shape, which must be 0
MODEL_KEYS = {"target_id": "str", "p": "float", "q": "float", "n_basis": "int",
              "coefficients": "list of float", "floor": "float", "day_pool": "list of int",
              "kind": "str", "knots": "list of float", "shape": "float"}


class LevelTooHighError(ValueError):
    """Raised when the exceedance quantile violates a model constraint."""


def extract_exceedances(target: UnivariateTarget, p: float) -> ExceedanceSet:
    """Collect strict exceedances of the target's tail series above its
    empirical p-quantile.

    Paired targets threshold the norm series, which must stay below sqrt(50)
    so the event probability factorizes through the norm exceedance.
    """
    q = empirical_quantile(target.tail_series, p)
    if target.has_aux and q >= SQRT50:
        raise LevelTooHighError(
            f"aux quantile {q:.4f} >= sqrt(50); choose a lower level than p={p}"
        )
    return exceedances(target, p, q)


def _bspline3(u: np.ndarray) -> np.ndarray:
    """Cardinal cubic B-spline on [0, 4]."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    m = (u >= 0) & (u < 1)
    out[m] = u[m] ** 3 / 6.0
    m = (u >= 1) & (u < 2)
    v = u[m]
    out[m] = (-3 * v**3 + 12 * v**2 - 12 * v + 4) / 6.0
    m = (u >= 2) & (u < 3)
    v = u[m]
    out[m] = (3 * v**3 - 24 * v**2 + 60 * v - 44) / 6.0
    m = (u >= 3) & (u < 4)
    v = u[m]
    out[m] = (4 - v) ** 3 / 6.0
    return out


def check_n_basis(n_basis: int) -> None:
    """ValueError unless n_basis is in 4..365: a cubic basis needs 4
    functions, and a basis at 365 days has at most 365 independent ones,
    so any more make every fit rank-deficient."""
    if not 4 <= n_basis <= DAYS_PER_YEAR:
        raise ValueError(f"n_basis must be >= 4 and <= {DAYS_PER_YEAR}, got {n_basis}")


@functools.lru_cache
def day_basis(n_basis: int) -> np.ndarray:
    """Periodic uniform cubic B-spline basis at days of year 1..365 (row
    d - 1 for day d), built once per n_basis and read-only.

    The basis is a partition of unity (constants lie in its span) and is C2
    across the year wrap.
    """
    check_n_basis(n_basis)
    h = DAYS_PER_YEAR / n_basis
    x = np.arange(DAYS_PER_YEAR, dtype=np.float64)
    cols = np.empty((DAYS_PER_YEAR, n_basis))
    for j in range(n_basis):
        u = (x - j * h) / h
        u = (u + n_basis / 2.0) % n_basis - n_basis / 2.0
        cols[:, j] = _bspline3(u + 2.0)
    cols.flags.writeable = False
    return cols


@dataclass
class CyclicScale:
    """365-periodic positive scale function on a cyclic cubic spline basis.

    ``table[d - 1]`` is the scale at integer day of year d (1..365), computed
    once from ``day_basis(n_basis)``; calling the scale and sampling index it.
    """

    n_basis: int
    coefficients: np.ndarray
    floor: float
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.shape != (self.n_basis,):
            raise ValueError("coefficient length must equal n_basis")
        if self.floor <= 0:
            raise ValueError("floor must be > 0")
        self.table = np.maximum(day_basis(self.n_basis) @ self.coefficients, self.floor)

    def __call__(self, days) -> np.ndarray:
        """The scale at integer days of year (1..365)."""
        return self.table[np.asarray(days) - 1]


def fit_seasonal_scale(exc: ExceedanceSet, n_basis: int = DEFAULT_N_BASIS) -> CyclicScale:
    """Least-squares fit of the exceedance scale on the cyclic spline basis.

    Since E[excess | d] = f(d) for unit-mean residuals, ordinary least
    squares estimates the scale directly.  The fit is rescaled afterwards
    so the adjusted exceedances average to exactly 1.
    """
    n = len(exc)
    if n < 2 * n_basis:
        raise InsufficientDataError(
            f"{n} exceedances < 2*n_basis = {2 * n_basis}; lower the level or n_basis"
        )
    X = day_basis(n_basis)[exc.days - 1]
    coef, _, rank, _ = np.linalg.lstsq(X, exc.excess, rcond=None)
    if rank < n_basis:
        raise np.linalg.LinAlgError(
            f"rank-deficient design ({rank} < {n_basis}); reduce n_basis"
        )
    floor = 1e-6 * float(np.mean(exc.excess))
    # remove the scale/residual aliasing degree of freedom: mean(E) = 1 exactly
    mean_adj = float(np.mean(exc.excess / CyclicScale(n_basis, coef, floor)(exc.days)))
    return CyclicScale(n_basis=n_basis, coefficients=coef * mean_adj, floor=floor)


@dataclass
class AdjustedExceedances:
    """Exceedances divided by the fitted seasonal scale."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(self.values <= 0):
            raise ValueError("adjusted exceedances must be > 0")


def adjust(exc: ExceedanceSet, scale: CyclicScale) -> AdjustedExceedances:
    return AdjustedExceedances(values=exc.excess / scale.table[exc.days - 1])


@dataclass
class QQReport:
    """Exponential Q-Q plot data for adjusted exceedances."""

    theoretical: np.ndarray
    observed: np.ndarray
    max_abs_deviation: float


def qq_exponential(adj: AdjustedExceedances) -> QQReport:
    """Pairs (exponential quantile scaled by the sample mean, order statistic)."""
    n = len(adj.values)
    if n < MIN_QQ_VALUES:
        raise InsufficientDataError(
            f"need >= {MIN_QQ_VALUES} values for a Q-Q report, got {n}")
    observed = np.sort(adj.values)
    k = np.arange(1, n + 1)
    theoretical = -np.log(1.0 - (k - 0.5) / n) * float(np.mean(adj.values))
    return QQReport(
        theoretical=theoretical,
        observed=observed,
        max_abs_deviation=float(np.max(np.abs(observed - theoretical))),
    )


@dataclass
class PotModel:
    """Fitted exceedance model, immutable after fitting.

    kind 'direct' samples q + f(D)*E; kind 'angular' (paired targets)
    multiplies by min(sin Theta, cos Theta) with Theta uniform on [0, pi/2].
    """

    target_id: str
    p: float
    q: float
    scale: CyclicScale
    day_pool: np.ndarray  # multiset of exceedance day-of-year values
    kind: str             # 'direct' | 'angular'

    def __post_init__(self):
        pool = np.asarray(self.day_pool)
        if not (pool.ndim == 1 and pool.size > 0 and np.issubdtype(pool.dtype, np.integer)
                and np.all((pool >= 1) & (pool <= DAYS_PER_YEAR))):
            raise ValueError(f"day_pool must be integer days of year in 1..{DAYS_PER_YEAR}")
        self.day_pool = pool.astype(np.int64)
        if self.kind not in ("direct", "angular"):
            raise ValueError(f"kind must be 'direct' or 'angular', got {self.kind!r}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "target_id": self.target_id,
                "p": self.p,
                "q": self.q,
                "n_basis": self.scale.n_basis,
                "coefficients": [float(c) for c in self.scale.coefficients],
                "floor": self.scale.floor,
                "day_pool": [int(d) for d in self.day_pool],
                "kind": self.kind,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "PotModel":
        """Load ``to_json`` output; every key holds its MODEL_KEYS type, p is
        a number in (0, 1), and q and floor are finite numbers."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("model JSON must be an object")
        if obj.get("shape", 0.0) != 0.0:
            raise ValueError("only the exponential tail (shape 0) is supported")
        try:
            for key in ("p", "q", "floor"):
                v = obj[key]
                if not (is_json(v, "float") and (key != "p" or 0.0 < v < 1.0)):
                    rule = "a number in (0, 1)" if key == "p" else "a finite number"
                    raise ValueError(f"model key {key!r} must be {rule}, got {v!r}")
            check_json(obj, MODEL_KEYS, "model")
            scale = CyclicScale(n_basis=obj["n_basis"], coefficients=obj["coefficients"],
                                floor=obj["floor"])
            return cls(target_id=obj["target_id"], p=obj["p"], q=obj["q"], scale=scale,
                       day_pool=obj["day_pool"], kind=obj["kind"])
        except KeyError as exc:
            raise ValueError(f"model JSON lacks the key {exc}") from None


def model_kind(target: UnivariateTarget) -> str:
    """The kind of model a target is fitted with: angular for pairs."""
    return "angular" if target.has_aux else "direct"


def fit_pot_model(
    target: UnivariateTarget,
    p: float,
    n_basis: int = DEFAULT_N_BASIS,
) -> PotModel:
    """Fit the full seasonal POT model at level p.

    Paired targets are fitted on the norm series and sampled through the
    angular decomposition; everything else is fitted on y directly.
    """
    exc = extract_exceedances(target, p)
    scale = fit_seasonal_scale(exc, n_basis=n_basis)
    return PotModel(
        target_id=target.target_id,
        p=p,
        q=exc.q,
        scale=scale,
        day_pool=exc.days,
        kind=model_kind(target),
    )


# min(sin T, cos T) <= sqrt(2)/2 = 0.70710678..., so base * ANGULAR_BOUND is
# an upper bound on an angular draw with base >= 0 (rounding is monotone, so
# also in floats)
ANGULAR_BOUND = 0.7072
# sample_tops draws the bases above a threshold, about OVERSAMPLE * k of each
# angular row's n, since an angular value counts only if it clears
# tau * ANGULAR_BOUND
OVERSAMPLE = 16
# and (sqrt(k) + DIRECT_MARGIN)**2 = k + 4 sqrt(k) + 4 of a direct row's,
# which is complete once k bases exceed tau: the square root of the nearly
# Poisson count has sd about 1/2, so sqrt(k) lies 2 * DIRECT_MARGIN sd below
# the square root of its mean
DIRECT_MARGIN = 2.0
# rows sample_tops draws at a time; it draws whole blocks only
BLOCK = 64


def _draw(model: PotModel, rng, n: int):
    """One RNG stream for every sampler: n draws as (base, u), where
    base = q + f(D) * E and u is None for the direct kind, whose draw is
    base, and for the angular one the uniforms of Theta = (pi/2) * u, whose
    draw is _angular(base, u) = base * min(sin Theta, cos Theta).

    The stream is that of rng.choice(day_pool, size=n), rng.exponential(size=n)
    and rng.uniform(0, pi/2, size=n), bit for bit: exponential() is
    1.0 * standard_exponential() and uniform(0, pi/2) is 0.0 + (pi/2) * random().
    """
    f = model.scale.table[model.day_pool[rng.integers(0, model.day_pool.size, size=n)] - 1]
    base = model.q + f * rng.standard_exponential(n)
    return base, (None if model.kind == "direct" else rng.random(n))


def _angular(base: np.ndarray, u: np.ndarray) -> np.ndarray:
    theta = math.pi / 2.0 * u
    return base * np.minimum(np.sin(theta), np.cos(theta))


def largest(values: np.ndarray, k: int) -> np.ndarray:
    """The k largest values along the last axis, ascending."""
    n = values.shape[-1]
    return np.sort(np.partition(values, n - k, axis=-1)[..., n - k:], axis=-1)


def sample_model(model: PotModel, n: int, seed) -> np.ndarray:
    """Draw n independent exceedance-level samples from the fitted model.

    D is uniform on the exceedance day pool (with multiplicity), E is
    standard exponential; the angular kind multiplies by
    min(sin Theta, cos Theta), Theta ~ U([0, pi/2]).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base, u = _draw(model, np.random.default_rng(seed), n)
    return base if u is None else _angular(base, u)


def survival(model: PotModel, y: float) -> float:
    """Probability that one ``sample_model`` draw is at or above y.

    A draw on day d is q + f(d) * E, so it reaches y with probability
    exp(-(y - q)+ / f(d)), averaged over the day pool.  The angular kind
    multiplies by min(sin T, cos T), T ~ U(0, pi/2), which has the law of
    sin T', T' ~ U(0, pi/4); that average over T' is taken by
    Gauss-Legendre quadrature.  The integrand is exactly 1 where
    sin T' >= y / q, so the quadrature stops at that kink and the flat part
    is added in closed form.
    """
    table = model.scale.table
    if model.kind == "direct":
        per_day = np.exp(-max(y - model.q, 0.0) / table)
    else:
        top = QUARTER_PI
        if 0.0 < y < model.q:
            top = min(top, math.asin(y / model.q))
        x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
        theta = 0.5 * top * (x + 1.0)
        excess = np.maximum(y / np.sin(theta) - model.q, 0.0)
        integral = np.exp(-excess / table[:, None]) @ w * (0.5 * top)
        per_day = (integral + (QUARTER_PI - top)) / QUARTER_PI
    # integer day weights, divided last: a certain draw gives exactly 1.0
    weights = np.bincount(model.day_pool, minlength=DAYS_PER_YEAR + 1)[1:]
    return float(weights @ per_day) / model.day_pool.size


def _thinning(model: PotModel, n: int, k: int):
    """The threshold tau = q + x of sample_tops, the probability pi that a
    base exceeds it, the scale of each distinct pool day, and the law of D
    over those days given a base above tau, normalised to sum to 1.

    Over the pool's distinct days d, with counts c_d and scales s_d,
    pi(x) = sum c_d exp(-x / s_d) / sum c_d, and x solves n * pi(x) = m,
    the count of bases to draw: m = k + 4 sqrt(k) + 4 (DIRECT_MARGIN 2) for
    the direct kind and OVERSAMPLE * k for the angular one; x = 0 (pi = 1)
    when n <= m or q < 0.  log pi is convex and decreasing, so Newton's
    steps from 0 rise monotonically to the root.  Any x >= 0 with tau >= 0
    gives sample_tops the same law; x only sets how much it draws.
    """
    counts = np.bincount(model.day_pool, minlength=DAYS_PER_YEAR + 1)[1:]
    days = np.flatnonzero(counts)
    c, s = counts[days].astype(np.float64), model.scale.table[days]
    m = OVERSAMPLE * k if model.kind == "angular" else (math.sqrt(k) + DIRECT_MARGIN) ** 2
    x = 0.0
    if n > m and model.q >= 0.0:
        target = math.log(m / n)
        for _ in range(100):
            weights = c * np.exp(-x / s)
            total = weights.sum()
            step = (math.log(total / c.sum()) - target) * total / (weights / s).sum()
            x += step
            if step <= 1e-12 * x:
                break
    weights = c * np.exp(-x / s)  # c itself at x = 0, so pi is exactly 1
    return model.q + x, weights.sum() / c.sum(), s, weights / weights.sum()


def _below(model: PotModel, rng, tau: float, kth: float, size: int) -> np.ndarray:
    """size draws of the model whose base is at most tau, by rejection from
    _draw, less the angular draws that cannot exceed kth; every draw takes
    all of _draw's uniforms, so the stream does not depend on kth."""
    parts = []
    while size > 0:
        base, u = _draw(model, rng, size)
        keep = base <= tau
        size -= int(np.count_nonzero(keep))
        if u is None:
            parts.append(base[keep])
        else:
            # base * ANGULAR_BOUND bounds the value only for base >= 0; every
            # base here is at least q >= 0, since sample_tops completes rows
            # only when _thinning set x > 0, which it does only for q >= 0
            keep &= base * ANGULAR_BOUND > kth
            parts.append(_angular(base[keep], u[keep]))
    return np.concatenate(parts)


def sample_tops(model: PotModel, n: int, k: int, rng, rows: int) -> np.ndarray:
    """Row r: the k largest of n independent draws from the model,
    ascending; shape (rows, k).  Each row has the law of
    largest(sample_model(model, n, ...), k), from its own draws.

    A row draws only its bases above tau = q + x (thinning; Devroye,
    Non-Uniform Random Variate Generation, 1986): their count N is
    Binomial(n, pi), and since E is memoryless each is tau + f(D) * E with
    D weighted by exp(-x / f(D)) (_thinning sets x so that about
    k + 4 sqrt(k) + 4 are drawn for the direct kind and OVERSAMPLE * k for
    the angular one).  A block's days are a multinomial count per distinct
    pool day put in uniformly random order, which is the law of that many
    iid days.  The angular kind multiplies each by min(sin Theta, cos Theta)
    of a fresh Theta.  The other n - N values are at most tau * bound
    (bound 1 for the direct kind, ANGULAR_BOUND for the angular one), so a
    row whose k-th largest drawn value reaches it is complete; any other
    row draws its n - N bases below tau (_below, which computes no angle
    that cannot pass that k-th value) and takes the top k of all n.  Rows
    are drawn BLOCK at a time, always in whole blocks, so row r's draws do
    not depend on ``rows``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    tau, pi, scale, law = _thinning(model, n, k)
    cutoff = tau * (ANGULAR_BOUND if model.kind == "angular" else 1.0)
    out = np.empty((rows, k))
    for start in range(0, rows, BLOCK):
        counts = rng.binomial(n, pi, size=BLOCK)
        total = int(counts.sum())
        values = rng.permutation(np.repeat(scale, rng.multinomial(total, law)))
        values *= rng.standard_exponential(total)
        values += tau
        if model.kind == "angular":
            values = _angular(values, rng.random(total))
        ends = np.cumsum(counts)
        width = max(int(counts.max()), k)
        padded = np.full((BLOCK, width), -np.inf)
        padded[np.arange(width) < counts[:, None]] = values
        tops = largest(padded, k)
        for r in np.flatnonzero((counts < n) & (tops[:, 0] < cutoff)):
            drawn = values[ends[r] - counts[r]:ends[r]]
            tops[r] = largest(np.concatenate(
                [drawn, _below(model, rng, tau, tops[r, 0], n - counts[r])]), k)
        out[start:start + BLOCK] = tops[:rows - start]
    return out


def observed_exceedance_values(target: UnivariateTarget, model: PotModel) -> np.ndarray:
    """Observed sample at the model's exceedance level: the y values where
    the tail series exceeds q (for paired targets, the quantity the angular
    model's samples emulate)."""
    return target.y[exceedances(target, model.p, model.q).t]
