"""Betting game on top-order-statistic spacings for threshold-level selection.

A K-round game compares the normalised spacings j * (X_(j) - X_(j+1)),
j = K..1, of the K+1 largest observed values with those of one model sample
of the same size (X_(1) is the maximum).  For an exponential tail with one
scale these spacings are iid exponential with that scale (Renyi, 1953), so
when the model is coherent with the observations each round's observed and
model spacings are exchangeable given the earlier rounds (exactly for one
scale, closely for a seasonal mixture of scales).  Capital processes for the
constant bets 0 and 1 drive an exponential-weighting bet on the clipped
model - observed difference; since that difference is then symmetric given
the past, the wealth is a test martingale (mean 1, Ville-bounded).
The terminal wealth scores each candidate quantile level and the minimizer
is selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import potmodel
from .reduce import MIN_QQ_VALUES, UnivariateTarget

DEFAULT_LEVEL_GRID = (0.9, 0.99, 0.995, 0.999, 0.9992, 0.9995, 0.9997, 0.9999)


class GameInfeasibleError(ValueError):
    """Raised when a game or a whole level grid cannot be played."""


@dataclass
class GameConfig:
    """Knobs of the order-statistic betting game and the level selection."""

    K: int = 3
    alpha: float = 0.05
    level_grid: tuple = DEFAULT_LEVEL_GRID
    max_level: float = 0.9997  # levels above this stay in the grid but are never selected
    seed: int = 0
    n_basis: int = potmodel.DEFAULT_N_BASIS

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not self.level_grid:
            raise ValueError("level_grid must be non-empty")
        if not all(0.0 < p < 1.0 for p in self.level_grid):
            raise ValueError(f"levels must be in (0, 1), got {list(self.level_grid)}")
        potmodel.check_n_basis(self.n_basis)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.level_grid = tuple(sorted(self.level_grid))
        if self.max_level < self.level_grid[0]:
            # no level could ever be selected
            raise ValueError(f"max_level must be >= the smallest grid level "
                             f"{self.level_grid[0]}, got {self.max_level}")


@dataclass
class BettingState:
    """Capital and wealth processes of one game, updated round by round."""

    clip: float = 1.0
    L0: float = 1.0          # capital of the constant bet 0
    L1: float = 1.0          # capital of the constant bet 1
    W: float = 1.0           # wealth of the exponential-weighting bet
    gamma1: float = 0.5

    def __post_init__(self):
        # |diff| <= clip < 2 and gamma1 in (0, 1) keep the factor, L0 and L1 > 0
        if not 0.0 < self.clip < 2.0:
            raise ValueError("clip must be in (0, 2) to keep capital positive")

    def step(self, y_obs, y_model):
        """Play one round on model - observed, clipped; returns the updated
        wealth.  Arrays play one game per entry."""
        return self.bet(np.clip(y_model - y_obs, -self.clip, self.clip))

    def bet(self, diff):
        """Play one round on a clipped model - observed difference.

        ``diff`` may be a float or an array with one entry per game; the
        capitals then become arrays and every game is updated at once.
        """
        factor = 1.0 + (self.gamma1 - 0.5) * diff
        self.L0 *= 1.0 - 0.5 * diff
        self.L1 *= 1.0 + 0.5 * diff
        self.W *= factor
        self.gamma1 = self.L1 / (self.L1 + self.L0)
        return self.W


@dataclass
class GameResult:
    """Outcome of one K-round game."""

    terminal_wealth: float
    wealth_path: np.ndarray            # W_k for k = 0..K-1
    rejection_round: Optional[int]     # first k with W_k >= 1/alpha (Ville), if any


def top_spacings(values: np.ndarray, K: int) -> np.ndarray:
    """Round values of one sample: j * (X_(j) - X_(j+1)) for j = K..1.

    X_(1) >= X_(2) >= ... are the order statistics of `values` along its
    last axis, so the result is read from its K+1 largest entries, in played
    order (the spacing below the K-th largest first, the one below the
    maximum last).  Leading axes index independent samples.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    if n < K + 1:
        raise GameInfeasibleError(f"need at least K+1={K + 1} values, got {n}")
    # X_(K+1)..X_(1)
    return np.arange(K, 0, -1) * np.diff(potmodel.largest(values, K + 1), axis=-1)


def _play(obs: np.ndarray, mod: np.ndarray, alpha: float):
    """Play games round by round on the last axis; leading axes index games.

    Returns the wealth paths and, per game, the first round whose wealth
    reached 1/alpha (Ville), or -1 where none did.
    """
    state = BettingState()
    path = np.empty(obs.shape)
    for k in range(obs.shape[-1]):
        path[..., k] = state.step(obs[..., k], mod[..., k])
    reached = path >= 1.0 / alpha
    return path, np.where(reached.any(axis=-1), reached.argmax(axis=-1), -1)


def run_rounds(
    obs_rounds: np.ndarray, model_rounds: np.ndarray, alpha: float
) -> GameResult:
    """Play the game on paired per-round values, in the order given.

    Round k bets on model_rounds[k] - obs_rounds[k], clipped to [-1, 1] by
    a default BettingState.  select_level passes the top_spacings of each
    side, so when the model is coherent with the observations the pairs are
    exchangeable within a round and (exactly for one exponential scale)
    independent across rounds.
    """
    obs = np.asarray(obs_rounds, dtype=np.float64)
    mod = np.asarray(model_rounds, dtype=np.float64)
    if obs.shape != mod.shape:
        raise ValueError("observed and model sides must have equal length")
    path, first = _play(obs, mod, alpha)
    return GameResult(terminal_wealth=float(path[-1]), wealth_path=path,
                      rejection_round=None if first < 0 else int(first))


def level_seed(seed: int, p: float) -> np.random.SeedSequence:
    """Deterministic per-level RNG seed (stable across processes)."""
    return np.random.SeedSequence([seed, int(round(p * 1e8))])


CALIBRATION_KEY = 0xCA11B


@dataclass
class LevelSelection:
    """Terminal-wealth scores across the level grid and the selected level."""

    p_star: float
    results: dict         # level -> GameResult
    failures: dict        # level -> reason the level was skipped
    fits: dict            # level -> PotModel, or the message its fit raised

    @property
    def scores(self) -> dict:  # level -> terminal wealth
        return {p: res.terminal_wealth for p, res in self.results.items()}


def fit_levels(target: UnivariateTarget, cfg: GameConfig) -> dict:
    """Fit every grid level once: level -> PotModel, or the message of the
    ValueError or LinAlgError its fit raised.

    A fit does not depend on K, so one set serves the games of every K.
    """
    fits: dict = {}
    for p in cfg.level_grid:
        try:
            fits[p] = potmodel.fit_pot_model(target, p, n_basis=cfg.n_basis)
        except (ValueError, np.linalg.LinAlgError) as exc:
            fits[p] = str(exc)
    return fits


def select_level(
    target: UnivariateTarget, cfg: GameConfig, fits: Optional[dict] = None
) -> LevelSelection:
    """Score every grid level by terminal wealth and pick the minimizer.

    Each level's model comes from ``fits`` (``fit_levels`` when None).  A
    level whose fit failed, with fewer than K+1 observed exceedances, or
    with fewer than a Q-Q report needs, is a failure and plays no game.
    Every other level draws one model sample of the observed size, with a
    seed derived from (cfg.seed, level), and plays its K spacing rounds.
    Levels above cfg.max_level are scored but never selected; ties go to
    the larger level.
    """
    if fits is None:
        fits = fit_levels(target, cfg)
    results: dict = {}
    failures: dict = {}
    for p in cfg.level_grid:
        model = fits[p]
        if isinstance(model, str):
            failures[p] = model
            continue
        y_obs = potmodel.observed_exceedance_values(target, model)
        try:
            obs_rounds = top_spacings(y_obs, cfg.K)
        except GameInfeasibleError as exc:
            failures[p] = str(exc)
            continue
        if model.day_pool.size < MIN_QQ_VALUES:
            # the selected level's Q-Q and angular files could not be reported
            failures[p] = (f"{model.day_pool.size} exceedances < {MIN_QQ_VALUES}"
                           " needed for a Q-Q report")
            continue
        sample = potmodel.sample_model(model, y_obs.size, level_seed(cfg.seed, p))
        results[p] = run_rounds(obs_rounds, top_spacings(sample, cfg.K), alpha=cfg.alpha)
    selectable = [p for p in results if p <= cfg.max_level]
    if not selectable:
        detail = "; ".join(f"p={p}: {msg}" for p, msg in failures.items())
        raise GameInfeasibleError(f"no selectable level succeeded ({detail})")
    # min score, ties broken toward the larger level
    best = min(selectable, key=lambda p: (results[p].terminal_wealth, -p))
    return LevelSelection(p_star=best, results=results, failures=failures, fits=fits)


@dataclass
class CalibrationReport:
    """Null-hypothesis calibration of the game (both sides from one model)."""

    trials: int
    rejection_fraction: float
    mean_terminal_wealth: float
    sd_terminal_wealth: float
    terminal_wealths: np.ndarray


def null_calibration(
    model: potmodel.PotModel, cfg: GameConfig, trials: int
) -> CalibrationReport:
    """Simulate games with both sides drawn from the model (null true).

    Each side is a sample of model.day_pool.size values, the size
    select_level's game plays at.  Reports the Ville rejection fraction at
    cfg.alpha and the mean terminal wealth.  Both samples come from one
    model, so each round's observed and model spacings are exchangeable and
    the clipped difference has mean 0 given the earlier rounds: the wealth
    is a test martingale, with mean 1, and by Ville's inequality crosses
    1/alpha with probability <= alpha.  This is exact when the model has a
    single exponential scale (the normalised spacings are then iid, Renyi
    1953); for the seasonal mixture that sample_model draws it holds closely
    but not exactly.

    All trials draw from one Generator, seeded by SeedSequence([cfg.seed,
    CALIBRATION_KEY]), through sample_tops: each row has the law of a
    sample's K+1 largest values, and draws little more than the values
    above a threshold: about k + 4 sqrt(k) + 4 of them for a direct model
    and 16 k for an angular one, with k = K+1.  Rows 2i and 2i + 1 are
    trial i's observed and model sides, so trial i's draws do not depend
    on the number of trials.  All trials then play at once, through the
    loop run_rounds plays a single game with.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    n = int(model.day_pool.size)
    if n < cfg.K + 1:
        raise GameInfeasibleError(f"sample size {n} < K+1={cfg.K + 1}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, CALIBRATION_KEY]))
    spacings = top_spacings(potmodel.sample_tops(model, n, cfg.K + 1, rng, 2 * trials), cfg.K)
    path, first = _play(spacings[0::2], spacings[1::2], cfg.alpha)
    wealths = path[:, -1]
    rejections = int(np.count_nonzero(first >= 0))
    return CalibrationReport(
        trials=trials,
        rejection_fraction=rejections / trials,
        mean_terminal_wealth=float(np.mean(wealths)),
        sd_terminal_wealth=float(np.std(wealths, ddof=1)),
        terminal_wealths=wealths,
    )
