"""Tests for the order-statistic betting game and level selection."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potbet import (
    BettingState,
    GameConfig,
    SynthSpec,
    TargetSpec,
    generate_synthetic,
    fit_pot_model,
    null_calibration,
    reduce_target,
    run_rounds,
    sample_top,
    select_level,
    top_spacings,
)
from potbet import betting
from potbet.betting import CALIBRATION_KEY, GameInfeasibleError, level_seed
from potbet.potmodel import MIN_QQ_VALUES, observed_exceedance_values, sample_tops


class TestBettingState:
    def test_identity_rounds_keep_everything_flat(self):
        state = BettingState()
        for v in (1.0, 2.0, 3.0):
            state.step(v, v)
        assert state.W == 1.0
        assert state.L0 == 1.0 and state.L1 == 1.0
        assert state.gamma1 == 0.5

    def test_single_round_hand_computed(self):
        state = BettingState()
        state.step(0.0, 0.4)
        assert state.L1 == pytest.approx(1.2)
        assert state.L0 == pytest.approx(0.8)
        assert state.gamma1 == pytest.approx(1.2 / 2.0)
        assert state.W == pytest.approx(1.0)  # first bet is 0.5

    def test_constant_positive_diffs_grow_l1_geometrically(self):
        state = BettingState()
        for k in range(6):
            state.step(0.0, 0.5)
            assert state.L1 == pytest.approx(1.25 ** (k + 1))
            # regret bound with explicit log(4) slack
            assert math.log(state.W) >= math.log(state.L1) - math.log(4) - 1e-12

    def test_clipping_bounds_the_update(self):
        state = BettingState(clip=1.0)
        state.step(0.0, 7.3)  # raw diff 7.3 clipped to 1.0
        assert state.L1 == pytest.approx(1.5)
        assert state.L0 == 0.5

    @pytest.mark.parametrize("clip", [0.0, -1.0, 2.0, 3.0])
    def test_clip_outside_open_interval_rejected(self, clip):
        # a clip of 2 or more lets a round zero or flip the capital
        with pytest.raises(ValueError, match="clip"):
            BettingState(clip=clip)

    @given(st.lists(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                             min_size=3, max_size=3),
                    min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_array_bet_plays_each_game_as_its_scalar_steps(self, rounds):
        batch = BettingState()
        games = [BettingState() for _ in range(3)]
        for diffs in rounds:
            wealths = batch.bet(np.array(diffs))
            assert np.array_equal(wealths, [g.step(0.0, d) for g, d in zip(games, diffs)])
        assert np.array_equal(batch.L1, [g.L1 for g in games])

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                    min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_regret_bound_every_round(self, diffs):
        state = BettingState()
        for d in diffs:
            state.step(0.0, d)
            bound = max(math.log(state.L0), math.log(state.L1)) - math.log(4)
            assert math.log(state.W) >= bound - 1e-12


class TestRunRounds:
    def test_plays_from_kth_largest_to_maximum(self):
        # rounds are played in the order given: diffs 0.5, 0.5, -1, one step each
        obs, mod = [1.0, 2.0, 3.0], [1.5, 2.5, 2.0]
        res = run_rounds(obs, mod, alpha=0.05)
        state = BettingState()
        assert np.array_equal(res.wealth_path, [state.step(o, m) for o, m in zip(obs, mod)])
        assert res.wealth_path == pytest.approx([1.0, 1.0625, 0.8125])
        backwards = run_rounds(obs[::-1], mod[::-1], alpha=0.05)
        assert backwards.wealth_path == pytest.approx([1.0, 0.875, 0.8125])

    def test_identical_sides_terminal_wealth_one(self):
        res = run_rounds([4.0, 5.0, 9.0], [4.0, 5.0, 9.0], alpha=0.05)
        assert res.terminal_wealth == 1.0
        assert res.rejection_round is None

    def test_deterministic_drift_crossing_round(self):
        # diffs exactly m=0.5: constant-bet capital 1.25^(k+1) crosses
        # 1/alpha = 2 first at k+1 = ceil(ln 2 / ln 1.25) = 4
        obs = np.zeros(12)
        mod = np.full(12, 0.5)
        state = BettingState()
        crossing = None
        for k in range(12):
            state.step(obs[k], mod[k])
            if crossing is None and state.L1 >= 2.0:
                crossing = k
        assert crossing + 1 == math.ceil(math.log(2) / math.log(1.25)) == 4


class TestTopSpacings:
    def test_hand_computed_played_order(self):
        # descending: 5, 3, 2.5, 1, 0 -> 3*(2.5-1), 2*(3-2.5), 1*(5-3)
        got = top_spacings([0.0, 5.0, 1.0, 3.0, 2.5], 3)
        assert got == pytest.approx([4.5, 1.0, 2.0])

    def test_needs_k_plus_one_values(self):
        with pytest.raises(GameInfeasibleError, match="need at least K\\+1=6 values, got 5"):
            top_spacings(np.arange(5.0), 5)
        with pytest.raises(GameInfeasibleError, match="got 2"):
            top_spacings(np.array([1.0, 2.0]), 5)
        assert top_spacings(np.arange(6.0), 5) == pytest.approx([5.0, 4.0, 3.0, 2.0, 1.0])

    def test_exponential_spacings_have_the_tail_scale(self):
        # Renyi: for Exp(scale) samples every normalised spacing is
        # Exp(scale), whatever its rank and the sample size.
        rng = np.random.default_rng(8)
        rounds = np.array([top_spacings(2.0 * rng.exponential(size=40), 10)
                           for _ in range(4000)])
        se = 2.0 / math.sqrt(len(rounds))
        assert np.all(np.abs(rounds.mean(axis=0) - 2.0) <= 5.0 * se)
        corr = np.corrcoef(rounds[:, 0], rounds[:, 1])[0, 1]
        assert abs(corr) <= 5.0 / math.sqrt(len(rounds))


class TestVille:
    def test_flat_path_never_rejects(self):
        res = run_rounds([1.0, 2.0], [1.0, 2.0], alpha=0.05)
        assert res.rejection_round is None

    def test_rejection_at_threshold_twenty(self):
        # clipped diffs of 1 every round: W crosses 1/alpha = 20 in round 9
        res = run_rounds(np.zeros(20), np.ones(20), alpha=0.05)
        assert res.rejection_round == 9
        assert res.wealth_path[8] < 20.0 <= res.wealth_path[9]

    def test_wealth_equal_to_the_threshold_rejects(self):
        # round 0's wealth is exactly 1: it rejects at 1/alpha = 1, not above
        flat = ([1.0, 2.0], [1.0, 2.0])
        assert run_rounds(*flat, alpha=1.0).rejection_round == 0
        alpha = np.nextafter(1.0, 0.0)  # 1/alpha just above 1
        assert run_rounds(*flat, alpha=alpha).rejection_round is None


def small_target(seed=0, years=20):
    data = generate_synthetic(SynthSpec(n_runs=2, years_per_run=years, seed=seed))
    return reduce_target(data, TargetSpec.canonical("T2"))


class TestGameConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GameConfig(K=1)
        with pytest.raises(ValueError):
            GameConfig(alpha=0.0)
        with pytest.raises(ValueError):
            GameConfig(level_grid=())
        # no level at or below max_level could ever be selected
        with pytest.raises(ValueError, match="smallest grid level 0.9, got 0.5"):
            GameConfig(level_grid=(0.95, 0.9), max_level=0.5)

    def test_grid_is_sorted(self):
        cfg = GameConfig(level_grid=(0.99, 0.9, 0.995))
        assert cfg.level_grid == (0.9, 0.99, 0.995)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            GameConfig(seed=-1)


class TestSelectLevel:
    def test_single_level_grid_returns_it(self):
        target = small_target(seed=1)
        cfg = GameConfig(level_grid=(0.95,), max_level=0.95, seed=5, n_basis=4)
        sel = select_level(target, cfg)
        assert sel.p_star == 0.95
        assert set(sel.scores) == {0.95}

    def test_levels_above_max_are_scored_but_not_selected(self):
        target = small_target(seed=2, years=40)
        cfg = GameConfig(level_grid=(0.9, 0.95, 0.99), max_level=0.95,
                         seed=5, n_basis=4)
        sel = select_level(target, cfg)
        assert 0.99 in sel.scores
        assert sel.p_star <= 0.95

    def test_deterministic_scores(self):
        target = small_target(seed=3)
        cfg = GameConfig(level_grid=(0.9, 0.95), max_level=0.95, seed=9, n_basis=4)
        a, b = select_level(target, cfg), select_level(target, cfg)
        assert a.scores == b.scores
        for p in cfg.level_grid:
            assert np.array_equal(a.results[p].wealth_path, b.results[p].wealth_path)
        other = select_level(target, GameConfig(level_grid=(0.9, 0.95), max_level=0.95,
                                                seed=10, n_basis=4))
        assert other.scores != a.scores

    def test_each_game_plays_the_top_spacings_of_both_sides(self):
        # the observed K+1 largest exceedances against the top K+1 of one
        # model sample of the observed size, seeded by (seed, level)
        target = small_target()
        cfg = GameConfig(K=5, level_grid=(0.9,), max_level=0.9, seed=77, n_basis=4)
        sel = select_level(target, cfg)
        model = sel.fits[0.9]
        y_obs = observed_exceedance_values(target, model)
        sample = sample_top(model, y_obs.size, 6, level_seed(77, 0.9))
        expected = run_rounds(top_spacings(y_obs, 5), top_spacings(sample, 5),
                              alpha=cfg.alpha)
        assert len(sel.results[0.9].wealth_path) == 5
        assert np.array_equal(sel.results[0.9].wealth_path, expected.wealth_path)

    def test_only_scored_levels_play_a_game(self, monkeypatch):
        # criterion 2's panel at n_basis 6 and K 5: p = 0.9995 keeps 18
        # exceedances, enough for K+1 but too few for a Q-Q report
        data = generate_synthetic(SynthSpec(n_runs=4, years_per_run=25, seed=6))
        target = reduce_target(data, TargetSpec.canonical("T2"))
        games = []

        def counted(*args, **kwargs):
            games.append(args)
            return run_rounds(*args, **kwargs)

        monkeypatch.setattr(betting, "run_rounds", counted)
        sel = select_level(target, GameConfig(K=5, n_basis=6))
        assert sel.failures[0.9995] == (
            f"18 exceedances < {MIN_QQ_VALUES} needed for a Q-Q report")
        assert len(games) == len(sel.results) == 5

    def test_infeasible_levels_reported(self):
        target = small_target(seed=4, years=2)  # 1460 days
        # 0.9999 leaves ~0 exceedances: recorded as a failure, not fatal
        cfg = GameConfig(level_grid=(0.9, 0.9999), max_level=0.9999,
                         seed=1, n_basis=4)
        sel = select_level(target, cfg)
        assert 0.9999 in sel.failures
        assert sel.p_star == 0.9

    def test_level_with_exactly_k_exceedances_is_a_failure(self):
        # K rounds need K+1 order statistics per side
        target = small_target(seed=4, years=2)
        model = fit_pot_model(target, 0.99, n_basis=4)
        k = observed_exceedance_values(target, model).size
        cfg = GameConfig(K=k, level_grid=(0.9, 0.99), max_level=0.99,
                         seed=1, n_basis=4)
        sel = select_level(target, cfg)
        assert sel.failures[0.99] == f"need at least K+1={k + 1} values, got {k}"
        assert sel.p_star == 0.9

    def test_level_too_small_for_a_qq_report_is_a_failure(self):
        # a selected level must leave enough exceedances for the plot data
        target = small_target(seed=4, years=2)
        model = fit_pot_model(target, 0.99, n_basis=4)
        n = model.day_pool.size
        assert 3 + 1 <= n < MIN_QQ_VALUES
        cfg = GameConfig(K=3, level_grid=(0.9, 0.99), max_level=0.99,
                         seed=1, n_basis=4)
        sel = select_level(target, cfg)
        assert sel.failures[0.99] == (
            f"{n} exceedances < {MIN_QQ_VALUES} needed for a Q-Q report")
        assert set(sel.scores) == {0.9}
        assert sel.p_star == 0.9

    def test_all_levels_infeasible_raises_with_details(self):
        target = small_target(seed=4, years=2)
        cfg = GameConfig(level_grid=(0.9995, 0.9999), max_level=0.9999,
                         seed=1, n_basis=4)
        with pytest.raises(GameInfeasibleError, match="0.9995"):
            select_level(target, cfg)

    def test_level_seed_is_stable(self):
        a = level_seed(42, 0.999).generate_state(4)
        b = level_seed(42, 0.999).generate_state(4)
        assert np.array_equal(a, b)


class TestNullCalibration:
    def test_trials_validated(self):
        target = small_target(seed=6)
        model = fit_pot_model(target, 0.9, n_basis=4)
        with pytest.raises(ValueError):
            null_calibration(model, GameConfig(), trials=0)

    def test_wealth_bounds_and_unreachable_threshold(self):
        # With K = 5 and the clip at 1 every per-round factor lies in [0.5, 1.5],
        # so terminal wealth is confined to [0.5^5, 1.5^5] and the Ville
        # threshold 1/alpha = 10 > 1.5^5 can never be crossed.
        target = small_target(seed=6, years=30)
        model = fit_pot_model(target, 0.95, n_basis=4)
        cfg = GameConfig(K=5, alpha=0.1, seed=11)
        rep = null_calibration(model, cfg, trials=500)
        assert rep.trials == 500
        assert rep.terminal_wealths.shape == (500,)
        assert np.all(rep.terminal_wealths >= 0.5**5 - 1e-12)
        assert np.all(rep.terminal_wealths <= 1.5**5 + 1e-12)
        assert rep.rejection_fraction == 0.0

    def test_mean_wealth_calibrated_across_k(self):
        # Normalised spacings of the two samples are exchangeable within a
        # round and (nearly) independent across rounds under the null, so the
        # wealth is a test martingale at every K: mean terminal wealth within
        # 5 se of 1 and Ville rejections at most about alpha.
        target = small_target(seed=6, years=30)
        model = fit_pot_model(target, 0.95, n_basis=4)
        for k in (5, 25):
            rep = null_calibration(model, GameConfig(K=k, alpha=0.1, seed=11), trials=500)
            se = rep.sd_terminal_wealth / math.sqrt(rep.trials)
            assert abs(rep.mean_terminal_wealth - 1.0) <= 5.0 * se, k
            assert rep.rejection_fraction <= 0.12, k

    def test_deterministic_given_seed(self):
        target = small_target(seed=6, years=30)
        model = fit_pot_model(target, 0.95, n_basis=4)
        cfg = GameConfig(K=4, alpha=0.1, seed=23)
        rep1 = null_calibration(model, cfg, trials=200)
        rep2 = null_calibration(model, cfg, trials=200)
        assert np.array_equal(rep1.terminal_wealths, rep2.terminal_wealths)
        assert rep1.rejection_fraction == rep2.rejection_fraction


def reference_calibration(model, cfg, trials):
    """null_calibration's per-trial definition: trial i plays one scalar game
    on rows 2i (observed side) and 2i + 1 (model side) of sample_tops on one
    Generator, each a sample of the model's day_pool size."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, CALIBRATION_KEY]))
    tops = sample_tops(model, model.day_pool.size, cfg.K + 1, rng, 2 * trials)
    wealths = np.empty(trials)
    rejections = 0
    for i in range(trials):
        result = run_rounds(top_spacings(tops[2 * i], cfg.K),
                            top_spacings(tops[2 * i + 1], cfg.K), alpha=cfg.alpha)
        wealths[i] = result.terminal_wealth
        rejections += result.rejection_round is not None
    return wealths, rejections / trials


def calibration_model(tid, p):
    data = generate_synthetic(SynthSpec(n_runs=2, years_per_run=20, seed=6))
    return fit_pot_model(reduce_target(data, TargetSpec.canonical(tid)), p, n_basis=4)


class TestBatchedCalibration:
    @pytest.mark.parametrize("tid,p", [("T2", 0.95), ("T3", 0.9)])
    @pytest.mark.parametrize("k", [2, 5, 25])
    @pytest.mark.parametrize("seed", [31, 2**32])  # 2**32 is two entropy words
    def test_equals_per_trial_reference(self, tid, p, k, seed):
        model = calibration_model(tid, p)
        cfg = GameConfig(K=k, alpha=0.1, seed=seed)
        rep = null_calibration(model, cfg, trials=300)
        wealths, rejection = reference_calibration(model, cfg, 300)
        assert np.array_equal(rep.terminal_wealths, wealths)
        assert rep.rejection_fraction == rejection
        if k == 25:
            assert rejection > 0  # the running peak is exercised

    def test_equals_reference_at_k_plus_one_draws(self):
        # a pool of 6 days: each side's sample is its K+1 = 6 largest values
        model = fit_pot_model(small_target(seed=6, years=30), 0.95, n_basis=4)
        model = dataclasses.replace(model, day_pool=model.day_pool[:6])
        cfg = GameConfig(K=5, alpha=0.1, seed=4)
        rep = null_calibration(model, cfg, trials=200)
        wealths, rejection = reference_calibration(model, cfg, 200)
        assert np.array_equal(rep.terminal_wealths, wealths)
        assert rep.rejection_fraction == rejection

    @pytest.mark.parametrize("tid,p", [("T2", 0.95), ("T3", 0.9)])
    def test_trial_draws_do_not_depend_on_the_trial_count(self, tid, p):
        # rows 2i and 2i + 1 are trial i's sides, whatever the number of trials
        model = calibration_model(tid, p)
        cfg = GameConfig(K=5, alpha=0.1, seed=31)
        short = null_calibration(model, cfg, trials=150)
        long = null_calibration(model, cfg, trials=300)
        assert np.array_equal(long.terminal_wealths[:150], short.terminal_wealths)
