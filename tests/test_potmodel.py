"""Tests for the seasonal exceedance model: quantiles, spline scale, sampling."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from potbet import (
    CyclicScale,
    PotModel,
    SynthSpec,
    TargetSpec,
    UnivariateTarget,
    adjust,
    empirical_quantile,
    extract_exceedances,
    fit_pot_model,
    fit_seasonal_scale,
    generate_synthetic,
    qq_exponential,
    reduce_target,
    sample_model,
    sample_top,
)
from potbet import potmodel
from potbet.potmodel import (
    ANGULAR_BOUND,
    BLOCK,
    OVERSAMPLE,
    ExceedanceSet,
    LevelTooHighError,
    day_basis,
    largest,
    sample_tops,
)
from potbet.reduce import InsufficientDataError


class TestEmpiricalQuantile:
    def test_one_to_hundred(self):
        assert empirical_quantile(np.arange(1.0, 101.0), 0.99) == 99.0

    def test_constant_series(self):
        assert empirical_quantile(np.full(57, 3.25), 0.7) == 3.25

    def test_exponential_high_quantile(self):
        rng = np.random.default_rng(31)
        y = rng.exponential(size=10**5)
        # closed-form Exp(1) quantile: -ln(1 - p)
        assert empirical_quantile(y, 0.999) == pytest.approx(-math.log(0.001), abs=0.2)

    def test_empty_and_bad_p(self):
        with pytest.raises(ValueError):
            empirical_quantile(np.array([]), 0.5)
        with pytest.raises(ValueError):
            empirical_quantile(np.ones(3), 1.0)

    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_p(self, n, p1, p2):
        rng = np.random.default_rng(n)
        y = rng.normal(size=n)
        lo, hi = sorted((p1, p2))
        assert empirical_quantile(y, lo) <= empirical_quantile(y, hi)


def direct_target(y, d=None):
    y = np.asarray(y, dtype=float)
    if d is None:
        d = np.arange(len(y)) % 365 + 1
    return UnivariateTarget(target_id="X1", y=y, d=np.asarray(d))


class TestExtractExceedances:
    def test_count_matches_level(self):
        rng = np.random.default_rng(5)
        n = 240900
        t = direct_target(rng.exponential(size=n))
        exc = extract_exceedances(t, 0.999)
        assert abs(len(exc) - n * 0.001) <= 1

    def test_half_exceed_at_median(self):
        rng = np.random.default_rng(6)
        t = direct_target(rng.normal(size=10000))
        exc = extract_exceedances(t, 0.5)
        assert abs(len(exc) - 5000) <= 1

    def test_all_excesses_positive_and_strict(self):
        rng = np.random.default_rng(7)
        t = direct_target(rng.exponential(size=5000))
        exc = extract_exceedances(t, 0.9)
        assert np.all(exc.excess > 0)
        assert np.all(t.y[exc.t] > exc.q)

    def test_aux_level_above_sqrt50_rejected(self):
        rng = np.random.default_rng(8)
        v = 7.2 + 0.01 * rng.random(1000)  # norm quantile above sqrt(50) ~ 7.071
        t = UnivariateTarget(target_id="T3", y=v / 2, d=np.arange(1000) % 365 + 1,
                             y31=v, y32=v, ybar=v)
        with pytest.raises(LevelTooHighError):
            extract_exceedances(t, 0.5)

    def test_day_labels_follow_exceedances(self):
        rng = np.random.default_rng(9)
        t = direct_target(rng.exponential(size=2000))
        exc = extract_exceedances(t, 0.95)
        assert np.array_equal(exc.days, t.d[t.y > exc.q])


def reference_bspline3(u):
    """Cardinal cubic B-spline on [0, 4], one piece at a time."""
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


def reference_design(days, n_basis):
    """The periodic cubic B-spline basis evaluated at each given day, one
    row per day: the per-day evaluator that day_basis tabulates."""
    h = 365 / n_basis
    x = (np.asarray(days, dtype=np.float64) - 1.0) % 365
    cols = np.empty((x.size, n_basis))
    for j in range(n_basis):
        u = (x - j * h) / h
        u = (u + n_basis / 2.0) % n_basis - n_basis / 2.0
        cols[:, j] = reference_bspline3(u + 2.0)
    return cols


def reference_fit(exc, n_basis):
    """fit_seasonal_scale's coefficients and floor from the per-day design."""
    X = reference_design(exc.days, n_basis)
    coef = np.linalg.lstsq(X, exc.excess, rcond=None)[0]
    floor = 1e-6 * float(np.mean(exc.excess))
    mean_adj = float(np.mean(exc.excess / np.maximum(X @ coef, floor)))
    return coef * mean_adj, floor


class TestCyclicBasis:
    @pytest.mark.parametrize("n_basis", range(4, 24))
    def test_rows_equal_the_per_day_evaluator(self, n_basis):
        days = np.random.default_rng(n_basis).integers(1, 366, size=1000)
        assert np.array_equal(day_basis(n_basis)[days - 1], reference_design(days, n_basis))

    @pytest.mark.parametrize("n_basis", [4, 6, 10, 23])
    @pytest.mark.parametrize("n_factor", [2, 3, 50])
    def test_fit_equals_a_fit_on_the_per_day_design(self, n_basis, n_factor):
        rng = np.random.default_rng(100 * n_basis + n_factor)
        n = n_factor * n_basis
        days = rng.integers(1, 366, size=n)
        exc = excess_set(days, (1 + 0.5 * np.sin(days / 40.0)) * rng.exponential(size=n))
        fitted = fit_seasonal_scale(exc, n_basis=n_basis)
        coef, floor = reference_fit(exc, n_basis)
        assert np.array_equal(fitted.coefficients, coef)
        assert fitted.floor == floor

    def test_partition_of_unity(self):
        for n_basis in (4, 6, 10, 23):
            B = day_basis(n_basis)
            assert B.shape == (365, n_basis)
            assert np.allclose(B.sum(axis=1), 1.0, atol=1e-12)

    def test_exact_periodicity(self):
        # with a whole number h of days between knots, moving every day h
        # days on, across the year seam, moves each function to the next
        for n_basis in (5, 73):
            B = day_basis(n_basis)
            h = 365 // n_basis
            shifted = B[(np.arange(365) + h) % 365][:, (np.arange(n_basis) + 1) % n_basis]
            assert np.allclose(shifted, B, atol=1e-12)

    def test_built_once_and_read_only(self):
        assert day_basis(7) is day_basis(7)
        with pytest.raises(ValueError):
            day_basis(7)[0, 0] = 1.0

    def test_smooth_across_wrap(self):
        # C2 through the year seam: a value, slope or curvature jump there
        # would make the seam's cyclic third difference stand out; a cubic
        # spline's third difference elsewhere is its constant third
        # derivative on a piece, or a mix of two neighbouring ones at a knot
        for n_basis in (4, 7, 10, 23):
            rng = np.random.default_rng(10 + n_basis)
            scale = CyclicScale(n_basis=n_basis, coefficients=1 + rng.random(n_basis),
                                floor=1e-9)
            t = scale.table
            d3 = np.abs(np.roll(t, -3) - 3 * np.roll(t, -2) + 3 * np.roll(t, -1) - t)
            # windows 362..364 take days from both ends of the year
            assert d3[362:].max() <= d3[:362].max() * (1 + 1e-9)

    def test_minimum_basis_size(self):
        with pytest.raises(ValueError):
            day_basis(3)
        with pytest.raises(ValueError):
            CyclicScale(n_basis=3, coefficients=np.ones(3), floor=1e-9)

    @pytest.mark.parametrize("n_basis", [4, 6, 10, 23])
    def test_table_is_the_scale_at_each_day(self, n_basis):
        # a negative coefficient, so the floor clips part of the year
        rng = np.random.default_rng(n_basis)
        coef = rng.normal(1.0, 1.0, n_basis)
        coef[0] = -5.0
        scale = CyclicScale(n_basis=n_basis, coefficients=coef, floor=0.05)
        want = np.maximum(reference_design(np.arange(1, 366), n_basis) @ coef, 0.05)
        assert np.array_equal(scale.table, want)
        assert scale.table.min() == 0.05
        days = rng.integers(1, 366, size=500)
        assert np.array_equal(scale(days), want[days - 1])


def excess_set(days, excess, p=0.99, q=1.0):
    days = np.asarray(days)
    excess = np.asarray(excess, dtype=float)
    return ExceedanceSet(p=p, q=q, t=np.arange(len(excess)), days=days,
                         excess=excess)


class TestSeasonalScaleFit:
    def test_constant_excesses_reproduced(self):
        rng = np.random.default_rng(11)
        days = rng.integers(1, 366, size=200)
        scale = fit_seasonal_scale(excess_set(days, np.full(200, 2.5)), n_basis=5)
        assert np.allclose(scale(np.arange(1, 366)), 2.5, rtol=1e-8)

    def test_recovers_scale_in_basis_span(self):
        rng = np.random.default_rng(12)
        n = 10**4
        truth = CyclicScale(n_basis=6, coefficients=np.array(
            [1.0, 2.0, 3.0, 2.5, 1.5, 1.2]), floor=1e-9)
        days = rng.integers(1, 366, size=n)
        excess = truth(days) * rng.exponential(size=n)
        fitted = fit_seasonal_scale(excess_set(days, excess), n_basis=6)
        grid = np.arange(1, 366)
        rel = np.abs(fitted(grid) - truth(grid)) / truth(grid)
        assert rel.max() < 0.10

    def test_adjusted_mean_is_one(self):
        rng = np.random.default_rng(13)
        days = rng.integers(1, 366, size=3000)
        exc = excess_set(days, (1 + 0.3 * np.sin(days / 58.0)) * rng.exponential(size=3000))
        scale = fit_seasonal_scale(exc, n_basis=6)
        assert np.mean(adjust(exc, scale).values) == pytest.approx(1.0, abs=1e-10)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(14)
        days = rng.integers(1, 366, size=500)
        excess = rng.exponential(size=500)
        f1 = fit_seasonal_scale(excess_set(days, excess), n_basis=5)
        f2 = fit_seasonal_scale(excess_set(days, 3.0 * excess), n_basis=5)
        grid = np.arange(1, 366)
        assert np.allclose(f2(grid), 3.0 * f1(grid), rtol=1e-9)
        e1 = adjust(excess_set(days, excess), f1).values
        e2 = adjust(excess_set(days, 3.0 * excess), f2).values
        assert np.allclose(e1, e2, rtol=1e-9)

    def test_insufficient_exceedances(self):
        with pytest.raises(InsufficientDataError):
            fit_seasonal_scale(excess_set(np.arange(1, 11), np.ones(10)), n_basis=6)

    def test_rank_deficiency_reported(self):
        # all exceedances on one day cannot identify 6 coefficients
        with pytest.raises(np.linalg.LinAlgError, match="n_basis"):
            fit_seasonal_scale(excess_set(np.full(50, 100), np.ones(50) +
                                          0.01 * np.arange(50)), n_basis=6)


class TestAdjust:
    def test_identity_scale(self):
        rng = np.random.default_rng(15)
        exc = excess_set(rng.integers(1, 366, 100), rng.exponential(size=100))
        one = CyclicScale(n_basis=4, coefficients=np.ones(4), floor=1e-9)
        assert np.allclose(adjust(exc, one).values, exc.excess)

    def test_exact_ratio_is_one(self):
        rng = np.random.default_rng(16)
        scale = CyclicScale(n_basis=5, coefficients=np.array([1., 2., 1.5, 3., 2.]),
                            floor=1e-9)
        days = rng.integers(1, 366, 100)
        exc = excess_set(days, scale(days))
        assert np.allclose(adjust(exc, scale).values, 1.0)

    def test_synthetic_mean_near_one(self):
        rng = np.random.default_rng(17)
        n = 20000
        days = rng.integers(1, 366, n)
        g = 2.0 + np.cos(2 * np.pi * days / 365)
        exc = excess_set(days, g * rng.exponential(size=n))
        scale = fit_seasonal_scale(exc, n_basis=8)
        assert abs(np.mean(adjust(exc, scale).values) - 1.0) < 3 / math.sqrt(n)


class TestQQExponential:
    def test_self_consistent_quantiles(self):
        n = 10**4
        k = np.arange(1, n + 1)
        from potbet import AdjustedExceedances
        adj = AdjustedExceedances(values=-np.log(1 - (k - 0.5) / n))
        rep = qq_exponential(adj)
        assert rep.max_abs_deviation < 0.05

    def test_exponential_sample_bulk_deviation(self):
        from potbet import AdjustedExceedances
        rng = np.random.default_rng(18)
        adj = AdjustedExceedances(values=rng.exponential(size=10**4))
        rep = qq_exponential(adj)
        bulk = slice(0, int(0.99 * 10**4))
        assert np.max(np.abs(rep.observed[bulk] - rep.theoretical[bulk])) < 0.15

    def test_heavy_tail_curves_upward(self):
        from potbet import AdjustedExceedances
        rng = np.random.default_rng(19)
        pareto = (1 - rng.random(10**4)) ** (-1 / 2.0)  # Pareto alpha=2
        rep = qq_exponential(AdjustedExceedances(values=pareto))
        assert rep.max_abs_deviation > 1.0

    def test_too_few_values(self):
        from potbet import AdjustedExceedances
        with pytest.raises(InsufficientDataError):
            qq_exponential(AdjustedExceedances(values=np.ones(5)))


def flat_model(kind="direct", q=0.0):
    return PotModel(
        target_id="X1" if kind == "direct" else "T3",
        p=0.99, q=q,
        scale=CyclicScale(n_basis=4, coefficients=np.ones(4), floor=1e-9),
        day_pool=np.arange(1, 366),
        kind=kind,
    )


class TestSampleModel:
    def test_direct_unit_mean(self):
        s = sample_model(flat_model(), 10**6, seed=20)
        assert abs(s.mean() - 1.0) < 0.003

    def test_angular_mean_matches_quadrature(self):
        # E[min(sin, cos)] over U([0, pi/2]) by numeric quadrature
        val, _ = integrate.quad(
            lambda t: min(math.sin(t), math.cos(t)) / (math.pi / 2), 0, math.pi / 2)
        assert val == pytest.approx((4 - 2 * math.sqrt(2)) / math.pi, abs=1e-10)
        s = sample_model(flat_model(kind="angular"), 10**6, seed=21)
        sigma = s.std() / 1000.0
        assert abs(s.mean() - val) < 3 * sigma

    def test_seed_determinism(self):
        a = sample_model(flat_model(), 1000, seed=22)
        b = sample_model(flat_model(), 1000, seed=22)
        assert np.array_equal(a, b)

    def test_direct_samples_exceed_threshold(self):
        m = flat_model(q=4.2)
        s = sample_model(m, 5000, seed=23)
        assert np.all(s > 4.2)

    def test_angular_samples_bounded(self):
        # same seed shares the (day, excess) draws, so the angular sample is
        # the direct one shrunk by min(sin, cos) <= 1/sqrt(2)
        direct = sample_model(flat_model(q=1.0), 5000, seed=24)
        angular = sample_model(flat_model(kind="angular", q=1.0), 5000, seed=24)
        assert np.all(angular >= 0)
        assert np.all(angular <= direct / math.sqrt(2) + 1e-12)

    def test_empty_day_pool_rejected(self):
        m = flat_model()
        m.day_pool = np.array([], dtype=np.int64)
        with pytest.raises(ValueError):
            sample_model(m, 10, seed=0)

    @pytest.mark.parametrize("target_id,p", [("T2", 0.99), ("T3", 0.9)])
    @pytest.mark.parametrize("n", [2, 3, 17, 5000])
    def test_equals_scale_evaluated_per_draw(self, target_id, p, n):
        # the table lookup draws the same bytes as evaluating the spline at
        # every sampled day, from the same RNG stream
        data = generate_synthetic(SynthSpec(n_runs=2, years_per_run=10, seed=29))
        model = fit_pot_model(reduce_target(data, TargetSpec.canonical(target_id)),
                              p, n_basis=6)
        rng = np.random.default_rng(30)
        d = rng.choice(model.day_pool, size=n, replace=True)
        want = model.q + model.scale(d) * rng.exponential(size=n)
        if model.kind == "angular":
            theta = rng.uniform(0.0, math.pi / 2.0, size=n)
            want = want * np.minimum(np.sin(theta), np.cos(theta))
        assert np.array_equal(sample_model(model, n, seed=30), want)


def fitted_models():
    """A direct (T2) and an angular (T3) model fitted on one small panel."""
    data = generate_synthetic(SynthSpec(n_runs=2, years_per_run=10, seed=29))
    return [fit_pot_model(reduce_target(data, TargetSpec.canonical(tid)), p, n_basis=6)
            for tid, p in (("T2", 0.99), ("T3", 0.9))]


SAMPLE_TOP_MODELS = fitted_models() + [
    flat_model(), flat_model(kind="angular"), flat_model(kind="angular", q=3.0),
    flat_model(kind="angular", q=-2.0),  # negative bases: no pruning
]


class TestSampleTop:
    @given(st.sampled_from(range(len(SAMPLE_TOP_MODELS))),
           st.integers(min_value=1, max_value=60),
           st.one_of(st.just(0), st.integers(min_value=1, max_value=3000)),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_top_k_of_sample_model_bit_for_bit(self, which, k, extra, seed):
        # extra = 0 is n = k
        model = SAMPLE_TOP_MODELS[which]
        n = k + extra
        want = np.sort(sample_model(model, n, seed))[-k:]
        assert np.array_equal(sample_top(model, n, k, seed), want)

    @pytest.mark.parametrize("which", range(len(SAMPLE_TOP_MODELS)))
    def test_top_k_at_calibration_sizes(self, which):
        model = SAMPLE_TOP_MODELS[which]
        for k in (3, 6, 26, 61):
            n = 3649
            for seed in range(5):
                want = np.sort(sample_model(model, n, seed))[-k:]
                assert np.array_equal(sample_top(model, n, k, seed), want)

    @pytest.mark.parametrize("n,k", [(5, 0), (5, 6)])
    def test_k_outside_one_to_n_rejected(self, n, k):
        with pytest.raises(ValueError, match="k="):
            sample_top(flat_model(), n, k, seed=0)

    def test_angular_factor_below_bound_near_quarter_pi(self):
        # the pruning bound: min(sin, cos) peaks at sqrt(2)/2 at pi/4
        quarter = math.pi / 4.0
        theta = np.concatenate([
            np.linspace(quarter - 1e-3, quarter + 1e-3, 2_000_001),
            quarter + np.arange(-1000, 1001) * np.spacing(quarter),
            np.linspace(0.0, math.pi / 2.0, 100_001),
        ])
        factor = np.minimum(np.sin(theta), np.cos(theta))
        assert factor.max() <= math.sqrt(2.0) / 2.0 < ANGULAR_BOUND


def reference_tops(model, n, k, rng, rows, chunk=500):
    """rows rows of largest(sample_model(model, n, ...), k); the draws are
    iid, so chunk samples of n come from one sample_model call of chunk * n."""
    out = []
    for start in range(0, rows, chunk):
        m = min(chunk, rows - start)
        out.append(largest(sample_model(model, n * m, rng).reshape(m, n), k))
    return np.concatenate(out)


def reference_block_loop(model, n, k, rng, rows):
    """sample_tops's rows, filled the plain way: the padded block through
    index arrays, and each completion's draws below tau computed in full,
    every angle included, from the same _thinning output.  Also returns
    the k-th largest drawn value of each completing row."""
    tau, pi, scale, law = potmodel._thinning(model, n, k)
    cutoff = tau * (ANGULAR_BOUND if model.kind == "angular" else 1.0)
    out, kths = np.empty((rows, k)), []
    for start in range(0, rows, BLOCK):
        counts = rng.binomial(n, pi, size=BLOCK)
        total = int(counts.sum())
        values = rng.permutation(np.repeat(scale, rng.multinomial(total, law)))
        values *= rng.standard_exponential(total)
        values += tau
        if model.kind == "angular":
            values = potmodel._angular(values, rng.random(total))
        ends = np.cumsum(counts)
        padded = np.full((BLOCK, max(int(counts.max()), k)), -np.inf)
        padded[np.repeat(np.arange(BLOCK), counts),
               np.arange(total) - np.repeat(ends - counts, counts)] = values
        tops = largest(padded, k)
        for r in np.flatnonzero((counts < n) & (tops[:, 0] < cutoff)):
            kths.append(tops[r, 0])
            parts, size = [values[ends[r] - counts[r]:ends[r]]], n - counts[r]
            while size > 0:
                base, u = potmodel._draw(model, rng, size)
                value = base if u is None else potmodel._angular(base, u)
                parts.append(value[base <= tau])
                size -= parts[-1].size
            tops[r] = largest(np.concatenate(parts), k)
        out[start:start + BLOCK] = tops[:rows - start]
    return out, np.array(kths)


class TestSampleTops:
    """sample_tops draws its own stream, so its rows are compared with the top
    k of sample_model's samples in law: a two-sample KS test on every order
    statistic and every normalised spacing, at fixed seeds."""

    @pytest.mark.parametrize("which,n,k,patch,completes", [
        (0, 500, 6, {}, True),                      # direct, thinned: a rare row completes
        (1, 500, 6, {}, True),                      # angular, thinned: a few rows complete
        (0, 500, 6, {"DIRECT_MARGIN": 0.0}, True),  # direct: rows with fewer than k bases above tau
        (1, 500, 6, {"OVERSAMPLE": 4}, True),       # angular: most rows complete
        (1, 60, 6, {}, False),                      # n <= OVERSAMPLE * k: every base is drawn
        (0, 19, 6, {}, False),                      # n <= k + 4 sqrt(k) + 4: every base is drawn
        (0, 500, 1, {}, True),                      # the maximum alone: a rare row has no base above tau
        (1, 1000, 26, {}, False),                   # K = 25: no row completes
        (4, 500, 6, {}, True),                      # one scale, q > 0
    ])
    def test_rows_have_the_law_of_sample_model_tops(self, monkeypatch, which, n, k,
                                                    patch, completes):
        model, rows = SAMPLE_TOP_MODELS[which], 20_000
        for name, value in patch.items():
            monkeypatch.setattr(potmodel, name, value)
        completions, below = [], potmodel._below

        def counted(*args):
            completions.append(args[-1])
            return below(*args)

        monkeypatch.setattr(potmodel, "_below", counted)
        tops = sample_tops(model, n, k, np.random.default_rng(1), rows)
        want = reference_tops(model, n, k, np.random.default_rng(2), rows)
        assert (len(completions) > 0) == completes
        spacing = np.arange(k - 1, 0, -1)
        for got, ref in [*zip(tops.T, want.T),
                         *zip((spacing * np.diff(tops)).T, (spacing * np.diff(want)).T)]:
            assert stats.ks_2samp(got, ref).pvalue >= 1e-4

    def test_threshold_draws_oversample_k_bases(self):
        model, n, k = SAMPLE_TOP_MODELS[1], 3649, 6
        tau, pi, _, _ = potmodel._thinning(model, n, k)
        assert tau > model.q
        assert n * pi == pytest.approx(OVERSAMPLE * k, rel=1e-9)
        # no threshold at n <= OVERSAMPLE * k or q < 0: every base is drawn
        for size, m in ((OVERSAMPLE * k, model), (n, flat_model(kind="angular", q=-2.0))):
            assert potmodel._thinning(m, size, k)[:2] == (m.q, 1.0)

    @pytest.mark.parametrize("k", [1, 6, 26])
    def test_direct_threshold_draws_k_plus_four_root_k_plus_four_bases(self, k):
        model, n = SAMPLE_TOP_MODELS[0], 3649
        target = k + 4.0 * math.sqrt(k) + 4.0
        tau, pi, _, _ = potmodel._thinning(model, n, k)
        assert tau > model.q
        assert n * pi == pytest.approx(target, rel=1e-9)
        # n <= the target: every base is drawn
        assert potmodel._thinning(model, math.floor(target), k)[:2] == (model.q, 1.0)
        assert potmodel._thinning(model, math.floor(target) + 1, k)[0] > model.q

    @pytest.mark.parametrize("which", range(len(SAMPLE_TOP_MODELS)))
    @pytest.mark.parametrize("k", [1, 6, 26])
    def test_equals_the_block_loop_with_every_angle_computed(self, monkeypatch, which, k):
        # low targets, so that rows complete; the mask fill and the angles
        # left out of completions change no bit
        monkeypatch.setattr(potmodel, "OVERSAMPLE", 2)
        monkeypatch.setattr(potmodel, "DIRECT_MARGIN", 0.0)
        model, n, rows = SAMPLE_TOP_MODELS[which], 500, 2 * BLOCK + 3
        want, kths = reference_block_loop(model, n, k, np.random.default_rng(7), rows)
        assert np.array_equal(sample_tops(model, n, k, np.random.default_rng(7), rows), want)
        # q < 0 draws every base, so no row completes
        assert (kths.size > 0) == (model.q >= 0.0)
        if model.kind == "angular" and model.q >= 0.0:
            assert np.isfinite(kths).any()  # angles are left out

    @pytest.mark.parametrize("which", range(len(SAMPLE_TOP_MODELS)))
    @pytest.mark.parametrize("k", [1, 6, 26])
    def test_rows_do_not_depend_on_the_row_count(self, which, k):
        # whole blocks are drawn, completions included, so row r's draws
        # depend on r alone
        model = SAMPLE_TOP_MODELS[which]
        full = sample_tops(model, 3649, k, np.random.default_rng(100), 2 * BLOCK + 3)
        for rows in (1, BLOCK - 1, BLOCK, BLOCK + 1):
            part = sample_tops(model, 3649, k, np.random.default_rng(100), rows)
            assert np.array_equal(part, full[:rows])

    @pytest.mark.parametrize("n,k", [(5, 0), (5, 6)])
    def test_k_outside_one_to_n_rejected(self, n, k):
        with pytest.raises(ValueError, match="k="):
            sample_tops(flat_model(), n, k, np.random.default_rng(0), 3)


class TestDayPool:
    @pytest.mark.parametrize("pool", [[0], [1, 366], [400], [1.5], [[1, 2]]])
    def test_outside_days_of_year_rejected(self, pool):
        with pytest.raises(ValueError, match="day_pool"):
            PotModel(target_id="X1", p=0.99, q=0.0,
                     scale=CyclicScale(n_basis=4, coefficients=np.ones(4), floor=1e-9),
                     day_pool=np.array(pool), kind="direct")

    def test_empty_pool_rejected(self):
        # integer-typed, so only its size can reject it
        with pytest.raises(ValueError, match="day_pool"):
            PotModel(target_id="X1", p=0.99, q=0.0,
                     scale=CyclicScale(n_basis=4, coefficients=np.ones(4), floor=1e-9),
                     day_pool=np.array([], dtype=np.int64), kind="direct")


class TestFitPotModel:
    def test_day_pool_matches_exceedance_days(self):
        data = generate_synthetic(SynthSpec(n_runs=2, years_per_run=10, seed=25))
        t = reduce_target(data, TargetSpec.canonical("T2"))
        model = fit_pot_model(t, 0.99, n_basis=5)
        exc = extract_exceedances(t, 0.99)
        assert sorted(model.day_pool.tolist()) == sorted(exc.days.tolist())

    def test_angular_kind_for_paired_target(self):
        data = generate_synthetic(SynthSpec(n_runs=1, years_per_run=10, seed=26))
        t3 = reduce_target(data, TargetSpec.canonical("T3"))
        model = fit_pot_model(t3, 0.9, n_basis=4)
        assert model.kind == "angular"

    def test_near_constant_scale_on_flat_synthetic(self):
        # no seasonality in the generator: fitted scale is near-constant
        data = generate_synthetic(SynthSpec(
            n_runs=4, years_per_run=40, seed=27, seasonal_amplitude=0.0))
        t = reduce_target(data, TargetSpec.canonical("T2"))
        model = fit_pot_model(t, 0.99, n_basis=4)
        f = model.scale(np.arange(1, 366))
        assert f.max() / f.min() < 1.6

    def test_json_round_trip_full_precision(self):
        data = generate_synthetic(SynthSpec(n_runs=1, years_per_run=20, seed=28))
        t = reduce_target(data, TargetSpec.canonical("T2"))
        model = fit_pot_model(t, 0.99, n_basis=6)
        back = PotModel.from_json(model.to_json())
        grid = np.arange(1, 366)
        assert np.array_equal(back.scale(grid), model.scale(grid))
        assert back.q == model.q and back.p == model.p
        assert np.array_equal(back.day_pool, model.day_pool)
        assert back.kind == model.kind

    def test_json_from_older_files_with_knots_and_shape(self):
        data = generate_synthetic(SynthSpec(n_runs=1, years_per_run=20, seed=28))
        t = reduce_target(data, TargetSpec.canonical("T2"))
        model = fit_pot_model(t, 0.99, n_basis=6)
        obj = json.loads(model.to_json())
        assert "knots" not in obj and "shape" not in obj
        obj.update(knots=[60.833 * j for j in range(6)], shape=0.0)
        back = PotModel.from_json(json.dumps(obj))
        assert np.array_equal(back.scale.table, model.scale.table)
        obj["shape"] = 0.1
        with pytest.raises(ValueError, match="shape 0"):
            PotModel.from_json(json.dumps(obj))

    @pytest.mark.parametrize("text", ['{"p": 0.9}', "[1, 2]"])
    def test_json_missing_keys_is_value_error(self, text):
        with pytest.raises(ValueError):
            PotModel.from_json(text)
