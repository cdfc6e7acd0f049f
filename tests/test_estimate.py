"""Tests for frequency estimation and Poisson intervals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from potbet import estimate
from potbet import (
    CyclicScale,
    EstimateConfig,
    PotModel,
    TargetSpec,
    UnivariateTarget,
    body_event_rate,
    estimate_frequency,
    poisson_interval,
    survival,
)


def enum_interval(lam, conf, bmax=500):
    """Exhaustive-enumeration oracle for the minimal-length Poisson interval."""
    pmf = stats.poisson.pmf(np.arange(bmax + 1), lam)
    best = None
    for a in range(bmax + 1):
        for b in range(a, bmax + 1):
            mass = float(pmf[a:b + 1].sum())
            if mass >= conf - 1e-12:
                cand = (b - a, -mass, a, b)
                if best is None or cand < best:
                    best = cand
                break
    return best[2], best[3], -best[1]


def scan_interval(lam, conf):
    """The O(bmax^2) scan poisson_interval once was: every (length, a) pair
    in ascending order, replacing on a mass larger by more than 1e-15."""
    bmax = int(math.ceil(lam + 10.0 * math.sqrt(lam + 1.0) + 10.0))
    pmf = stats.poisson.pmf(np.arange(bmax + 1), lam)
    cum = np.concatenate([[0.0], np.cumsum(pmf)])
    for length in range(bmax + 1):
        best = None
        for a in range(bmax - length + 1):
            mass = cum[a + length + 1] - cum[a]
            if mass >= conf - 1e-12:
                if best is None or mass > best[2] + 1e-15:
                    best = (a, a + length, mass)
        if best is not None:
            return best[0], best[1], float(best[2])
    raise RuntimeError("search bound exhausted")


class TestPoissonHelpers:
    LAMBDAS = np.concatenate([np.linspace(0.0, 1e5, 201),
                              np.geomspace(1e-6, 1e5, 200)])

    def test_pmf_equals_scipy_stats(self):
        for lam in self.LAMBDAS:
            half = 12.0 * math.sqrt(lam + 1.0) + 12.0
            ks = np.arange(max(0, int(lam - half)), int(lam + half) + 1)
            assert np.array_equal(estimate.poisson_pmf(ks, lam),
                                  stats.poisson.pmf(ks, lam)), lam

    @pytest.mark.parametrize("q", [1e-9, 0.04, 0.5, 0.96])
    def test_ppf_equals_scipy_stats(self, q):
        assert np.array_equal(estimate.poisson_ppf(q, self.LAMBDAS),
                              stats.poisson.ppf(q, self.LAMBDAS))


class TestPoissonInterval:
    def test_lambda_zero_is_point_mass(self):
        assert poisson_interval(0.0, 0.92) == (0, 0, 1.0)

    def test_lambda_one_at_92(self):
        lo, hi, achieved = poisson_interval(1.0, 0.92)
        assert (lo, hi) == (0, 3)
        # P(0..2) = 0.9197 just misses, P(0..3) = 0.98101
        assert achieved == pytest.approx(0.9810118431238463, abs=1e-12)

    def test_lambda_twelve_fixture(self):
        # frozen from the exhaustive enumeration oracle
        lo, hi, achieved = poisson_interval(12.0, 0.92)
        assert (lo, hi) == (6, 18)
        assert achieved == pytest.approx(0.9422424809196803, abs=1e-10)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            poisson_interval(-0.5, 0.92)

    @pytest.mark.parametrize("lam", [0, 0.5, 1, 2, 5, 12, 30])
    @pytest.mark.parametrize("conf", [0.90, 0.92, 0.95])
    def test_matches_enumeration_oracle(self, lam, conf):
        got = poisson_interval(lam, conf)
        want = enum_interval(lam, conf)
        assert got[:2] == want[:2]
        assert got[2] == pytest.approx(want[2], abs=1e-9)
        assert got[2] >= conf - 1e-12

    @given(st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=40, deadline=None)
    def test_confidence_monotone_length(self, lam):
        a90 = poisson_interval(lam, 0.90)
        a95 = poisson_interval(lam, 0.95)
        assert a95[1] - a95[0] >= a90[1] - a90[0]

    @pytest.mark.parametrize("lam,conf", [
        # P(4) = P(5) at lambda 5, yet [5] computes one ulp heavier: the
        # 1e-15 tie rule keeps a = 4 where a plain argmax would take 5
        (5.0, 0.1),
        (100.0, 0.92), (100.0, 0.51), (457.3, 0.95), (1234.5, 0.92),
        (2500.7, 0.99), (5000.0, 0.92),
    ])
    def test_matches_quadratic_scan_oracle(self, lam, conf):
        got = poisson_interval(lam, conf)
        assert got == scan_interval(lam, conf)  # same bytes, tie rule included
        assert all(type(v) is t for v, t in zip(got, (int, int, float)))

    @given(st.floats(min_value=0.0, max_value=1e5),
           st.floats(min_value=0.51, max_value=0.999))
    @settings(max_examples=30, deadline=None)
    def test_minimal_at_large_lambda(self, lam, conf):
        lo, hi, achieved = poisson_interval(lam, conf)
        bmax = int(math.ceil(lam + 10.0 * math.sqrt(lam + 1.0) + 10.0))
        cum = np.concatenate([[0.0], np.cumsum(
            stats.poisson.pmf(np.arange(bmax + 1), lam))])
        length = hi - lo
        assert cum[hi + 1] - cum[lo] == achieved >= conf - 1e-12
        # no shorter window reaches the confidence, none as long holds more
        if length:
            assert (cum[length:] - cum[:-length]).max() < conf - 1e-12
        assert (cum[length + 1:] - cum[:-length - 1]).max() <= achieved + 1e-15


def toy_model(q=0.0, coeff=1.0, p=0.9995, target_id="X1"):
    return PotModel(
        target_id=target_id, p=p, q=q,
        scale=CyclicScale(n_basis=4, coefficients=np.full(4, coeff),
                          floor=min(coeff * 1e-6, 1e-6)),
        day_pool=np.arange(1, 366), kind="direct",
    )


class TestEstimateFrequency:
    def test_unreachable_threshold_keeps_observed_count(self):
        model = toy_model(q=0.0, coeff=1e-6)  # samples never near 5.0
        spec = TargetSpec("X1", 25, 5.0)
        cfg = EstimateConfig(n_replications=100, years=1, seed=1)
        est = estimate_frequency(model, spec, observed_count=1, cfg=cfg)
        assert np.all(est.counts == 1)
        assert est.point == 1 / 50 == 0.02

    def test_certain_event_counts_every_sample(self):
        model = toy_model(p=0.9995)
        spec = TargetSpec("X1", 25, -1.0)
        cfg = EstimateConfig(n_replications=100, years=1, seed=2)
        est = estimate_frequency(model, spec, observed_count=0, cfg=cfg)
        m = int(np.ceil((1 - model.p) * 46 * 365))
        assert np.all(est.counts == m)
        assert est.point == m / 50

    def test_grid_property(self):
        model = toy_model(q=3.0, p=0.999)
        spec = TargetSpec("X1", 25, 6.0)
        cfg = EstimateConfig(n_replications=150, years=5, seed=3)
        est = estimate_frequency(model, spec, observed_count=0, cfg=cfg)
        for value in (est.point, est.ci_lo, est.ci_hi):
            assert (50 * value) == pytest.approx(round(50 * value), abs=1e-9)

    def test_deterministic_under_seed(self):
        model = toy_model(q=3.0, p=0.999)
        spec = TargetSpec("X1", 25, 6.0)
        cfg = EstimateConfig(n_replications=120, years=5, seed=4)
        a = estimate_frequency(model, spec, 0, cfg)
        b = estimate_frequency(model, spec, 0, cfg)
        assert np.array_equal(a.counts, b.counts)
        assert (a.point, a.ci_lo, a.ci_hi) == (b.point, b.ci_lo, b.ci_hi)

    def test_target_mismatch_rejected(self):
        model = toy_model(target_id="X1")
        spec = TargetSpec("X2", 25, 5.0)
        with pytest.raises(ValueError, match="X1"):
            estimate_frequency(model, spec, 0, EstimateConfig(seed=5))

    def test_achieved_coverage_at_least_confidence(self):
        model = toy_model(q=3.0, p=0.999)
        spec = TargetSpec("X1", 25, 5.5)
        cfg = EstimateConfig(n_replications=150, years=5, seed=6, confidence=0.92)
        est = estimate_frequency(model, spec, 0, cfg)
        assert est.achieved_coverage >= 0.92 - 1e-12

    def test_lambda_is_mean_count(self):
        model = toy_model(q=3.0, p=0.999)
        spec = TargetSpec("X1", 25, 5.5)
        cfg = EstimateConfig(n_replications=150, years=5, seed=7)
        est = estimate_frequency(model, spec, observed_count=2, cfg=cfg)
        assert est.lam == pytest.approx(float(np.mean(est.counts)))
        assert est.counts.min() >= 2  # observed add-on included everywhere


def seasonal_model(kind, q, p=0.999):
    """A model whose scale varies over the year and whose pool is uneven."""
    return PotModel(
        target_id="X1", p=p, q=q,
        scale=CyclicScale(n_basis=4, coefficients=np.array([0.5, 1.5, 1.0, 2.0]),
                          floor=1e-6),
        day_pool=np.array([1, 1, 1, 40, 100, 200, 200, 290, 300, 365]), kind=kind,
    )


class TestBodyEventRate:
    def test_direct_counts_body_days_at_or_above_threshold(self):
        target = UnivariateTarget("X1", y=np.arange(10.0), d=np.arange(1, 11))
        model = seasonal_model("direct", 6.0)
        # q is an observed value, as an empirical quantile is, and its day is
        # body: days 0..6 (7 of them), of which 2..6 reach the threshold 2
        assert body_event_rate(target, model, TargetSpec("X1", 25, 2.0)) == 5 / 7

    def test_paired_target_splits_on_the_norm(self):
        y31 = np.array([1.0, 3.0, 5.0, 2.0])
        y32 = np.array([1.0, 4.0, 5.0, 9.0])
        target = UnivariateTarget("X1", y=np.minimum(y31, y32), d=np.arange(1, 5),
                                  y31=y31, y32=y32, ybar=np.hypot(y31, y32))
        model = seasonal_model("angular", 7.5)
        # norms 1.41, 5, 7.07, 9.22: three body days, y = 1, 3, 5 among them
        assert body_event_rate(target, model, TargetSpec("X1", 25, 3.0)) == 2 / 3


class TestExactCounts:
    def test_counts_have_binomial_moments(self):
        model = seasonal_model("angular", 4.0)
        spec = TargetSpec("X1", 25, 2.0)
        cfg = EstimateConfig(n_replications=20_000, years=5, seed=8)
        est = estimate_frequency(model, spec, observed_count=3, cfg=cfg)
        m = int(np.ceil((1 - model.p) * 46 * 5 * 365))
        pi = survival(model, 2.0)
        n = cfg.n_replications
        mean, var = m * pi, m * pi * (1.0 - pi)
        tail = est.counts - 3
        assert tail.min() >= 0 and tail.max() <= m
        assert abs(tail.mean() - mean) <= 4.0 * math.sqrt(var / n)
        # the sample variance has a standard error close to var * sqrt(2 / n)
        assert abs(tail.var(ddof=1) - var) <= 4.0 * var * math.sqrt(2.0 / n)

    def test_body_days_counted_when_q_above_threshold(self):
        # every tail draw lies above q = 5 > 2, and a quarter of the body days
        # reach the threshold: counts are m + Binomial(unseen - m, 1/4) + observed
        target = UnivariateTarget("X1", y=np.array([0.0, 1.0, 2.5, 1.5, 9.0]),
                                  d=np.arange(1, 6))
        model = seasonal_model("direct", 5.0, p=0.99)
        spec = TargetSpec("X1", 25, 2.0)
        rate = body_event_rate(target, model, spec)
        assert rate == 0.25
        cfg = EstimateConfig(n_replications=2000, years=1, seed=9)
        est = estimate_frequency(model, spec, observed_count=1, cfg=cfg,
                                 body_rate=rate)
        unseen = 46 * 365
        m = int(np.ceil(0.01 * unseen))
        body = est.counts - m - 1
        assert body.min() >= 0
        sd = math.sqrt((unseen - m) * 0.25 * 0.75)
        assert abs(body.mean() - (unseen - m) * 0.25) <= 4.0 * sd / math.sqrt(2000)
        without = estimate_frequency(model, spec, observed_count=1, cfg=cfg)
        assert np.all(without.counts == m + 1)


class TestEstimateConfig:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            EstimateConfig(seed=-1)

    def test_replications_numpy_cannot_size_rejected(self):
        # the counts are one int64 array of n_replications entries
        most = np.iinfo(np.intp).max // 8
        assert EstimateConfig(n_replications=most).n_replications == most
        with pytest.raises(ValueError, match="n_replications must be <= "):
            EstimateConfig(n_replications=most + 1)

    def test_days_the_int64_counts_cannot_hold_rejected(self):
        # estimate_frequency draws and sums counts of up to
        # total_runs * years * 365 days in int64
        most = np.iinfo(np.int64).max // 365
        assert EstimateConfig(total_runs=most, years=1).total_runs == most
        with pytest.raises(ValueError, match=r"total_runs \* years \* 365 must be <= "):
            EstimateConfig(total_runs=most + 1, years=1)

    def test_confidence_the_interval_search_cannot_reach_rejected(self):
        # poisson_pmf's masses sum to 1 - 6.0e-10 at T1's paper-scale lambda,
        # so poisson_interval cannot reach a confidence closer to 1 than that
        assert EstimateConfig(confidence=0.999999).confidence == 0.999999
        assert poisson_interval(5.6e5, 0.999999)[2] >= 0.999999 - 1e-12
        with pytest.raises(ValueError, match=r"confidence must be <= 0\.999999"):
            EstimateConfig(confidence=0.999999999999)

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimateConfig(n_replications=10)
        with pytest.raises(ValueError):
            EstimateConfig(confidence=0.4)
        with pytest.raises(ValueError):
            EstimateConfig(given_runs=50, total_runs=50)
