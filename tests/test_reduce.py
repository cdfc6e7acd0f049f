"""Tests for the panel-to-univariate reduction and the angular diagnostic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potbet import (
    Dataset,
    GridRun,
    SynthSpec,
    TargetSpec,
    UnivariateTarget,
    angular_diagnostic,
    count_events,
    extract_exceedances,
    generate_synthetic,
    reduce_target,
)
from potbet.reduce import InsufficientDataError, exceedances


def panel_from_values(values):
    """Wrap a (n, 25) array into a one-run Dataset, padding to a full year."""
    n = len(values)
    full = np.zeros((365, 25))
    full[:n] = values
    run = GridRun(run_id=0, values=full)
    return Dataset(runs=[run])


class TestOrderStatistics:
    def test_t1_is_minimum(self):
        row = np.arange(25, dtype=float) + 3.0
        data = panel_from_values(row[None, :])
        t = reduce_target(data, TargetSpec.canonical("T1"))
        assert t.y[0] == 3.0

    def test_t2_is_sixth_largest_of_permutation(self):
        rng = np.random.default_rng(0)
        row = rng.permutation(np.arange(1.0, 26.0))
        data = panel_from_values(row[None, :])
        t = reduce_target(data, TargetSpec.canonical("T2"))
        assert t.y[0] == 20.0

    def test_t3_three_four_five_triangle(self):
        values = np.zeros((2, 25))
        values[0, :3] = [3.0, 3.0, 3.0]   # 3rd largest on day 1 = 3
        values[1, :3] = [4.0, 4.0, 4.0]   # 3rd largest on day 2 = 4
        data = panel_from_values(values)
        t = reduce_target(data, TargetSpec.canonical("T3"))
        assert t.ybar[0] == pytest.approx(5.0)
        assert t.y[0] == pytest.approx(3.0)

    def test_t3_pairs_stay_within_runs(self):
        data = generate_synthetic(SynthSpec(n_runs=3, years_per_run=1, seed=4))
        t = reduce_target(data, TargetSpec.canonical("T3"))
        assert len(t.y) == data.n_total - 3  # one lost pair per run

    def test_t3_norm_and_min_identities(self):
        data = generate_synthetic(SynthSpec(n_runs=1, years_per_run=2, seed=4))
        t = reduce_target(data, TargetSpec.canonical("T3"))
        assert np.array_equal(t.y, np.minimum(t.y31, t.y32))
        assert np.allclose(t.ybar, np.hypot(t.y31, t.y32))
        assert np.all(t.y <= t.ybar / math.sqrt(2) + 1e-12)

    def test_t3_event_implies_norm_above_sqrt50(self):
        # min(a, b) >= 5 forces sqrt(a^2 + b^2) >= sqrt(50)
        rng = np.random.default_rng(8)
        values = 6.0 * rng.random((365, 25))
        data = panel_from_values(values)
        t = reduce_target(data, TargetSpec.canonical("T3"))
        hit = t.y >= 5.0
        assert hit.any()
        assert np.all(t.ybar[hit] >= math.sqrt(50.0))

    def test_permutation_invariance(self):
        data = generate_synthetic(SynthSpec(n_runs=1, years_per_run=1, seed=2))
        rng = np.random.default_rng(3)
        perm = rng.permutation(25)
        shuffled = Dataset(runs=[GridRun(run_id=0, values=data.runs[0].values[:, perm])])
        for tid in ("T1", "T2", "T3"):
            spec = TargetSpec.canonical(tid)
            assert np.array_equal(reduce_target(data, spec).y,
                                  reduce_target(shuffled, spec).y)

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_monotone_shift(self, c):
        rng = np.random.default_rng(7)
        values = rng.random((365, 25))
        base = reduce_target(panel_from_values(values), TargetSpec.canonical("T2"))
        shifted = reduce_target(panel_from_values(values + c),
                                TargetSpec.canonical("T2"))
        assert np.allclose(shifted.y, base.y + c)


class TestCountEvents:
    def test_zero_data_positive_threshold(self):
        data = panel_from_values(np.zeros((10, 25)))
        spec = TargetSpec("X1", 25, 0.5)
        assert count_events(reduce_target(data, spec), spec) == 0

    def test_threshold_below_everything_counts_all(self):
        data = generate_synthetic(SynthSpec(n_runs=1, years_per_run=1, seed=5))
        spec = TargetSpec("X1", 25, -1.0)
        t = reduce_target(data, spec)
        assert count_events(t, spec) == len(t.y)

    def test_nonincreasing_in_threshold(self):
        data = generate_synthetic(SynthSpec(n_runs=1, years_per_run=2, seed=6))
        t = reduce_target(data, TargetSpec.canonical("T2"))
        counts = [int(np.sum(t.y >= thr)) for thr in np.linspace(0, 10, 50)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_rare_event_frequency_scale(self):
        # challenge-like: a single event over 4 runs gives ~5e-6 frequency
        assert 1 / 240900 == pytest.approx(5e-6, rel=0.2)


def make_pair_target(y31, y32):
    y31 = np.asarray(y31, dtype=float)
    y32 = np.asarray(y32, dtype=float)
    return UnivariateTarget(
        target_id="T3", y=np.minimum(y31, y32),
        d=np.arange(len(y31)) % 365 + 1,
        y31=y31, y32=y32, ybar=np.hypot(y31, y32),
    )


class TestAngularDiagnostic:
    def test_uniform_angles_pass_ks(self):
        rng = np.random.default_rng(12)
        n = 20000
        ybar = 1.0 + rng.exponential(size=n)
        theta = rng.uniform(0, math.pi / 2, size=n)
        t = make_pair_target(ybar * np.sin(theta), ybar * np.cos(theta))
        # 10^4 exceedances above the median
        rep = angular_diagnostic(t, extract_exceedances(t, 0.5))
        assert rep.n_exceedances == 10000
        assert rep.ks_distance < 1.36 / math.sqrt(rep.n_exceedances)

    def test_diagonal_pairs_give_half_distance(self):
        v = np.linspace(1.0, 2.0, 100)
        t = make_pair_target(v, v)
        rep = angular_diagnostic(t, extract_exceedances(t, 0.5))
        assert np.allclose(rep.angles, math.pi / 4)
        assert rep.ks_distance == pytest.approx(0.5, abs=0.02)

    def test_histogram_covers_quarter_circle(self):
        rng = np.random.default_rng(13)
        theta = rng.uniform(0, math.pi / 2, size=5000)
        ybar = 1.0 + rng.random(5000)
        t = make_pair_target(ybar * np.sin(theta), ybar * np.cos(theta))
        rep = angular_diagnostic(t, extract_exceedances(t, 0.1))
        assert len(rep.hist_counts) == 20
        assert rep.bin_edges[0] == 0.0
        assert rep.bin_edges[-1] == pytest.approx(math.pi / 2)
        assert rep.hist_counts.sum() == rep.n_exceedances

    def test_insufficient_exceedances_error(self):
        v = np.linspace(1.0, 2.0, 30)
        t = make_pair_target(v, v)
        with pytest.raises(InsufficientDataError):
            angular_diagnostic(t, extract_exceedances(t, 0.9))  # only 3 exceedances

    def test_reads_the_days_of_the_exceedance_set(self):
        # the set's threshold is a model's q, not a quantile of this series
        rng = np.random.default_rng(14)
        theta = rng.uniform(0, math.pi / 2, size=500)
        ybar = 1.0 + rng.exponential(size=500)
        t = make_pair_target(ybar * np.sin(theta), ybar * np.cos(theta))
        rep = angular_diagnostic(t, exceedances(t, 0.9, 2.5))
        above = t.ybar > 2.5
        assert rep.n_exceedances == np.count_nonzero(above)
        assert np.array_equal(rep.angles, np.arcsin(np.clip(t.y31[above] / t.ybar[above], 0, 1)))

    def test_requires_paired_target(self):
        t = UnivariateTarget(target_id="T1", y=np.ones(100),
                             d=np.arange(100) % 365 + 1)
        with pytest.raises(ValueError):
            angular_diagnostic(t, extract_exceedances(t, 0.5))


class TestExceedances:
    def test_strictly_above_q_on_the_tail_series(self):
        # a pair's norm is its tail series; a value equal to q is not an exceedance
        t = make_pair_target([3.0, 4.0, 0.0, 6.0], [4.0, 3.0, 1.0, 8.0])
        exc = exceedances(t, 0.5, 5.0)
        assert (exc.p, exc.q) == (0.5, 5.0)
        assert exc.t.tolist() == [3]
        assert exc.days.tolist() == [4]
        assert exc.excess.tolist() == [5.0]


class TestTargetSpecValidation:
    def test_canonical_triplets(self):
        assert TargetSpec.canonical("T1").rank == 25
        assert TargetSpec.canonical("T2").rank == 6
        assert TargetSpec.canonical("T3").consecutive

    def test_canonical_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec("T1", 24, 1.7)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            TargetSpec("X1", 0, 1.0)
        with pytest.raises(ValueError):
            TargetSpec("X1", 26, 1.0)
