"""Tests of the benchmark's own reference computations.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py

The exact frequencies are compared with potbet's brute-force oracle
(ingest.ground_truth_frequency) at sizes a test can afford, and the interval
check must accept potbet's intervals and reject altered ones.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks
from potbet import SynthSpec, TargetSpec, ground_truth_frequency
from potbet.estimate import poisson_interval

PAPER_RUN_DAYS = 165 * 365


def test_exact_frequencies_match_the_reference_values():
    # events per 60225-day run on the default spec, per 18250-day run for X1
    assert checks.canonical_frequency("T1", PAPER_RUN_DAYS) == pytest.approx(11204.2, abs=0.05)
    assert checks.canonical_frequency("T2", PAPER_RUN_DAYS) == pytest.approx(1488.8, abs=0.05)
    assert checks.canonical_frequency("T3", PAPER_RUN_DAYS) == pytest.approx(721.9, abs=0.05)
    assert checks.x1_frequency() == pytest.approx(0.0400006, abs=5e-8)


def test_closed_form_matches_quadrature():
    for threshold, amplitude, scale in ((146.084, 0.25, 10.0), (1.7, 0.5, 1.0)):
        closed = checks.min_of_25_probability(threshold, amplitude, scale)
        quad = checks.daily_probability(25, threshold, amplitude, scale)
        np.testing.assert_allclose(quad, closed, rtol=1e-9)


@pytest.mark.parametrize("target_id", ["T1", "T2", "T3"])
def test_exact_frequency_agrees_with_brute_force_oracle(target_id):
    spec = TargetSpec.canonical(target_id)
    oracle = ground_truth_frequency(SynthSpec(), spec, oracle_days=1_000_000,
                                    run_days=PAPER_RUN_DAYS, chunk_days=250_000)
    exact = checks.canonical_frequency(target_id, PAPER_RUN_DAYS)
    assert abs(oracle.events_per_run - exact) <= 4.0 * oracle.stderr


def test_x1_frequency_agrees_with_brute_force_oracle():
    spec = SynthSpec(n_runs=4, years_per_run=50, seed=0,
                     seasonal_amplitude=0.25, tail_scale=10.0)
    target = TargetSpec("X1", rank=25, event_threshold=146.084)
    oracle = ground_truth_frequency(spec, target, oracle_days=4_000_000,
                                    run_days=18250, chunk_days=250_000)
    assert abs(oracle.events_per_run - checks.x1_frequency()) <= 4.0 * oracle.stderr


def _enumerated_length(lam, confidence):
    pmf = stats.poisson.pmf(np.arange(int(lam + 15 * math.sqrt(lam + 1) + 25)), lam)
    best = math.inf
    for a in range(pmf.size):
        mass = np.cumsum(pmf[a:])
        reached = np.nonzero(mass >= confidence - 1e-12)[0]
        if reached.size:
            best = min(best, int(reached[0]))
    return best


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0, 12.0, 30.0])
def test_minimal_length_matches_enumeration(lam):
    for confidence in (0.90, 0.92, 0.95):
        length, _ = checks.minimal_poisson_windows(lam, confidence)
        assert length == _enumerated_length(lam, confidence)


@pytest.mark.parametrize("lam", [0.0, 1.437, 2.0, 12.0, 1437.25, 5000.3])
def test_interval_check_accepts_potbet_and_rejects_altered_intervals(lam):
    a, b, mass = poisson_interval(lam, 0.92)
    point = round(lam) / 50
    assert checks.interval_problems(point, a / 50, b / 50, lam, 0.92, mass) == []
    widened = checks.interval_problems(point, a / 50, (b + 1) / 50, lam, 0.92, mass)
    assert widened and "length" in widened[0]
    shifted = checks.interval_problems(point, (a + 1) / 50, (b + 1) / 50, lam, 0.92, mass)
    assert shifted and "mass" in shifted[0]
    assert checks.interval_problems(point + 0.005, a / 50, b / 50, lam, 0.92, mass)
    assert checks.interval_problems(point, a / 50, b / 50, lam, 0.92, mass - 1e-6)
