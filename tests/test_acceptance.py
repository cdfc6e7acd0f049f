"""End-to-end acceptance criteria.

Each criterion is a single test function, so `pytest -v` reports one
pass/fail line per criterion.  Every expected value is either computed by an
independent oracle inside this file or asserted from the construction of the
scenario; nothing is copied from pipeline output.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

import potbet
from potbet import (
    EstimateConfig,
    GameConfig,
    SynthSpec,
    TargetSpec,
    count_events,
    estimate_frequency,
    fit_pot_model,
    generate_synthetic,
    ground_truth_frequency,
    null_calibration,
    reduce_target,
    select_level,
)
from potbet.betting import BettingState
from potbet.cli import PipelineConfig, run_pipeline
from potbet.estimate import poisson_interval
from potbet.potmodel import (
    CyclicScale,
    ExceedanceSet,
    adjust,
    fit_seasonal_scale,
    sample_model,
)

LN4 = math.log(4.0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


def fitted_t2_model(p=0.99, seed=6, years=25, tail_scale=1.0):
    data = generate_synthetic(SynthSpec(
        n_runs=4, years_per_run=years, seed=seed,
        seasonal_amplitude=0.5, tail_scale=tail_scale,
    ))
    target = reduce_target(data, TargetSpec.canonical("T2"))
    return fit_pot_model(target, p, n_basis=6)


def test_criterion_1_regret_bound():
    # ln W_k >= max(ln L_k(0), ln L_k(1)) - ln 4 on every round of 1e5
    # random trajectories, diffs drawn wider than the clip so clipping is
    # exercised.  Tolerance 1e-12, runtime < 10 s.
    rng = np.random.default_rng(2024)
    n_traj, k_rounds = 100_000, 8
    diffs = rng.uniform(-1.5, 1.5, size=(n_traj, k_rounds))
    t0 = time.time()
    worst = math.inf
    for row in diffs:
        state = BettingState(clip=1.0)
        for d in row:
            state.step(0.0, d)
            slack = (math.log(state.W)
                     - max(math.log(state.L0), math.log(state.L1)) + LN4)
            if slack < worst:
                worst = slack
    elapsed = time.time() - t0
    ok = worst >= -1e-12 and elapsed < 10.0
    _report(1, "regret bound", ok,
            f"min slack {worst:.3e} over {n_traj} trajectories x {k_rounds} "
            f"rounds, {elapsed:.1f}s")
    assert worst >= -1e-12
    assert elapsed < 10.0


def test_criterion_2_ville_calibration():
    # Both samples drawn from one fitted model, alpha = 0.1, K = 25,
    # 2000 trials: rejection fraction <= 0.12 and mean terminal wealth
    # within 5 standard errors of 1.
    model = fitted_t2_model()
    t0 = time.time()
    rep = null_calibration(model, GameConfig(K=25, alpha=0.1, seed=55),
                           trials=2000)
    elapsed = time.time() - t0
    se = rep.sd_terminal_wealth / math.sqrt(rep.trials)
    mean_ok = abs(rep.mean_terminal_wealth - 1.0) <= 5.0 * se
    rej_ok = rep.rejection_fraction <= 0.12
    ok = mean_ok and rej_ok and elapsed < 60.0
    _report(2, "Ville calibration", ok,
            f"mean wealth {rep.mean_terminal_wealth:.3f} (se {se:.3f}), "
            f"rejection fraction {rep.rejection_fraction:.3f}, {elapsed:.1f}s")
    assert mean_ok, (
        f"mean terminal wealth {rep.mean_terminal_wealth:.3f} not within "
        f"5 se ({5 * se:.3f}) of 1"
    )
    assert rej_ok, f"rejection fraction {rep.rejection_fraction:.3f} > 0.12"
    assert elapsed < 60.0


def test_criterion_3_power_bound():
    # Deterministic diffs m = 0.5 at alpha = 0.5: the constant-1 capital
    # first reaches 1/alpha = 2 at round index k with
    # k+1 = ceil(ln 2 / ln 1.25) = 4; the adaptive wealth crosses no later
    # than the regret bound allows (first round with L1 >= 4/alpha).
    assert math.ceil(math.log(2.0) / math.log(1.25)) == 4
    state = BettingState(clip=1.0)
    l1_cross = w_cross = regret_cross = None
    for k in range(40):
        state.step(0.0, 0.5)
        if l1_cross is None and state.L1 >= 2.0:
            l1_cross = k + 1
        if w_cross is None and state.W >= 2.0:
            w_cross = k + 1
        if regret_cross is None and state.L1 >= 4.0 * 2.0:
            regret_cross = k + 1
    ok = l1_cross == 4 and w_cross is not None and w_cross <= regret_cross
    _report(3, "power bound", ok,
            f"constant bet crosses at k+1={l1_cross}, adaptive at "
            f"k+1={w_cross}, regret-implied bound {regret_cross}")
    assert l1_cross == 4
    assert w_cross is not None and w_cross <= regret_cross


def test_criterion_4_exponential_pot_recovery():
    # Exceedances built as g(d) * Exp(1) with g inside the spline span:
    # one large fit recovers g with sup relative error < 0.10, and the
    # adjusted exceedances pass a 1%-level KS test vs exp(1) in >= 95/100
    # seeds.
    n_basis, n_exc = 6, 10_000
    coef = 1.0 + 0.4 * np.cos(2.0 * np.pi * np.arange(n_basis) / n_basis)
    g = CyclicScale(n_basis=n_basis, coefficients=coef, floor=1e-9)
    grid = np.arange(1, 366)

    t0 = time.time()
    rng = np.random.default_rng(99)
    days = rng.integers(1, 366, size=n_exc)
    exc = ExceedanceSet(p=0.9, q=0.0, t=np.arange(n_exc), days=days,
                        excess=g(days) * rng.exponential(size=n_exc))
    fitted = fit_seasonal_scale(exc, n_basis=n_basis)
    sup_rel = float(np.max(np.abs(fitted(grid) - g(grid)) / g(grid)))

    ks_pass = 0
    for seed in range(100):
        r = np.random.default_rng(seed)
        d = r.integers(1, 366, size=n_exc)
        e = ExceedanceSet(p=0.9, q=0.0, t=np.arange(n_exc), days=d,
                          excess=g(d) * r.exponential(size=n_exc))
        f = fit_seasonal_scale(e, n_basis=n_basis)
        if stats.kstest(adjust(e, f).values, "expon").pvalue > 0.01:
            ks_pass += 1
    elapsed = time.time() - t0
    ok = sup_rel < 0.10 and ks_pass >= 95 and elapsed < 60.0
    _report(4, "exponential POT recovery", ok,
            f"sup rel error {sup_rel:.4f}, KS pass {ks_pass}/100, "
            f"{elapsed:.1f}s")
    assert sup_rel < 0.10
    assert ks_pass >= 95
    assert elapsed < 60.0


def test_criterion_5_angular_factor_mean():
    # The angular and direct samplers share the latent (q + f(D) E) draw
    # under a common seed, so their ratio isolates the min(sin, cos) factor.
    # Its sample mean over 1e6 draws must sit within 3 sigma of the
    # quadrature value of E[min(sin t, cos t)], t ~ U[0, pi/2].
    quad_mean, quad_err = integrate.quad(
        lambda t: min(math.sin(t), math.cos(t)) * 2.0 / math.pi,
        0.0, math.pi / 2.0,
    )
    assert quad_err < 1e-9
    assert quad_mean == pytest.approx((4.0 - 2.0 * math.sqrt(2.0)) / math.pi,
                                      abs=1e-9)

    data = generate_synthetic(SynthSpec(
        n_runs=4, years_per_run=25, seed=42,
        seasonal_amplitude=0.5, tail_scale=0.5,
    ))
    target = reduce_target(data, TargetSpec.canonical("T3"))
    model = fit_pot_model(target, 0.9, n_basis=6)
    assert model.kind == "angular"
    direct = dataclasses.replace(model, kind="direct")

    t0 = time.time()
    n = 1_000_000
    seed = np.random.SeedSequence(314159)
    factors = sample_model(model, n, seed) / sample_model(direct, n, seed)
    elapsed = time.time() - t0
    err = abs(float(np.mean(factors)) - quad_mean)
    bound = 3.0 * float(np.std(factors)) / math.sqrt(n)
    ok = err <= bound and elapsed < 5.0
    _report(5, "angular factor mean", ok,
            f"|mean - {quad_mean:.6f}| = {err:.2e} <= 3 sigma = {bound:.2e}, "
            f"{elapsed:.1f}s")
    assert err <= bound
    assert elapsed < 5.0


def _enumerate_minimal_interval(lam: float, confidence: float):
    # Independent exhaustive search: smallest length, then largest mass,
    # then smallest left end.
    bmax = int(math.ceil(lam + 15.0 * math.sqrt(lam + 1.0) + 25.0))
    pmf = stats.poisson.pmf(np.arange(bmax + 1), lam)
    best = None
    for a in range(bmax + 1):
        for b in range(a, bmax + 1):
            mass = float(pmf[a:b + 1].sum())
            if mass < confidence - 1e-12:
                continue
            key = (b - a, -mass, a)
            if best is None or key < best[0]:
                best = (key, (a, b, mass))
            break  # longer b only adds length at this a
    return best[1]


def test_criterion_6_poisson_interval_minimality():
    t0 = time.time()
    worst = ""
    ok = True
    for lam in (0.0, 0.5, 1.0, 2.0, 5.0, 12.0, 30.0):
        for confidence in (0.90, 0.92, 0.95):
            got = poisson_interval(lam, confidence)
            want = _enumerate_minimal_interval(lam, confidence)
            if got[:2] != want[:2] or abs(got[2] - want[2]) > 1e-12:
                ok = False
                worst = f"lam={lam} conf={confidence}: got {got}, want {want}"
    elapsed = time.time() - t0
    _report(6, "Poisson interval minimality", ok and elapsed < 1.0,
            worst or f"21/21 grid points match the enumeration oracle, "
                     f"{elapsed:.2f}s")
    assert ok, worst
    assert elapsed < 1.0


# Shared scenario for criteria 7: a well-specified seasonal exponential tail
# (latent factor dominates the per-location noise) whose event frequency has
# a closed form confirmed by the brute-force oracle.
SCENARIO_TARGET = TargetSpec("X1", rank=25, event_threshold=146.084,
                             consecutive=False)
SCENARIO_GRID = (0.9, 0.99, 0.995)


def scenario_spec(seed: int) -> SynthSpec:
    return SynthSpec(n_runs=4, years_per_run=50, seed=seed,
                     seasonal_amplitude=0.25, tail_scale=10.0)


def scenario_pipeline(seed: int):
    data = generate_synthetic(scenario_spec(seed))
    target = reduce_target(data, SCENARIO_TARGET)
    sel = select_level(target, GameConfig(K=3, alpha=0.05, seed=seed,
                                          level_grid=SCENARIO_GRID, n_basis=4))
    model = fit_pot_model(target, sel.p_star, n_basis=4)
    observed = count_events(target, SCENARIO_TARGET)
    cfg = EstimateConfig(n_replications=300, total_runs=50, given_runs=4,
                         years=50, confidence=0.92, seed=seed)
    return estimate_frequency(model, SCENARIO_TARGET, observed, cfg)


@pytest.mark.slow
def test_criterion_7_end_to_end_coverage():
    # 200 independent synthetic pipelines against the brute-force oracle
    # frequency: the 0.92 interval must contain round(50 phi)/50 in at
    # least 0.92 - 3 sigma_binomial of runs and the point estimate must be
    # within 2/50 of it in at least 80%.
    t0 = time.time()
    oracle = ground_truth_frequency(scenario_spec(0), SCENARIO_TARGET,
                                    oracle_days=100_000_000, run_days=18250,
                                    chunk_days=5_000_000)
    truth = round(50.0 * oracle.events_per_run) / 50.0

    n_pipe = 200
    covered = point_ok = 0
    for i in range(n_pipe):
        est = scenario_pipeline(10_000 + i)
        covered += est.ci_lo <= truth <= est.ci_hi
        point_ok += abs(est.point - truth) <= 2.0 / 50.0 + 1e-12
    elapsed = time.time() - t0

    sigma = math.sqrt(0.92 * 0.08 / n_pipe)
    cov_bound = 0.92 - 3.0 * sigma
    cov_ok = covered / n_pipe >= cov_bound
    pt_ok = point_ok / n_pipe >= 0.80
    ok = cov_ok and pt_ok and elapsed < 900.0
    _report(7, "end-to-end coverage", ok,
            f"oracle freq {oracle.events_per_run:.4f} (se {oracle.stderr:.4f})"
            f" -> truth {truth}, coverage {covered}/{n_pipe} "
            f"(need >= {cov_bound:.3f}), point within 0.04: "
            f"{point_ok}/{n_pipe}, {elapsed:.0f}s")
    assert cov_ok, f"coverage {covered / n_pipe:.3f} < {cov_bound:.3f}"
    assert pt_ok, f"point accuracy {point_ok / n_pipe:.3f} < 0.80"
    assert elapsed < 900.0


def small_pipeline_config(out_dir: str) -> PipelineConfig:
    return PipelineConfig(
        synth={"n_runs": 4, "years_per_run": 25, "tail_scale": 1.0,
               "seasonal_amplitude": 0.5},
        targets=["T1", "T2"], seed=17, k_list=[3],
        level_grid=[0.9, 0.95], n_replications=100, years=25,
        out_dir=out_dir,
    )


@pytest.mark.slow
def test_criterion_8_grid_property(tmp_path):
    # Every emitted point estimate and interval bound times 50 must be an
    # integer.
    run_pipeline(small_pipeline_config(str(tmp_path)))
    lines = (tmp_path / "answer.csv").read_text().splitlines()[2:]
    worst = ""
    ok = True
    for line in lines:
        fields = line.split(",")
        for value in fields[1:4]:
            scaled = float(value) * 50.0
            if abs(scaled - round(scaled)) > 1e-9:
                ok = False
                worst = f"{fields[0]}: {value} * 50 = {scaled}"
    _report(8, "1/50 grid property", ok,
            worst or f"all point/interval values in {len(lines)} answer rows "
                     f"are multiples of 0.02")
    assert ok, worst
    assert lines, "answer.csv has no data rows"


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path):
    # The full pipeline with a fixed seed must be byte-identical across runs.
    dirs = (tmp_path / "a", tmp_path / "b")
    outputs = []
    for d in dirs:
        run_pipeline(small_pipeline_config(str(d)))
        outputs.append({p.name: p.read_bytes() for p in d.iterdir()})
    same_names = set(outputs[0]) == set(outputs[1])
    differing = [n for n in outputs[0]
                 if same_names and outputs[0][n] != outputs[1][n]]
    ok = same_names and not differing
    _report(9, "determinism", ok,
            f"{len(outputs[0])} output files byte-identical across reruns"
            if ok else f"differing files: {differing or 'name sets differ'}")
    assert same_names
    assert not differing
