"""Child process of the benchmark: sets up, runs potbet and checks its answers.

    worker.py --workload W --seed S --seconds R --trace 0|1
              --started T --work DIR --result FILE

Imports potbet, sets up the workload's inputs in DIR SETUP_REPEATS times
(the ``potbet`` commands called in this process, as the console script
would), plays whole rounds of the workload for about R seconds, checks the
outputs and writes the timings, checks and (with --trace 1) per-layer
metrics to FILE as JSON.  T is the ``time.monotonic()`` reading taken just
before this process was started.

Run from the root of a potbet checkout; ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import potbet
from potbet import cli

import checks
from tracing import Tracer, median_by_key

SETUP_REPEATS = 3

# paper-csv: the default synthetic panel (SynthSpec seed 0) over 4 runs of
# PAPER_YEARS years, written to CSV by `potbet synth` during set-up and read
# back by `potbet run` (T1-T3, default level grid, k_list [3, 5]) in every
# round.  Its inputs do not depend on --seed: the 3-round game's level choice
# moves T1's Poisson mean, and with it the interval search's cost, by 5x, and
# the T1/T2 answers fail every time through one fault (see README).
PAPER_YEARS = 33
PAPER_REPLICATIONS = 100
PAPER_TOLERANCE = 0.15  # relative error of a point estimate against the exact oracle
PAPER_TARGETS = ("T1", "T2", "T3")

# coverage-sweep: criterion 7's first COVERAGE_PIPELINES pipelines (data and
# game seed 10000 + i, so each picks the same level every run); the estimate's
# Monte Carlo seed comes from --seed.
COVERAGE_PIPELINES = 8
COVERAGE_TARGET = potbet.TargetSpec("X1", rank=25, event_threshold=146.084)
COVERAGE_GRID = (0.9, 0.99, 0.995)

# null-calibration: criterion 2's setting on two fitted models.
CALIBRATION_KS = (5, 25)
CALIBRATION_TRIALS = 2000
CALIBRATION_ALPHA = 0.1
CALIBRATION_MODELS = (("T2", 0.99), ("T3", 0.9))


def potbet_command(argv: list) -> None:
    """Run one ``potbet`` command in this process; raise if it fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"potbet {argv[0]} exited with {code}")


class PaperCsv:
    ops_per_round = len(PAPER_TARGETS)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.config = work / "paper.json"

    def setup(self, rep: int) -> None:
        data = self.work / f"data-{rep}"
        potbet_command(["synth", "--seed", "0", "--runs", "4",
                        "--years", str(PAPER_YEARS), "--out", str(data)])
        self.config.write_text(json.dumps({
            "data_paths": sorted(str(p) for p in data.glob("run_*.csv")),
            "years": PAPER_YEARS, "n_replications": PAPER_REPLICATIONS, "seed": 0}))

    def play(self, index: int):
        out = self.work / f"out-{index}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(self.config), "--out", str(out)])
        return code, out

    def output_bytes(self, outcome) -> int:
        return sum(p.stat().st_size for p in outcome[1].iterdir())

    def check(self, outcomes: list) -> dict:
        """An answer fails when its point is more than PAPER_TOLERANCE from
        the exact frequency; every answer's interval must pass the interval
        check, failed or not."""
        code, out = outcomes[0]
        answers = out / "answer.csv"
        rows = {}
        for line in (answers.read_text().splitlines()[2:] if answers.is_file() else []):
            f = line.split(",")
            rows[f[0]] = {"point": float(f[1]), "ci_lo": float(f[2]),
                          "ci_hi": float(f[3]), "achieved": float(f[4]),
                          "lambda": float(f[5])}
        run_days = PAPER_YEARS * checks.DAYS_PER_YEAR
        failed, problems, detail = [], [], {"exit_code": code}
        if code != 0:
            problems.append(f"potbet run exited with {code}")
        for tid in PAPER_TARGETS:
            row = rows.get(tid)
            if row is None:
                failed.append(tid)
                detail[tid] = "no answer row"
                continue
            exact = checks.canonical_frequency(tid, run_days)
            rel = abs(row["point"] - exact) / exact
            info = detail[tid] = dict(row, exact=exact, rel_error=rel)
            problems += [f"{tid}: {b}" for b in checks.interval_problems(
                row["point"], row["ci_lo"], row["ci_hi"], row["lambda"], 0.92,
                row["achieved"])]
            if rel > PAPER_TOLERANCE:
                failed.append(tid)
                info["reason"] = _miss_reason(out / f"model_{tid}.json", tid)
        reference = _read_tree(out)
        for i, (_, other) in enumerate(outcomes[1:], start=1):
            if _read_tree(other) != reference:
                problems.append(f"round {i} outputs differ from round 0")
        return {"failed": len(failed), "failed_ops": failed,
                "problems": problems, "detail": detail}


def _miss_reason(model_path: Path, tid: str) -> str:
    model = json.loads(model_path.read_text())
    if model["kind"] == "direct" and model["q"] >= checks.CANONICAL[tid][1]:
        # Every model draw lies above q >= threshold, so each replication
        # counts all m draws: days between the threshold and q are never
        # counted (estimate.estimate_frequency).
        return f"event threshold below the fitted quantile q={model['q']}"
    return f"point off the exact frequency (p={model['p']}, {model['kind']})"


def _read_tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def coverage_pipeline(i: int, seed: int):
    """Criterion 7's pipeline 10000 + i, library calls only."""
    pipeline_seed = 10_000 + i
    data = potbet.generate_synthetic(potbet.SynthSpec(
        n_runs=4, years_per_run=50, seed=pipeline_seed,
        seasonal_amplitude=0.25, tail_scale=10.0))
    target = potbet.reduce_target(data, COVERAGE_TARGET)
    sel = potbet.select_level(target, potbet.GameConfig(
        K=3, alpha=0.05, seed=pipeline_seed, level_grid=COVERAGE_GRID, n_basis=4))
    model = potbet.fit_pot_model(target, sel.p_star, n_basis=4)
    observed = potbet.count_events(target, COVERAGE_TARGET)
    cfg = potbet.EstimateConfig(n_replications=300, total_runs=50, given_runs=4,
                                years=50, confidence=0.92,
                                seed=seed * 1000 + i)
    return potbet.estimate_frequency(model, COVERAGE_TARGET, observed, cfg)


def binomial_floor(rate: float, n: int) -> float:
    """rate - 3 binomial standard deviations, as a share of n."""
    return rate - 3.0 * math.sqrt(rate * (1.0 - rate) / n)


class CoverageSweep:
    ops_per_round = COVERAGE_PIPELINES

    def __init__(self, work: Path, seed: int):
        self.seed = seed

    def setup(self, rep: int) -> None:
        """Nothing to make: each pipeline generates its own panel."""

    def play(self, index: int):
        out = []
        for i in range(COVERAGE_PIPELINES):
            try:
                est = coverage_pipeline(i, self.seed)
            except (ValueError, np.linalg.LinAlgError) as exc:
                out.append(f"pipeline {i}: {type(exc).__name__}: {exc}")
                continue
            out.append((est.point, est.ci_lo, est.ci_hi, est.lam,
                        est.achieved_coverage))
        return out

    def output_bytes(self, outcome) -> int:
        return 0

    def check(self, outcomes: list) -> dict:
        truth = round(checks.GRID_RUNS * checks.x1_frequency()) / checks.GRID_RUNS
        failed = [est for est in outcomes[0] if isinstance(est, str)]
        problems = []
        covered = near = 0
        for i, est in enumerate(outcomes[0]):
            if isinstance(est, str):
                continue
            point, lo, hi, lam, achieved = est
            problems += [f"pipeline {i}: {b}" for b in
                         checks.interval_problems(point, lo, hi, lam, 0.92, achieved)]
            covered += lo <= truth <= hi
            near += abs(point - truth) <= 2.0 / checks.GRID_RUNS + 1e-12
        n = COVERAGE_PIPELINES
        floors = {"coverage": binomial_floor(0.92, n), "point": binomial_floor(0.80, n)}
        if covered / n < floors["coverage"]:
            problems.append(f"coverage {covered}/{n} < {floors['coverage']:.3f}")
        if near / n < floors["point"]:
            problems.append(f"points within 2/50: {near}/{n} < {floors['point']:.3f}")
        for i, other in enumerate(outcomes[1:], start=1):
            if other != outcomes[0]:
                problems.append(f"round {i} estimates differ from round 0")
        return {"failed": len(failed), "failed_ops": failed, "problems": problems,
                "detail": {"truth": truth, "covered": covered, "near": near,
                           "floors": floors}}


class NullCalibration:
    ops_per_round = len(CALIBRATION_MODELS) * len(CALIBRATION_KS)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self, rep: int) -> None:
        """Fit the two models with `potbet fit` on criterion 2's panel."""
        config = self.work / "calibration.json"
        config.write_text(json.dumps({
            "synth": {"n_runs": 4, "years_per_run": 25, "seed": 6},
            "n_basis": 6, "seed": 6}))
        self.models = []
        for tid, p in CALIBRATION_MODELS:
            out = self.work / f"fit-{rep}-{tid}"
            potbet_command(["fit", "--config", str(config), "--target", tid,
                            "--p", str(p), "--out", str(out)])
            self.models.append(potbet.PotModel.from_json(
                (out / f"model_{tid}.json").read_text()))

    def play(self, index: int):
        out = []
        for model in self.models:
            for k in CALIBRATION_KS:
                cfg = potbet.GameConfig(K=k, alpha=CALIBRATION_ALPHA, seed=self.seed)
                try:
                    rep = potbet.null_calibration(model, cfg, trials=CALIBRATION_TRIALS)
                except (ValueError, np.linalg.LinAlgError) as exc:
                    out.append(f"{model.target_id} K={k}: {type(exc).__name__}: {exc}")
                    continue
                out.append((model.target_id, k, rep.mean_terminal_wealth,
                            rep.sd_terminal_wealth, rep.rejection_fraction))
        return out

    def output_bytes(self, outcome) -> int:
        return 0

    def check(self, outcomes: list) -> dict:
        failed = [rep for rep in outcomes[0] if isinstance(rep, str)]
        problems, detail = [], {}
        for rep in outcomes[0]:
            if isinstance(rep, str):
                continue
            tid, k, mean, sd, rejection = rep
            se = sd / math.sqrt(CALIBRATION_TRIALS)
            detail[f"{tid}_K{k}"] = {"mean": mean, "se": se, "rejection": rejection}
            if abs(mean - 1.0) > 5.0 * se:
                problems.append(f"{tid} K={k}: mean wealth {mean:.3f} is more "
                                f"than 5 se ({se:.3f}) from 1")
            if rejection > 0.12:
                problems.append(f"{tid} K={k}: rejection {rejection:.3f} > 0.12")
        for i, other in enumerate(outcomes[1:], start=1):
            if other != outcomes[0]:
                problems.append(f"round {i} calibrations differ from round 0")
        return {"failed": len(failed), "failed_ops": failed, "problems": problems,
                "detail": detail}


WORKLOADS = {"paper-csv": PaperCsv, "coverage-sweep": CoverageSweep,
             "null-calibration": NullCalibration}

# span name -> per-layer metric
LAYER_METRICS = {
    "ingest.generate": "ingest.generate_s", "ingest.load": "ingest.load_s",
    "ingest.write": "ingest.write_s", "reduce": "reduce.s",
    "reduce.angular": "reduce.angular_s", "potmodel.fit": "potmodel.fit_s",
    "potmodel.sample": "potmodel.sample_s", "betting.select": "betting.select_s",
    "betting.calibration": "betting.calibration_s", "estimate": "estimate.s",
    "estimate.poisson_interval": "estimate.poisson_interval_s",
    "cli.run": "cli.run_self_s",
}
COUNT_METRICS = ("ingest.load_rows", "potmodel.fits", "potmodel.sample_calls",
                 "potmodel.draws", "betting.games", "betting.rounds",
                 "betting.level_failures", "estimate.poisson_interval_calls")


def layer_sample(tracer: Tracer, seconds: float, output_bytes: int) -> dict:
    sample = {LAYER_METRICS[k]: v for k, v in tracer.self_times().items()}
    sample.update({k: tracer.counts.get(k, 0) for k in COUNT_METRICS})
    sample["cli.output_bytes"] = output_bytes
    sample["trace.run_s"] = seconds
    sample["trace.self_sum_s"] = tracer.covered()
    sample["trace.unattributed_s"] = seconds - tracer.covered()
    return sample


def timed(fn, trace: bool):
    """Call fn(), traced if asked; return (result, seconds, tracer)."""
    tracer = Tracer()
    if trace:
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        dt = time.perf_counter() - t0
        tracer.uninstall()
    return result, dt, tracer


def run(args) -> dict:
    # potbet and the checks are imported, so start-up ends here
    startup_s = time.monotonic() - args.started
    work = Path(args.work)
    workload = WORKLOADS[args.workload](work, args.seed)
    setup_s, write_s = [], []
    for rep in range(SETUP_REPEATS):
        _, dt, tracer = timed(lambda: workload.setup(rep), args.trace)
        setup_s.append(dt)
        write_s.append(tracer.self_times()["ingest.write"])

    plain, traced, outcomes, samples, spans = [], [], [], [], []
    began = time.perf_counter()
    while True:
        # with --trace 1, untraced and traced rounds alternate, untraced first
        tracing = args.trace and len(plain) > len(traced)
        outcome, dt, tracer = timed(lambda: workload.play(len(outcomes)), tracing)
        outcomes.append(outcome)
        if tracing:
            traced.append(dt)
            samples.append(layer_sample(tracer, dt, workload.output_bytes(outcome)))
            spans.append(tracer.spans)
        else:
            plain.append(dt)
        elapsed = time.perf_counter() - began
        done = not args.trace or traced
        if done and elapsed + statistics.median(plain + traced) > args.seconds:
            break

    result = workload.check(outcomes)
    n = len(outcomes)
    result.update({
        "startup_s": startup_s, "setup_repeat_s": setup_s,
        "setup_s": startup_s + statistics.median(setup_s),
        "round_s": plain, "traced_round_s": traced, "rounds": n,
        "attempted": n * workload.ops_per_round, "failed": n * result["failed"],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if args.trace:
        layers = median_by_key(samples)
        layers["ingest.write_s"] = statistics.median(write_s)
        layers["trace.untraced_run_s"] = statistics.median(plain)
        layers["trace.overhead_s"] = layers["trace.run_s"] - layers["trace.untraced_run_s"]
        result["layers"] = layers
        result["spans"] = spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
