"""potbet benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload paper-csv --seed 1 --seconds 30 --trace 0

Run from the root of a potbet checkout.  The run starts one worker process
that imports potbet, sets up the workload's inputs, plays whole rounds of
the workload for about --seconds seconds and checks every answer against
computations made apart from potbet (see README.md).  The last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Details, and with --trace 1 the spans, go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

RUN_DEADLINE_S = 170  # the worker is killed by then, so a run ends within 180 s
WORKLOADS = ("paper-csv", "coverage-sweep", "null-calibration")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def benchmark(args, root: Path) -> dict:
    out_dir = root / ".perfbench"
    work = out_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = work / "result.json"
    try:
        with open(work / "log.txt", "w") as log:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--started", repr(started), "--work", str(work),
                 "--result", str(result_path)],
                env=child_env(root), stdout=log, stderr=subprocess.STDOUT,
                timeout=RUN_DEADLINE_S, check=False)
        if proc.returncode != 0:
            tail = (work / "log.txt").read_text()[-2000:]
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = dict(result.pop("layers"))
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        (out_dir / "traces" / f"{tag}.json").write_text(json.dumps(result.pop("spans")))
    else:
        metrics = {
            "setup_s": result["setup_s"],
            "run_s": statistics.median(result["round_s"]),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "results" / f"{tag}.json").write_text(
        json.dumps(dict(result, metrics=metrics), indent=1))
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "potbet" / "__init__.py").is_file():
        print("perfbench: run from the root of a potbet checkout (no src/potbet)",
              file=sys.stderr)
        return 2
    try:
        summary = benchmark(args, root)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    summary["metrics"] = {
        name: {"value": value, "unit": units.get(name) or _layer_unit(name)}
        for name, value in summary["metrics"].items()
    }
    print(json.dumps(summary))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "bytes"
    return "s" if name.endswith(("_s", ".s")) else "count"


if __name__ == "__main__":
    sys.exit(main())
