"""Loading, validation and synthetic generation of climate-run panels.

A run is a daily precipitation panel over a 5x5 grid (25 locations) on a
365-day calendar (no leap days).  Synthetic runs share a seasonal
heavy-tailed latent factor across locations, so an exponential tail model
is exactly correct on them and end-to-end estimates can be checked against
a brute-force Monte Carlo oracle.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

N_LOCATIONS = 25
DAYS_PER_YEAR = 365
# the rows a run-sized kernel works on at a time: its transient memory is
# one block (0.8 MB of values), not a second copy of the run
ROW_BLOCK = 4096

CSV_HEADER = (
    "run_id,day_index,day_of_year,"
    + ",".join(f"loc_{j:02d}" for j in range(N_LOCATIONS))
)
_N_COLUMNS = 3 + N_LOCATIONS


def rankth_largest(values: np.ndarray, rank: int) -> np.ndarray:
    """Each row's rank-th largest of its N_LOCATIONS values (1 = max, 25 = min).

    Rank 25 takes one `min` pass; the other ranks partition ROW_BLOCK rows
    at a time.  Either way the result is an element of its row equal to the
    sorted row's entry.  Only a tie between 0.0 and -0.0 (which a CSV panel
    may hold) leaves the sign of the zero returned unspecified, as it is for
    the partition.
    """
    if rank == N_LOCATIONS:
        return values.min(axis=1)
    idx = N_LOCATIONS - rank  # ascending-sorted position of the rank-th largest
    out = np.empty(len(values))
    for i in range(0, len(values), ROW_BLOCK):
        out[i:i + ROW_BLOCK] = np.partition(values[i:i + ROW_BLOCK], idx, axis=1)[:, idx]
    return out


class IngestError(ValueError):
    """Raised for malformed or invalid input files."""


# the JSON values a value of each type name takes
_JSON_TYPES = {"list": list, "dict": dict, "int": int, "float": (int, float),
               "bool": bool, "str": str}


def is_json(value, type_name: str) -> bool:
    # a bool is an int in Python, but never a number in a JSON file; a float
    # is a finite double (NaN fails the test, and a huge int is compared
    # exactly) and an int a signed 64-bit integer
    expected = _JSON_TYPES[type_name]
    return (isinstance(value, expected) and isinstance(value, bool) == (expected is bool)
            and (type_name != "float" or abs(value) <= sys.float_info.max)
            and (type_name != "int" or -2**63 <= value < 2**63))


def check_json(obj: dict, types: dict, what: str) -> None:
    """ValueError unless each key of obj is a key of types and holds a JSON
    value of the type named there; "list of T" takes a list of T values."""
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    for key, value in obj.items():
        outer, _, item = types[key].partition(" of ")
        if not is_json(value, outer) or (item and not all(is_json(v, item) for v in value)):
            rule = f"a {types[key]}" if item else types[key]
            raise ValueError(f"{what} key {key!r} must be {rule}, got {value!r}")


def calendar(n_days: int, first: int = 0) -> np.ndarray:
    """The day-of-year labels (1..365) of days first .. first + n_days - 1
    of a run, whose day 0 is the first day of a year."""
    return (first + np.arange(n_days)) % DAYS_PER_YEAR + 1


@dataclass
class GridRun:
    """One climate run: daily precipitation at 25 locations over whole
    years, so its day-of-year labels are the calendar of its length."""

    run_id: int
    values: np.ndarray  # (n_days, 25), non-negative
    day_of_year: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != N_LOCATIONS:
            raise IngestError(
                f"run {self.run_id}: values must be (n_days, {N_LOCATIONS}), "
                f"got {self.values.shape}"
            )
        n = self.n_days
        if n % DAYS_PER_YEAR != 0:
            raise IngestError(
                f"run {self.run_id}: {n} days is not a multiple of {DAYS_PER_YEAR}"
            )
        if not np.all(np.isfinite(self.values)) or self.values.min(initial=0.0) < 0:
            raise IngestError(f"run {self.run_id}: values must be finite and >= 0")
        self.day_of_year = calendar(n)

    @property
    def n_days(self) -> int:
        return len(self.values)


@dataclass
class Dataset:
    """Ordered collection of runs, concatenated by ascending run_id."""

    runs: list[GridRun]

    def __post_init__(self):
        ids = [r.run_id for r in self.runs]
        if len(set(ids)) != len(ids):
            raise IngestError(f"duplicate run_ids: {sorted(ids)}")
        self.runs = sorted(self.runs, key=lambda r: r.run_id)

    @property
    def n_total(self) -> int:
        return sum(r.n_days for r in self.runs)

    def concat_values(self) -> np.ndarray:
        return np.concatenate([r.values for r in self.runs], axis=0)

    def concat_days(self) -> np.ndarray:
        return np.concatenate([r.day_of_year for r in self.runs])


@dataclass
class SynthSpec:
    """Parameters of the synthetic ground-truth generator.

    Each day t draws a latent factor Z_t = s(d_t) * E_t with E_t standard
    exponential and s(d) = tail_scale * (1 + seasonal_amplitude * sin(2*pi*d/365)).
    Every location observes Z_t plus independent unit-exponential noise.
    The seed fully determines the dataset.
    """

    n_runs: int = 4
    years_per_run: int = 165
    seed: int = 0
    seasonal_amplitude: float = 0.5
    tail_scale: float = 1.0

    def __post_init__(self):
        if self.n_runs < 1 or self.years_per_run < 1:
            raise ValueError("n_runs and years_per_run must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 <= self.seasonal_amplitude <= 1:
            # above 1 the seasonal scale s(d) goes negative
            raise ValueError("seasonal_amplitude must be in [0, 1]")
        if self.tail_scale <= 0:
            raise ValueError("tail_scale must be > 0")

    def row_blocks(self, rng, day_of_year: np.ndarray, out=None):
        """Yield the values of the given days ROW_BLOCK rows at a time: the
        successive row slices of out, an (n_days, 25) array, or without out
        one reused ROW_BLOCK-row buffer.

        rng draws all of Z's exponentials first, then the noise block by
        block; successive fills draw the stream one (n_days, 25)
        `rng.exponential` call gave.  Each block is Z + noise.
        """
        d = np.asarray(day_of_year, dtype=np.float64)
        s = self.tail_scale * (
            1.0 + self.seasonal_amplitude * np.sin(2.0 * np.pi * d / DAYS_PER_YEAR)
        )
        z = s * rng.standard_exponential(d.size)
        if out is None:
            out = np.empty((min(ROW_BLOCK, d.size), N_LOCATIONS))
        for i in range(0, d.size, ROW_BLOCK):
            rows = min(ROW_BLOCK, d.size - i)
            part = out[i:i + rows] if len(out) == d.size else out[:rows]
            rng.standard_exponential(out=part)
            part += z[i:i + ROW_BLOCK, None]
            yield part

    def sample_days(self, rng, day_of_year: np.ndarray) -> np.ndarray:
        """The (n_days, 25) values of the given days, filled by row_blocks."""
        values = np.empty((len(day_of_year), N_LOCATIONS))
        for _ in self.row_blocks(rng, day_of_year, values):
            pass
        return values


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Generate a Dataset from the seasonal latent-factor model, seed-deterministic."""
    rng = np.random.default_rng(spec.seed)
    doy = calendar(spec.years_per_run * DAYS_PER_YEAR)
    return Dataset([GridRun(r, spec.sample_days(rng, doy)) for r in range(spec.n_runs)])


def load_dataset(paths: list) -> Dataset:
    """Load runs from CSV files (one run per file) and validate them."""
    runs = []
    for path in paths:
        runs.append(_load_run(path))
    return Dataset(runs=runs)


# One CSV row: the three integer columns, then the 25 values.
_ROW_DTYPE = np.dtype([
    ("run_id", np.int64),
    ("day_index", np.int64),
    ("day_of_year", np.int64),
    ("values", np.float64, (N_LOCATIONS,)),
])


@contextlib.contextmanager
def _open_data_rows(path):
    """Open a run file in text mode and check its header; yield the handle."""
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != CSV_HEADER:
            raise IngestError(f"{path}: bad header, expected '{CSV_HEADER}'")
        yield fh


def _load_run(path) -> GridRun:
    """Load one run in a single vectorised pass.

    A file the pass cannot take, or whose rows break a per-line rule, goes
    through `_load_run_by_line`, which names the offending line.  That
    parser also accepts the few spellings `np.loadtxt` rejects (such as
    `1_0`, or integers beyond int64), so both accept the same files and,
    on canonical files, return the same arrays.
    """
    with _open_data_rows(path) as fh:
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below as "no data rows"
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                                  dtype=_ROW_DTYPE)
        except ValueError:
            rows = None
    if (
        rows is None
        or rows.size == 0
        or np.any(rows["run_id"] != rows["run_id"][0])
        or not np.array_equal(rows["day_index"], np.arange(1, rows.size + 1))
        or not np.array_equal(rows["day_of_year"], calendar(rows.size))
    ):
        return _load_run_by_line(path)
    # a view: a contiguous copy would hold the run twice while loading
    return GridRun(int(rows["run_id"][0]), rows["values"])


def _load_run_by_line(path) -> GridRun:
    """Parse and check one run line by line, naming the file and line at fault."""
    with _open_data_rows(path) as fh:
        run_id = None
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != _N_COLUMNS:
                raise IngestError(
                    f"{path}:{lineno}: expected {_N_COLUMNS} columns, got {len(parts)}"
                )
            try:
                rid = int(parts[0])
                day_index = int(parts[1])
                doy = int(parts[2])
                vals = [float(v) for v in parts[3:]]
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: malformed row ({exc})") from exc
            if run_id is None:
                run_id = rid
            elif rid != run_id:
                raise IngestError(
                    f"{path}:{lineno}: run_id changed from {run_id} to {rid}"
                )
            if day_index != len(rows) + 1:
                raise IngestError(
                    f"{path}:{lineno}: day_index {day_index}, expected {len(rows) + 1}"
                )
            expected = len(rows) % DAYS_PER_YEAR + 1  # the calendar's label
            if doy != expected:
                raise IngestError(
                    f"{path}:{lineno}: day_of_year {doy}, expected {expected}"
                )
            rows.append(vals)
    if run_id is None:
        raise IngestError(f"{path}: no data rows")
    return GridRun(run_id=run_id, values=np.array(rows))


def write_dataset(data: Dataset, paths: list) -> None:
    """Write one CSV file per run (canonical format: shortest round-trip floats, LF).

    A pool of forked processes writes whole runs beside this process, one
    process per usable CPU up to one per run; without `fork` this process
    writes them all.  The workers inherit the runs, so only run indexes are
    pickled, and each file gets the bytes `_write_run` writes.  Every worker
    is joined before this returns or raises, and a worker's exception is
    raised here as itself.  A failed write leaves no file of the set: every
    path that is a regular file is removed, after the workers are joined.
    Paths naming one file twice are a ValueError, raised before any is opened.
    """
    if len(paths) != len(data.runs):
        raise ValueError(f"need {len(data.runs)} paths, got {len(paths)}")
    resolved = [os.path.realpath(p) for p in paths]
    repeated = sorted({p for p in resolved if resolved.count(p) > 1})
    if repeated:
        raise ValueError(f"run paths repeat {repeated}")
    # imported here, as only this call needs them: at module level their
    # import time would be paid by every potbet command at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    jobs = list(zip(data.runs, paths))
    forkable = "fork" in multiprocessing.get_all_start_methods()
    n_procs = min(len(jobs), _usable_cpus()) if forkable else 1
    try:
        if n_procs == 1:
            for run, path in jobs:
                _write_run(run, path)
            return
        with ProcessPoolExecutor(n_procs - 1, multiprocessing.get_context("fork"),
                                 initializer=_adopt_jobs, initargs=(jobs,)) as pool:
            futures = [pool.submit(_write_job, i)
                       for i in range(len(jobs)) if i % n_procs]
            for run, path in jobs[::n_procs]:
                _write_run(run, path)
            for future in futures:
                future.result()
    except BaseException:
        for path in paths:  # a partial set must not pass for a whole one
            if os.path.isfile(path):
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_jobs: list = []  # the (run, path) jobs; set only in write_dataset's pool


def _adopt_jobs(jobs: list) -> None:
    global _jobs
    _jobs = jobs


def _write_job(index: int) -> None:
    _write_run(*_jobs[index])


def _write_run(run: GridRun, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        days = run.day_of_year.tolist()
        # one row of Python floats at a time: a whole run's list is 5x its array
        for i, (doy, row) in enumerate(zip(days, run.values), start=1):
            fh.write(f"{run.run_id},{i},{doy},{','.join(map(repr, row.tolist()))}\n")


@dataclass
class OracleFrequency:
    """Brute-force Monte Carlo frequency with its standard error."""

    events_per_run: float
    stderr: float


def ground_truth_frequency(
    spec: SynthSpec,
    target,
    oracle_days: int,
    run_days: int = 60225,
    chunk_days: int = 1_000_000,
) -> OracleFrequency:
    """Brute-force estimate of expected events per run of `run_days` days.

    Simulates `oracle_days` days under the generator defined by `spec`,
    reduces them with `target` (a reduce.TargetSpec) and counts threshold
    crossings.  Independent of the POT pipeline by construction.
    """
    if oracle_days < 10**6:
        raise ValueError("oracle_days must be >= 1e6")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x0AC1E]))
    count = 0
    done = 0
    carry = np.empty(0)  # the previous chunk's last statistic, for consecutive targets
    while done < oracle_days:
        n = min(chunk_days, oracle_days - done)
        y = np.concatenate([rankth_largest(part, target.rank)
                            for part in spec.row_blocks(rng, calendar(n, done))])
        if target.consecutive:
            y = np.concatenate([carry, y])
            carry = y[-1:]
            y = np.minimum(y[:-1], y[1:])  # each day's pair with the day before
        count += int(np.sum(y >= target.event_threshold))
        done += n
    per_run = count / oracle_days * run_days
    stderr = math.sqrt(max(count, 1)) / oracle_days * run_days
    return OracleFrequency(events_per_run=per_run, stderr=stderr)
